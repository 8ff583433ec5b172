import contextlib
import errno
import io
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leonard_lab
from leonard_lab import cli, racah, representations, sl2mod
from leonard_lab.cli import main
from leonard_lab.hyper import SeriesDivisionError, format_rational
from leonard_lab.leonard import SearchGrid, search_square_preserving
from leonard_lab.matrices import RationalMatrix
from leonard_lab.params import ParameterInvariantError
from leonard_lab.representations import ValueTable
from test_params import fractions_in


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """Environment for a `python -m leonard_lab` child: the package imported
    here comes first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(pathlib.Path(leonard_lab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_params_success(capsys):
    code, out, _ = run_cli(capsys, "params", "--d", "2", "--r", "1/2", "--s", "-1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"] == "16/5"
    assert payload["closedFormsMatch"] is True
    assert payload["kStar"] == ["1", "9/5", "2/5"]


def test_params_domain_error(capsys):
    code, _, err = run_cli(capsys, "params", "--d", "2", "--r", "-2", "--s", "0")
    assert code == 2
    assert "-1" in err  # message names the violated bound


def test_params_d0(capsys):
    code, out, _ = run_cli(capsys, "params", "--d", "0", "--r", "1/4", "--s", "1/4")
    assert code == 0
    assert json.loads(out)["nu"] == "1"


def test_malformed_rational_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "params", "--d", "2", "--r", "0.5", "--s", "0")
    assert code == 64
    assert "usage" in err


def test_missing_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "params", "--d", "2", "--r", "1/2")
    assert code == 64


def test_verify_lp_theorem_instance(capsys):
    code, out, _ = run_cli(capsys, "verify-lp", "--d", "3", "--r", "1/2", "--s", "-1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["lambda"] == "-5/4"  # canonical default
    assert payload["witness"] == [0, 2, 3, 1]
    assert payload["theorem"] == {
        "rNonzero": True,
        "rPlusSZero": True,
        "lambdaCanonical": True,
    }
    assert payload["dualAlmostBipartiteShifted"] is True


def test_verify_lp_converse(capsys):
    code, out, _ = run_cli(capsys, "verify-lp", "--d", "3", "--r", "1/2", "--s", "-1/4")
    assert code == 0
    assert json.loads(out)["verdict"] is False


def test_verify_lp_d1_minus_half(capsys):
    code, out, _ = run_cli(
        capsys, "verify-lp", "--d", "1", "--r", "1/4", "--s", "1/4",
        "--lambda", "-1/2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["firstFailed"] is not None


def test_verify_lp_exhaustive(capsys):
    code, out, _ = run_cli(
        capsys, "verify-lp", "--d", "4", "--r", "-1/2", "--s", "1/2", "--exhaustive"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["conditions"]["exhaustive permutation oracle agrees with candidates"] is True


def test_verify_lp_exhaustive_beyond_d8(capsys):
    code, out, _ = run_cli(
        capsys, "verify-lp", "--d", "10", "--r", "1/2", "--s", "-1/2", "--exhaustive"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["conditions"]["exhaustive permutation oracle agrees with candidates"] is True


@pytest.mark.parametrize("value", ["2", "abc", "0"])
def test_search_ignores_the_old_thread_setting(capsys, monkeypatch, value):
    # search runs in one process, so the retired worker-count variable
    # changes nothing, whatever its value.
    argv = ("search", "--d-max", "4", "--r-values", "1/2,-1/3", "--lambda-mode", "list",
            "--lambda-values", "0,-1")
    monkeypatch.delenv("LEONARD_LAB_THREADS", raising=False)
    expected = run_cli(capsys, *argv)
    monkeypatch.setenv("LEONARD_LAB_THREADS", value)
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0 and expected[1]


def test_cli_import_loads_no_process_machinery():
    # The CLI evaluates in one process: a pool's modules would only add
    # memory and start-up time to every command.
    code = ("import sys, leonard_lab.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_table_json_and_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "table", "--d", "1", "--r", "1/2", "--s", "-1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == [["1", "1"], ["1", "-3"]]
    assert payload["routesAgree"] is True

    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "table", "--d", "1", "--r", "1/2", "--s", "-1/2",
        "--format", "csv", "--output", str(target),
    )
    assert code == 0
    assert target.read_text().splitlines()[2] == "1,1,-3"


def test_verify_dual_hahn(capsys):
    code, out, _ = run_cli(capsys, "verify-dual-hahn", "--d", "4", "--r", "1/2", "--s", "-1/2")
    assert code == 0
    assert json.loads(out) == {
        "d": 4, "r": "1/2", "s": "-1/2", "closedFormsMatch": True, "routesAgree": True,
        "topRow": True, "differenceEquation": True, "orthogonality": True, "all": True,
    }


def test_verify_dual_hahn_domain(capsys):
    code, out, err = run_cli(capsys, "verify-dual-hahn", "--d", "3", "--r", "1/2", "--s", "-1")
    assert (code, out) == (2, "")
    assert err == "domain error: s must exceed -1, got -1\n"


def test_verify_racah(capsys):
    code, out, _ = run_cli(capsys, "verify-racah", "--d", "4", "--r", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["all"] is True
    assert payload["orthogonality"] is True


def test_verify_racah_domain(capsys):
    code, _, _ = run_cli(capsys, "verify-racah", "--d", "4", "--r", "3/2")
    assert code == 2


def test_verify_sl2(capsys):
    code, out, _ = run_cli(capsys, "verify-sl2", "--kind", "0", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["relations"] is True
    assert payload["casimirScalar"] == "15/2"


def test_verify_sl2_rejects_even_n(capsys, monkeypatch):
    # An even n, and an n below the kind, are domain errors of the library:
    # exit 2, never an internal inconsistency, decided before any module
    # relation is checked.
    def unreachable(module):
        raise AssertionError(f"relations checked at n = {module.n}")

    monkeypatch.setattr(sl2mod, "check_module_relations", unreachable)
    for kind, n in ((0, 4), (0, 0), (1, 0), (1, 2), (0, -1)):
        code, out, err = run_cli(capsys, "verify-sl2", "--kind", str(kind), "--n", str(n))
        assert (code, out) == (2, ""), (kind, n, err)
        assert err.startswith("domain error: "), (kind, n, err)


def test_search_canonical_only_theorem_hits(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--d-min", "3", "--d-max", "6", "--lambda-mode", "canonical"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 8  # 4 d values x 2 default r values
    assert all(rec["verdict"] for rec in lines)
    assert all(rec["theoremPredicted"] for rec in lines)
    assert all(rec["notes"] == {"squaredFirstOperatorBranch": "unexamined"} for rec in lines)
    keys = [(rec["d"], rec["r"]) for rec in lines]
    assert keys == sorted(keys)


def test_search_d2_extra_root(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--d-min", "2", "--d-max", "2", "--r-values", "1/2",
        "--lambda-mode", "list", "--lambda-values", "-9/8,0", "--hits-only",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 1
    assert lines[0]["lambda"] == "-9/8"
    assert lines[0]["theoremPredicted"] is False


_GRID_VALUES = fractions_in(-1, 3, 6).filter(lambda x: x > -1)


@st.composite
def _shared_value_grids(draw):
    """A list-mode search grid at d <= 5 in which one rational is an r, an s
    and a lambda at once, with up to two more values of each, drawn with
    or without --hits-only and --exhaustive; returns (argv, grid, hits_only)."""
    shared = draw(_GRID_VALUES)

    def values():
        return tuple(dict.fromkeys([shared, *draw(st.lists(_GRID_VALUES, max_size=2))]))

    d_max = draw(st.integers(1, 5))
    grid = SearchGrid(d_values=tuple(range(1, d_max + 1)), r_values=values(),
                      s_values=values(), shift_values=values(), exhaustive=draw(st.booleans()))
    hits_only = draw(st.booleans())
    argv = ["search", "--d-max", str(d_max), "--s-mode", "list", "--lambda-mode", "list"]
    for flag, listed in (("--r-values", grid.r_values), ("--s-values", grid.s_values),
                         ("--lambda-values", grid.shift_values)):
        argv.append(f"{flag}={','.join(map(format_rational, listed))}")
    argv += ["--exhaustive"] * grid.exhaustive + ["--hits-only"] * hits_only
    return argv, grid, hits_only


def _printed_records(grid, hits_only):
    return [rec for rec in search_square_preserving(grid)
            if rec.report.verdict or not hits_only]


def _search_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@settings(deadline=None, max_examples=40)
@given(_shared_value_grids())
def test_search_lines_are_the_generic_encoding_of_its_records(case):
    # search hands r, s and lambda to the encoder as strings, formatted once
    # per command; each line is still what the generic encoder makes of the
    # record's Fractions.
    argv, grid, hits_only = case
    expected = []
    for rec in _printed_records(grid, hits_only):
        payload = cli._verdict_payload(rec.d, rec.r, rec.s, rec.shift, rec.report,
                                       rec.theorem_flags)
        payload["theoremPredicted"] = rec.theorem_predicted
        payload["notes"] = {"squaredFirstOperatorBranch": "unexamined"}
        expected.append(cli._json(payload, cli._ONE_LINE))
    assert _search_stdout(argv) == (0, "".join(expected))


@settings(deadline=None, max_examples=40)
@given(_shared_value_grids())
def test_search_formats_each_rational_once_per_command(case):
    argv, grid, hits_only = case
    printed = {value for rec in _printed_records(grid, hits_only)
               for value in (rec.r, rec.s, rec.shift)}
    formatted = Counter()

    def counting(value):
        formatted[value] += 1
        return format_rational(value)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "format_rational", counting)
        code, _ = _search_stdout(argv)
    assert code == 0
    assert formatted == Counter(printed)


def test_search_domain_error_prints_no_record(capsys):
    # s = -r = -1 at r = 1, a point that sorts after valid ones
    code, out, err = run_cli(capsys, "search", "--d-max", "3", "--r-values", "1/2,1")
    assert code == 2
    assert out == ""
    assert "s must exceed -1" in err


def test_search_usage_error_for_missing_lambda_list(capsys):
    code, _, _ = run_cli(capsys, "search", "--d-max", "3", "--lambda-mode", "list")
    assert code == 64


@pytest.mark.parametrize(
    "argv, named",
    [
        (("--lambda-values", "-9/8,0"), "--lambda-values"),
        (("--lambda-mode", "canonical", "--lambda-values", "0"), "--lambda-values"),
        (("--s-values", "1/2"), "--s-values"),
        (("--r-values", "1/2,1/2"), "--r-values repeats 1/2"),
        (("--r-values", "1/2,2/4"), "--r-values repeats 1/2"),
        (("--s-mode", "list", "--s-values", "-1/2,1/3,-2/4"), "--s-values repeats -1/2"),
        (("--lambda-mode", "list", "--lambda-values", "0,-9/8,0/3"),
         "--lambda-values repeats 0"),
        # 1/3 comes first, but 1/2 is the first value that repeats
        (("--r-values", "1/3,1/2,2/3,2/4,1/3,1/2"), "--r-values repeats 1/2"),
    ],
)
def test_search_rejects_ignored_or_repeated_values(capsys, argv, named):
    code, out, err = run_cli(capsys, "search", "--d-max", "2", *argv)
    assert code == 64
    assert out == ""
    assert named in err


def _false(*args, **kwargs):
    return False


def _identity_table(p):
    return ValueTable(RationalMatrix.diagonal([1] * (p.d + 1)))


@pytest.mark.parametrize(
    "argv, owner, name, replacement, key",
    [
        (("table", "--d", "2", "--r", "1/2", "--s", "-1/2"),
         cli, "eval_table_recurrence", _identity_table, "routesAgree"),
        (("params", "--d", "2", "--r", "1/2", "--s", "-1/2"),
         cli, "check_closed_forms", _false, "closedFormsMatch"),
        (("verify-dual-hahn", "--d", "3", "--r", "1/2", "--s", "-1/2"),
         representations, "check_top_row", _false, "all"),
        (("verify-racah", "--d", "3", "--r", "1/2"), racah, "check_varphi", _false, "all"),
        (("verify-sl2", "--kind", "0", "--n", "3"),
         sl2mod, "check_module_relations", _false, "relations"),
        (("verify-sl2", "--kind", "1", "--n", "3"),
         sl2mod, "verify_example_match", _false, "match"),
    ],
    ids=["table", "params", "verify-dual-hahn", "verify-racah", "verify-sl2 relations",
         "verify-sl2 match"],
)
def test_false_identity_exits_1_after_its_json(capsys, monkeypatch, argv, owner, name,
                                               replacement, key):
    monkeypatch.setattr(owner, name, replacement)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)[key] is False
    assert err.startswith("internal inconsistency:")
    assert err.count("\n") == 1


def test_catalog(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--D", "3")
    assert code == 0
    payload = json.loads(out)
    assert [(m["kind"], m["n"]) for m in payload["modules"]] == [(0, 3), (1, 1)]


def test_internal_inconsistency_maps_to_exit_1(capsys, monkeypatch):
    from leonard_lab import cli
    from leonard_lab.leonard import InternalInconsistencyError

    def boom(*args, **kwargs):
        raise InternalInconsistencyError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "verify_leonard_pair_square", boom)
    code, _, err = run_cli(capsys, "verify-lp", "--d", "2", "--r", "1/2", "--s", "-1/2")
    assert code == 1
    assert "inconsistency" in err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "leonard_lab", "params", "--d", "1", "--r", "1/2", "--s", "-1/2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["theta"] == ["2", "0"]


@pytest.mark.parametrize(
    "argv",
    [("--help",), ("-h",), ("verify-lp", "-h"), ("search", "--d-max", "2", "--help")],
    ids=["--help", "-h", "verify-lp -h", "search --help"],
)
def test_help_returns_zero_with_usage_on_stdout(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: leonard-lab")
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("params", "--d", "2", "--r", "-1/2", "--s", "-3/4"),
        ("verify-lp", "--d", "2", "--r", "1/2", "--s", "-1/2", "--lambda", "-9/8"),
        ("search", "--d-max", "2", "--r-values", "-1/2,+1/3"),
    ],
)
def test_negative_rationals_accepted_as_separate_tokens(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0


_COMMAND_OF_FLAG = {
    "--r": ("params", "--d", "2", "--s", "1/2"),
    "--s": ("params", "--d", "2", "--r", "1/2"),
    "--lambda": ("verify-lp", "--d", "2", "--r", "1/2", "--s", "-1/2"),
    "--r-values": ("search", "--d-max", "2"),
    "--s-values": ("search", "--d-max", "2", "--s-mode", "list"),
    "--lambda-values": ("search", "--d-max", "2", "--lambda-mode", "list"),
}
# Each value signed or not, lists with a "+" part, and malformed values that
# open with a p/q rational, look like a negative decimal or like an option.
_SEPARABLE_VALUES = ["-1/2,+1/3", "+1/3,-1/2", "+1/2,-1/3", "-1", "-1/2", "+1/4", "1/2",
                     "-1/2,", "-1/2,-1/2", "-1/2,x", "-1/0", "-1.5", "-1.5,2", "-x"]


@pytest.mark.parametrize("value", _SEPARABLE_VALUES)
@pytest.mark.parametrize("flag", sorted(_COMMAND_OF_FLAG))
def test_a_value_reads_alike_with_or_without_the_equals_sign(capsys, flag, value):
    command = _COMMAND_OF_FLAG[flag]
    assert run_cli(capsys, *command, flag, value) == run_cli(capsys, *command, f"{flag}={value}")


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "table", "--d", "1", "--r", "1/2", "--s", "-1/2", "--output", str(target)
    )
    assert code == 64
    assert out == ""
    assert str(target) in err
    assert "Traceback" not in err


def test_catalog_below_one_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "catalog", "--D", "0")
    assert code == 2
    assert out == ""
    assert "D >= 1" in err


@pytest.mark.parametrize(
    "error",
    [
        ValueError("forced plain ValueError"),
        ParameterInvariantError("forced invariant failure"),
        SeriesDivisionError(2, Fraction(-1)),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_library_failure_maps_to_exit_1(capsys, monkeypatch, error):
    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "verify_leonard_pair_square", boom)
    code, out, err = run_cli(capsys, "verify-lp", "--d", "2", "--r", "1/2", "--s", "-1/2")
    assert code == 1
    assert out == ""
    assert err.startswith("internal error:")
    assert err.count("\n") == 1  # one line, no traceback


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "destination, unbuffered",
    [("stdout", False), ("stdout", True), ("--output", False), ("help", False), ("help", True)],
    ids=["stdout", "stdout-unbuffered", "output", "help", "help-unbuffered"],
)
def test_failed_write_of_the_result_is_one_line_and_exit_64(destination, unbuffered):
    # /dev/full fails every write with ENOSPC: buffered stdout fails at the
    # last flush, unbuffered stdout and a file at the write itself.  The
    # help text goes to stdout like a result.
    argv = ["--help"] if destination == "help" else ["table", "--d", "2", "--r", "1/2", "--s", "1/2"]
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        if destination != "--output":
            stdout = full
        else:
            stdout, argv = subprocess.PIPE, argv + ["--output", "/dev/full"]
        proc = subprocess.run([sys.executable, "-m", "leonard_lab", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert proc.returncode == 64
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    named = "--output /dev/full" if destination == "--output" else "stdout"
    assert proc.stderr == f"usage error: cannot write {named}: {os.strerror(errno.ENOSPC)}\n"
    if destination == "--output":
        assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [("params", "--d", "1", "--r", "1/2", "--s", "0"), ("--help",)],
    ids=["params", "help"],
)
def test_closed_stdout_is_one_line_and_exit_64(argv):
    # With fd 1 closed at start-up, Python sets sys.stdout to None.
    proc = subprocess.run([sys.executable, "-m", "leonard_lab", *argv],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                          text=True, env=child_env(), timeout=60)
    assert proc.returncode == 64
    assert proc.stderr == f"usage error: cannot write stdout: {os.strerror(errno.EBADF)}\n"


def test_closed_stdout_is_no_error_when_the_result_goes_to_output(tmp_path):
    target = tmp_path / "table.json"
    argv = ["table", "--d", "1", "--r", "1/2", "--s", "0", "--output", str(target)]
    proc = subprocess.run([sys.executable, "-m", "leonard_lab", *argv],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                          text=True, env=child_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(target.read_text())["d"] == 1


def test_rationals_beyond_the_int_string_digit_limit(capsys):
    # 4400 digits are past the 4300 that int <-> str conversion allows by
    # default; main lifts the limit while it runs and restores it after.
    r = "1/" + "9" * 4400
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run_cli(capsys, "params", "--d", "1", "--r", r, "--s", "0")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["r"] == r and payload["closedFormsMatch"] is True
    assert run_cli(capsys, "params", "--d", "1", "--r", "-" + r[2:], "--s", "0")[0] == 2
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "argv",
    [
        ("params", "--d", "2", "--r", "1/2", "--s", "-1/2"),
        ("search", "--d-max", "4", "--r-values", "1/2,1/3,1/4"),
        ("--help",),
    ],
    ids=["params", "search", "help"],
)
def test_closed_stdout_pipe_exits_quietly(argv):
    # A pipe whose read end is already closed, as after `| head` has exited:
    # the first write fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "leonard_lab", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


# -- argv fuzzing ------------------------------------------------------------

_SUBCOMMANDS = ["params", "table", "verify-lp", "verify-dual-hahn", "verify-racah", "verify-sl2",
                "search", "catalog"]
_GOOD_RATIONALS = ["0", "1", "-1", "2", "1/2", "-1/2", "1/3", "-3/4", "5/2", "+1/4", "-9/8"]
_BAD_RATIONALS = ["0.5", "1/0", "abc", "", "1//2", "1/2/3", "-", "1/-2", "1e3"]
_RATIONAL_LISTS = ["1/2,-1/3", "1/2,-1/2,1/4", "-1/2,", "1/2,,0", "0,1/0", "-1/2,+1/3",
                   "+1/2,-1/3"]
_SMALL_INTS = [str(i) for i in range(7)]
_VALUES = {
    "--d": _SMALL_INTS, "--d-min": _SMALL_INTS, "--d-max": _SMALL_INTS,
    "--kind": _SMALL_INTS, "--D": [str(i) for i in range(10)], "--n": [str(i) for i in range(10)],
    "--r": _GOOD_RATIONALS + _BAD_RATIONALS, "--s": _GOOD_RATIONALS + _BAD_RATIONALS,
    "--lambda": _GOOD_RATIONALS + _BAD_RATIONALS,
    "--r-values": _GOOD_RATIONALS + _BAD_RATIONALS + _RATIONAL_LISTS,
    "--s-values": _GOOD_RATIONALS + _BAD_RATIONALS + _RATIONAL_LISTS,
    "--lambda-values": _GOOD_RATIONALS + _BAD_RATIONALS + _RATIONAL_LISTS,
    "--format": ["json", "csv", "xml"], "--s-mode": ["neg-r", "list", "both"],
    "--lambda-mode": ["canonical", "list", "none"],
}
_SWITCHES = ["--exhaustive", "--hits-only"]
_FLAGS = {
    "params": ["--d", "--r", "--s"],
    "table": ["--d", "--r", "--s", "--format"],
    "verify-lp": ["--d", "--r", "--s", "--lambda", "--exhaustive"],
    "verify-dual-hahn": ["--d", "--r", "--s"],
    "verify-racah": ["--d", "--r"],
    "verify-sl2": ["--kind", "--n"],
    "search": ["--d-min", "--d-max", "--r-values", "--s-mode", "--s-values",
               "--lambda-mode", "--lambda-values", "--exhaustive", "--hits-only"],
    "catalog": ["--D"],
}


def _item(flag):
    """One flag as argv tokens: a switch alone, a value as "--f v" or "--f=v".
    Malformed values are drawn a quarter as often as good ones."""
    if flag in _SWITCHES:
        return st.just([flag])
    values = _VALUES[flag]
    good = [v for v in values if v not in _BAD_RATIONALS]
    bad = [v for v in values if v in _BAD_RATIONALS]
    value = st.sampled_from(good * 4 + bad)
    return st.one_of(value.map(lambda v: [flag, v]), value.map(lambda v: [f"{flag}={v}"]))


_NOISE = st.one_of(
    st.sampled_from(sorted(_VALUES) + _SWITCHES).flatmap(_item),
    st.sampled_from(_SUBCOMMANDS + _SMALL_INTS + _BAD_RATIONALS + ["-h", "--help"]).map(
        lambda t: [t]
    ),
)


@st.composite
def _argv(draw):
    """A subcommand with most of its own flags, in any order, plus at most
    two stray items; now and then the subcommand itself is a stray token."""
    first = draw(st.sampled_from(_SUBCOMMANDS * 8 + ["--d", "1/2", "", "-h"]))
    items = [
        draw(_item(flag))
        for flag in _FLAGS.get(first, [])
        if draw(st.integers(0, 9)) > 0  # each flag dropped one time in ten
    ]
    items += draw(st.lists(_NOISE, max_size=2))
    items = draw(st.permutations(items))
    return [first] + [tok for item in items for tok in item]


@settings(deadline=None, max_examples=300)
@given(_argv())
def test_fuzzed_argv_keeps_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {0, 1, 2, 64}, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and ("-h" in argv or "--help" in argv):
        assert out.getvalue().startswith("usage: leonard-lab"), argv
        return
    if code != 0 or "csv" in argv or any(tok.endswith("=csv") for tok in argv):
        return
    if argv[0] == "search":
        for line in out.getvalue().splitlines():
            json.loads(line)
    else:
        json.loads(out.getvalue())
