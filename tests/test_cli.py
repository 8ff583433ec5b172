import json
import subprocess
import sys

import pytest

from leonard_lab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_malformed_thread_count_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("LEONARD_LAB_THREADS", "abc")
    code, out, err = run_cli(capsys, "search", "--d-max", "2")
    assert code == 64
    assert out == ""
    assert "LEONARD_LAB_THREADS" in err


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


def test_verify_sl2_rejects_even_n(capsys):
    code, _, _ = run_cli(capsys, "verify-sl2", "--kind", "0", "--n", "4")
    assert code == 2


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


def test_search_usage_error_for_missing_lambda_list(capsys):
    code, _, _ = run_cli(capsys, "search", "--d-max", "3", "--lambda-mode", "list")
    assert code == 64


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
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["theta"] == ["2", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        ("params", "--d", "2", "--r", "-1/2", "--s", "-3/4"),
        ("verify-lp", "--d", "2", "--r", "1/2", "--s", "-1/2", "--lambda", "-9/8"),
    ],
)
def test_negative_rationals_accepted_as_separate_tokens(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
