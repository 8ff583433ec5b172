"""Command-line front end: every verification as a subcommand with
machine-readable output.

All JSON is built here: one encoder turns the library's Fractions, matrices
and dataclasses into p/q strings, row lists and camelCase keys, and every
result goes out through one emit path.

Exit codes: 0 success (including false verdicts, -h/--help, and a reader
closing stdout early, as `| head` does), 1 internal inconsistency (the
exhaustive oracle disagreed, a printed identity is false, or a library check
failed unexpectedly: one line), 2 parameter domain error, 64 usage
(malformed flags or rationals, a repeated or ignored list value, an --output
that cannot be opened, a result or help text that cannot be written to
stdout or --output, a stdout closed from the start).  Rationals on the
command line use the exact p/q form, with no limit on their digits;
decimals are rejected.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import os
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

from . import racah as racah_mod
from . import sl2mod
from .hyper import (
    RationalFormatError, SeriesDivisionError, format_rational, parse_rational,
)
from .leonard import (
    InternalInconsistencyError,
    LeonardPairReport,
    SearchGrid,
    canonical_shift,
    is_dual_almost_bipartite,
    search_square_preserving,
    theorem_conditions,
    verify_leonard_pair_square,
)
from .matrices import RationalMatrix
from .params import (
    ParameterDomainError,
    ParameterInvariantError,
    build_params,
    check_closed_forms,
)
from .representations import eval_table_hypergeometric, eval_table_recurrence, verify_dual_hahn

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

_RATIONAL_FLAGS = {"--r", "--s", "--lambda", "--r-values", "--s-values", "--lambda-values"}


class UsageError(Exception):
    pass


class _HelpShown(Exception):
    """-h/--help has printed the usage text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        # Only the help action gets here (error is overridden above): end in
        # main with exit 0 instead of raising SystemExit out of it.
        raise _HelpShown

    def _print_message(self, message, file=None):
        # Only the help text comes here, bound for stdout.  argparse would
        # swallow a failed write of it; let `_run` report it instead.
        if message:
            _stdout().write(message)


def _rational_list(flag: str, text: str) -> tuple[Fraction, ...]:
    values = tuple([parse_rational(part) for part in text.split(",")])
    seen = set()
    for v in values:
        if v in seen:
            raise UsageError(f"{flag} repeats {format_rational(v)}")
        seen.add(v)
    return values


def _mode_values(name: str, mode: str, text: str | None) -> tuple[Fraction, ...] | None:
    """--{name}-values, which goes with --{name}-mode list and only with it."""
    if (mode == "list") != (text is not None):
        raise UsageError(f"--{name}-values goes with --{name}-mode list, and only with it")
    return _rational_list(f"--{name}-values", text) if text is not None else None


def _preprocess_argv(argv: list[str]) -> list[str]:
    # argparse mistakes "-1/2" or "-1.5,2" for an option; glue onto a
    # rational flag whatever follows it unless that is one of the parser's
    # option strings (`--d-max`, `-h`, `--d=3`), so "--r X" and "--r=X" read
    # alike, errors included.
    options = _option_strings()
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _RATIONAL_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].partition("=")[0] not in options
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="leonard-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="parameter array with closed-form check")
    _add_drs(p_params)

    p_table = sub.add_parser("table", help="value table u_i(theta_j) by both routes")
    _add_drs(p_table)
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.add_argument("--output", "-o", help="write to a file instead of stdout")

    p_verify = sub.add_parser("verify-lp", help="Leonard-pair verdict for the shifted square")
    _add_drs(p_verify)
    p_verify.add_argument("--lambda", dest="shift", default=None, help="shift, p/q (default (r-d)/2)")
    p_verify.add_argument("--exhaustive", action="store_true", help="decide every ordering as an independent oracle")

    p_dual = sub.add_parser("verify-dual-hahn", help="dual Hahn identity suite")
    _add_drs(p_dual)

    p_racah = sub.add_parser("verify-racah", help="barred-array identity suite at s = -r")
    p_racah.add_argument("--d", type=int, required=True)
    p_racah.add_argument("--r", required=True)

    p_sl2 = sub.add_parser("verify-sl2", help="generator-combination match on an odd-degree module")
    p_sl2.add_argument("--kind", type=int, required=True, choices=(0, 1))
    p_sl2.add_argument("--n", type=int, required=True)

    p_search = sub.add_parser("search", help="grid search for square-preserving pairs")
    p_search.add_argument("--d-min", type=int, default=1)
    p_search.add_argument("--d-max", type=int, required=True)
    p_search.add_argument("--r-values", default="1/2,-1/2")
    p_search.add_argument("--s-mode", choices=("neg-r", "list"), default="neg-r")
    p_search.add_argument("--s-values", default=None)
    p_search.add_argument("--lambda-mode", choices=("canonical", "list"), default="canonical")
    p_search.add_argument("--lambda-values", default=None)
    p_search.add_argument("--exhaustive", action="store_true")
    p_search.add_argument("--hits-only", action="store_true")

    p_catalog = sub.add_parser("catalog", help="module catalog for the halved D-cube")
    p_catalog.add_argument("--D", type=int, required=True)

    return parser


# Built on the first call of `main`, not at import, and reused: argparse keeps
# no parse state on the parser.
_parser = functools.cache(build_parser)


@functools.cache
def _option_strings() -> frozenset[str]:
    """Every option string of the parser and of each subcommand's parser."""
    parser = _parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return frozenset(
        option for p in (parser, *commands.choices.values()) for option in p._option_string_actions
    )


def _add_drs(sub_parser):
    sub_parser.add_argument("--d", type=int, required=True)
    sub_parser.add_argument("--r", required=True)
    sub_parser.add_argument("--s", required=True)


# -- output ------------------------------------------------------------------


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(part.capitalize() for part in rest)


def _encode(obj):
    """`json` hook for the library's values: a rational becomes its p/q
    string, a matrix its rows, a dataclass {camelCase(field): value} in field
    order (tuples already encode as lists)."""
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, RationalMatrix):
        return obj.to_rows()
    if is_dataclass(obj):
        return {_camel(f.name): getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} has no JSON form")


# Built once: json.dumps with any option would construct an encoder per call.
_INDENTED = json.JSONEncoder(indent=2, default=_encode)
_ONE_LINE = json.JSONEncoder(default=_encode)


def _json(payload, encoder: json.JSONEncoder = _INDENTED) -> str:
    return encoder.encode(payload) + "\n"


def _stdout():
    """sys.stdout, which Python sets to None when it starts with fd 1 closed:
    then an OSError, as for any stdout that cannot be written."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _emit(text: str, output: str | None = None) -> None:
    """Write a result to stdout, or to the --output file."""
    if output is None:
        _stdout().write(text)
        return
    try:
        fh = open(output, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot open --output {output}: {exc.strerror}") from None
    try:
        with fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --output {output}: {exc.strerror}") from None


def _require(holds: bool, what: str) -> None:
    """After a result is printed: a false identity in it is an inconsistency."""
    if not holds:
        raise InternalInconsistencyError(what)


def _verdict_payload(
    d: int, r: Fraction | str, s: Fraction | str, lam: Fraction | str,
    report: LeonardPairReport, theorem_flags, **details,
) -> dict:
    """The verdict record shared by verify-lp and search; r, s and lam are
    the Fractions or their p/q strings (`format_rational`), and
    command-specific `details` go between the witness and the theorem
    block."""
    return {
        "d": d,
        "r": r,
        "s": s,
        "lambda": lam,
        "verdict": report.verdict,
        "witness": report.witness.perm if report.witness is not None else None,
        **details,
        "theorem": dict(zip(("rNonzero", "rPlusSZero", "lambdaCanonical"), theorem_flags)),
    }


# -- subcommands -------------------------------------------------------------


def cmd_params(args) -> int:
    p = build_params(args.d, parse_rational(args.r), parse_rational(args.s))
    payload = {**_encode(p), "closedFormsMatch": check_closed_forms(p)}
    _emit(_json(payload))
    _require(payload["closedFormsMatch"], "closed forms disagree with the product forms")
    return EXIT_OK


def cmd_table(args) -> int:
    p = build_params(args.d, parse_rational(args.r), parse_rational(args.s))
    table = eval_table_hypergeometric(p)
    routes_agree = table.values == eval_table_recurrence(p).values
    if args.format == "csv":
        # header row of nodes; data row i holds u_i at each node
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["i\\theta_j", *map(format_rational, p.theta)])
        for i in range(p.d + 1):
            writer.writerow([i, *map(format_rational, table.values.row(i))])
        text = buf.getvalue()
    else:
        text = _json({"d": p.d, "r": p.r, "s": p.s, "theta": p.theta,
                      "table": table.values, "routesAgree": routes_agree})
    _emit(text, args.output)
    _require(routes_agree, "evaluation routes disagree")
    return EXIT_OK


def cmd_verify_lp(args) -> int:
    p = build_params(args.d, parse_rational(args.r), parse_rational(args.s))
    shift = parse_rational(args.shift) if args.shift is not None else canonical_shift(p)
    report = verify_leonard_pair_square(p, shift, exhaustive=args.exhaustive)
    payload = _verdict_payload(
        p.d, p.r, p.s, report.shift, report, theorem_conditions(p, shift),
        conditions=dict(report.condition_trace),
        firstFailed=report.first_failed(),
    )
    payload["dualAlmostBipartiteShifted"] = is_dual_almost_bipartite(p, shift)
    _emit(_json(payload))
    return EXIT_OK


def cmd_verify_dual_hahn(args) -> int:
    verdict = verify_dual_hahn(args.d, parse_rational(args.r), parse_rational(args.s))
    _emit(_json({**_encode(verdict), "all": verdict.ok}))
    _require(verdict.ok, "a dual Hahn identity fails")
    return EXIT_OK


def cmd_verify_racah(args) -> int:
    verdict = racah_mod.verify_racah(args.d, parse_rational(args.r))
    _emit(_json({**_encode(verdict), "all": verdict.ok}))
    _require(verdict.ok, "a barred identity fails")
    return EXIT_OK


def cmd_verify_sl2(args) -> int:
    module, match = sl2mod._matched_example(args.kind, args.n)  # decides the domain first
    payload = {
        "kind": args.kind,
        "n": args.n,
        "dim": module.dim,
        "relations": sl2mod.check_module_relations(module),
        "match": match,
        "casimirScalar": module.casimir.at(0, 0),
    }
    _emit(_json(payload))
    _require(payload["relations"] and payload["match"], "an sl2 identity fails")
    return EXIT_OK


def cmd_search(args) -> int:
    if args.d_min < 1 or args.d_max < args.d_min:
        raise ParameterDomainError(
            f"need 1 <= d-min <= d-max, got {args.d_min}..{args.d_max}"
        )
    grid = SearchGrid(
        d_values=tuple(range(args.d_min, args.d_max + 1)),
        r_values=_rational_list("--r-values", args.r_values),
        s_values=_mode_values("s", args.s_mode, args.s_values),
        shift_values=_mode_values("lambda", args.lambda_mode, args.lambda_values),
        exhaustive=args.exhaustive,
    )
    # Each distinct r, s and lambda is formatted once per command, keyed by
    # its reduced integer pair: hashing a Fraction costs more than
    # formatting it.  The lines then hold only strings, ints and bools.
    texts = {}

    def text(value: Fraction) -> str:
        key = value.as_integer_ratio()
        if key not in texts:
            texts[key] = format_rational(value)
        return texts[key]

    for rec in search_square_preserving(grid):
        if args.hits_only and not rec.report.verdict:
            continue
        payload = _verdict_payload(rec.d, text(rec.r), text(rec.s), text(rec.shift),
                                   rec.report, rec.theorem_flags)
        payload["theoremPredicted"] = rec.theorem_predicted
        payload["notes"] = {"squaredFirstOperatorBranch": "unexamined"}
        _emit(_json(payload, _ONE_LINE))
    return EXIT_OK


def cmd_catalog(args) -> int:
    modules = [
        {"kind": e.kind, "n": e.n, "A": e.adjacency_action, "AStar": e.dual_adjacency_action}
        for e in sl2mod.terwilliger_catalog(args.D)
    ]
    _emit(_json({"D": args.D, "modules": modules}))
    return EXIT_OK


_HANDLERS = {
    "params": cmd_params,
    "table": cmd_table,
    "verify-lp": cmd_verify_lp,
    "verify-dual-hahn": cmd_verify_dual_hahn,
    "verify-racah": cmd_verify_racah,
    "verify-sl2": cmd_verify_sl2,
    "search": cmd_search,
    "catalog": cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    # An exact result, or a rational on the command line, may have more
    # digits than int <-> str conversion allows by default (4300): lift the
    # limit while the command runs.
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _silence_stdout() -> None:
    """Point stdout at the null device, so that the interpreter's last flush
    cannot fail again on output that is already lost.  A stdout that was
    closed at start-up (None) has nothing to flush."""
    if sys.stdout is None:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _run(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        try:
            args = parser.parse_args(_preprocess_argv(argv))
            code = _HANDLERS[args.command](args)
        except _HelpShown:
            code = EXIT_OK
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): end quietly, the output
        # that was wanted has been delivered.
        _silence_stdout()
        return EXIT_OK
    except OSError as exc:
        # Only stdout is written here (`_emit` reports --output itself), and
        # a write of it failed: a full disk, say.
        _silence_stdout()
        print(f"usage error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, RationalFormatError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParameterDomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, ParameterInvariantError, SeriesDivisionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
