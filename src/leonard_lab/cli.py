"""Command-line front end: every verification as a subcommand with
machine-readable output.

Exit codes: 0 success (including false verdicts), 1 internal inconsistency
(the exhaustive oracle disagreed with the candidate orderings), 2 parameter
domain error, 64 usage (malformed flags, rationals or LEONARD_LAB_THREADS).
Rationals on the command line use the exact p/q form; decimals are rejected.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import racah as racah_mod
from . import sl2mod
from .hyper import RationalFormatError, format_rational, parse_rational
from .leonard import (
    InternalInconsistencyError,
    SearchGrid,
    SettingError,
    canonical_shift,
    is_dual_almost_bipartite,
    report_to_json_dict,
    search_record_to_json_dict,
    search_square_preserving,
    theorem_conditions,
    verify_leonard_pair_square,
)
from .params import ParameterDomainError, build_params, check_closed_forms, to_json_dict
from .representations import (
    eval_table_hypergeometric,
    eval_table_recurrence,
    table_to_csv_text,
    table_to_json_dict,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

_RATIONAL_LIST_PATTERN = re.compile(r"-?\d+(?:/\d+)?(?:,-?\d+(?:/\d+)?)*\Z")
_RATIONAL_FLAGS = {"--r", "--s", "--lambda", "--r-values", "--s-values", "--lambda-values"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _rational_list(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part) for part in text.split(","))


def _preprocess_argv(argv: list[str]) -> list[str]:
    # argparse mistakes "-1/2" for an option; glue rational values onto their
    # flag so both "--r -1/2" and "--r=-1/2" work.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _RATIONAL_FLAGS
            and i + 1 < len(argv)
            and _RATIONAL_LIST_PATTERN.fullmatch(argv[i + 1])
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


def _add_drs(sub_parser):
    sub_parser.add_argument("--d", type=int, required=True)
    sub_parser.add_argument("--r", required=True)
    sub_parser.add_argument("--s", required=True)


def cmd_params(args) -> int:
    p = build_params(args.d, parse_rational(args.r), parse_rational(args.s))
    payload = to_json_dict(p)
    payload["closedFormsMatch"] = check_closed_forms(p)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_table(args) -> int:
    p = build_params(args.d, parse_rational(args.r), parse_rational(args.s))
    table = eval_table_hypergeometric(p)
    routes_agree = table.values == eval_table_recurrence(p).values
    if args.format == "csv":
        text = table_to_csv_text(p, table)
    else:
        payload = table_to_json_dict(p, table)
        payload["routesAgree"] = routes_agree
        text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not routes_agree:
        raise InternalInconsistencyError("evaluation routes disagree")
    return EXIT_OK


def cmd_verify_lp(args) -> int:
    p = build_params(args.d, parse_rational(args.r), parse_rational(args.s))
    shift = parse_rational(args.shift) if args.shift is not None else canonical_shift(p)
    report = verify_leonard_pair_square(p, shift, exhaustive=args.exhaustive)
    payload = report_to_json_dict(p, report)
    r_nonzero, r_plus_s_zero, shift_canonical = theorem_conditions(p, shift)
    payload["theorem"] = {
        "rNonzero": r_nonzero,
        "rPlusSZero": r_plus_s_zero,
        "lambdaCanonical": shift_canonical,
    }
    payload["dualAlmostBipartiteShifted"] = is_dual_almost_bipartite(p, shift)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_verify_racah(args) -> int:
    q = racah_mod.build_racah_params(args.d, parse_rational(args.r))
    p = racah_mod.dual_params(q)
    table = racah_mod.eval_table_4F3(q)
    sigma = racah_mod.index_map(q.d)
    dual_table = eval_table_hypergeometric(p)
    permuted_match = all(
        table.at(i, j) == dual_table.at(i, sigma[j])
        for i in range(q.d + 1)
        for j in range(q.d + 1)
    )
    checks = {
        "indexMapping": racah_mod.check_index_mapping(p, q),
        "unbarredIdentities": racah_mod.check_unbarred_identities(p, q),
        "starredProducts": racah_mod.check_starred_products(p, q),
        "varphi": racah_mod.check_varphi(q),
        "table4F3MatchesPermutedDualHahn": permuted_match,
        "orthogonality": racah_mod.check_racah_orthogonality(q, table),
        "barredRecurrence": racah_mod.check_barred_recurrence(q, table),
        "barredMatrices": racah_mod.check_barred_matrices(p, q),
    }
    payload = {"d": q.d, "r": format_rational(q.r), **checks, "all": all(checks.values())}
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_verify_sl2(args) -> int:
    if args.n % 2 == 0 or args.n < 1:
        raise ParameterDomainError(f"example match needs odd n >= 1, got {args.n}")
    module = sl2mod.build_even_module(args.kind, args.n)
    payload = {
        "kind": args.kind,
        "n": args.n,
        "dim": module.dim,
        "relations": sl2mod.check_module_relations(module),
        "match": sl2mod.verify_example_match(args.kind, args.n),
        "casimirScalar": format_rational(Fraction(args.n) * (args.n + 2) / 2),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_search(args) -> int:
    if args.d_min < 1 or args.d_max < args.d_min:
        raise ParameterDomainError(
            f"need 1 <= d-min <= d-max, got {args.d_min}..{args.d_max}"
        )
    r_values = _rational_list(args.r_values)
    s_values = None
    if args.s_mode == "list":
        if args.s_values is None:
            raise UsageError("--s-mode list requires --s-values")
        s_values = _rational_list(args.s_values)
    shift_values = None
    if args.lambda_mode == "list":
        if args.lambda_values is None:
            raise UsageError("--lambda-mode list requires --lambda-values")
        shift_values = _rational_list(args.lambda_values)
    grid = SearchGrid(
        d_values=tuple(range(args.d_min, args.d_max + 1)),
        r_values=r_values,
        s_values=s_values,
        shift_values=shift_values,
        exhaustive=args.exhaustive,
    )
    for record in search_square_preserving(grid):
        if args.hits_only and not record.report.verdict:
            continue
        print(json.dumps(search_record_to_json_dict(record)))
    return EXIT_OK


def cmd_catalog(args) -> int:
    entries = sl2mod.terwilliger_catalog(args.D)
    payload = {"D": args.D, "modules": sl2mod.catalog_to_json_list(entries)}
    print(json.dumps(payload, indent=2))
    return EXIT_OK


_HANDLERS = {
    "params": cmd_params,
    "table": cmd_table,
    "verify-lp": cmd_verify_lp,
    "verify-racah": cmd_verify_racah,
    "verify-sl2": cmd_verify_sl2,
    "search": cmd_search,
    "catalog": cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_preprocess_argv(argv))
        return _HANDLERS[args.command](args)
    except (UsageError, RationalFormatError, SettingError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParameterDomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
