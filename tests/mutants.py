"""The mutation register: small edits to `src/` that named tests must catch.

Each mutant is one exact `old -> new` edit of one file of the package, the
test node ids that must each fail once it is applied, and a line on why it
matters.  The runner copies `src/`, `tests/` and the pytest configuration
(`conftest.py`, `pyproject.toml`) to a temporary directory, runs every named
test once on the unmutated copy (they must pass), then for each mutant
applies its edit, runs only its tests and restores the file.  It exits 1 if
a mutant survives (a named test passes), if an `old` snippet is missing or
not unique (the register is stale), or if the unmutated run fails; else 0.

    python tests/mutants.py

The file name does not match `test_*`, so the test suite does not collect
it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/leonard_lab"


@dataclass(frozen=True)
class Mutant:
    file: str  # relative to the package
    old: str
    new: str
    tests: tuple[str, ...]
    why: str


_CLOSED_FORM_ORACLE = ("tests/test_leonard.py::"
                       "test_integer_closed_form_equals_the_fraction_oracle_and_the_dense_square")
_CLOSED_FORM_SWEEP = "tests/test_leonard.py::test_shift_square_matches_closed_form_and_column_sums"
_GENERAL_FACTS = "tests/test_leonard.py::test_of_array_reads_each_general_fact_from_the_array"
_DUAL_FIELDS = "tests/test_representations.py::test_each_dual_hahn_field_is_decided_by_its_own_check"
_RACAH_FIELDS = "tests/test_racah.py::test_each_racah_field_is_decided_by_its_own_check"

MUTANTS = (
    Mutant(
        "leonard.py",
        "num, den = -(n * q1 + n1 * q), 2 * q * q1",
        "num, den = n * q1 + n1 * q, 2 * q * q1",
        ("tests/test_leonard.py::test_middle_roots_of_the_completed_a_star_equal_the_one_sweep_oracle",
         "tests/test_leonard.py::test_banded_decision_equals_dense_route"),
        "every middle-factor root, and so every search ordering, comes from this one sign",
    ),
    Mutant(
        "leonard.py",
        "x = x * M + LE",
        "x = x * M",
        ("tests/test_leonard.py::test_the_oracle_squares_the_dense_matrix_over_one_denominator",
         "tests/test_cli.py::test_verify_lp_exhaustive"),
        "the exhaustive oracle squares L* + shift; without the shift it sees other middle "
        "factors vanish and raises on a true verdict",
    ),
    Mutant(
        "params.py",
        "if r.numerator <= -r.denominator:",
        "if r.numerator < -r.denominator:",
        ("tests/test_params.py::test_check_domain_decides_like_the_fraction_comparison",),
        "r = -1 is outside the dual Hahn domain; the integer-pair test must keep it out",
    ),
    Mutant(
        "params.py",
        "if s.numerator <= -s.denominator:",
        "if s.numerator < -s.denominator:",
        ("tests/test_params.py::test_check_domain_decides_like_the_fraction_comparison",),
        "s = -1 is outside the dual Hahn domain; the integer-pair test must keep it out",
    ),
    Mutant(
        "hyper.py",
        r'_RATIONAL_PATTERN = re.compile(r"[+-]?\d+(?:/\d+)?\Z")',
        r'_RATIONAL_PATTERN = re.compile(r"-?\d+(?:/\d+)?\Z")',
        ("tests/test_hyper.py::test_rational_codec_round_trip",
         "tests/test_cli.py::test_negative_rationals_accepted_as_separate_tokens"),
        "one p/q grammar serves parse_rational and the CLI; a '+' sign is part of it",
    ),
    Mutant(
        "matrices.py",
        "        den *= other_den\n",
        "",
        ("tests/test_matrices.py::test_matmul_scales_each_operand_by_its_own_denominator",),
        "a product's denominator is the product of both operands' common denominators",
    ),
    Mutant(
        "matrices.py",
        "return [[(j, n * (den // q)) for j, (n, q) in row if n] for row in ratios], den",
        "return [[(j, n) for j, (n, q) in row if n] for row in ratios], den",
        ("tests/test_matrices.py::test_matmul_scales_each_operand_by_its_own_denominator",),
        "each entry must be put over the matrix's common denominator before integer sums",
    ),
    Mutant(
        "matrices.py",
        "for k, a in row:",
        "for k, a in row[:-1]:",
        ("tests/test_matrices.py::test_matmul_reads_the_last_nonzero_of_each_row",),
        "the sparse product must read every nonzero of a left row",
    ),
    Mutant(
        "matrices.py",
        "for j, b in right[k]:",
        "for j, b in right[k][:-1]:",
        ("tests/test_matrices.py::test_matmul_reads_the_last_nonzero_of_each_row",),
        "the sparse product must read every nonzero of a right row",
    ),
    Mutant(
        "matrices.py",
        "                if v:\n",
        "                if v is not None:\n",
        ("tests/test_matrices.py::test_matmul_shares_one_zero_for_cancelled_and_empty_entries",),
        "a cancelled sum must be the one shared zero, not a fresh Fraction(0)",
    ),
    Mutant(
        "leonard.py",
        "num = tn * tn * (den // sq) + prev[0] * (den // prev[1]) + term[0] * (den // term[1])",
        "num = tn * tn * (den // sq) + term[0] * (den // term[1])",
        (_CLOSED_FORM_ORACLE, _CLOSED_FORM_SWEEP),
        "a diagonal entry of the closed form sums three terms, b*_{i-1} c*_i among them",
    ),
    Mutant(
        "leonard.py",
        "mn, mq = (2 * ln * aq + an * ld) * aq1",
        "mn, mq = (ln * aq + an * ld) * aq1",
        (_CLOSED_FORM_ORACLE, _CLOSED_FORM_SWEEP),
        "the middle factor 2 lambda + a*_i + a*_{i+1} carries the shift twice",
    ),
    Mutant(
        "leonard.py",
        "(cn, cq), (cn2, cq2) = c[i + 1], c[i + 2]",
        "(cn, cq), (cn2, cq2) = b[i + 1], c[i + 2]",
        (_CLOSED_FORM_ORACLE, _CLOSED_FORM_SWEEP),
        "the entry two above the diagonal is c*_{i+1} c*_{i+2}, with no b* in it",
    ),
    Mutant(
        "representations.py",
        "    if memo is None or memo[0] is not p:\n",
        "    if memo is None:\n",
        ("tests/test_representations.py::"
         "test_one_table_checked_against_two_arrays_gets_each_arrays_verdict",),
        "a table's recurrence verdict belongs to the array it was decided for",
    ),
    Mutant(
        "hyper.py",
        "    if not _terminates(nums, terms):\n        raise _nonterminating(terms)\n"
        "    if not terms or (0, 1) in nums:\n        return _ONE\n",
        "    if not terms or (0, 1) in nums:\n        return _ONE\n"
        "    if not _terminates(nums, terms):\n        raise _nonterminating(terms)\n",
        ("tests/test_hyper.py::test_hypergeom_checks_come_in_order_before_the_sum_of_one",),
        "the sum of one is returned only after the termination test has passed",
    ),
    Mutant(
        "sl2mod.py",
        "for weight, x in ((4, m.e_sq), (-4, m.f_sq)):",
        "for weight, x in ((-4, m.e_sq), (4, m.f_sq)):",
        ("tests/test_sl2mod.py::test_module_relations",
         "tests/test_sl2mod.py::test_module_relations_match_the_dense_oracle"),
        "H raises the weight of E^2 by 4 and lowers that of F^2 by 4, not the reverse",
    ),
    Mutant(
        "sl2mod.py",
        "base, den = (n * (n + 2) * shift_den - 2 * shift) * p, 2 * q * shift_den",
        "base, den = (n * (n + 2) * shift_den - shift) * p, 2 * q * shift_den",
        ("tests/test_sl2mod.py::test_generator_combination_matches_the_dense_oracle",
         "tests/test_sl2mod.py::test_catalog_matches_the_dense_oracle"),
        "the combination's diagonal takes the shift over the same 2Q as n(n+2) and h_i^2",
    ),
    Mutant(
        "sl2mod.py",
        "_ratio(n - 2 * kind - x, 4)",
        "_ratio(n - x, 4)",
        ("tests/test_sl2mod.py::test_second_matrix_is_diagonal_0_to_d",),
        "the example's second matrix is (n - H)/4 - kind/2; a kind-1 module starts at w_1",
    ),
    Mutant(
        "sl2mod.py",
        "_ratio(half_ef(x - 2 * q, q, 1) * half_ef(x, q, 1), den)",
        "_ratio(half_ef(x - 2 * q, q, -1) * half_ef(x, q, -1), den)",
        ("tests/test_sl2mod.py::test_module_relations",
         "tests/test_sl2mod.py::test_module_relations_match_the_dense_oracle"),
        "E^2 F^2 is the polynomial with +H in both factors; -H belongs to F^2 E^2",
    ),
    Mutant(
        "leonard.py",
        "        facts.theta_simple = len({v.as_integer_ratio() for v in p.theta}) == d + 1\n",
        "",
        (_GENERAL_FACTS,),
        "a built array's theta may repeat; only the invariant test lets a run assume it simple",
    ),
    Mutant(
        "leonard.py",
        "        facts.u_irreducible = all(p.b[:d]) and all(p.c[1:])\n",
        "",
        (_GENERAL_FACTS,),
        "a built array may have a zero b or c; only the invariant test lets a run assume none",
    ),
    Mutant(
        "leonard.py",
        "        facts.theta_star_is_index = (\n"
        "            facts.theta_star_den == 1 and facts.theta_star == list(range(d + 1)))\n",
        "",
        (_GENERAL_FACTS, "tests/test_leonard.py::test_integer_verdict_on_barred_arrays"),
        "a barred theta* is not the index, so the O(1) diagonal rule must not decide it",
    ),
    Mutant(
        "leonard.py",
        "        facts.cut = not (all(p.b_star[:d]) and all(p.c_star[1:]))\n",
        "",
        (_GENERAL_FACTS,),
        "a zero b* or c* of a built array cuts every path; no candidate ordering may win",
    ),
    Mutant(
        "leonard.py",
        "1 <= -2 * L // M <= 2 * d - 1",
        "1 <= -2 * L // M <= 2 * d - 2",
        (_GENERAL_FACTS, "tests/test_leonard.py::test_a_dual_hahn_shift_runs_no_per_index_loop"),
        "(d - 1 + shift)^2 == (d + shift)^2 at shift = -(2d - 1)/2, the last collision",
    ),
    # One mutant per field of the dual Hahn verdict, in the check that
    # decides it, and one in its conjunction.
    Mutant(
        "params.py",
        "    if differs(p.nu, top, rising(D + R, d)):\n        return False\n",
        "",
        (_DUAL_FIELDS,),
        "closed_forms_match: nu has a closed form of its own, (d+r+s+1)_d / (r+1)_d",
    ),
    Mutant(
        "representations.py",
        "routes_agree=table.values == eval_table_recurrence(p).values,",
        "routes_agree=table.values == eval_table_hypergeometric(p).values,",
        (_DUAL_FIELDS,),
        "routes_agree: the table is compared with the recurrence route, not with a 3F2 table",
    ),
    Mutant(
        "representations.py",
        "return _three_term_holds(table.int_columns, p.theta, p.a, p.b, p.c, (p.d,))",
        "return _three_term_holds(table.int_columns, p.theta, p.a, p.b, p.c, (p.d - 1,))",
        (_DUAL_FIELDS,),
        "top_row: row d, which no recurrence step builds, is the one that closes the system",
    ),
    Mutant(
        "representations.py",
        "p.a_star, p.b_star, p.c_star, range(p.d + 1))",
        "p.a_star, p.b_star, p.c_star, range(p.d))",
        (_DUAL_FIELDS,),
        "difference_equation: the last column, where b*_d = 0 drops a term, is tested too",
    ),
    Mutant(
        "representations.py",
        "        if Fraction(norm, den * den * weights_den) != p.nu / p.k[i]:\n"
        "            return False\n",
        "",
        (_DUAL_FIELDS,),
        "orthogonality: each row's norm must be nu / k_i, not only the cross sums zero",
    ),
    Mutant(
        "representations.py",
        "return all(getattr(self, f.name) for f in fields(self)[3:])",
        "return all(getattr(self, f.name) for f in fields(self)[4:])",
        (_DUAL_FIELDS,),
        "ok: the conjunction takes every identity field, closed_forms_match first",
    ),
    # One mutant per field of the Racah verdict, in the check that decides
    # it, one in its conjunction and one more on the values field.
    Mutant(
        "racah.py",
        "    return all(\n        q.theta_star[i] == (p.theta_star[i] + half_shift) ** 2",
        "    return any(\n        q.theta_star[i] == (p.theta_star[i] + half_shift) ** 2",
        (_RACAH_FIELDS,),
        "index_mapping: every bar_theta*_i is the shifted square of theta*_i, not one of them",
    ),
    Mutant(
        "racah.py",
        "q.k == p.k and q.nu == p.nu",
        "q.k == p.k",
        (_RACAH_FIELDS,),
        "unbarred_identities: bar_nu = nu is one of the five unbarred identities",
    ),
    Mutant(
        "racah.py",
        "p.k_star[sigma[i]] for i in range(d + 1))",
        "p.k_star[sigma[i]] for i in range(d))",
        (_RACAH_FIELDS,),
        "starred_products: the last barred weight is k* at sigma(d), compared too",
    ),
    Mutant(
        "racah.py",
        "    for i in range(1, q.d + 1):\n        phi, phi_den",
        "    for i in range(1, q.d):\n        phi, phi_den",
        (_RACAH_FIELDS,),
        "varphi: bar_varphi_d, the only quotient that reads bar_theta*_d, is tested too",
    ),
    Mutant(
        "racah.py",
        "nodes = [p.theta[k] for k in index_map(q.d)]",
        "nodes = list(p.theta)",
        ("tests/test_racah.py::"
         "test_values_field_decides_with_the_verdict_as_the_3f2_reference_did",),
        "table4F3_matches_permuted_dual_hahn: column j of the 4F3 obeys the recurrence at "
        "theta_sigma(j), not at theta_j",
    ),
    Mutant(
        "racah.py",
        "return rows[0].count(den) == q.d + 1 and _three_term_holds(",
        "return _three_term_holds(",
        (_RACAH_FIELDS,),
        "table4F3_matches_permuted_dual_hahn: u_0 = 1 fixes the scale that the homogeneous "
        "recurrence leaves free; a doubled table obeys every row of it",
    ),
    Mutant(
        "representations.py",
        "return _gram_orthogonality(p, table, rows=1 if favard else None)",
        "return _gram_orthogonality(p, table, rows=1)",
        (_RACAH_FIELDS,),
        "orthogonality: row 0 decides only under Favard's premises, else every row does",
    ),
    Mutant(
        "representations.py",
        "p.theta, p.a, p.b, p.c, range(p.d + 1))",
        "p.theta, p.a, p.b, p.c, range(p.d))",
        (_RACAH_FIELDS,),
        "barred_recurrence: the top row, where bar_b_d = 0 closes the system, is tested too",
    ),
    Mutant(
        "racah.py",
        "    return square == matrix_Lstar_ustar_basis(q)",
        "    return square.entries[:: q.d + 2] == matrix_Lstar_ustar_basis(q).entries[:: q.d + 2]",
        (_RACAH_FIELDS,),
        "barred_matrices: the diagonal fixes only b*_i c*_{i+1}; the off-diagonals fix each",
    ),
    Mutant(
        "racah.py",
        "return all(getattr(self, f.name) for f in fields(self)[2:])",
        "return all(getattr(self, f.name) for f in fields(self)[3:])",
        (_RACAH_FIELDS,),
        "ok: the conjunction takes every identity field, index_mapping first",
    ),
)

_FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)


def _pytest(workdir: Path, node_ids) -> subprocess.CompletedProcess:
    # No bytecode cache: a mutant and its restore may share a source mtime.
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *node_ids],
        cwd=workdir, env=env, capture_output=True, text=True,
    )


def _survivors(run: subprocess.CompletedProcess, node_ids) -> list[str]:
    """The named tests with no failure among pytest's FAILED lines (a
    parametrized test fails when any of its cases does)."""
    failed = _FAILED.findall(run.stdout)
    return [n for n in node_ids if not any(f == n or f.startswith(n + "[") for f in failed)]


def main() -> int:
    start = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory(prefix="leonard-lab-mutants-") as tmp:
        workdir = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, workdir / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("conftest.py", "pyproject.toml"):
            shutil.copy2(ROOT / name, workdir / name)

        every_test = sorted({n for m in MUTANTS for n in m.tests})
        baseline = _pytest(workdir, every_test)
        if baseline.returncode != 0:
            print(baseline.stdout[-3000:] + baseline.stderr[-3000:])
            print("unmutated run failed: the register's tests must pass first")
            return 1

        for number, m in enumerate(MUTANTS, 1):
            path = workdir / PACKAGE / m.file
            source = path.read_text()
            label = f"{number}. {m.file}: {m.why}"
            if source.count(m.old) != 1:
                print(f"STALE    {label}: `old` occurs {source.count(m.old)} times")
                bad += 1
                continue
            path.write_text(source.replace(m.old, m.new))
            try:
                run = _pytest(workdir, m.tests)
            finally:
                path.write_text(source)
            survivors = _survivors(run, m.tests) if run.returncode == 1 else list(m.tests)
            if survivors:
                print(f"SURVIVED {label} (exit {run.returncode}; passed: {', '.join(survivors)})")
                bad += 1
            else:
                print(f"killed   {label}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
