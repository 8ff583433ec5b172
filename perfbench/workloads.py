"""Seeded workloads for the leonard-lab benchmark.

Each workload is an endless, deterministic stream of operations: operation i
is generated from (seed, i) alone, so any prefix of the stream is reproducible
and no two operations share inputs (a cache inside the library cannot turn
repeats into free hits).  The op mix repeats with a fixed cycle, so a run that
stops on a cycle boundary always measures the same blend of sizes.

For every operation the module gives three things: the inputs, the library
work that is timed, and the exact checks on its outputs.  The checks compare
the program against predictions restated here from the paper's statements,
never against the program's own claim of success.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import leonard_lab
from leonard_lab import cli, leonard, params, racah, representations, sl2mod

# -- exact predictions, restated independently of the library ---------------


def theorem_flags(d: int, r: Fraction, s: Fraction, lam: Fraction) -> bool:
    """Main theorem (d >= 3): r != 0, r + s = 0 and 2*lambda = r - d."""
    return r != 0 and r + s == 0 and 2 * lam == r - d


def predicted_verdict(d: int, r: Fraction, s: Fraction, lam: Fraction) -> bool:
    """Whether (L, (L* + lambda)^2) is a Leonard pair, from the paper's
    closed conditions: trivially at d = 0, 2*lambda != -1 at d = 1, the d = 2
    corollary, and the main theorem from d = 3 on."""
    if d == 0:
        return True
    if d == 1:
        return 2 * lam != -1
    if d == 2:
        roots = {(r - s) / (r + s + 2), (s - r) / (r + s + 4)}
        return r != s and 2 * (lam + 1) in roots
    return theorem_flags(d, r, s, lam)


# -- digests -------------------------------------------------------------------


def canon(value) -> str:
    """Canonical text of nested outputs: exact p/q values, verdicts and
    witnesses, independent of any JSON layout."""
    if isinstance(value, bool):
        return "T" if value else "F"
    if value is None:
        return "-"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canon(v) for v in value) + ")"
    if dataclasses.is_dataclass(value):
        return canon(dataclasses.astuple(value))
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    return hashlib.sha256(canon(value).encode()).hexdigest()[:16]


# -- random rationals ------------------------------------------------------------


def _rational(rng: random.Random, lo: Fraction, hi: Fraction, dens=(1, 2, 3, 4)) -> Fraction:
    """A rational strictly between lo and hi with a denominator from `dens`."""
    q = rng.choice(dens)
    return Fraction(rng.randint(math.floor(lo * q) + 1, math.ceil(hi * q) - 1), q)


def _distinct(rng: random.Random, count: int, draw: Callable, fixed=()) -> list[Fraction]:
    values = list(fixed)
    while len(values) < count:
        v = draw(rng)
        if v not in values:
            values.append(v)
    return values


def _small(lo, hi):
    return lambda rng: _rational(rng, Fraction(lo), Fraction(hi))


def _small_nonzero(rng: random.Random) -> Fraction:
    while True:
        r = _rational(rng, Fraction(-1), Fraction(1))
        if r != 0:
            return r


# -- workload descriptor -----------------------------------------------------------


@dataclass(frozen=True)
class Checked:
    """What one operation produced, after the checks."""

    problems: list[str]  # failed checks, empty when the operation is correct
    verdicts: int  # instances verified or grid points decided
    outputs: tuple  # exact outputs, for the digest
    stdout_bytes: int = 0

    @property
    def digest(self) -> str:
        return digest(self.outputs)


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # operations per repetition of the op mix
    digest_prefix: int  # leading operations covered by committed output digests
    make_input: Callable[[int], tuple]  # operation index -> inputs
    execute: Callable[[tuple], object]  # the timed library work
    check: Callable[[tuple, object], Checked]

    def inputs_digest(self) -> str:
        return digest([self.make_input(i) for i in range(self.digest_prefix)])


# -- grid and deep: two-route verification of one instance -------------------------


def verify_dual_hahn(d: int, r: Fraction, s: Fraction):
    """The full two-route verification of one dual Hahn instance."""
    p = params.build_params(d, r, s)
    checks = {"closed forms": params.check_closed_forms(p)}
    table = representations.eval_table_hypergeometric(p)
    checks["3F2 table equals recurrence table"] = (
        table.values == representations.eval_table_recurrence(p).values
    )
    checks["degree"] = representations.check_degree_invariant(p, table)
    checks["orthogonality"] = representations.check_orthogonality(p, table)
    checks["difference equation"] = representations.check_difference_eq(p, table)
    checks["top row"] = representations.check_top_row(p, table)
    checks["basis consistency"] = representations.check_basis_consistency(p)
    lam = leonard.canonical_shift(p)
    checks["shifted square equals its closed form"] = leonard.lstar_shift_square(
        p, lam
    ) == leonard.lstar_shift_square_closed_form(p, lam)
    report = leonard.verify_leonard_pair_square(p, lam)
    return p, table, lam, report, checks


def verify_racah(p, table):
    """The Racah suite at s = -r, with the 4F3 table against the
    sigma-permuted 3F2 table."""
    d = p.d
    q = racah.build_racah_params(d, p.r)
    table4 = racah.eval_table_4F3(q)
    sigma = racah.index_map(d)
    checks = {
        "4F3 table equals permuted 3F2 table": all(
            table4.at(i, j) == table.at(i, sigma[j])
            for i in range(d + 1)
            for j in range(d + 1)
        ),
        "index mapping": racah.check_index_mapping(p, q),
        "unbarred identities": racah.check_unbarred_identities(p, q),
        "starred products": racah.check_starred_products(p, q),
        "varphi": racah.check_varphi(q),
        "racah orthogonality": racah.check_racah_orthogonality(q, table4),
        "barred recurrence": racah.check_barred_recurrence(q, table4),
        "barred matrices": racah.check_barred_matrices(p, q),
    }
    return table4, checks


def _params_outputs(p) -> tuple:
    return (p.theta, p.b, p.c, p.a, p.k, p.nu, p.b_star, p.c_star, p.a_star, p.k_star)


def _check_dual(d, r, s, result, extra_checks=None, extra_outputs=()) -> Checked:
    p, table, lam, report, checks = result
    checks = {**checks, **(extra_checks or {})}
    problems = [name for name, ok in checks.items() if not ok]
    expected = predicted_verdict(d, r, s, lam)
    if report.verdict != expected:
        problems.append(f"verdict {report.verdict}, predicted {expected}")
    witness = report.witness.perm if report.witness is not None else None
    if report.verdict and sorted(witness or ()) != list(range(d + 1)):
        problems.append(f"true verdict without a witness ordering: {witness}")
    outputs = (
        (d, r, s, lam),
        _params_outputs(p),
        table.values.entries,
        report.verdict,
        witness,
        tuple(checks.values()),
        *extra_outputs,
    )
    return Checked(problems, 1, outputs)


# grid ----------------------------------------------------------------------------


def _grid_workload(seed: int, tiny: bool) -> Workload:
    d_max = 4 if tiny else 12
    sl2_n = range(1, 8 if tiny else 26, 2)  # odd n <= 25
    cycle = d_max + 3  # one instance per d, then two sl2 operations

    def make_input(i: int) -> tuple:
        pos, rep = i % cycle, i // cycle
        if pos > d_max:
            return ("sl2", pos - d_max - 1, sl2_n[rep % len(sl2_n)])
        rng = random.Random(f"grid:{seed}:{i}")
        if rng.random() < 0.5:  # s = -r, the theorem's regime
            r = _rational(rng, Fraction(-1), Fraction(1))
            return ("dual", pos, r, -r)
        return ("dual", pos, _rational(rng, Fraction(-1), Fraction(3)),
                _rational(rng, Fraction(-1), Fraction(3)))

    def execute(inp: tuple):
        if inp[0] == "dual":
            return verify_dual_hahn(*inp[1:])
        _, kind, n = inp
        module = sl2mod.build_even_module(kind, n)
        return (
            sl2mod.check_module_relations(module),
            sl2mod.verify_example_match(kind, n),
            sl2mod.terwilliger_catalog(n),
        )

    def check(inp: tuple, result) -> Checked:
        if inp[0] == "dual":
            return _check_dual(*inp[1:], result)
        _, kind, n = inp
        relations, match, catalog = result
        problems = []
        if not relations:
            problems.append("module relations")
        if not match:
            problems.append("example match")
        # The halved n-cube has one module of each degree n, n-2, ..., with
        # kinds alternating 0, 1, 0, ... and no kind-1 module of degree 0.
        expected = [(k % 2, n - 2 * k) for k in range(n // 2 + 1) if not (k % 2 and n == 2 * k)]
        got = [(e.kind, e.n) for e in catalog]
        if got != expected:
            problems.append(f"catalog modules {got}, expected {expected}")
        outputs = (
            (kind, n),
            relations,
            match,
            tuple((e.kind, e.n, e.adjacency_action.entries, e.dual_adjacency_action.entries)
                  for e in catalog),
        )
        return Checked(problems, 1, outputs)

    return Workload("grid", cycle, 2 * cycle, make_input, execute, check)


# deep ----------------------------------------------------------------------------


def _deep_workload(seed: int, tiny: bool) -> Workload:
    d = 6 if tiny else 32

    def make_input(i: int) -> tuple:
        rng = random.Random(f"deep:{seed}:{i}")
        while True:  # r in (-1, 1) \ {0} with a two-digit denominator
            q = rng.randint(10, 99)
            p = rng.randint(1 - q, q - 1)
            if p != 0 and math.gcd(p, q) == 1:
                return (d, Fraction(p, q))

    def execute(inp: tuple):
        d, r = inp
        dual = verify_dual_hahn(d, r, -r)
        return dual, verify_racah(dual[0], dual[1])

    def check(inp: tuple, result) -> Checked:
        d, r = inp
        dual, (table4, racah_checks) = result
        return _check_dual(d, r, -r, dual, racah_checks, (table4.values.entries,))

    return Workload("deep", 1, 2, make_input, execute, check)


# search --------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchCommand:
    d_max: int
    r_values: tuple[Fraction, ...]
    s_values: tuple[Fraction, ...] | None  # None: s = -r
    lambda_values: tuple[Fraction, ...] | None  # None: canonical (r - d)/2
    exhaustive: bool = False
    hits_only: bool = False

    def points(self) -> list[tuple[int, Fraction, Fraction, Fraction]]:
        """Every grid point in (d, r, s, lambda) order."""
        pts = []
        for d, r in product(range(1, self.d_max + 1), self.r_values):
            for s in self.s_values if self.s_values is not None else (-r,):
                lams = self.lambda_values if self.lambda_values is not None else ((r - d) / 2,)
                pts.extend((d, r, s, lam) for lam in lams)
        return sorted(pts)

    def argv(self) -> list[str]:
        def rationals(values):
            return ",".join(leonard_lab.format_rational(v) for v in values)

        argv = ["search", "--d-min", "1", "--d-max", str(self.d_max),
                f"--r-values={rationals(self.r_values)}"]
        if self.s_values is not None:
            argv += ["--s-mode", "list", f"--s-values={rationals(self.s_values)}"]
        if self.lambda_values is not None:
            argv += ["--lambda-mode", "list", f"--lambda-values={rationals(self.lambda_values)}"]
        if self.exhaustive:
            argv.append("--exhaustive")
        if self.hits_only:
            argv.append("--hits-only")
        return argv


def _list_command(rng, d_max, width, **flags) -> SearchCommand:
    """A list-mode grid holding a few theorem points: r0 in (-1, 1), s = -r0
    and lambda = (r0 - d0)/2 for one d0 >= 3; every other combination is a
    generic point, so most verdicts are false."""
    r0 = _small_nonzero(rng)
    d0 = rng.randint(3, d_max)
    return SearchCommand(
        d_max,
        tuple(_distinct(rng, width, _small(-1, 3), [r0])),
        tuple(_distinct(rng, width, _small(-1, 3), [-r0])),
        tuple(_distinct(rng, width, _small(-6, 2), [(r0 - d0) / 2])),
        **flags,
    )


def _search_workload(seed: int, tiny: bool) -> Workload:
    list_d, canon_d, exh_d = (4, 5, 4) if tiny else (10, 14, 8)

    def make_input(i: int) -> tuple:
        rng = random.Random(f"search:{seed}:{i}")
        pos = i % 6
        if pos in (1, 5):  # s = -r with the canonical shift: every point true
            command = SearchCommand(canon_d, tuple(_distinct(rng, 6, _small(-1, 1))), None, None)
        elif pos == 3:  # exhaustive oracle, d <= 8 only
            command = _list_command(rng, exh_d, 2, exhaustive=True)
        else:
            command = _list_command(rng, list_d, 3, hits_only=pos == 2)
        return (command,)

    def execute(inp: tuple):
        (command,) = inp
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command.argv())
        return code, out.getvalue(), err.getvalue()

    def check(inp: tuple, result) -> Checked:
        (command,) = inp
        code, stdout, stderr = result
        points = command.points()
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {stderr.strip()[:200]}")
        expected = [pt for pt in points if not command.hits_only or predicted_verdict(*pt)]
        records = []
        for line in stdout.splitlines():
            try:
                rec = json.loads(line)
                key = (rec["d"], Fraction(rec["r"]), Fraction(rec["s"]), Fraction(rec["lambda"]))
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable line {line[:80]!r}: {exc}")
                break
            records.append((key, rec))
        keys = [key for key, _ in records]
        if keys != expected:
            problems.append(f"{len(keys)} lines for {len(expected)} expected sorted points")
        outputs = []
        for key, rec in records:
            verdict, witness = rec.get("verdict"), rec.get("witness")
            if verdict != predicted_verdict(*key):
                problems.append(f"verdict {verdict} at {canon(key)}")
            if rec.get("theoremPredicted") != theorem_flags(*key):
                problems.append(f"theoremPredicted {rec.get('theoremPredicted')} at {canon(key)}")
            if verdict and sorted(witness or ()) != list(range(key[0] + 1)):
                problems.append(f"true verdict without a witness ordering at {canon(key)}")
            outputs.append((key, verdict, tuple(witness) if witness else None,
                            rec.get("theoremPredicted")))
        return Checked(problems, len(points), tuple(outputs), len(stdout.encode()))

    return Workload("search", 6, 6, make_input, execute, check)


WORKLOADS = {"grid": _grid_workload, "deep": _deep_workload, "search": _search_workload}


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)


def prepare(name: str, seed: int) -> str:
    """Set-up as a fresh interpreter pays it: build the workload and generate
    the inputs up to the first timed operation.  Returns the inputs digest."""
    return make_workload(name, seed).inputs_digest()
