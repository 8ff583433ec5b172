#!/usr/bin/env python3
"""Benchmark of leonard-lab: seeded closed-loop workloads whose every output
is checked exactly, end-to-end metrics, and a traced run with per-layer
metrics.

    python3 perfbench/run.py --workload {grid,deep,search} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the library from
`src/` there and from nowhere else, and exits with status 2 when `src/` is
missing.  One client drives the library in-process and sends its next
operation only after the previous one has finished (a closed loop).  The run
stops at the first cycle boundary of the op mix after S seconds.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: with `--trace 0` the end-to-end metrics,
with `--trace 1` the per-layer metrics.  The report printed before it holds
the seed, the input and output digests, the run environment, and all six
end-to-end metrics, including `failed_frac` and `op_ms_tail`, which the last
line leaves out.  End-to-end times are scaled by a reference computation
timed around each interval (see REFERENCES); the report also gives them
unscaled.  A traced run also writes its spans, one JSON array per line,
to `perfbench/out/`.  README.md next to this file explains the workloads.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_FILE = BENCH_DIR / "expected_digests.json"
OUT_DIR = BENCH_DIR / "out"
THREADS_ENV_VAR = "LEONARD_LAB_THREADS"
SEARCH_WORKERS = 2
SETUP_REPEATS = 11
DEFAULT_SEED = 0

# The shared host's speed drifts by a quarter or more over minutes.  So a
# fixed reference computation is timed right before and right after every
# timed interval, and the interval is divided by the reference's slowdown
# there: its time over its nominal time (about its time on the 2-vCPU VM the
# bounds were set on).  For an operation, "there" is the median over every
# reference run within SLOWDOWN_WINDOW_S of it, because one short run is
# noisy; for a set-up probe, the mean of the two runs around it.  The
# references touch no library code, so a change to the library moves the
# scaled times exactly as it moves the raw ones.  The drift slows different
# kinds of work by different amounts, so each workload is paired with the
# reference that does its kind of work.
SLOWDOWN_WINDOW_S = 0.25


def _loop_reference():
    x = 0
    for i in range(15000):
        x += i * i % 7


_BIG_A, _BIG_B = 3**2000 + 7, 5**1500 + 11


def _bigint_reference():
    x = _BIG_A
    for i in range(200):
        x = (x * _BIG_B) % _BIG_A + i
        math.gcd(x, _BIG_B)


REFERENCES = {  # name -> (computation, nominal seconds)
    # interpreter dispatch on small ints, like grid, search and the set-up
    "loop": (_loop_reference, 1.5e-3),
    # products, remainders and gcds of 3000-bit ints, like deep's Fractions
    "bigint": (_bigint_reference, 19e-3),
}
REFERENCE_OF = {"grid": "loop", "deep": "bigint", "search": "loop"}

# A fresh interpreter paying the set-up: import the library and generate the
# inputs up to the first timed operation.
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.prepare(sys.argv[3], int(sys.argv[4]))"
)


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import leonard_lab from this checkout's src/ and nowhere else."""
    if not (SRC / "leonard_lab" / "__init__.py").is_file():
        raise ProgramMissing(f"no leonard_lab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import leonard_lab

    if Path(leonard_lab.__file__).resolve().parent != SRC / "leonard_lab":
        raise ProgramMissing(f"leonard_lab was imported from {leonard_lab.__file__}")
    import workloads

    return leonard_lab, workloads


# -- one phase of the closed loop ----------------------------------------------


def slowdown(reference: str, interval_s: float = 0.0) -> float:
    """The reference's median time over its nominal time.  It runs for about
    5% of the interval it is paired with (1 to 25 times), so a long interval
    gets a steadier reference."""
    compute, nominal_s = REFERENCES[reference]
    times = []
    for _ in range(min(25, max(1, round(0.05 * interval_s / nominal_s)))):
        t0 = perf_counter()
        compute()
        times.append(perf_counter() - t0)
    return statistics.median(times) / nominal_s


def scaled(interval_s: float, slow_before: float, slow_after: float) -> float:
    """An interval in reference seconds (see REFERENCES)."""
    return interval_s * 2 / (slow_before + slow_after)


def scaled_ops(spans: list, samples: list) -> list:
    """Each operation's (start, end) as a duration in reference seconds.
    samples[i] is the (end time, slowdown) of the reference run right before
    operation i, and samples[i + 1] of the one right after it; both always
    count, and so does every other sample within SLOWDOWN_WINDOW_S of it."""
    times = [t for t, _ in samples]
    out = []
    for i, (t0, t1) in enumerate(spans):
        lo = min(i, bisect.bisect_left(times, t0 - SLOWDOWN_WINDOW_S))
        hi = max(i + 2, bisect.bisect_right(times, t1 + SLOWDOWN_WINDOW_S))
        out.append((t1 - t0) / statistics.median(s for _, s in samples[lo:hi]))
    return out


@dataclass
class Phase:
    ops: int = 0
    verdicts: int = 0
    wall_s: float = 0.0
    failed: int = 0
    mismatches: int = 0  # outputs that differ from the committed digests
    stdout_bytes: int = 0
    op_ms: list = field(default_factory=list)  # wall clock
    op_ref_ms: list = field(default_factory=list)  # reference-scaled
    slowdowns: list = field(default_factory=list)  # of the reference
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)

    @property
    def exec_s(self) -> float:
        """Wall time spent inside the operations themselves."""
        return sum(self.op_ms) / 1e3

    @property
    def exec_ref_s(self) -> float:
        """The same time in reference seconds."""
        return sum(self.op_ref_ms) / 1e3


def run_phase(wl, *, seconds=None, ops=None, expected=(), tracer=None) -> Phase:
    """Run operations 0, 1, ... of the workload in a closed loop: exactly
    `ops` of them, or whole cycles of the op mix until `seconds` have passed.
    Every output is checked; an operation fails when it raises, when a check
    fails, or when its output digest differs from the committed one.  Each
    operation is timed alone, between two runs of the workload's reference."""
    phase = Phase()
    reference = REFERENCE_OF[wl.name]
    start = perf_counter()
    spans, samples = [], []

    def sample(interval_s: float = 0.0):
        slow = slowdown(reference, interval_s)
        samples.append((perf_counter(), slow))

    sample()

    def more(i: int) -> bool:
        if ops is not None:
            return i < ops
        return i == 0 or i % wl.cycle != 0 or perf_counter() < start + seconds

    i = 0
    while more(i):
        inp = wl.make_input(i)
        t0 = perf_counter()
        try:
            out = tracer.run_op(i, wl.execute, inp) if tracer else wl.execute(inp)
        except Exception as exc:  # a failed operation, counted and reported
            out = exc
        t1 = perf_counter()
        spans.append((t0, t1))
        sample(t1 - t0)
        phase.op_ms.append((t1 - t0) * 1e3)
        try:
            if isinstance(out, Exception):
                raise out
            checked = wl.check(inp, out)
            problems = list(checked.problems)
        except Exception as exc:
            checked, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        phase.digests.append(checked.digest if checked else None)
        if checked:
            phase.verdicts += checked.verdicts
            phase.stdout_bytes += checked.stdout_bytes
            if i < len(expected) and checked.digest != expected[i]:
                phase.mismatches += 1
                problems.append(
                    f"output digest {checked.digest} differs from committed {expected[i]}")
        if problems:
            phase.failed += 1
            phase.problems.append(f"op {i}: " + "; ".join(problems))
        i += 1
    phase.ops = i
    phase.op_ref_ms = [s * 1e3 for s in scaled_ops(spans, samples)]
    phase.slowdowns = [s for _, s in samples]
    phase.wall_s = perf_counter() - start
    return phase


def with_workers(workers: int, fn, *args, **kwargs):
    """Run fn with the library's process fan-out capped at `workers`."""
    saved = os.environ.get(THREADS_ENV_VAR)
    os.environ[THREADS_ENV_VAR] = str(workers)
    try:
        return fn(*args, **kwargs)
    finally:
        if saved is None:
            del os.environ[THREADS_ENV_VAR]
        else:
            os.environ[THREADS_ENV_VAR] = saved


# -- measurements ---------------------------------------------------------------


def measure_setup_s(workload: str, seed: int, repeats: int) -> tuple[list, list]:
    """Wall and reference-scaled times of `repeats` set-up probes."""
    # No timeout: with one, waiting polls in sleeps of up to 50 ms, which
    # would quantise the measurement.
    wall, ref = [], []
    slow_before = slowdown("loop", 0.2)
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), str(SRC), workload, str(seed)],
            check=True, cwd=ROOT,
        )
        wall.append(perf_counter() - t0)
        slow_after = slowdown("loop", 0.2)
        ref.append(scaled(wall[-1], slow_before, slow_after))
        slow_before = slow_after
    return wall, ref


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for (pool
    workers and set-up probes), in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def tail(op_ms: list) -> dict | None:
    """The highest whole percentile with at least ten operations beyond it
    (nearest rank); None where that percentile would be the median."""
    n = len(op_ms)
    pct = math.floor(100 * (n - 10) / n) if n else 0
    if pct <= 50:
        return None
    rank = math.ceil(n * pct / 100)
    return {"value": sorted(op_ms)[rank - 1], "unit": "ms", "percentile": pct, "samples": n}


def environment(leonard_lab) -> dict:
    from leonard_lab import scan

    revision = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            revision = f"unavailable: {exc}"
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "scan_backend": scan.SCAN_BACKEND,
        "leonard_lab": leonard_lab.__version__,
    }
    if scan.SCAN_BACKEND != "cython":
        env["note"] = "compiled scan backend not importable here, so it is unmeasured"
    return env


def committed_digests(workload: str, seed: int) -> list:
    if seed != DEFAULT_SEED or not EXPECTED_FILE.is_file():
        return []
    return json.loads(EXPECTED_FILE.read_text())[workload]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run ---------------------------------------------------------


def run_untraced(wl, seed, seconds, expected):
    workers = SEARCH_WORKERS if wl.name == "search" else 1
    # Half the set-up samples before the timed phase and half after it, so
    # that a slow spell of the machine does not decide the median alone.
    setup_wall, setup_ref = measure_setup_s(wl.name, seed, SETUP_REPEATS // 2 + 1)
    phase = with_workers(workers, run_phase, wl, seconds=seconds, expected=expected)
    more_wall, more_ref = measure_setup_s(wl.name, seed, SETUP_REPEATS // 2)
    setup_wall += more_wall
    setup_ref += more_ref
    e2e = {
        "setup_s": metric(statistics.median(setup_ref), "s"),
        "verdicts_per_s": metric(phase.verdicts / phase.exec_ref_s, "1/s"),
        "op_ms_p50": metric(statistics.median(phase.op_ref_ms), "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    report = {
        "end_to_end": {
            **e2e,
            "op_ms_tail": tail(phase.op_ref_ms) or "omitted: that percentile would be the median",
            "failed_frac": {"value": phase.failed / phase.ops, "unit": "ratio",
                            "failed": phase.failed, "attempted": phase.ops},
        },
        "wall_clock": {
            "setup_s": statistics.median(setup_wall),
            "verdicts_per_s": phase.verdicts / phase.exec_s,
            "op_ms_p50": statistics.median(phase.op_ms),
            "reference": REFERENCE_OF[wl.name],
            "reference_slowdown_p50": statistics.median(phase.slowdowns),
        },
        "setup_samples_s": setup_ref,
        "workers": workers,
        "timed_wall_s": phase.wall_s,
        "verdicts": phase.verdicts,
    }
    return [phase], e2e, report


def run_traced(wl, seed, seconds, expected):
    """Untraced first, then the same operations again under the tracer.  On
    `search` the untraced part runs twice, with the usual workers and with one,
    and the traced part uses one worker, so every span lands in this process
    and the one-worker run is the serial baseline."""
    import spans

    search = wl.name == "search"
    baseline = with_workers(SEARCH_WORKERS if search else 1, run_phase, wl,
                            seconds=seconds * (0.2 if search else 0.45), expected=expected)
    n = baseline.ops
    serial = with_workers(1, run_phase, wl, ops=n, expected=expected) if search else baseline
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = with_workers(1, run_phase, wl, ops=n, expected=expected, tracer=tracer)
    finally:
        tracer.restore()
    # Ratios of reference seconds, so that drift between the phases cancels.
    worker_s = SEARCH_WORKERS * baseline.exec_ref_s
    extra = {
        "leonard.search.points": (traced.verdicts / n if search else 0.0, "count/op"),
        "leonard.search.wait_ms": (
            (worker_s - serial.exec_ref_s) * 1e3 / n if search else 0.0, "ms/op"),
        "leonard.search.parallel_efficiency": (
            serial.exec_ref_s / worker_s if search else 0.0, "ratio"),
        "cli.stdout_bytes": (traced.stdout_bytes / n, "B/op"),
        "trace.overhead": (traced.exec_ref_s / serial.exec_ref_s, "ratio"),
    }
    layers = spans.layer_metrics(tracer, n, extra)
    path = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(path)
    report = {
        "traced_ops": n,
        "exec_s": {"untraced": baseline.exec_s, "untraced_one_worker": serial.exec_s,
                   "traced_one_worker": traced.exec_s},
        "absent_layers": spans.absent_layers(tracer),
        "unbound_names": tracer.unbound,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(path, ROOT),
    }
    phases = [baseline, traced] + ([serial] if search else [])
    return phases, {k: metric(v, u) for k, (v, u) in layers.items()}, report


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny=False,
        expected=None) -> tuple[dict, dict]:
    """One benchmark run: returns (result, report).  `tiny` shrinks every
    workload for the self-test; `expected` overrides the committed digests."""
    leonard_lab, workloads = load_program()
    wl = workloads.make_workload(workload, seed, tiny)
    inputs_digest = wl.inputs_digest()
    if expected is None:
        expected = [] if tiny else committed_digests(workload, seed)
    runner = run_traced if trace else run_untraced
    phases, metrics, report = runner(wl, seed, seconds, expected)
    first = phases[0]
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    prefix = first.digests[: wl.digest_prefix]
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": {"ops": wl.digest_prefix, "digest": inputs_digest},
        "outputs": {
            "ops": len(prefix),
            "digest": workloads.digest(prefix),
            "committed": (f"{sum(p.mismatches for p in phases)} mismatches"
                          if expected else "none for this seed"),
        },
        "environment": environment(leonard_lab),
        **report,
        "problems": [p for ph in phases for p in ph.problems][:20],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def main(argv=None, **options) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid", "deep", "search"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             **options)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
