"""Tracing for the benchmark's traced run, from outside the library.

The tracer replaces public functions, at the names the benchmark calls and at
the names the library's modules call each other through, with wrappers that
record a span {name, start, end, parent, operation} and counts taken at the
same boundary.  `restore` puts every original back.  Spans stay in memory and
are written out once, when the run ends.  A layer's self time is its spans'
duration minus the time covered by their child spans.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from time import perf_counter

from leonard_lab import cli, leonard, params, racah, representations, sl2mod
from leonard_lab.matrices import RationalMatrix


def _bits(values) -> int:
    return max(
        (v.numerator.bit_length() + v.denominator.bit_length() for v in values),
        default=0,
    )


def _params_values(p):
    for field in (p.theta, p.theta_star, p.b, p.c, p.a, p.k, p.b_star, p.c_star,
                  p.a_star, p.k_star):
        yield from field
    yield p.nu


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, operation id)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.unbound: list[str] = []  # bindings that no longer exist
        self._stack: list[int] = []
        self._saved: list = []
        self._op = -1

    # -- spans ---------------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark operation as the root span "op"."""
        self._op = op_id
        return self._wrap("op", fn)(*args)

    def _wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        for name, bindings, observe in _BINDINGS:
            wrappers = {}
            for owner, attr in bindings:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.unbound.append(f"{owner.__name__}.{attr}")
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, observe)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """(self seconds, calls) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy, calls = Counter(), Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start - child[index]
            calls[name] += 1
        return busy, calls

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round((start - origin) * 1e6),
                                     round((end - origin) * 1e6), parent, op]) + "\n")


# -- counts taken at the boundaries -------------------------------------------


def _observe_hypergeom(tracer, args, kwargs, result):
    tracer.counts["hyper.hypergeom.terms"] += kwargs["terms"] if "terms" in kwargs else args[2]
    tracer.maxima["hyper.result_bits_max"] = max(
        tracer.maxima["hyper.result_bits_max"], _bits((result,)))


def _observe_params(tracer, args, kwargs, result):
    tracer.maxima["params.bits_max"] = max(
        tracer.maxima["params.bits_max"], _bits(_params_values(result)))


def _observe_table(key):
    def observe(tracer, args, kwargs, result):
        tracer.maxima[key] = max(tracer.maxima[key], _bits(result.values.entries))
    return observe


def _observe_verify(tracer, args, kwargs, result):
    p = args[0]
    if p.d < 1:
        return
    # The candidates are tried in order until the first one works, and that
    # one is reported as the witness.
    candidates = leonard.candidate_orderings(p.d)
    witness = result.witness
    found = witness in candidates
    tracer.counts["leonard.candidates_tried"] += (
        candidates.index(witness) + 1 if found else len(candidates))
    tracer.counts["leonard.candidate_witnesses"] += found


def _observe_scan(tracer, args, kwargs, result):
    tracer.counts["leonard.scan.perms"] += math.factorial(args[0].rows)
    tracer.counts["leonard.scan.witnesses"] += len(result)


# Span name, every binding it is called through, and the counts observed.
_BINDINGS = [
    ("hyper.hypergeom",
     [(representations, "hypergeom_terminating"), (racah, "hypergeom_terminating")],
     _observe_hypergeom),
    ("params.build",
     [(params, "build_params"), (leonard, "build_params"), (racah, "build_params"),
      (sl2mod, "build_params")],
     _observe_params),
    ("params.closed_forms", [(params, "check_closed_forms")], None),
    ("representations.table_3f2",
     [(representations, "eval_table_hypergeometric"), (racah, "eval_table_hypergeometric")],
     _observe_table("representations.table_bits_max")),
    ("representations.table_recurrence", [(representations, "eval_table_recurrence")], None),
    ("representations.degree", [(representations, "check_degree_invariant")], None),
    ("representations.orthogonality", [(representations, "check_orthogonality")], None),
    ("representations.difference_eq", [(representations, "check_difference_eq")], None),
    ("representations.basis_consistency", [(representations, "check_basis_consistency")],
     None),
    ("matrices.charpoly", [(RationalMatrix, "charpoly")], None),
    ("matrices.matmul", [(RationalMatrix, "__matmul__")], None),
    ("leonard.verify", [(leonard, "verify_leonard_pair_square")], _observe_verify),
    ("leonard.square",
     [(leonard, "lstar_shift_square"), (racah, "lstar_shift_square"),
      (leonard, "lstar_shift_square_closed_form")],
     None),
    ("leonard.scan", [(leonard, "scan_tridiagonal_orderings")], _observe_scan),
    ("leonard.search", [(cli, "search_square_preserving")], None),
    ("racah.build", [(racah, "build_racah_params")], None),
    ("racah.table_4f3", [(racah, "eval_table_4F3")], _observe_table("racah.table_bits_max")),
    ("racah.orthogonality", [(racah, "check_racah_orthogonality")], None),
    ("racah.identities",
     [(racah, "check_index_mapping"), (racah, "check_unbarred_identities"),
      (racah, "check_starred_products"), (racah, "check_varphi"),
      (racah, "check_barred_recurrence"), (racah, "check_barred_matrices")],
     None),
    ("sl2mod.relations", [(sl2mod, "check_module_relations")], None),
    ("sl2mod.example_match", [(sl2mod, "verify_example_match")], None),
    ("sl2mod.catalog", [(sl2mod, "terwilliger_catalog")], None),
    ("cli.main", [(cli, "main")], None),
]

# Span names whose absence on a workload shows that it bypasses a layer.
LAYER_SPANS = {
    "hyper": ("hyper.hypergeom",),
    "racah": ("racah.build", "racah.table_4f3", "racah.orthogonality", "racah.identities"),
    "leonard.scan": ("leonard.scan",),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, extra: dict) -> dict:
    """Per-layer metrics of a traced phase of `ops` operations.  Calls, counts
    and self times are per operation; `*_bits_max` are maxima over the phase;
    `extra` carries the metrics measured outside the spans."""
    busy, calls = tracer.self_times()
    counts, maxima = tracer.counts, tracer.maxima

    def per_op(value):
        return value / ops

    metrics = {}
    for name in sorted({span[0] for span in _BINDINGS}):
        metrics[f"{name}.self_ms"] = (per_op(busy[name] * 1e3), "ms/op")
    for name in ("hyper.hypergeom", "params.build", "matrices.charpoly", "matrices.matmul",
                 "leonard.verify", "leonard.scan"):
        metrics[f"{name}.calls"] = (per_op(calls[name]), "count/op")
    metrics["hyper.hypergeom.terms"] = (per_op(counts["hyper.hypergeom.terms"]), "count/op")
    for key in ("hyper.result_bits_max", "params.bits_max", "representations.table_bits_max",
                "racah.table_bits_max"):
        metrics[key] = (float(maxima[key]), "bits")
    metrics["leonard.candidates_tried"] = (per_op(counts["leonard.candidates_tried"]), "count/op")
    metrics["leonard.candidate_yield"] = (
        _ratio(counts["leonard.candidate_witnesses"], counts["leonard.candidates_tried"]), "ratio")
    metrics["leonard.scan.perms"] = (per_op(counts["leonard.scan.perms"]), "count/op")
    metrics["leonard.scan.yield"] = (
        _ratio(counts["leonard.scan.witnesses"], counts["leonard.scan.perms"]), "ratio")
    metrics["racah.dual_table_builds"] = (
        _ratio(calls["representations.table_3f2"], calls["racah.build"]), "count")
    metrics.update(extra)
    return metrics


def absent_layers(tracer: Tracer) -> list[str]:
    """Layers of LAYER_SPANS with no span at all in the traced phase."""
    names = {span[0] for span in tracer.spans}
    return [layer for layer, spans in LAYER_SPANS.items() if not names.intersection(spans)]

