"""Spans around the library's public functions, recorded from outside the library.

``install`` replaces each public function (and each consumer's copy of
a name it imported by value) with a wrapper that records a span: name,
start, end and parent span.  Spans stay in memory; ``layer_metrics``
reduces them to the per-layer metrics listed in ``layers.json`` and
``write`` saves them when the pass ends.

A layer's time (``total_s``) sums its outermost spans, so recursion is
not counted twice.  Its self time subtracts the direct children, which
cover disjoint intervals because the program runs on one thread.
"""

from __future__ import annotations

import csv
import functools
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self.enabled = False
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def wrap_iterator(self, name, counter, fn):
        """Wrap a function returning an iterator: one span per item drawn, plus a count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if not self.enabled:
                return iterator
            step = self.wrap(name, iterator.__next__)

            def drain():
                while True:
                    try:
                        item = step()
                    except StopIteration:
                        return
                    self.counters[counter] += 1
                    yield item

            return drain()

        return traced

    def patch(self, owners, attr, wrapped_by):
        """Replace ``attr`` on every owner that has it with one shared wrapper."""
        present = [owner for owner in owners if hasattr(owner, attr)]
        if not present:
            self.missing.append(f"{owners[0].__name__}.{attr}")
            return
        wrapper = wrapped_by(getattr(present[0], attr))
        for owner in present:
            setattr(owner, attr, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["run_id", "index", "name", "start_s", "end_s", "parent"])
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([self.run_id, index, name, f"{start:.9f}", f"{end:.9f}", parent])


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    import numpy as np
    from fussnarayana import cli, exact, freeprob, partitions, rmt, series
    from fussnarayana.poly import MultiPoly

    def span(name):
        return lambda fn: tracer.wrap(name, fn)

    tracer.patch([MultiPoly], "__mul__", span("poly.mul"))
    tracer.patch([MultiPoly], "__rmul__", span("poly.mul"))
    tracer.patch([MultiPoly], "evaluate", span("poly.evaluate"))
    tracer.patch([exact, rmt], "limit_moment_poly", span("exact.limit_moment_poly"))
    tracer.patch([exact, freeprob], "fuss_narayana_poly", span("exact.fuss_narayana_poly"))
    tracer.patch([series, cli, freeprob], "solve_functional_equation", span("series.solve"))
    tracer.patch([series], "lagrange_coefficient", span("series.lagrange"))
    tracer.patch([partitions], "enumerate_adapted",
                 lambda fn: tracer.wrap_iterator("partitions.enumerate", "partitions.matchings", fn))
    tracer.patch([partitions], "profile_histogram", span("partitions.histogram"))
    tracer.patch([partitions], "verify_shift_identity", span("partitions.verify"))
    tracer.patch([partitions], "verify_product_decomposition", span("partitions.verify"))
    tracer.patch([freeprob], "moments_by_closed_form", span("freeprob.closed_form"))
    tracer.patch([freeprob], "moments_by_series", span("freeprob.series"))
    tracer.patch([freeprob], "s_transform_check", span("freeprob.s_transform"))
    tracer.patch([freeprob], "quadrature_moments", span("freeprob.quadrature"))
    tracer.patch([rmt], "run_experiment", span("rmt.run_experiment"))
    tracer.patch([cli], "main", span("cli.main"))

    # Normal draws and matmul flops are computed from the realized
    # dimensions (8 real flops per complex multiply-add, 2 per real one).
    def sample_counts(fn):
        traced = tracer.wrap("rmt.sample", fn)

        def counted(profile, rng, ensemble="complex"):
            if tracer.enabled:
                dims = profile.realized
                is_complex = ensemble == "complex"
                tracer.counters["rmt.normals_drawn"] += (2 if is_complex else 1) * sum(
                    a * b for a, b in zip(dims, dims[1:]))
                tracer.counters["rmt.matmul_flops"] += (8 if is_complex else 2) * sum(
                    dims[0] * dims[j - 1] * dims[j] for j in range(2, len(dims)))
            return traced(profile, rng, ensemble)

        return functools.wraps(fn)(counted)

    def trace_counts(fn):
        traced = tracer.wrap("rmt.trace", fn)

        def counted(product, profile, k_max):
            if tracer.enabled:
                small, large = sorted(product.shape)
                per_madd = 8 if np.iscomplexobj(product) else 2
                tracer.counters["rmt.matmul_flops"] += per_madd * (
                    small * small * large + (k_max - 1) * small ** 3)
            return traced(product, profile, k_max)

        return functools.wraps(fn)(counted)

    tracer.patch([rmt], "sample_product", sample_counts)
    tracer.patch([rmt], "trace_moments", trace_counts)


def span_stats(spans: list[list]) -> dict:
    """Per span name: call count, outermost total, self time and durations."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    durations: defaultdict = defaultdict(list)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        durations[name].append(duration)
        self_time[name] += duration - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[name] += duration
    return {"calls": calls, "total_s": total, "self_s": self_time, "durations": durations}


def _percentile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return 1e3 * values[0] if values else 0.0
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, metrics: list[dict]) -> tuple[dict, dict]:
    """Values of the span and counter metrics, and whether each fired."""
    stats = span_stats(tracer.spans)
    values, fired = {}, {}
    for metric in metrics:
        source, stat = metric["source"], metric["stat"]
        if stat == "counter":
            value = tracer.counters[source]
            fired[metric["name"]] = value > 0
        elif stat in ("calls", "total_s", "self_s"):
            value = stats[stat][source]
            fired[metric["name"]] = stats["calls"][source] > 0
        elif stat in ("p50_ms", "p95_ms"):
            value = _percentile_ms(stats["durations"][source], int(stat[1:3]))
            fired[metric["name"]] = stats["calls"][source] > 0
        else:
            continue  # import times and overhead are measured by the parent
        values[metric["name"]] = value
    return values, fired
