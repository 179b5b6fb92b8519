"""Run one pustat command in-process with a span around each layer's functions.

    python3 perfbench/tracer.py --spans SPANS.json -- <pustat arguments>

The program's output goes to stdout exactly as ``python -m pustat.cli``
would write it; the spans go to SPANS.json.  Nothing under ``src/pustat``
changes: each wrapped function is replaced by its wrapper in every pustat
module that holds it, because ``cli`` and ``bounds`` import most of them by
name.  A span's self time is its duration minus the durations of the spans
it called directly.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from workloads import standardized_z


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class SpanStats:
    """Aggregate of every call to one span."""

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: Dict[str, int] = {}
        self.durations: List[float] = []

    def add(self, key: str, n: int):
        self.counts[key] = self.counts.get(key, 0) + int(n)


class Tracer:
    """Installs the wrappers and keeps every span in memory until the run ends."""

    def __init__(self):
        self.stats: Dict[str, SpanStats] = {}
        self.edges: Dict[str, int] = {}  # "parent>child" -> calls
        self.captures: Dict[str, list] = {}
        self._stack: List[list] = [["root", 0.0]]  # [span name, time in child spans]

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent[1] += dur
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - frame[1]
                stats.durations.append(dur)
                edge = f"{parent[0]}>{name}"
                self.edges[edge] = self.edges.get(edge, 0) + 1
            if count is not None:
                count(self, stats, args, kwargs, result)
            return result

        return traced

    def capture(self, key: str, value):
        self.captures.setdefault(key, []).append(value)

    def install(self, targets):
        """Replace each target function by its wrapper wherever pustat holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "pustat" or n.startswith("pustat.")]
        for module_name, attr, span, count in targets:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(span, original, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    def to_dict(self, wall_s: float) -> dict:
        spans = {}
        for name, st in self.stats.items():
            durs = np.array(st.durations) if st.durations else np.zeros(1)
            spans[name] = {
                "calls": st.calls,
                "total_s": st.total_s,
                "self_s": st.self_s,
                "call_us_p50": float(np.percentile(durs, 50)) * 1e6,
                "call_us_p99": float(np.percentile(durs, 99)) * 1e6,
                **st.counts,
            }
        return {"wall_s": wall_s, "spans": spans, "edges": self.edges, "captures": self.captures}


# counters: (tracer, stats, args, kwargs, result) -> None


def _count_samples(tr, st, args, kwargs, result):
    st.add("samples", _arg(args, kwargs, 3, "samples"))


def _count_points(tr, st, args, kwargs, result):
    st.add("points", len(result))


def _count_marginal_evals(tr, st, args, kwargs, result):
    x, mc = _arg(args, kwargs, 2, "x"), _arg(args, kwargs, 5, "mc")
    st.add("evals", len(x) * mc.samples)


def _count_probes(tr, st, args, kwargs, result):
    st.add("probes", len(_arg(args, kwargs, 3, "x")))


def _count_queries(tr, st, args, kwargs, result):
    st.add("queries", len(result))


def _count_pairs(tr, st, args, kwargs, result):
    st.add("points", len(_arg(args, kwargs, 0, "points")))
    st.add("pairs", result)


def _count_distance_samples(tr, st, args, kwargs, result):
    st.add("samples", np.size(_arg(args, kwargs, 0, "samples")))


def _capture_mij(tr, st, args, kwargs, result):
    i, j = _arg(args, kwargs, 2, "i"), _arg(args, kwargs, 3, "j")
    tr.capture("compute_Mij", [i, j, result.value, result.stderr, st.durations[-1]])


def _capture_stein(tr, st, args, kwargs, result):
    intensity = _arg(args, kwargs, 1, "intensity")
    tr.capture("inner_mean", [intensity.t, *result.inner_mean])


def _capture_replicate(tr, st, args, kwargs, result):
    intensity = _arg(args, kwargs, 1, "intensity")
    tr.capture("replicate", [intensity.t, standardized_z(np.asarray(result[0]))])


TARGETS = [
    # (module, function, span name, counter)
    ("pustat.measure", "mc_integral", "measure.mc_integral", _count_samples),
    ("pustat.measure", "sample_point_process", "measure.sample_point_process", _count_points),
    ("pustat.kernels", "_marginal_mc", "kernels.marginal_mc", _count_marginal_evals),
    ("pustat.chaos", "chaos_kernel_values", "chaos.chaos_kernel_values", _count_probes),
    ("pustat.chaos", "variance_from_kernels", "chaos.variance_from_kernels", None),
    ("pustat.partitions", "enumerate_partitions", "partitions.enumerate_partitions", None),
    ("pustat.bounds", "bound_report", "bounds.bound_report", None),
    ("pustat.bounds", "compute_Mij", "bounds.compute_Mij", _capture_mij),
    ("pustat.bounds", "estimate_Rij", "bounds.estimate_Rij", None),
    ("pustat.bounds", "estimate_stein_terms", "bounds.estimate_stein_terms", _capture_stein),
    ("pustat.ustat", "evaluate", "ustat.evaluate", None),
    ("pustat.ustat", "add_one_costs", "ustat.add_one_costs", _count_queries),
    ("pustat.ustat", "inverse_ou_add_one_costs", "ustat.inverse_ou_add_one_costs", None),
    ("pustat._accel", "count_pairs_within", "accel.count_pairs_within", _count_pairs),
    ("pustat._accel", "count_neighbors", "accel.count_neighbors", _count_queries),
    ("pustat.distance", "empirical_dW", "distance.empirical_dW", _count_distance_samples),
    ("pustat.distance", "empirical_dK", "distance.empirical_dK", None),
    ("pustat.cli", "_replicate_standardized", "cli.replicate", _capture_replicate),
    ("pustat.cli", "_bootstrap_se", "cli.bootstrap", None),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the span JSON")
    parser.add_argument("pustat_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    pustat_args = args.pustat_args[1:] if args.pustat_args[:1] == ["--"] else args.pustat_args

    import pustat.cli

    tracer = Tracer()
    tracer.install(TARGETS)
    start = time.perf_counter()
    code = pustat.cli.main(pustat_args)
    wall_s = time.perf_counter() - start
    sys.stdout.flush()
    with open(args.spans, "w") as fh:
        json.dump(tracer.to_dict(wall_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
