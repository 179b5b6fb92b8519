"""pustat benchmark: end-to-end runs of three pustat commands, and a traced run.

Run from the root of a pustat checkout:

    python3 perfbench/run.py --workload bound_t100 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, one table
    python3 perfbench/run.py --record-reference            # regenerate reference.json, ~6 min

Untraced (``--trace 0``): times ``import pustat.cli`` plus ``build_parser()``
in fresh interpreters (``setup_s``), then runs the workload's pustat command
as a subprocess, one after another, while another run fits in ``--seconds``.
Every output must pass the workload's gates and repeat the first output
byte for byte.  Traced (``--trace 1``): three untraced runs and, between
them, one run under ``tracer.py``; the outputs must be identical and the
spans give the per-layer metrics.

``BENCHMARK.json`` names the workloads and the metrics of the result line,
with their units.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  BLAS and OpenMP
pools are pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import scipy

import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
# printed next to the end-to-end metrics but not in BENCHMARK.json: the
# first two do not apply to ustat_2d, var_f_cost there spreads ~50% across
# seeds (its stderr rests on ~15 hits in 2000 samples), fail_frac reads 0.
COSTS = {"dk_bound_cost": "dk_bound", "t1_cost": "t1", "var_f_cost": "var_f"}
UNITS = {**END_TO_END, **{name: "s" for name in COSTS}, "fail_frac": "1", **PER_LAYER}

SETUP_SAMPLES = 5
# untraced runs around the traced one; their median is the overhead baseline
OVERHEAD_SAMPLES = 3
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter(); import pustat.cli; "
    "pustat.cli.build_parser(); print(repr(time.perf_counter() - t0), pustat.BACKEND)"
)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class ChildRun:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


class Harness:
    """Runs pustat children from one checkout with a fixed environment."""

    def __init__(self, root: Path):
        self.root = root
        self.work = root / ".bench_build" / "perfbench"
        self.work.mkdir(parents=True, exist_ok=True)
        # bytecode is cached inside the checkout, so that every timed child but
        # the first imports from cache whatever the caller's settings
        self.env = {
            **os.environ,
            **THREAD_VARS,
            "PYTHONPATH": str(root / "src"),
            "PYTHONPYCACHEPREFIX": str(self.work / "pycache"),
        }
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child(self, argv: List[str], tag: str) -> ChildRun:
        """Run argv to completion; time it and take its peak RSS from wait4."""
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildRun(
            proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_bytes()
        )

    def pustat(self, args: List[str]) -> ChildRun:
        return self.child([sys.executable, "-m", "pustat.cli", *args], "pustat")

    def traced(self, args: List[str]):
        spans = self.work / "spans.json"
        run = self.child(
            [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--", *args], "traced"
        )
        data = json.loads(spans.read_text()) if run.code == 0 else None
        return run, data

    def setup_probe(self):
        """(seconds to import pustat.cli and build the parser, pustat.BACKEND)."""
        run = self.child([sys.executable, "-c", SETUP_SNIPPET], "setup")
        if run.code != 0:
            raise RuntimeError(f"setup probe failed: {run.stderr.decode(errors='replace')}")
        seconds, backend = run.stdout.decode().split()
        return float(seconds), backend


def git_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(h: Harness) -> dict:
    """Versions and settings for the record; the probe also warms the bytecode cache."""
    _, backend = h.setup_probe()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(h.root),
        "pustat_backend": backend,
        "thread_env": THREAD_VARS,
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def summarize(samples: List[float]) -> dict:
    """Median, quartiles and the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        out.update(q1=q1, q3=q3)
    if n >= 20:
        pct = math.floor(100.0 * (n - 10) / n)
        out[f"p{pct}"] = float(np.percentile(xs, pct))
    return out


def _gate_output(wl, run: ChildRun, seed: int, ref: dict, first: Optional[bytes]):
    """(failure reasons, Check or None) for one child run."""
    if run.code != 0:
        return [f"exit code {run.code}: {run.stderr.decode(errors='replace')[-500:]}"], None
    try:
        check = wl.check(run.stdout.decode(), seed, ref)
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # OutputError is a ValueError
        return [f"output does not parse: {exc!r}"], None
    failures = list(check.failures)
    if first is not None and run.stdout != first:
        failures.append("output bytes differ from the first run of the set")
    return failures, check


def measure(h: Harness, wl, seed: int, seconds: float) -> dict:
    """Untraced runs: setup probes, then the workload for about ``seconds``."""
    ref = workloads.load_reference().get(wl.name, {})
    setup = [h.setup_probe()[0] for _ in range(SETUP_SAMPLES)]
    args = wl.args(seed, h.work)
    runs, failures, check, first = [], [], None, None
    start = time.perf_counter()
    while True:
        run = h.pustat(args)
        runs.append(run)
        fails, chk = _gate_output(wl, run, seed, ref, first)
        failures.append(fails)
        if first is None and run.code == 0:
            first = run.stdout
        check = check or chk
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in runs)
        if elapsed + typical > seconds:
            break
    wall = summarize([r.wall_s for r in runs])
    metrics = {
        "wall_s": wall["median"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    if check is not None:
        for metric, base in COSTS.items():
            if base in check.costs:
                value, stderr = check.costs[base]
                metrics[metric] = wall["median"] * (stderr / value) ** 2
    failed = sum(1 for f in failures if f)
    metrics["fail_frac"] = failed / len(runs)
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
        "wall_s": wall,
        "setup_s": summarize(setup),
        "failures": [f for f in failures if f],
        "diagnostics": check.diagnostics if check else {},
        "worst_gate": check.worst_gate if check else None,
    }


def layer_metrics(spans: dict) -> Dict[str, float]:
    """Per-layer metrics from the tracer's spans; a span never entered reads 0.

    A metric ``<span>.<field>`` reads the span's field; ``bounds.mij_*`` are
    derived here and ``trace.overhead_s`` by the caller.
    """
    stats = spans["spans"]
    mij = spans["captures"].get("compute_Mij", [])
    derived = {
        "bounds.mij_integrals": spans["edges"].get("bounds.compute_Mij>measure.mc_integral", 0),
        "bounds.mij_cost": sum(c[4] for c in mij) * sum((c[3] / c[2]) ** 2 for c in mij),
    }
    out = {}
    for name in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name != "trace.overhead_s":
            span, field = name.rsplit(".", 1)
            out[name] = stats.get(span, {}).get(field, 0)
    return out


def trace_diagnostics(spans: dict) -> Dict[str, float]:
    caps = spans["captures"]
    out = {}
    for t, value, stderr in caps.get("inner_mean", []):
        out[f"bounds.inner_mean_z[t={t:g}]"] = (value - 1.0) / stderr
    for t, zs in caps.get("replicate", []):
        for key, z in zs.items():
            out[f"cli.{key}[t={t:g}]"] = z
    return out


def traced(h: Harness, wl, seed: int) -> dict:
    """Untraced runs with one traced run among them; per-layer metrics from the latter."""
    ref = workloads.load_reference().get(wl.name, {})
    args = wl.args(seed, h.work)
    plain = [h.pustat(args)]
    run, spans = h.traced(args)
    plain += [h.pustat(args) for _ in range(OVERHEAD_SAMPLES - 1)]
    first = plain[0].stdout if plain[0].code == 0 else None
    gated = [_gate_output(wl, r, seed, ref, first) for r in [*plain, run]]
    check = gated[0][1]
    failures = [fails for fails, _ in gated if fails]
    metrics = {}
    diagnostics = dict(check.diagnostics) if check else {}
    if spans is not None:
        metrics = layer_metrics(spans)
        diagnostics.update(trace_diagnostics(spans))
    untraced_wall = summarize([r.wall_s for r in plain])
    metrics["trace.overhead_s"] = run.wall_s - untraced_wall["median"]
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": 1,
        "attempted": len(plain) + 1,
        "failed": len(failures),
        "metrics": metrics,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": run.wall_s,
        "traced_in_process_s": spans["wall_s"] if spans else None,
        "spans": spans["spans"] if spans else None,
        "failures": failures,
        "diagnostics": diagnostics,
        "worst_gate": check.worst_gate if check else None,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def print_report(rec: dict):
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"attempted={rec['attempted']} failed={rec['failed']}")
    for name, value in rec["metrics"].items():
        print(f"  {name:44s} {value!r:>26} {UNITS[name]}")
    if "wall_s" in rec:
        spread = ", ".join(f"{k}={v:.4g}" for k, v in rec["wall_s"].items())
        print(f"  wall_s samples: {spread}")
    for name, value in rec["diagnostics"].items():
        print(f"  diag {name:39s} {value!r:>26}")
    for fails in rec["failures"]:
        for reason in fails:
            print(f"  FAIL {reason}")


def result_line(records: List[dict], names) -> str:
    """The closing JSON line; with several workloads, metric names get a workload prefix."""
    metrics = {}
    for rec in records:
        prefix = f"{rec['workload']}." if len(records) > 1 else ""
        for n in names:
            metrics[prefix + n] = {"value": rec["metrics"].get(n), "unit": UNITS[n]}
    failed = sum(r["failed"] for r in records)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    })


def record_reference(h: Harness):
    """Pool every gated value of each workload over the reference seeds.

    A reference is the mean of its per-seed values, with the stderr of that
    mean.  ``sd_over_stderr`` compares the spread of the per-seed values with
    their stated stderr: about 1 when the program's stderrs are honest.
    """
    seeds = workloads.REFERENCE_SEEDS
    values, calibration = {}, {}
    for wl in WORKLOADS.values():
        checks = []
        for seed in seeds:
            run = h.pustat(wl.args(seed, h.work))
            if run.code != 0:
                raise RuntimeError(f"{wl.name}: exit {run.code}: {run.stderr.decode(errors='replace')}")
            check = wl.check(run.stdout.decode(), seed, None)
            if check.failures:
                raise RuntimeError(f"{wl.name} seed {seed}: {check.failures}")
            checks.append(check.values)
        pooled = {}
        for key in checks[0]:
            vals = np.array([c[key][0] for c in checks])
            ses = np.array([c[key][1] for c in checks])
            pooled[key] = [float(vals.mean()), float(np.sqrt(np.sum(ses**2))) / len(seeds)]
            if ses.any():
                calibration[f"{wl.name}.{key}"] = float(vals.std(ddof=1) / np.sqrt(np.mean(ses**2)))
        values[wl.name] = pooled
    data = {"seeds": list(seeds), "values": values, "sd_over_stderr": calibration}
    workloads.REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pustat benchmark")
    parser.add_argument("--workload", choices=[*(w["name"] for w in MANIFEST["workloads"]), "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rerun each workload at the reference seeds and write reference.json")
    args = parser.parse_args(argv)
    root = Path.cwd()

    if not (root / "src" / "pustat" / "cli.py").is_file():
        print(f"error: {root} is not a pustat checkout (no src/pustat/cli.py)", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    h = Harness(root)
    if args.record_reference:
        record_reference(h)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    env = environment(h)
    names = [w["name"] for w in MANIFEST["workloads"]] if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        wl = WORKLOADS[name]
        rec = traced(h, wl, args.seed) if args.trace else measure(h, wl, args.seed, args.seconds)
        rec["env"] = env
        print_report(rec)
        print("record " + json.dumps(rec, sort_keys=True))
        records.append(rec)

    print(result_line(records, PER_LAYER if args.trace else END_TO_END))
    return 0


if __name__ == "__main__":
    sys.exit(main())
