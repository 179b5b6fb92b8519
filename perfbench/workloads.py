"""The benchmark's workloads: the pustat command each runs and its output gates.

Each workload turns a seed into one pustat command line and checks that
command's output.  A check returns the failed gates, the Monte Carlo values
behind the cost metrics and the self-check diagnostics.  Gates compare every
Monte Carlo number with a reference: the closed forms in ``exact`` where one
exists, otherwise the mean of the values recorded at ``REFERENCE_SEEDS`` in
``reference.json``, allowing ``Z_GATE`` combined standard errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

import exact

# A Monte Carlo value may sit this many combined stderr from its reference.
# About 25 values are gated per run; at 4 a correct program fails about one
# run in 600 (Var F of `sweep` at t=100 reads z=+4.02 on seed 15), at 5 about
# one in 70,000.
Z_GATE = 5.0
RIJ_GATE = 4.0  # R_ij <= M_ij is a theorem; R - M sits ~100 stderr below 0 here
# pooled, so that one unlucky reference draw does not shift every comparison
REFERENCE_SEEDS = tuple(range(20121017, 20121025))
REFERENCE_PATH = Path(__file__).with_name("reference.json")
RADIUS = 0.05

# a frozen copy of configs/geometric_sweep.json; the seed is replaced per run
SWEEP_CONFIG = {
    "kernel": {"name": "geometric_indicator", "r": RADIUS},
    "box": [[0.0, 1.0]],
    "t_values": [50, 100, 200],
    "seed": 42,
    "reps": 10000,
    "mc_samples": 200000,
    "z_samples": 128,
    "term_reps": 2000,
    "stein_terms": True,
}
SWEEP_COLUMNS = (
    "t,var_f,var_f_se,dk_emp,dk_emp_se,dk_bound,dk_bound_se,"
    "dw_emp,dw_emp_se,dw_bound,dw_bound_se,t1,t1_se,t2,t2_se,sup_term,sup_term_se"
)
USTAT_T = 400.0
USTAT_REPS = 1000


class OutputError(ValueError):
    """The output does not parse, or holds a non-finite number."""


@dataclass
class Check:
    """What one output's gates found.

    ``costs`` maps a cost metric's base (``dk_bound``, ``t1``, ``var_f``) to
    the (value, stderr) it is computed from; ``values`` holds every gated
    number, so a reference can be recorded from a check.
    """

    failures: List[str] = field(default_factory=list)
    costs: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    values: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    diagnostics: Dict[str, float] = field(default_factory=dict)
    worst_gate: str = ""

    def gate(self, name: str, value: float, stderr: float, ref: Optional[Tuple[float, float]]):
        """Record ``name`` and fail it if it lies beyond Z_GATE combined stderr of ``ref``."""
        self.values[name] = (value, stderr)
        if ref is None:
            return
        ref_value, ref_se = ref
        z = _z(value - ref_value, stderr, ref_se)
        if abs(z) > abs(self.diagnostics.get("gates.max_abs_z", 0.0)):
            self.diagnostics["gates.max_abs_z"] = abs(z)
            self.worst_gate = name
        if abs(z) > Z_GATE:
            self.failures.append(
                f"{name}={value!r} is {z:+.2f} combined stderr from the reference {ref_value!r}"
            )


def _z(diff: float, *stderrs: float) -> float:
    scale = math.sqrt(sum(s * s for s in stderrs))
    if scale == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / scale


def _finite(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise OutputError(f"{what}: expected a number, got {x!r}")
    if not math.isfinite(x):
        raise OutputError(f"{what}: non-finite value {x!r}")
    return float(x)


def _number(text: str, what: str) -> float:
    try:
        return _finite(float(text), what)
    except ValueError as exc:
        raise OutputError(f"{what}: not a number: {text!r}") from exc


def _walk_finite(obj, path="$"):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _walk_finite(val, f"{path}.{key}")
    elif isinstance(obj, list):
        for idx, val in enumerate(obj):
            _walk_finite(val, f"{path}[{idx}]")
    elif isinstance(obj, float):
        _finite(obj, path)


def load_reference() -> Dict[str, Dict[str, Tuple[float, float]]]:
    with open(REFERENCE_PATH) as fh:
        data = json.load(fh)
    return {wl: {k: tuple(v) for k, v in vals.items()} for wl, vals in data["values"].items()}


# ---------------------------------------------------------------------------
# statistics the harness computes itself
# ---------------------------------------------------------------------------


def empirical_dk(x: np.ndarray) -> float:
    """sup |Fhat - Phi|, written independently of pustat.distance."""
    x = np.sort(x)
    n = len(x)
    c = ndtr(x)
    i = np.arange(n)
    return float(max(np.max((i + 1) / n - c), np.max(c - i / n)))


def _antideriv(s):
    return s * ndtr(s) + np.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)


def empirical_dw(x: np.ndarray) -> float:
    """Integral of |Fhat - Phi|, vectorized over the gaps of the sorted sample."""
    x = np.sort(x)
    n = len(x)
    a, b = x[:-1], x[1:]
    level = np.arange(1, n) / n
    q = np.clip(ndtri(level), a, b)  # where Phi crosses the level, clipped into the gap

    def signed(lo, hi):
        return level * (hi - lo) - (_antideriv(hi) - _antideriv(lo))

    inner = np.abs(signed(a, q)) + np.abs(signed(q, b))
    return float(_antideriv(x[0]) + _antideriv(x[-1]) - x[-1] + inner.sum())


def standardized_z(vals: np.ndarray) -> Dict[str, float]:
    """How far standardized replications sit from mean 0 and variance 1, as z-scores."""
    n = len(vals)
    s2 = float(vals.var(ddof=1))
    m4 = float(np.mean((vals - vals.mean()) ** 4))
    var_se = math.sqrt(max((m4 - s2 * s2 * (n - 3) / (n - 1)) / n, 0.0))
    return {
        "centre_z": float(vals.mean()) * math.sqrt(n),
        "var_ratio_z": _z(s2 - 1.0, var_se),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, scratch directory) -> pustat arguments
    args: Callable[[int, Path], List[str]]
    # (output text, seed, reference values or None) -> Check
    check: Callable[[str, int, Optional[dict]], Check]


def _bound_args(seed: int, work: Path) -> List[str]:
    return [
        "bound", "--kernel", "geometric_indicator", "--r", str(RADIUS), "--t", "100",
        "--rij", "--stein-terms", "--seed", str(seed),
    ]


def _mcv(node, what: str) -> Tuple[float, float]:
    if not isinstance(node, dict):
        raise OutputError(f"{what}: expected a value/stderr object")
    return _finite(node.get("value"), what), _finite(node.get("stderr"), f"{what} stderr")


def _check_bound(text: str, seed: int, ref: Optional[dict]) -> Check:
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OutputError(f"invalid JSON: {exc}") from exc
    _walk_finite(rep)
    ref = ref or {}
    out = Check()
    expect = {"kernel": {"name": "geometric_indicator", "r": RADIUS}, "k": 2, "t": 100.0,
              "seed": seed, "unreliable": []}
    for key, val in expect.items():
        if rep.get(key) != val:
            out.failures.append(f"{key}: expected {val!r}, got {rep.get(key)!r}")
    t = 100.0
    var_f = _mcv(rep["var_f"], "var_f")
    out.gate("var_f", *var_f, (exact.var_f_1d(t, RADIUS), 0.0))
    m = {(i, j): _mcv(rep["m"][i - 1][j - 1], f"M_{i}{j}") for i in (1, 2) for j in (1, 2)}
    rr = {(i, j): _mcv(rep["r"][i - 1][j - 1], f"R_{i}{j}") for i in (1, 2) for j in (1, 2)}
    for (i, j), val in m.items():
        exact_ref = (exact.m11_1d(t, RADIUS), 0.0) if (i, j) == (1, 1) else None
        out.gate(f"M_{i}{j}", *val, exact_ref or ref.get(f"M_{i}{j}"))
    # R_11 has a deterministic integrand: zero up to rounding in the variance
    r11 = rr.pop((1, 1))[0]
    if abs(r11) > 1e-12 * var_f[0] ** 2:
        out.failures.append(f"R_11={r11!r} is not zero up to rounding")
    for (i, j), val in rr.items():
        out.gate(f"R_{i}{j}", *val, ref.get(f"R_{i}{j}"))
    rij_z = max(_z(rr[ij][0] - m[ij][0], rr[ij][1], m[ij][1]) for ij in rr)
    out.diagnostics["bounds.rij_le_mij_z"] = rij_z
    if rij_z > RIJ_GATE:
        out.failures.append(f"R_ij exceeds M_ij by {rij_z:.2f} combined stderr")
    for name in ("dk_bound", "dw_bound", "fourth_moment_bound"):
        val = (_finite(rep[name], name), _finite(rep[f"{name}_stderr"], f"{name}_stderr"))
        out.gate(name, *val, ref.get(name))
    for name in ("t1", "t2", "c_f", "sup_term"):
        out.gate(name, *_mcv(rep[name], name), ref.get(name))
    out.costs = {"dk_bound": out.values["dk_bound"], "t1": out.values["t1"], "var_f": var_f}
    return out


def _sweep_args(seed: int, work: Path) -> List[str]:
    path = work / f"geometric_sweep-{seed}.json"
    path.write_text(json.dumps({**SWEEP_CONFIG, "seed": seed}, indent=2) + "\n")
    return ["experiment", str(path)]


def _check_sweep(text: str, seed: int, ref: Optional[dict]) -> Check:
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_COLUMNS:
        raise OutputError("sweep: unexpected CSV header")
    columns = SWEEP_COLUMNS.split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise OutputError(f"sweep: row has {len(cells)} cells, expected {len(columns)}")
        rows.append({c: _number(v, c) for c, v in zip(columns, cells)})
    if [row["t"] for row in rows] != [float(t) for t in SWEEP_CONFIG["t_values"]]:
        raise OutputError("sweep: rows do not match t_values")
    ref = ref or {}
    out = Check()
    worst: Dict[str, Tuple[float, float]] = {}
    for row in rows:
        t = row["t"]
        tag = f"t{t:g}"
        out.gate(f"{tag}.var_f", row["var_f"], row["var_f_se"], (exact.var_f_1d(t, RADIUS), 0.0))
        for name in ("dk_emp", "dk_bound", "dw_emp", "dw_bound", "t1", "t2", "sup_term"):
            key = f"{tag}.{name}"
            out.gate(key, row[name], row[f"{name}_se"], ref.get(key))
        # the cost metrics take the row with the largest relative stderr
        for base in ("dk_bound", "t1", "var_f"):
            cand = (row[base], row[f"{base}_se"])
            if base not in worst or _rel2(cand) > _rel2(worst[base]):
                worst[base] = cand
    out.costs = worst
    return out


def _rel2(vs: Tuple[float, float]) -> float:
    value, stderr = vs
    return (stderr / value) ** 2


def _ustat_args(seed: int, work: Path) -> List[str]:
    return [
        "ustat", "--kernel", "geometric_indicator", "--r", str(RADIUS), "--dim", "2",
        "--t", f"{USTAT_T:g}", "--reps", str(USTAT_REPS), "--mc-samples", "2000",
        "--seed", str(seed),
    ]


def _header_fields(line: str, prefix: str) -> Dict[str, str]:
    if not line.startswith(prefix):
        raise OutputError(f"ustat: expected a line starting {prefix!r}, got {line!r}")
    fields = {}
    for part in line[len(prefix):].split():
        key, sep, val = part.partition("=")
        if not sep:
            raise OutputError(f"ustat: malformed header field {part!r}")
        fields[key] = val
    return fields


def _check_ustat(text: str, seed: int, ref: Optional[dict]) -> Check:
    lines = text.splitlines()
    if len(lines) != 5 + USTAT_REPS:
        raise OutputError(f"ustat: {len(lines)} lines, expected {5 + USTAT_REPS}")
    kernel_line = '# kernel={"name": "geometric_indicator", "r": 0.05}'
    if lines[0] != kernel_line or lines[4] != "standardized_value":
        raise OutputError("ustat: unexpected header")
    run = _header_fields(lines[1], "# ")
    stats = {**_header_fields(lines[2], "# "), **_header_fields(lines[3], "# ")}
    values = {key: _number(val, key) for key, val in stats.items()}
    vals = np.array([_number(v, "standardized_value") for v in lines[5:]])
    out = Check()
    expect = {"t": f"{USTAT_T!r}", "reps": str(USTAT_REPS), "seed": str(seed)}
    if run != expect:
        out.failures.append(f"ustat: run line {run!r}, expected {expect!r}")
    var_f = (values["var_f"], values["var_f_se"])
    out.gate("var_f", *var_f, (exact.var_f_2d(USTAT_T, RADIUS), 0.0))
    # not gated: both carry the EF bias of the marginal fallback (see centre_z)
    for name, stat in (("dk_emp", empirical_dk), ("dw_emp", empirical_dw)):
        mine = stat(vals)
        if abs(mine - values[name]) > 1e-9:
            out.failures.append(f"{name}={values[name]!r} but the samples give {mine!r}")
        out.diagnostics[f"cli.{name}[t={USTAT_T:g}]"] = values[name]
    z = standardized_z(vals)
    out.diagnostics.update({f"cli.{k}[t={USTAT_T:g}]": v for k, v in z.items()})
    out.costs = {"var_f": var_f}
    return out


# the names match BENCHMARK.json, which also says why each workload is there
WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload("bound_t100", _bound_args, _check_bound),
        Workload("sweep", _sweep_args, _check_sweep),
        Workload("ustat_2d", _ustat_args, _check_ustat),
    )
}
