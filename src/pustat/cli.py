"""Config-driven experiment runner.

Subcommands:
    sample        emit one point-process realization as CSV
    ustat         replicate a U-statistic, standardize, emit samples + distances
    bound         emit a bound-certificate report as JSON
    partitions    count and list the contraction partitions for (i, j)
    stein-check   emit the Stein-solution property report as JSON
    berry-esseen  exact Poisson Kolmogorov distances against 8/sqrt(t)
    experiment    t-sweep from a JSON config, CSV output

Exit codes: 0 success, 2 usage/config error, 3 numerical failure (a non-finite
integral, or an unreliable bound integral under --strict), 141 a closed stdout.
Identical argv (including --seed) produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from itertools import chain
from typing import Iterable, Optional

import numpy as np

from .bounds import bound_report
from .chaos import MCValue, variance_from_kernels
from .distance import SortedSample, empirical_dK, empirical_dW, poisson_exact_dK
from .kernels import _BUILTIN_NAMES, kernel_descriptor, make_kernel
from .measure import IntensitySpec, NumericalError, sample_point_process
from .partitions import MAX_GROUP_SIZE, count_partitions, enumerate_partitions
from .stein import check_stein_properties
from .ustat import evaluate_many, replication_blocks

USAGE_ERROR = 2
NUMERICAL_ERROR = 3
CLOSED_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a command SIGPIPE killed
# poisson_exact_dK(t) holds a few arrays of t + 12 sqrt(t) entries
_TMAX_CAP = 2.0**20
# The sample counts are capped so that no array of a run reaches 1 GiB
# (2**27 doubles).  Per unit the largest hold 4 doubles per replication (a
# margin: the distances take one double each, and normal_cdf maps
# math.erf/erfc over lists of at most 2**16 of them; the Stein replications,
# with 1 each, share the cap), dim per z sample (one replication's query
# points), dim per expected point of a configuration (t times the box
# volume) and 2k * dim per Monte Carlo draw (an M_ij class of order k has up
# to 2k blocks), as if every draw were held at once (mc_integral keeps one
# double per draw).  The Stein terms also hold at most four arrays of reps *
# (z_samples + 1) <= 2 * reps * z_samples entries at once (breakpoint
# positions and weights, their sort order, and their sorted copy or running
# sum), and a byte per entry marking the tie groups, so their product reps *
# z_samples has a cap of its own.
_ARRAY_DOUBLES = 2**27
_STEIN_PAIRS = _ARRAY_DOUBLES // (4 * 2)


class ConfigError(ValueError):
    """Invalid CLI/config input; the message names the offending field."""


def _sample_caps(k: int, dim: int) -> dict:
    """The cap of each sample count for kernel order ``k`` in ``dim``
    dimensions: the largest power of two whose arrays stay below
    _ARRAY_DOUBLES."""
    per_unit = {
        "reps": 4,
        "term_reps": 4,
        "z_samples": dim,
        "mc_samples": 2 * min(k, MAX_GROUP_SIZE) * dim,
        "points": dim,
    }
    return {
        name: 1 << (max((_ARRAY_DOUBLES - 1) // size, 1).bit_length() - 1)
        for name, size in per_unit.items()
    }


def _check_caps(kernel, dim: int, stein_reps: Optional[str] = None, **counts):
    """Refuse a sample count above its cap before any work starts.
    ``stein_reps`` names the count of the Stein terms' replications when
    they run: its product with z_samples is capped too."""
    caps = _sample_caps(kernel.order, dim)
    for name, value in counts.items():
        if value > caps[name]:
            raise ConfigError(
                f"{name}: must be <= {caps[name]} (keeps arrays under 1 GiB), got {value}"
            )
    if stein_reps is not None:
        reps, z = counts[stein_reps], counts["z_samples"]
        if reps * z > _STEIN_PAIRS:
            raise ConfigError(
                f"{stein_reps} * z_samples: must be <= {_STEIN_PAIRS} (keeps the Stein terms' "
                f"arrays under 1 GiB), got {reps} * {z}"
            )


def _check_points(intensity: IntensitySpec, name: str = "t"):
    """Refuse a configuration whose expected number of points, t times the
    box volume, is above its cap before any work starts; the message names
    ``name``, the setting that gave t."""
    cap = _sample_caps(1, intensity.dim)["points"]
    if not intensity.total_mass <= cap:
        volume = intensity.volume
        raise ConfigError(
            f"{name}: must be <= {cap / volume!r} (at most {cap} expected points in a box of "
            f"volume {volume!r} keep arrays under 1 GiB), got {intensity.t!r}"
        )


def _fmt(x) -> str:
    """Shortest round-trip decimal representation, for reproducible files."""
    return repr(float(x))


def _open_out(path: Optional[str]):
    """The output of a command: stdout, or ``path`` opened for writing.
    Each command opens it after its checks and before its first sample or
    integral, so an unwritable path is refused before any work; a run that
    fails after that leaves the file empty."""
    if path is None:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"out: cannot write {path}: {exc.strerror}") from exc


def _write_lines(out, lines: Iterable[str]):
    """Write each of ``lines`` and a newline to ``out``, as the iterable
    yields them."""
    out.writelines(line + "\n" for line in lines)


def _parse_box(spec: Optional[str], dim: Optional[int]):
    """The box of ``--box`` (its dimension must match ``--dim`` when both
    are given), else the unit cube of ``--dim`` (default 1) dimensions."""
    if dim is not None and dim < 1:
        raise ConfigError(f"dim: must be >= 1, got {dim}")
    if spec is None:
        return [(0.0, 1.0)] * (1 if dim is None else dim)
    try:
        intervals = []
        for part in spec.split(";"):
            lo, hi = part.split(",")
            intervals.append((float(lo), float(hi)))
    except ValueError as exc:
        raise ConfigError(f"box: expected 'lo,hi;lo,hi;...', got {spec!r}") from exc
    if dim is not None and len(intervals) != dim:
        raise ConfigError(f"box: has {len(intervals)} intervals, --dim asks for {dim}")
    return intervals


def _check_seed(seed: int):
    """Refuse a negative seed before any work: a SeedSequence takes none."""
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")


def _kernel_from_args(args) -> dict:
    desc = {"name": args.kernel}
    if args.kernel == "constant":
        desc["c"] = args.c
        desc["k"] = args.k
    elif args.kernel == "geometric_indicator":
        if args.r is None:
            raise ConfigError("r: geometric_indicator requires --r")
        desc["r"] = args.r
    return desc


def _replicate_standardized(kernel, intensity, reps, seed, var_f: MCValue):
    """Replications of (F - EF)/sqrt(Var F), drawn in blocks from stream
    (0xA0,) of ``seed``, and the Var F that scaled them (a tuple, samples
    first).  The key collides with none of bound_report's ((0,), (1, i, j),
    (3,)), ustat's Var F key (0xFE, 0) or the bootstrap's (0xB007,).
    """
    if var_f.value <= 0:
        raise ConfigError("variance: estimated Var F is not positive")
    ef = kernel.full_integral(intensity)
    sigma = math.sqrt(var_f.value)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xA0,)))
    vals = np.empty(reps)
    for rows, points, sizes in replication_blocks(intensity, reps, rng):
        vals[rows] = (evaluate_many(kernel, points, sizes) - ef) / sigma
    return vals, var_f


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> int:
    _check_seed(args.seed)
    box = _parse_box(args.box, args.dim)
    intensity = IntensitySpec(box, t=args.t)
    _check_points(intensity)
    with _open_out(args.out) as out:
        cfg = sample_point_process(intensity,
                                   np.random.default_rng(np.random.SeedSequence(args.seed)))
        head = ",".join(f"x{c + 1}" for c in range(cfg.dim))
        _write_lines(out, chain([head], (",".join(map(_fmt, row)) for row in cfg.points)))
    return 0


def _cmd_ustat(args) -> int:
    _check_seed(args.seed)
    if args.reps < 1:
        raise ConfigError("reps: must be >= 1")
    kernel = make_kernel(_kernel_from_args(args))
    box = _parse_box(args.box, args.dim)
    _check_caps(kernel, len(box), reps=args.reps, mc_samples=args.mc_samples)
    intensity = IntensitySpec(box, t=args.t)
    _check_points(intensity)
    with _open_out(args.out) as out:
        var_f = variance_from_kernels(
            kernel,
            intensity,
            mc_samples=args.mc_samples,
            rng=np.random.SeedSequence(args.seed, spawn_key=(0xFE, 0)),
        )
        vals, _ = _replicate_standardized(kernel, intensity, args.reps, args.seed, var_f)
        dk = empirical_dK(vals)
        dw = empirical_dW(vals)
        lines = [
            f"# kernel={json.dumps(kernel_descriptor(kernel), sort_keys=True)}",
            f"# t={_fmt(intensity.t)} reps={args.reps} seed={args.seed}",
            f"# var_f={_fmt(var_f.value)} var_f_se={_fmt(var_f.stderr)}",
            f"# dk_emp={_fmt(dk)} dw_emp={_fmt(dw)}",
            "standardized_value",
        ]
        _write_lines(out, chain(lines, map(_fmt, vals)))
    return 0


def _cmd_bound(args) -> int:
    _check_seed(args.seed)
    kernel = make_kernel(_kernel_from_args(args))
    box = _parse_box(args.box, args.dim)
    counts = {"mc_samples": args.mc_samples}
    if args.stein_terms:
        counts.update(reps=args.reps, z_samples=args.z_samples)
    _check_caps(kernel, len(box), "reps" if args.stein_terms else None, **counts)
    intensity = IntensitySpec(box, t=args.t)
    if args.stein_terms:
        # only the Stein terms draw configurations
        _check_points(intensity)
    with _open_out(args.out) as out:
        report = bound_report(
            kernel,
            intensity,
            seed=args.seed,
            mc_samples=args.mc_samples,
            with_rij=args.rij,
            with_stein_terms=args.stein_terms,
            reps=args.reps,
            z_samples=args.z_samples,
        )
        _write_lines(out, [json.dumps(report.to_dict(), indent=2)])
    if args.strict and (report.var_f_unreliable or report.unreliable):
        if report.var_f_unreliable:
            print("error: unreliable Var F estimate", file=sys.stderr)
        if report.unreliable:
            print(
                f"error: unreliable M_ij estimates at {list(report.unreliable)}",
                file=sys.stderr,
            )
        return NUMERICAL_ERROR
    return 0


def _partition_line(partition) -> str:
    return " ".join("{" + ", ".join(f"{g}:{s}" for g, s in block) + "}" for block in partition)


def _cmd_partitions(args) -> int:
    # both calls check (i, j) before anything is written
    parts = enumerate_partitions(args.i, args.j)
    head = f"count={count_partitions(args.i, args.j)}"
    with _open_out(args.out) as out:
        _write_lines(out, chain([head], map(_partition_line, parts)))
    return 0


def _cmd_stein_check(args) -> int:
    with _open_out(args.out) as out:
        _write_lines(out, [json.dumps(check_stein_properties(), indent=2)])
    return 0


def _cmd_berry_esseen(args) -> int:
    if not 1 <= args.tmax <= _TMAX_CAP:
        raise ConfigError(f"tmax: must be between 1 and 2**20 = {_TMAX_CAP:.0f}, got {args.tmax!r}")
    with _open_out(args.out) as out:
        lines = ["t,dk_exact,bound"]
        t = 1.0
        while t <= args.tmax:
            dk = poisson_exact_dK(t)
            lines.append(f"{_fmt(t)},{_fmt(dk)},{_fmt(8.0 / math.sqrt(t))}")
            t *= 2.0
        _write_lines(out, lines)
    return 0


_EXPERIMENT_FIELDS = {
    "kernel": dict,
    "box": list,
    "t_values": list,
    "seed": int,
    "reps": int,
    "mc_samples": int,
    "z_samples": int,
    "term_reps": int,
    "stein_terms": bool,
}
_EXPERIMENT_MINIMA = {"reps": 2, "term_reps": 2, "mc_samples": 2, "z_samples": 1}


def _is_interval(iv) -> bool:
    """Whether ``iv`` is a [lo, hi] list of finite numbers (not bools)."""
    numbers = type(iv) is list and all(type(x) in (int, float) for x in iv)
    return numbers and len(iv) == 2 and all(abs(x) <= sys.float_info.max for x in iv)


def _load_experiment_config(path: str, seed: Optional[int] = None) -> dict:
    """The config at ``path`` with its defaults; ``seed``, when given,
    replaces the config's own seed."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    if seed is not None:
        cfg["seed"] = seed
    for key in ("kernel", "t_values", "seed"):
        if key not in cfg:
            raise ConfigError(f"{key}: missing required config field")
    for key, value in cfg.items():
        if key not in _EXPERIMENT_FIELDS:
            raise ConfigError(f"{key}: unknown config field")
        # exact types: a bool is an int to isinstance
        if type(value) is not _EXPERIMENT_FIELDS[key]:
            raise ConfigError(f"{key}: expected {_EXPERIMENT_FIELDS[key].__name__}")
    _check_seed(cfg["seed"])
    if not cfg["t_values"]:
        raise ConfigError("t_values: must be a nonempty list")
    for t in cfg["t_values"]:
        if type(t) not in (int, float):
            raise ConfigError(f"t_values: expected numbers, got {t!r}")
        if not 0.0 < t <= sys.float_info.max:
            raise ConfigError(f"t_values: each t must be finite and > 0, got {t!r}")
    cfg.setdefault("box", [[0.0, 1.0]])
    if not cfg["box"] or not all(_is_interval(iv) for iv in cfg["box"]):
        raise ConfigError(f"box: expected a nonempty list of [lo, hi] number pairs: {cfg['box']!r}")
    cfg.setdefault("reps", 1000)
    cfg.setdefault("mc_samples", 200_000)
    cfg.setdefault("z_samples", 128)
    cfg.setdefault("term_reps", 1000)
    cfg.setdefault("stein_terms", True)
    for key, least in _EXPERIMENT_MINIMA.items():
        if cfg[key] < least:
            raise ConfigError(f"{key}: must be >= {least}")
    return cfg


# each after t as a value and a stderr column
_SWEEP_STATS = ("var_f", "dk_emp", "dk_bound", "dw_emp", "dw_bound", "t1", "t2", "sup_term")
_SWEEP_COLUMNS = ",".join(["t", *(f"{name},{name}_se" for name in _SWEEP_STATS)])


def _bootstrap_se(vals: np.ndarray, seed: int, draws: int = 100):
    """Bootstrap stderrs of dK and dW (a tuple, dK first).  Both statistics
    read each of the ``draws`` resamples, drawn from stream (0xB007,) of
    ``seed`` as positions into one sorted table of ``vals``."""
    table = SortedSample(vals)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xB007,)))
    n = len(vals)
    dk, dw = np.empty(draws), np.empty(draws)
    for b in range(draws):
        pos = table.positions(rng.integers(0, n, n))
        dk[b] = table.dk(pos)
        dw[b] = table.dw(pos)
    return float(dk.std(ddof=1)), float(dw.std(ddof=1))


def _cmd_experiment(args) -> int:
    cfg = _load_experiment_config(args.config, args.seed)
    try:
        kernel = make_kernel(cfg["kernel"])
    except ValueError as exc:
        raise ConfigError(f"kernel: {exc}") from exc
    _check_caps(kernel, len(cfg["box"]), "term_reps" if cfg["stein_terms"] else None,
                **{key: cfg[key] for key in _EXPERIMENT_MINIMA})
    _check_points(IntensitySpec(cfg["box"], t=max(cfg["t_values"])), "t_values")
    with _open_out(args.out) as out:
        rows = [_sweep_row(kernel, cfg, t) for t in cfg["t_values"]]
        _write_lines(out, [_SWEEP_COLUMNS, *rows])
    return 0


def _sweep_row(kernel, cfg: dict, t: float) -> str:
    """The CSV row of the sweep at intensity t."""
    intensity = IntensitySpec(cfg["box"], t=t)
    report = bound_report(
        kernel,
        intensity,
        seed=cfg["seed"],
        mc_samples=cfg["mc_samples"],
        with_stein_terms=cfg["stein_terms"],
        reps=cfg["term_reps"],
        z_samples=cfg["z_samples"],
    )
    # standardize by the Var F the row prints
    vals, _ = _replicate_standardized(kernel, intensity, cfg["reps"], cfg["seed"], report.var_f)
    dk_emp = empirical_dK(vals)
    dw_emp = empirical_dW(vals)
    dk_se, dw_se = _bootstrap_se(vals, cfg["seed"])
    th = report.stein_terms
    stats = {
        "var_f": report.var_f,
        "dk_emp": (dk_emp, dk_se),
        "dk_bound": report.dk,
        "dw_emp": (dw_emp, dw_se),
        "dw_bound": report.dw,
        **({"t1": th.t1, "t2": th.t2, "sup_term": th.sup_term} if th else {}),
    }
    cells = [_fmt(t)]
    for name in _SWEEP_STATS:
        cells.extend(map(_fmt, stats[name]) if name in stats else ("", ""))
    return ",".join(cells)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_kernel_flags(sub):
    sub.add_argument(
        "--kernel",
        required=True,
        choices=_BUILTIN_NAMES,
        help="built-in kernel name",
    )
    sub.add_argument("--r", type=float, help="radius of the distance indicator")
    sub.add_argument("--c", type=float, default=1.0, help="constant kernel value")
    sub.add_argument("--k", type=int, default=1, help="constant kernel order")


def _add_common(sub, *, seed_required=True, seed_default=0,
                seed_help="master seed; identical seeds give identical bytes"):
    sub.add_argument("--seed", type=int, required=seed_required, default=seed_default,
                     help=seed_help)
    sub.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pustat",
        description="Gaussian-approximation bound certificates for Poisson U-statistics",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sample", help="emit one point-process realization as CSV")
    p.add_argument("--t", type=float, required=True, help="intensity scale")
    p.add_argument("--dim", type=int)
    p.add_argument("--box", help="'lo,hi;lo,hi;...' per dimension (default unit box)")
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("ustat", help="replicate, standardize, emit samples + distances")
    _add_kernel_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--box")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--mc-samples", type=int, default=200_000)
    _add_common(p)
    p.set_defaults(func=_cmd_ustat)

    p = subs.add_parser("bound", help="emit a bound-certificate report as JSON")
    _add_kernel_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--box")
    p.add_argument("--mc-samples", type=int, default=200_000)
    p.add_argument("--reps", type=int, default=2000, help="replications of the Stein terms")
    p.add_argument("--z-samples", type=int, default=128)
    p.add_argument("--rij", action="store_true", help="estimate the R_ij matrix (order <= 2)")
    p.add_argument("--stein-terms", action="store_true", help="estimate the inner-product terms")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when a bound integral is flagged unreliable")
    _add_common(p)
    p.set_defaults(func=_cmd_bound)

    p = subs.add_parser("partitions", help="count and list contraction partitions")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    _add_common(p, seed_required=False)
    p.set_defaults(func=_cmd_partitions)

    p = subs.add_parser("stein-check", help="Stein-solution property report as JSON")
    _add_common(p, seed_required=False)
    p.set_defaults(func=_cmd_stein_check)

    p = subs.add_parser("berry-esseen", help="exact Poisson distances vs 8/sqrt(t)")
    p.add_argument("--tmax", type=float, default=1024.0)
    _add_common(p, seed_required=False)
    p.set_defaults(func=_cmd_berry_esseen)

    p = subs.add_parser("experiment", help="t-sweep from a JSON config, CSV output")
    p.add_argument("config", help="path to the experiment JSON config")
    _add_common(p, seed_required=False, seed_default=None,
                seed_help="master seed; replaces the config's \"seed\" when given")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: Python's flush at exit then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_PIPE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
