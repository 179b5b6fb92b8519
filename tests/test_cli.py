import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pustat import bounds
from pustat.cli import (
    _STEIN_PAIRS, _bootstrap_se, _check_caps, _kernel_from_args, _sample_caps, build_parser, main,
)
from pustat.distance import _normal_quantiles, empirical_dK, empirical_dW
from pustat.kernels import kernel_descriptor, make_count, make_geometric_indicator, make_kernel
from pustat.measure import IntensitySpec, PointConfiguration
from pustat.partitions import contraction_classes
from pustat.stein import normal_cdf
from pustat.ustat import evaluate

from oracles import (
    brute_force_partitions,
    child_peak_rss_mb,
    distance_sample_kinds,
    empirical_dk_direct,
    empirical_dw_direct,
)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--kernel", "count", "--t", "5"])  # no --seed
    assert exc.value.code == 2


def test_partitions_output(capsys):
    code, out, _ = _run(capsys, "partitions", "1", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count=1"
    assert lines[1] == "{1:1, 2:1, 3:1, 4:1}"


def test_partitions_against_oracle(capsys):
    code, out, _ = _run(capsys, "partitions", "1", "2")
    lines = out.strip().splitlines()
    assert lines[0] == f"count={len(brute_force_partitions(1, 2))}"
    assert len(lines) == 1 + len(brute_force_partitions(1, 2))


def test_partitions_stream_class_by_class(capsys):
    code, out, _ = _run(capsys, "partitions", "2", "3")
    assert code == 0
    head, *lines = out.splitlines()
    expected = brute_force_partitions(2, 3)
    assert head == f"count={len(expected)}"
    runs, parts = [], set()
    for line in lines:
        blocks = [
            [tuple(map(int, v.split(":"))) for v in block.split(", ")]
            for block in line[1:-1].split("} {")
        ]
        masks = tuple(sorted(sum(1 << (g - 1) for g, _ in block) for block in blocks))
        if not runs or runs[-1] != masks:
            runs.append(masks)
        parts.add(frozenset(frozenset(block) for block in blocks))
    # each class's lines are contiguous, in the order of contraction_classes
    assert runs == [masks for masks, _ in contraction_classes((2, 2, 3, 3))]
    assert parts == expected


@pytest.mark.parametrize("i, j", [(5, 1), (1, 0)])
def test_partitions_size_cap_exits_2(capsys, i, j):
    code, out, err = _run(capsys, "partitions", str(i), str(j))
    assert code == 2
    assert out == ""
    assert "group sizes" in err


def test_bound_count_json(capsys):
    code, out, _ = _run(capsys, "bound", "--kernel", "count", "--t", "400",
                        "--seed", "7", "--mc-samples", "1000")
    assert code == 0
    data = json.loads(out)
    assert data["dk_bound"] == 0.95
    assert data["dw_bound"] == pytest.approx(0.1, abs=1e-14)
    assert data["var_f"]["value"] == 400.0
    assert data["m"][0][0]["value"] == 400.0
    assert data["r"] is None and data["t1"] is None
    for key in ("var_f", "m", "r", "dk_bound", "dw_bound", "fourth_moment_bound",
                "t1", "t2", "c_f", "sup_term"):
        assert key in data


def test_bound_with_terms(capsys):
    code, out, _ = _run(capsys, "bound", "--kernel", "count", "--t", "25",
                        "--seed", "3", "--mc-samples", "500", "--reps", "200",
                        "--z-samples", "16", "--rij", "--stein-terms")
    data = json.loads(out)
    assert code == 0
    assert data["r"][0][0]["value"] == pytest.approx(0.0, abs=1e-10)
    assert abs(data["t1"]["value"]) <= 1e-10
    assert data["t2"]["value"] == pytest.approx(0.04, abs=1e-12)
    assert data["sup_term"]["value"] >= 0.0


def test_bound_strict_flags_unreliable_integrals(capsys):
    # starved sampling of a rare indicator: stderr/estimate blows past the
    # threshold and strict mode reports a numerical failure (in 2-D, where
    # every class takes Monte Carlo)
    argv = ["bound", "--kernel", "geometric_indicator", "--r", "0.01", "--t", "5",
            "--seed", "1", "--mc-samples", "60", "--dim", "2", "--strict"]
    code, out, err = _run(capsys, *argv)
    assert code == 3
    assert "unreliable" in err
    assert json.loads(out)["unreliable"]
    # without --strict the same run succeeds and only flags the entry
    code, out, _ = _run(capsys, *argv[:-1])
    assert code == 0
    assert json.loads(out)["unreliable"]
    # on the unit interval every M_ij is exact and none is flagged
    code, out, _ = _run(capsys, *argv[:-3])
    assert code == 0
    data = json.loads(out)
    assert data["unreliable"] == []
    assert all(v["stderr"] == 0.0 for row in data["m"] for v in row)
    # M_21 is the estimate M_12: an off-diagonal entry is flagged once, as i <= j
    code, out, err = _run(capsys, "bound", "--kernel", "geometric_indicator", "--r", "0.05",
                          "--dim", "2", "--t", "100", "--mc-samples", "500", "--seed", "1",
                          "--strict")
    data = json.loads(out)
    flagged = [tuple(ij) for ij in data["unreliable"]]
    assert code == 3
    assert (1, 2) in flagged
    assert all(i <= j for i, j in flagged)
    assert f"{flagged}" in err
    # M_22 reads 800 +- 356 against about 7,600: its stderr passes, but some
    # of its classes got no nonzero draw; Var F's 2-block class got a few
    assert (2, 2) in flagged
    assert data["var_f_unreliable"] is True
    assert "unreliable Var F" in err


def test_non_finite_c_exits_2(capsys):
    # refused when the kernel is built, before any integral
    for c in ("nan", "inf", "-inf"):
        code, out, err = _run(capsys, "bound", "--kernel", "constant", f"--c={c}", "--k", "2",
                              "--t", "10", "--seed", "1", "--mc-samples", "100")
        assert code == 2
        assert out == ""
        assert "c must be finite" in err


def test_z_samples_below_1_exits_2(tmp_path, capsys):
    code, out, err = _run(capsys, "bound", "--kernel", "count", "--t", "10", "--seed", "1",
                          "--stein-terms", "--reps", "50", "--z-samples", "0")
    assert code == 2
    assert "z_samples" in err
    assert out == ""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": {"name": "count"}, "t_values": [10], "seed": 1,
                               "reps": 50, "mc_samples": 100, "z_samples": 0,
                               "term_reps": 50}))
    code, _, err = _run(capsys, "experiment", str(cfg))
    assert code == 2
    assert "z_samples" in err


@pytest.mark.parametrize("order", ["3", "4"])
def test_bound_high_order_constant(capsys, order):
    code, out, err = _run(capsys, "bound", "--kernel", "constant", "--k", order, "--t", "2",
                          "--seed", "1", "--mc-samples", "1000")
    assert code == 0, err
    data = json.loads(out)
    assert len(data["m"]) == int(order)
    assert data["unreliable"] == []


def test_bound_order_above_cap_exits_2(capsys):
    code, _, err = _run(capsys, "bound", "--kernel", "constant", "--k", "5", "--t", "2",
                        "--seed", "1", "--mc-samples", "100")
    assert code == 2
    assert "capped" in err


def test_ustat_2d_replications_are_centred(capsys):
    # every standardized value subtracts the same EF, so an EF error shows
    # as a mean offset; a Monte Carlo EF from 20k fixed draws is 1.5 sd off here
    n = 300
    code, out, _ = _run(capsys, "ustat", "--kernel", "geometric_indicator", "--r", "0.05",
                        "--dim", "2", "--t", "400", "--reps", str(n), "--mc-samples", "500",
                        "--seed", "3")
    assert code == 0
    vals = [float(v) for v in out.splitlines()[5:]]
    assert len(vals) == n
    assert abs(sum(vals) / n * math.sqrt(n)) <= 4.0


@pytest.mark.parametrize("extra", [(), ("--stein-terms", "--reps", "50", "--z-samples", "16")],
                         ids=["plain", "stein_terms"])
def test_bound_2d_certificate(capsys, extra):
    argv = ("bound", "--kernel", "geometric_indicator", "--r", "0.05", "--dim", "2", "--t", "100",
            "--mc-samples", "500", "--seed", "1", *extra)
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    data = json.loads(out)
    assert math.isfinite(data["var_f"]["value"]) and math.isfinite(data["var_f"]["stderr"])
    assert all(math.isfinite(v["value"]) and math.isfinite(v["stderr"])
               for row in data["m"] for v in row)
    assert (data["t1"] is not None) == bool(extra)
    assert _run(capsys, *argv) == (0, out, "")


# (value, stderr) of var_f, m[0][1], m[1][1], r[0][1] and t1 at seed 1, at full
# precision: they pin the fallback's draws, from seed _FALLBACK.seed + 7919 s
# on stream s.  The 2-D box is narrower than 2r, so the first marginal takes
# the fallback; on the unit square ("2d_closed_form") it is the disc area in
# the box and no fallback draw is made.  No draw reaches R_12's class in the
# unit square or cube at these settings: it reads 0
_FALLBACK_STREAM_PINS = {
    "2d": (("--r", "0.05", "--dim", "2", "--box", "0,1;0,0.08", "--t", "100",
            "--mc-samples", "500", "--reps", "200", "--z-samples", "8"),
           [(17.928873338880003, 1.3279455306047758), (92.66471927808001, 15.549048952630919),
            (461.8240000000001, 83.49587746145387), (5.722047774720001, 2.9063657480541925),
            (0.643553400321226, 0.04428749927569891)]),
    "2d_closed_form": (("--r", "0.05", "--dim", "2", "--t", "100", "--mc-samples", "500",
                        "--reps", "200", "--z-samples", "8"),
                       [(353.16128086436674, 69.16701327838396),
                        (20907.2488764113, 19567.787656764092), (800.0, 356.33403976576744),
                        (0.0, 0.0), (0.4522346694825192, 0.025399488244207624)]),
    "3d": (("--r", "0.2", "--dim", "3", "--t", "20", "--mc-samples", "300",
            "--reps", "50", "--z-samples", "4"),
           [(48.87408533333333, 7.916426065465389), (82.10165333333333, 24.995850450163818),
            (74.66666666666667, 27.936755031314448), (0.0, 0.0),
            (0.7240959413419474, 0.07609239764596651)]),
}


@pytest.mark.parametrize("case", list(_FALLBACK_STREAM_PINS))
def test_fallback_streams_are_pinned_bit_for_bit(capsys, case):
    # Var F, M_12 and T1 read the first marginal: in the fallback, factor a
    # of a class integral on stream a + 1 and the -D_z L^{-1} F term on
    # stream 0; a drift of either, or of the closed form, moves these bits
    flags, want = _FALLBACK_STREAM_PINS[case]
    code, out, err = _run(capsys, "bound", "--kernel", "geometric_indicator", *flags,
                          "--rij", "--stein-terms", "--seed", "1")
    assert code == 0, err
    data = json.loads(out)
    got = [data["var_f"], data["m"][0][1], data["m"][1][1], data["r"][0][1], data["t1"]]
    assert [(v["value"], v["stderr"]) for v in got] == want


def test_berry_esseen_table(capsys):
    code, out, _ = _run(capsys, "berry-esseen", "--tmax", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,dk_exact,bound"
    assert len(lines) == 1 + 7  # t = 1..64 dyadic
    for line in lines[1:]:
        t, dk, bound = (float(v) for v in line.split(","))
        assert dk <= bound
        assert bound == pytest.approx(8.0 / math.sqrt(t), rel=1e-12)


@pytest.mark.parametrize("tmax", ["nan", "inf", "1e9"])
def test_berry_esseen_tmax_beyond_the_cap_exits_2(capsys, tmax):
    # refused before the first row: each row holds arrays of about t entries
    code, out, err = _run(capsys, "berry-esseen", "--tmax", tmax)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tmax:")


def test_berry_esseen_tmax_at_the_cap(capsys):
    code, out, _ = _run(capsys, "berry-esseen", "--tmax", "1048576")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 21  # t = 2^0 .. 2^20
    assert float(lines[-1].split(",")[0]) == 2.0**20


def test_sample_reproducible(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code, _, _ = _run(capsys, "sample", "--t", "12", "--seed", "99",
                          "--dim", "2", "--out", str(path))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "x1,x2"


def test_sample_custom_box(tmp_path, capsys):
    out = tmp_path / "box.csv"
    code, _, _ = _run(capsys, "sample", "--t", "40", "--seed", "8", "--dim", "2",
                      "--box", "0,2;-1,1", "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    xs = [float(r[0]) for r in rows]
    ys = [float(r[1]) for r in rows]
    assert all(0.0 <= x <= 2.0 for x in xs)
    assert all(-1.0 <= y <= 1.0 for y in ys)


def test_dim_and_box(capsys):
    # --box alone sets the dimension, --dim alone gives the unit cube, and
    # both must agree
    for flags, header in ((("--box", "0,1;0,2"), "x1,x2"), (("--dim", "3"), "x1,x2,x3"),
                          (("--dim", "2", "--box", "0,1;0,2"), "x1,x2")):
        code, out, _ = _run(capsys, "sample", "--t", "3", "--seed", "1", *flags)
        assert code == 0
        assert out.splitlines()[0] == header
    for argv in (("sample", "--t", "3"), ("bound", "--kernel", "count", "--t", "3")):
        code, out, err = _run(capsys, *argv, "--seed", "1", "--dim", "2", "--box", "0,1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: box:")


@pytest.mark.parametrize("dim", ["0", "-1"])
@pytest.mark.parametrize("argv", [("sample", "--t", "3"), ("ustat", "--kernel", "count", "--t", "3"),
                                  ("bound", "--kernel", "count", "--t", "3")],
                         ids=["sample", "ustat", "bound"])
def test_dim_below_1_exits_2(capsys, argv, dim):
    code, out, err = _run(capsys, *argv, "--seed", "1", "--dim", dim)
    assert code == 2
    assert out == ""
    assert err.startswith("error: dim") and "Traceback" not in err


def test_sample_bad_box_exits_2(capsys):
    code, _, err = _run(capsys, "sample", "--t", "1", "--seed", "1", "--box", "oops")
    assert code == 2
    assert "box" in err


def test_sample_seed_changes_output(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _run(capsys, "sample", "--t", "12", "--seed", "1", "--out", str(a))
    _run(capsys, "sample", "--t", "12", "--seed", "2", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_ustat_emits_samples_and_distances(tmp_path, capsys):
    out = tmp_path / "u.csv"
    code, _, _ = _run(capsys, "ustat", "--kernel", "geometric_indicator",
                      "--r", "0.1", "--t", "20", "--reps", "300",
                      "--mc-samples", "20000", "--seed", "5", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert meta[0] == '# kernel={"name": "geometric_indicator", "r": 0.1}'
    assert any("dk_emp=" in l for l in meta)
    assert any("dw_emp=" in l for l in meta)
    values = [float(l) for l in lines if not l.startswith("#") and l != "standardized_value"]
    assert len(values) == 300


@pytest.mark.parametrize("flags", [
    ["--kernel", "geometric_indicator", "--r", "0.05"],
    ["--kernel", "geometric_indicator", "--r", "1e-300"],
    ["--kernel", "constant", "--c", "-2", "--k", "3"],
    ["--kernel", "constant"],
    ["--kernel", "count", "--c", "5", "--k", "2"],
])
def test_ustat_kernel_header_is_the_kernels_descriptor(flags):
    # the header reads the built kernel; it is the JSON of the flags it was built from
    args = build_parser().parse_args(["ustat", *flags, "--t", "5", "--seed", "1"])
    desc = _kernel_from_args(args)
    assert json.dumps(kernel_descriptor(make_kernel(desc)), sort_keys=True) == json.dumps(
        desc, sort_keys=True)


def test_ustat_requires_radius(capsys):
    code, _, err = _run(capsys, "ustat", "--kernel", "geometric_indicator",
                        "--t", "5", "--seed", "1")
    assert code == 2
    assert "r" in err


def test_stein_check_json(capsys):
    code, out, _ = _run(capsys, "stein-check")
    data = json.loads(out)
    assert code == 0
    assert data["passed"] is True
    # the printed keys, their order and the grid the report evaluates
    assert list(data) == ["s_values", "grid", "g_min", "g_max", "g_upper_bound",
                          "gprime_abs_max", "wg_abs_max", "gsecond_margin_min", "jump_errors",
                          "passed"]
    assert data["s_values"] == [-2.0, 0.0, 1.0]
    assert data["grid"] == {"w_min": -8.0, "w_max": 8.0, "step": 0.01}
    assert list(data["jump_errors"]) == ["-2.0", "0.0", "1.0"]


@pytest.mark.parametrize("argv, message", [
    (["bound", "--kernel", "count", "--t", "1", "--box", "1,0"],
     "box interval (1.0, 0.0) must satisfy lo < hi"),
    (["ustat", "--kernel", "count", "--t", "-1"], "scale t must be finite and nonnegative"),
    (["sample", "--t", "nan"], "scale t must be finite and nonnegative"),
    (["sample", "--t", "1", "--dim", "2", "--box", "0,1;2,2"],
     "box interval (2.0, 2.0) must satisfy lo < hi"),
], ids=["bound_reversed_box", "ustat_negative_t", "sample_nan_t", "sample_empty_interval"])
def test_intensity_errors_exit_2(capsys, argv, message):
    # IntensitySpec's own message, as a usage error and without a traceback
    code, out, err = _run(capsys, *argv, "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


_GOOD_CONFIG = {"kernel": {"name": "count"}, "t_values": [10], "seed": 1, "reps": 50,
                "mc_samples": 100, "z_samples": 8, "term_reps": 20}


@pytest.mark.parametrize("change, field", [
    ({"t_values": None}, "t_values"),
    ({"kernel": {"name": "nope"}}, "kernel"),
    ({"reps": True}, "reps"),
    ({"seed": False}, "seed"),
    ({"reps": -1}, "reps"),
    ({"reps": 0}, "reps"),
    ({"reps": 1}, "reps"),
    ({"term_reps": 1}, "term_reps"),
    ({"mc_samples": 1}, "mc_samples"),
    ({"z_samples": 0}, "z_samples"),
    ({"t_values": [True]}, "t_values"),
    ({"t_values": [10, 0]}, "t_values"),
    ({"t_values": [10, -5]}, "t_values"),
    ({"t_values": ["a"]}, "t_values"),
    ({"t_values": [10, math.inf]}, "t_values"),
    ({"t_values": [10, math.nan]}, "t_values"),
    ({"t_values": [10**400]}, "t_values"),
    ({"box": [1]}, "box"),
    ({"box": [[0, "a"]]}, "box"),
    ({"box": []}, "box"),
    ({"box": [[0, 1, 2]]}, "box"),
    ({"box": [[0, True]]}, "box"),
    ({"box": [[0, 10**400]]}, "box"),
    ({"kernel": {"name": "geometric_indicator", "r": "x"}}, "kernel"),
    ({"kernel": {"name": "geometric_indicator", "r": True}}, "kernel"),
    ({"kernel": {"name": "geometric_indicator", "r": 10**400}}, "kernel"),
    ({"kernel": {"name": "constant", "k": 2.5}}, "kernel"),
    ({"kernel": {"name": "constant", "k": True}}, "kernel"),
    ({"kernel": {"name": "constant", "c": "1"}}, "kernel"),
    ({"kernel": {"name": "constant", "c": 10**400}}, "kernel"),
    ({"kernel": {"name": "constant", "c": math.inf}}, "kernel"),
    ({"reps": 10**15}, "reps"),
    ({"term_reps": 10**15}, "term_reps"),
    ({"mc_samples": 10**15}, "mc_samples"),
    ({"z_samples": 10**15}, "z_samples"),
    ({"t_values": [10, 1e15]}, "t_values"),
    ({"box": [[0, 1e15]]}, "t_values"),
    ({"stien_terms": False}, "stien_terms"),
    ({"t_values": []}, "t_values"),
], ids=["missing_t_values", "unknown_kernel", "bool_reps", "bool_seed", "negative_reps",
        "zero_reps", "one_rep", "one_term_rep", "one_mc_sample", "zero_z_samples",
        "bool_t", "zero_t", "negative_t", "string_t", "infinite_t", "nan_t", "huge_int_t",
        "number_box", "string_box_end", "empty_box", "triple_box", "bool_box_end",
        "huge_int_box_end", "string_r", "bool_r", "huge_int_r", "float_k", "bool_k", "string_c",
        "huge_int_c", "infinite_c", "huge_reps", "huge_term_reps", "huge_mc_samples",
        "huge_z_samples", "too_many_points_t", "too_many_points_box", "unknown_field",
        "empty_t_values"])
def test_experiment_config_errors(tmp_path, capsys, change, field):
    # refused before the first row, with a message that names the field
    cfg = {**_GOOD_CONFIG, **change}
    cfg = {key: value for key, value in cfg.items() if value is not None}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "experiment", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}:")


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"],
                         ids=["missing_file", "invalid_json", "json_list"])
def test_experiment_unreadable_config_exits_2(tmp_path, capsys, text):
    # a config that is not there, not JSON or not an object: one line naming it
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    code, out, err = _run(capsys, "experiment", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: config:") and err.count("\n") == 1


def test_ustat_refuses_a_var_f_that_is_not_positive(capsys):
    # c = 0 makes F = 0: nothing to standardize by
    code, out, err = _run(capsys, "ustat", "--kernel", "constant", "--c", "0", "--k", "2",
                          "--t", "10", "--reps", "10", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == "error: variance: estimated Var F is not positive\n"


@pytest.mark.parametrize("argv, field", [
    (("bound", "--kernel", "geometric_indicator", "--r", "0.1", "--t", "10",
      "--mc-samples", "1", "--seed", "1"), "samples"),
    (("ustat", "--kernel", "geometric_indicator", "--r", "0.1", "--t", "10",
      "--mc-samples", "1", "--seed", "1"), "samples"),
    (("ustat", "--kernel", "geometric_indicator", "--r", "0.1", "--t", "10",
      "--reps", "0", "--seed", "1"), "reps"),
], ids=["bound_one_mc_sample", "ustat_one_mc_sample", "ustat_zero_reps"])
def test_unusable_sample_counts_exit_2(capsys, argv, field):
    # one Monte Carlo sample has no standard error: no Infinity or NaN output
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert field in err


def test_experiment_sweep(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kernel": {"name": "geometric_indicator", "r": 0.1},
        "t_values": [10, 20],
        "seed": 17,
        "reps": 200,
        "mc_samples": 10_000,
        "z_samples": 16,
        "term_reps": 100,
    }))
    out = tmp_path / "sweep.csv"
    code, _, _ = _run(capsys, "experiment", str(cfg), "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "var_f", "var_f_se", "dk_emp", "dk_emp_se", "dk_bound",
                      "dk_bound_se", "dw_emp", "dw_emp_se", "dw_bound", "dw_bound_se",
                      "t1", "t1_se", "t2", "t2_se", "sup_term", "sup_term_se"]
    assert len(lines) == 3
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["t"]) == 10.0
    assert float(row["dk_emp"]) <= float(row["dk_bound"])
    # rerun reproduces bytes
    out2 = tmp_path / "sweep2.csv"
    _run(capsys, "experiment", str(cfg), "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_experiment_standardizes_by_printed_var_f(tmp_path, capsys):
    # dk_emp must come from the replications scaled by the row's own var_f
    seed, reps, t = 17, 200, 20.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kernel": {"name": "geometric_indicator", "r": 0.1},
        "t_values": [t],
        "seed": seed,
        "reps": reps,
        "mc_samples": 2000,
        "stein_terms": False,
    }))
    code, out, _ = _run(capsys, "experiment", str(cfg))
    assert code == 0
    header, line = out.splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    kernel = make_geometric_indicator(0.1)
    spec = IntensitySpec([(0.0, 1.0)], t=t)
    ef = kernel.full_integral(spec)
    sigma = math.sqrt(float(row["var_f"]))
    # one stream (0xA0,): every replication's count, then all the points;
    # on the unit box a point is the uniform double itself
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xA0,)))
    sizes = rng.poisson(t, reps)
    points = rng.random((int(sizes.sum()), 1))
    configs = np.split(points, np.cumsum(sizes)[:-1])
    vals = np.array([evaluate(kernel, PointConfiguration(p)) for p in configs])
    vals = (vals - ef) / sigma
    assert empirical_dK(vals) == float(row["dk_emp"])


def test_experiment_seed_flag_replaces_config_seed(tmp_path, capsys):
    base = {
        "kernel": {"name": "geometric_indicator", "r": 0.1},
        "t_values": [10],
        "reps": 100,
        "mc_samples": 2000,
        "z_samples": 8,
        "term_reps": 20,
    }
    outputs = {}
    for name, cfg, flags in (
        ("config_7", {**base, "seed": 7}, ()),
        ("config_1_flag_7", {**base, "seed": 1}, ("--seed", "7")),
        ("no_seed_flag_7", base, ("--seed", "7")),
        ("config_1", {**base, "seed": 1}, ()),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        code, outputs[name], _ = _run(capsys, "experiment", str(path), *flags)
        assert code == 0
    assert outputs["config_1_flag_7"] == outputs["config_7"]
    assert outputs["no_seed_flag_7"] == outputs["config_7"]
    assert outputs["config_1"] != outputs["config_7"]


@pytest.mark.parametrize("argv, span, calls", [
    (["bound", "--kernel", "geometric_indicator", "--r", "0.05", "--t", "20", "--rij",
      "--stein-terms", "--reps", "50", "--mc-samples", "2000", "--seed", "1"],
     "accel.count_neighbors", None),
    (["ustat", "--kernel", "geometric_indicator", "--r", "0.05", "--t", "20", "--reps", "50",
      "--mc-samples", "2000", "--seed", "1"],
     "cli.replicate", 1),
], ids=["bound", "ustat"])
def test_traced_bound_prints_the_untraced_bytes(tmp_path, argv, span, calls):
    # the benchmark's tracer wraps the counters, reads int() of a pair count
    # and len() of a neighbour count, and reads the intensity and the values
    # of _replicate_standardized; its run must print the same bytes
    traced_calls = _traced_spans(tmp_path, argv)[span]["calls"]
    assert traced_calls > 0 if calls is None else traced_calls == calls


def test_traced_2d_ustat_counts_the_fallback_draws(tmp_path):
    # the tracer reads mc.samples from the keyword of kernels._marginal_mc
    # to count its evaluations; on a 2-D box narrower than 2r the first
    # marginal takes the fallback, so every call adds a multiple of its draws
    from pustat.kernels import _FALLBACK

    argv = ["ustat", "--kernel", "geometric_indicator", "--r", "0.05", "--dim", "2",
            "--box", "0,1;0,0.08", "--t", "50", "--reps", "20", "--mc-samples", "500",
            "--seed", "1"]
    evals = _traced_spans(tmp_path, argv)["kernels.marginal_mc"]["evals"]
    assert evals > 0 and evals % _FALLBACK.samples == 0


def _traced_spans(tmp_path, argv):
    """Run argv plainly and under the benchmark's tracer, each in a fresh
    interpreter (the tracer patches pustat's modules in place); both exit
    0 and print the same bytes.  Returns the traced run's spans."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    spans = tmp_path / "spans.json"
    plain = subprocess.run([sys.executable, "-m", "pustat.cli", *argv],
                           capture_output=True, env=env, cwd=tmp_path)
    traced = subprocess.run([sys.executable, str(root / "perfbench" / "tracer.py"),
                             "--spans", str(spans), "--", *argv],
                            capture_output=True, env=env, cwd=tmp_path)
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    return json.loads(spans.read_text())["spans"]


def test_bound_does_not_import_scipy(tmp_path):
    # scipy serves only the Stein-check code; starting pustat, running a
    # certificate, replications with their distances, a sweep and the exact
    # Poisson table must not pay for its import
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    (tmp_path / "cfg.json").write_text(json.dumps(_GOOD_CONFIG))
    script = "\n".join([
        "import sys",
        "import pustat.cli",
        "pustat.cli.build_parser()",
        "for argv in (",
        "    ['bound', '--kernel', 'geometric_indicator', '--r', '0.05', '--t', '20', '--rij',",
        "     '--stein-terms', '--reps', '50', '--mc-samples', '2000', '--seed', '1',",
        "     '--out', 'bound.json'],",
        "    ['ustat', '--kernel', 'geometric_indicator', '--r', '0.05', '--t', '20',",
        "     '--reps', '50', '--mc-samples', '2000', '--seed', '1', '--out', 'ustat.txt'],",
        "    ['experiment', 'cfg.json', '--out', 'sweep.csv'],",
        "    ['berry-esseen', '--tmax', '64', '--out', 'be.csv'],",
        "):",
        "    code = pustat.cli.main(argv)",
        "    assert code == 0, (argv, code)",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    ])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                         cwd=tmp_path, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
    assert json.loads((tmp_path / "bound.json").read_text())["dk_bound"] > 0.0
    assert "# dk_emp=" in (tmp_path / "ustat.txt").read_text()
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 2
    assert len((tmp_path / "be.csv").read_text().splitlines()) == 8


def test_import_cli_loads_neither_scipy_nor_statistics():
    # statistics (the normal quantiles of dW) is imported by the first dW
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    script = ("import sys, pustat.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'statistics')))")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("kind", list(distance_sample_kinds()))
def test_bootstrap_table_equals_resample_loop(kind):
    # one draw of each resample serves both statistics, read from one table;
    # a loop that hands each resample to empirical_dK/dW gives the same bits
    vals = distance_sample_kinds()[kind]
    draws = 30
    dk_se, dw_se = _bootstrap_se(vals, 9, draws=draws)
    rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(0xB007,)))
    n = len(vals)
    dk, dw = np.empty(draws), np.empty(draws)
    for b in range(draws):
        resample = vals[rng.integers(0, n, n)]
        dk[b] = empirical_dK(resample)
        dw[b] = empirical_dW(resample)
        assert dk[b] == empirical_dk_direct(resample, normal_cdf)
        assert dw[b] == empirical_dw_direct(resample, normal_cdf, _normal_quantiles)
    assert (dk_se, dw_se) == (float(dk.std(ddof=1)), float(dw.std(ddof=1)))


@pytest.mark.parametrize("argv, field", [
    (["ustat", "--kernel", "count", "--reps", "10**15"], "reps"),
    (["ustat", "--kernel", "count", "--mc-samples", "10**15"], "mc_samples"),
    (["bound", "--kernel", "count", "--mc-samples", "10**15"], "mc_samples"),
    (["bound", "--kernel", "count", "--stein-terms", "--reps", "10**15"], "reps"),
    (["bound", "--kernel", "count", "--stein-terms", "--z-samples", "10**15"], "z_samples"),
    # t = 10 on a box of volume 10**15: too many expected points
    (["sample", "--box", "0,10**15"], "t"),
    (["ustat", "--kernel", "count", "--reps", "2", "--box", "0,10**15"], "t"),
    (["bound", "--kernel", "count", "--stein-terms", "--box", "0,10**15"], "t"),
    (["bound", "--kernel", "count", "--stein-terms", "--dim", "2",
      "--box", "0,10**15;0,1"], "t"),
], ids=["ustat_reps", "ustat_mc_samples", "bound_mc_samples", "bound_stein_reps",
        "bound_z_samples", "sample_points", "ustat_points", "bound_stein_points",
        "bound_stein_points_2d"])
def test_oversized_sample_counts_exit_2(capsys, argv, field):
    # refused by the cap before the first allocation, so this starts no work
    argv = [a.replace("10**15", str(10**15)) for a in argv]
    code, out, err = _run(capsys, *argv, "--t", "10", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}: must be <= ")


def test_rij_alone_reads_no_replication_settings(capsys):
    # R_ij comes from the class integrals of M_ij: --reps, --z-samples and
    # the point cap apply to the Stein terms only
    code, out, err = _run(capsys, "bound", "--kernel", "count", "--rij", "--reps", "1",
                          "--z-samples", "0", "--t", "10", "--mc-samples", "500", "--seed", "1")
    assert code == 0, err
    assert json.loads(out)["r"] == [[{"value": 0.0, "stderr": 0.0}]]


@pytest.mark.parametrize("k, dim", [(1, 1), (2, 1), (2, 2), (3, 3), (4, 2), (2, 100)])
def test_sample_caps_keep_arrays_under_1_gib(k, dim):
    caps = _sample_caps(k, dim)
    # doubles per unit: the list normal_cdf maps through math.erf/erfc for the
    # distances (32 bytes a replication),
    # a z sample's query point, an M_ij draw of up to 2k blocks and an
    # expected point of a configuration
    per_unit = {"reps": 4, "term_reps": 4, "z_samples": dim, "mc_samples": 2 * k * dim,
                "points": dim}
    for name, cap in caps.items():
        assert cap * per_unit[name] * 8 < 2**30, name
        assert 2 * cap * per_unit[name] * 8 >= 2**30, name  # the largest such power of two
        assert cap & (cap - 1) == 0
    # the Stein terms hold four arrays of reps * (z_samples + 1) entries
    assert 4 * 2 * _STEIN_PAIRS * 8 <= 2**30
    # the documented defaults and the sweep's counts stay well inside
    assert min(caps["reps"], caps["term_reps"]) >= 10_000 and caps["z_samples"] >= 128
    assert caps["mc_samples"] >= 200_000
    assert 10_000 * 128 <= _STEIN_PAIRS


@pytest.mark.parametrize("command", ["bound", "experiment"])
def test_stein_pairs_over_the_joint_cap_exit_2(capsys, tmp_path, command):
    # each count is under its own cap, but the Stein terms' breakpoint
    # arrays would not be: refused before the first integral
    reps, z = 2**20, 2**20
    caps = _sample_caps(2, 1)
    assert reps <= min(caps["reps"], caps["term_reps"]) and z <= caps["z_samples"]
    assert reps * z > _STEIN_PAIRS
    if command == "bound":
        argv = ["bound", "--kernel", "count", "--t", "10", "--seed", "1", "--stein-terms",
                "--reps", str(reps), "--z-samples", str(z)]
        field = "reps"
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernel": {"name": "count"}, "t_values": [10], "seed": 1,
                                   "term_reps": reps, "z_samples": z}))
        argv = ["experiment", str(cfg)]
        field = "term_reps"
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field} * z_samples: must be <= {_STEIN_PAIRS} ")
    assert f"got {reps} * {z}" in err
    # without the Stein terms the pair is not checked
    assert _check_caps(make_count(), 1, reps=reps, z_samples=z) is None


def test_stein_terms_peak_under_the_readme_bound(tmp_path):
    # the sup term sorts reps * (z_samples + 1) breakpoints once: at 2**21
    # pairs its four arrays of 16.8 MB stay under the README's 160 MB
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    argv = ["bound", "--kernel", "count", "--t", "10", "--stein-terms", "--reps", "2048",
            "--z-samples", "1024", "--seed", "1"]
    code, peak = child_peak_rss_mb([sys.executable, "-m", "pustat.cli", *argv], env=env,
                                   cwd=tmp_path)
    assert code == 0
    assert peak < 160.0


def test_bound_reports_inner_mean(capsys):
    # integration by parts: E<DG, -DL^{-1}G> = E G^2 = 1 for the
    # standardized statistic, so the 1-D certificate's inner mean sits near 1
    code, out, _ = _run(capsys, "bound", "--kernel", "geometric_indicator", "--r", "0.05",
                        "--t", "100", "--stein-terms", "--seed", "1")
    assert code == 0
    inner = json.loads(out)["inner_mean"]
    assert abs(inner["value"] - 1.0) <= 4.0 * inner["stderr"]
    code, out, _ = _run(capsys, "bound", "--kernel", "count", "--t", "10", "--seed", "1")
    assert code == 0 and json.loads(out)["inner_mean"] is None


def test_many_mc_samples_peak_under_the_readme_bound(tmp_path):
    # mc_integral holds one double per draw plus one chunk, so ten times the
    # default draws stay under the README's 120 MB (about 250 MB when every
    # draw and integrand temporary was held at once)
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    argv = ["bound", "--kernel", "geometric_indicator", "--r", "0.05", "--t", "100",
            "--mc-samples", "2000000", "--seed", "1"]
    code, peak = child_peak_rss_mb([sys.executable, "-m", "pustat.cli", *argv], env=env,
                                   cwd=tmp_path)
    assert code == 0
    assert peak < 120.0


def _cli_env():
    """The environment of a fresh pustat interpreter: this tree's sources
    and Python's default warning filters, so a warning shows on stderr as a
    user would see it."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    env.pop("PYTHONWARNINGS", None)
    return env


def test_import_does_not_load_fractions(tmp_path):
    # the exact class integrals import fractions (and with it decimal) at
    # their first class, not with the package
    script = ("import pustat.cli, sys; "
              "assert 'fractions' not in sys.modules and 'decimal' not in sys.modules")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_cli_env(),
                         cwd=tmp_path, text=True)
    assert run.returncode == 0, run.stderr


def _cli_subprocess(tmp_path, *argv):
    """Run pustat in a fresh interpreter (see _cli_env)."""
    return subprocess.run([sys.executable, "-m", "pustat.cli", *argv], capture_output=True,
                          env=_cli_env(), cwd=tmp_path, text=True)


@pytest.mark.parametrize("t", ["1e80", "1e200"])
def test_overflow_exits_3_without_traceback(tmp_path, t):
    # a mass or a squared stderr beyond the float range is a numerical failure
    run = _cli_subprocess(tmp_path, "bound", "--kernel", "geometric_indicator", "--r", "0.05",
                          "--t", t, "--mc-samples", "100", "--seed", "1")
    assert run.returncode == 3
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert "error: " in run.stderr and "non-finite" in run.stderr


def test_overflowing_class_integrand_exits_3_with_one_error_line(tmp_path):
    # c^2 overflows in the product of a class integrand: the integral's
    # finiteness check reports it, and numpy prints no warning first
    run = _cli_subprocess(tmp_path, "bound", "--kernel", "constant", "--k", "4", "--c", "1e300",
                          "--t", "5", "--seed", "1", "--mc-samples", "100")
    assert run.returncode == 3
    assert run.stdout == ""
    assert run.stderr == "error: integrand returned non-finite values\n"


def test_overflowing_box_volume_exits_2_with_one_error_line(tmp_path):
    run = _cli_subprocess(tmp_path, "sample", "--t", "3", "--box", "0,1e308;0,1e308",
                          "--seed", "1")
    assert run.returncode == 2
    assert run.stdout == ""
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("error: box")


@pytest.mark.parametrize("command", ["bound", "ustat"])
@pytest.mark.parametrize("r", ["inf", "nan", "0"])
def test_radius_must_be_finite_and_positive(capsys, command, r):
    code, out, err = _run(capsys, command, "--kernel", "geometric_indicator", "--r", r,
                          "--t", "10", "--reps", "5", "--mc-samples", "100", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "radius r" in err


@pytest.mark.parametrize("argv, reason", [
    (("sample", "--t", "5", "--seed", "1"), "ENOENT"),
    (("bound", "--kernel", "count", "--t", "5", "--seed", "1"), "EISDIR"),
], ids=["missing_directory", "directory"])
def test_unwritable_out_exits_2_with_one_error_line(tmp_path, argv, reason):
    out = tmp_path / "missing" / "x.csv" if reason == "ENOENT" else tmp_path
    run = _cli_subprocess(tmp_path, *argv, "--out", str(out))
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == f"error: out: cannot write {out}: {os.strerror(getattr(errno, reason))}\n"


def test_unwritable_out_is_refused_before_any_integral(tmp_path, capsys, monkeypatch):
    def _no_integrals(*args, **kwargs):
        raise AssertionError("an integral ran before --out was opened")

    monkeypatch.setattr(bounds, "variance_from_kernels", _no_integrals)
    monkeypatch.setattr(bounds, "compute_Mij", _no_integrals)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_GOOD_CONFIG))
    for argv in (["bound", "--kernel", "geometric_indicator", "--r", "0.05", "--t", "100",
                  "--seed", "1"], ["experiment", str(cfg)]):
        out = tmp_path / "missing" / "x.out"
        code, stdout, err = _run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err == f"error: out: cannot write {out}: {os.strerror(errno.ENOENT)}\n"


def test_numerical_failure_leaves_an_empty_out(tmp_path, capsys):
    # --out is opened before the integrals, so a run that exits 3 leaves it empty
    out = tmp_path / "x.json"
    out.write_text("old contents\n")
    code, _, err = _run(capsys, "bound", "--kernel", "constant", "--c", "1e300", "--k", "4",
                        "--t", "5", "--seed", "1", "--mc-samples", "100", "--out", str(out))
    assert code == 3 and "non-finite" in err
    assert out.read_text() == ""


def test_closed_stdout_pipe_exits_141_without_a_traceback(tmp_path):
    # the reader stops after the first line, as `| head -n 1` does; the
    # output is far larger than a pipe's buffer, so a later write meets it
    argv = ["ustat", "--kernel", "count", "--t", "50", "--reps", "20000", "--seed", "1"]
    with subprocess.Popen([sys.executable, "-m", "pustat.cli", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=_cli_env(), cwd=tmp_path) as proc:
        assert proc.stdout.readline() == b'# kernel={"name": "count"}\n'
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize("command", ["sample", "ustat", "bound"])
def test_negative_seed_exits_2_naming_the_seed(capsys, command):
    kernel = () if command == "sample" else ("--kernel", "count")
    code, out, err = _run(capsys, command, *kernel, "--t", "5", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: seed: must be >= 0, got -1\n"


def test_negative_config_seed_exits_2_naming_the_seed(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_GOOD_CONFIG, "seed": -3}))
    code, out, err = _run(capsys, "experiment", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: seed: must be >= 0, got -3\n"
