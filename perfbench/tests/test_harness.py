"""Self-test of the benchmark harness.  Runs every workload once untraced and
twice traced, about two minutes on two cores:

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import exact  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pustat.distance import empirical_dK, empirical_dW  # noqa: E402
from pustat.partitions import count_partitions  # noqa: E402

SEED = 5
TIME_KEYS = {"total_s", "self_s", "call_us_p50", "call_us_p99"}


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def runs(request):
    wl = workloads.WORKLOADS[request.param]
    h = run.Harness(ROOT)
    args = wl.args(SEED, h.work)
    plain = h.pustat(args)
    traced = [h.traced(args) for _ in range(2)]
    return wl, plain, traced


def test_traced_output_equals_untraced(runs):
    wl, plain, traced = runs
    assert plain.code == 0, plain.stderr
    for child, spans in traced:
        assert child.code == 0, child.stderr
        assert child.stdout == plain.stdout
    assert not wl.check(plain.stdout.decode(), SEED, workloads.load_reference().get(wl.name)).failures


def test_counts_repeat_exactly(runs):
    _, _, traced = runs

    def counts(spans):
        per_span = {
            name: {k: v for k, v in st.items() if k not in TIME_KEYS}
            for name, st in spans["spans"].items()
        }
        return per_span, spans["edges"]

    first, second = (counts(spans) for _, spans in traced)
    assert first == second
    a, b = (run.layer_metrics(spans) for _, spans in traced)
    units = run.PER_LAYER
    assert {k: v for k, v in a.items() if units[k] == "count"} == {
        k: v for k, v in b.items() if units[k] == "count"
    }


def test_self_time_within_traced_wall(runs):
    _, _, traced = runs
    for _, spans in traced:
        total_self = sum(st["self_s"] for st in spans["spans"].values())
        assert 0.0 < total_self <= spans["wall_s"]


def test_mij_integrals_match_partition_counts(runs):
    _, _, traced = runs
    for _, spans in traced:
        expected = sum(count_partitions(i, j) for i, j, *_ in spans["captures"].get("compute_Mij", []))
        assert run.layer_metrics(spans)["bounds.mij_integrals"] == expected


def test_manifest_names_known_workloads_and_spans():
    assert [w["name"] for w in run.MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    spans = {span for _, _, span, _ in tracer.TARGETS}
    for name in run.PER_LAYER:
        if name not in ("bounds.mij_integrals", "bounds.mij_cost", "trace.overhead_s"):
            assert name.rsplit(".", 1)[0] in spans, name


def test_distances_match_pustat():
    rng = np.random.default_rng(0)
    for x in (rng.normal(size=500), rng.normal(0.3, 1.2, size=1000), np.round(rng.normal(size=300), 1)):
        assert workloads.empirical_dk(x) == pytest.approx(empirical_dK(x), abs=1e-12)
        assert workloads.empirical_dw(x) == pytest.approx(empirical_dW(x), abs=1e-12)


def test_closed_forms_match_monte_carlo():
    rng = np.random.default_rng(1)
    t, r, n = 30.0, 0.2, 400_000
    for dim, ef in ((1, exact.ef_1d), (2, exact.ef_2d)):
        x, y = rng.random((2, n, dim))
        p2 = np.mean(np.sum((x - y) ** 2, axis=1) <= r * r)
        assert t * t * p2 == pytest.approx(ef(t, r), rel=0.02)
    # Var F = 4 t^3 E[A(X)^2] + 2 EF, with A(x) estimated from shared draws
    probes, draws = rng.random((2000, 2)), rng.random((20_000, 2))
    cover = np.array([np.mean(np.sum((draws - p) ** 2, axis=1) <= r * r) for p in probes])
    var_f = 4.0 * t**3 * np.mean(cover**2) + 2.0 * exact.ef_2d(t, r)
    assert var_f == pytest.approx(exact.var_f_2d(t, r), rel=0.03)
