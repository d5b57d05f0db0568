"""Self-tests of the benchmark: seeded inputs, the oracle, the checks, the trace.

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CONFIGS = inputs.load_shape_configs(ROOT)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = inputs.make_plan(workload, 7, CONFIGS)
    assert first == inputs.make_plan(workload, 7, CONFIGS)
    assert first != inputs.make_plan(workload, 8, CONFIGS)


def test_plane_grid_points_cover_the_region_once_per_stratum():
    plan = inputs.make_plan("plane_grid", 3, CONFIGS)
    for key in inputs.WORKLOAD_SHAPES["plane_grid"]:
        alpha = inputs.alpha_of(CONFIGS[key])
        pts = [c["s"] for c in plan if c["phi"] == key and c["fn"] == "zeta_continued"]
        assert len(pts) == inputs.PLANE_POINTS
        width = (alpha + 6.0) / inputs.PLANE_POINTS
        assert sorted(int((re + 3.0) // width) for re, _ in pts) == list(range(len(pts)))
        assert all(abs(im) <= inputs.PLANE_IM for _, im in pts)


def test_pole_and_theta_inputs_stay_in_their_ranges():
    alpha = inputs.alpha_of(CONFIGS["superellipse"])
    for seed in range(20):
        pole = inputs.make_plan("pole_table", seed, CONFIGS)
        sigmas = [c["s"][0] for c in pole if c["fn"] == "zeta_direct"]
        assert all(alpha < s <= alpha + 0.5 for s in sigmas)
        small = inputs.make_plan("small_w", seed, CONFIGS)
        for call in small:
            if call["fn"] == "theta_phi":
                w = complex(*call["w"])
                assert 0.0019 <= abs(w) <= 0.0525 and abs(math.atan2(w.imag, w.real)) <= 0.6


def test_oracle_self_checks_pass():
    assert all(ok for _, ok in oracle.self_checks())


def test_exact_counts_match_brute_force():
    brute = sum(1 for x in range(-12, 13) for y in range(-5, 6) if x**12 + y**18 < 11**6)
    assert oracle.count_superellipse(11) == brute
    assert oracle.count_disc(1000) == sum(
        1 for x in range(-32, 33) for y in range(-32, 33) if x * x + y * y < 1000)


def test_rounding_allowance_separates_misses_from_failures():
    ref = ("bar", oracle.mpmath.mpf(100))
    bar = 1e-14
    inside = 100.0 + bar + 0.5 * oracle.ROUNDING_ALLOWANCE * 100.0
    outside = 100.0 + bar + 4.0 * oracle.ROUNDING_ALLOWANCE * 100.0
    hit = checks.check({"value": [inside, 0.0], "error": bar}, ref, None)
    assert hit.rounding_miss and not hit.failed
    miss = checks.check({"value": [outside, 0.0], "error": bar}, ref, None)
    assert miss.failed and not miss.rounding_miss
    assert checks.check({"exc": "MemoryError"}, ref, None).failed


def test_tail_leaves_ten_calls_beyond():
    value, pct = run._tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == pytest.approx(90.0)
    assert sum(1 for i in range(100) if i > value) == run.TAIL_BEYOND


def test_trace_records_one_span_per_wrapped_call():
    import numpy as np

    import azeta

    tracer = spans.Tracer(run_id=5)
    original = azeta.theta_phi
    tracer.install()
    try:
        disc = azeta.QuadraticForm(np.eye(2))
        for w in (1.0, 2.0, 3.0):
            azeta.theta_phi(disc, w)
        azeta.lattice_count(disc, 50.0)
    finally:
        tracer.uninstall()
    assert azeta.theta_phi is original
    recorded = tracer.spans
    names = [s[spans.NAME] for s in recorded]
    assert names.count("theta.theta_phi") == 3
    assert names.count("volume.lattice_count") == 1
    assert "matflow.GeneratorMatrix.__init__" in names
    for i, span in enumerate(recorded):
        assert span[spans.RUN] == 5
        parent = span[spans.PARENT]
        assert -1 <= parent < i
        if parent >= 0:
            outer = recorded[parent]
            assert outer[spans.START] <= span[spans.START] <= span[spans.END] <= outer[spans.END]
    theta_ids = {i for i, s in enumerate(recorded) if s[spans.NAME] == "theta.theta_phi"}
    evals = [s for s in recorded if s[spans.NAME] == "homog.QuadraticForm.evaluate_many"
             and s[spans.PARENT] in theta_ids]
    assert evals and all(s[spans.WORK] > 0 for s in evals)


def test_layer_metrics_self_time_and_cache_misses():
    # a hit (no transform under it) and a miss, each wrapping homog work
    recorded = [
        ["zeta.zeta_continued", 0.0, 1.0, -1, 0, None],
        ["homog.PNorm.evaluate_many", 0.2, 0.5, 0, 0, 10],
        ["zeta.zeta_continued", 2.0, 5.0, -1, 0, None],
        ["kernel.fourier_transform", 2.5, 4.0, 2, 0, 64],
        ["homog.PNorm.evaluate_many", 2.6, 3.0, 3, 0, 30],
    ]
    got = spans.layer_metrics(spans.SpanTable(recorded))
    assert got["zeta.continued_hits"] == 1 and got["zeta.continued_misses"] == 1
    assert got["zeta.continued_self_s"] == pytest.approx(0.7 + 1.5)
    assert got["kernel.self_s"] == pytest.approx(1.1)
    assert got["homog.eval_points"] == 40
    assert got["kernel.transform_samples"] == 64
    assert got["trace.spans"] == 5
