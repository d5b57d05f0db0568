import math
import tracemalloc

import numpy as np
import pytest

from azeta.errors import BudgetExceededError, DomainError
from azeta.homog import (
    _WALK_EVAL_ROWS,
    AnisotropicSuperellipse,
    HomogeneousPolynomial,
    PNorm,
    Profile,
    QuadraticForm,
)
from azeta.lattice import COUNT_BUDGET, box_rows, slabs
from azeta.volume import (
    _Z99,
    counting_limit_scan,
    lattice_count,
    volume_exp_integral,
    volume_monte_carlo,
)
from oracles import brute_count, lattice_points
from shapes import ABSVAL, DISC, SUPERELLIPSE

# 4 * int_0^1 (1 - x^12)^(1/18) dx, as a beta function
SUPERELLIPSE_VOLUME = (
    math.gamma(1 / 12) * math.gamma(19 / 18) / math.gamma(1 / 12 + 19 / 18) / 3.0
)


def test_exp_integral_interval():
    got = volume_exp_integral(ABSVAL)
    assert abs(got.value - 2.0) <= max(got.error, 1e-9)


def test_exp_integral_disc():
    got = volume_exp_integral(DISC)
    assert abs(got.value - math.pi) <= max(got.error, 1e-8)


def test_exp_integral_superellipse():
    got = volume_exp_integral(SUPERELLIPSE)
    assert abs(got.value - SUPERELLIPSE_VOLUME) <= max(got.error, 1e-6)


def test_exp_integral_memory_stays_near_its_grids():
    # a fresh superellipse, so no cached value is reused; its panel grids
    # once peaked at 8.3 MiB in the evaluation's temporaries
    phi = AnisotropicSuperellipse([12.0, 18.0], 6.0)
    phi.growth()
    tracemalloc.start()
    try:
        got = volume_exp_integral(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.value == volume_exp_integral(SUPERELLIPSE).value
    assert peak < 5 * 2**20


def test_exp_integral_of_the_3d_ball_has_a_finite_bar():
    # no refinement of the 256^3-point box quadrature fits the evaluation
    # budget, so the bar is the distance to the same panels at a lower order
    got = volume_exp_integral(QuadraticForm(np.eye(3)))
    assert math.isfinite(got.error)
    assert abs(got.value - 4.0 * math.pi / 3.0) <= got.error <= 1e-8


def test_monte_carlo_is_deterministic():
    a = volume_monte_carlo(DISC, 50_000, seed=7)
    b = volume_monte_carlo(DISC, 50_000, seed=7)
    assert a.value == b.value and a.error == b.error
    c = volume_monte_carlo(DISC, 50_000, seed=8)
    assert c.value != a.value


def test_monte_carlo_interval_covers_disc_area():
    got = volume_monte_carlo(DISC, 200_000, seed=3)
    assert abs(got.value - math.pi) <= got.error
    assert got.error < 0.05


def test_monte_carlo_rejects_empty_draw():
    with pytest.raises(DomainError):
        volume_monte_carlo(DISC, 0)
    with pytest.raises(DomainError):
        volume_monte_carlo(DISC, -10)


def test_monte_carlo_rejects_bad_seeds_and_sample_counts():
    for seed in (-1, 2.5, 3.0, "4", True):
        with pytest.raises(DomainError, match="seed"):
            volume_monte_carlo(DISC, 100, seed=seed)
    for samples in (2.5, math.nan, math.inf, -math.inf, "100"):
        with pytest.raises(DomainError, match="samples"):
            volume_monte_carlo(DISC, samples)
    # a whole number given as a float is a sample count
    assert volume_monte_carlo(DISC, 100.0, seed=1) == volume_monte_carlo(DISC, 100, seed=1)


def test_monte_carlo_sample_budget():
    # raised before any draw, so a count far over the budget costs nothing
    with pytest.raises(BudgetExceededError, match="budget"):
        volume_monte_carlo(DISC, COUNT_BUDGET + 1)
    with pytest.raises(BudgetExceededError, match="budget"):
        volume_monte_carlo(DISC, 1e15)


def _assert_blocks_match_one_draw(phi):
    # four blocks, the last of 17 rows, against one draw of all the samples,
    # with hits decided by φ's values
    samples = 3 * _WALK_EVAL_ROWS + 17
    got = volume_monte_carlo(phi, samples, seed=4)
    radius = max(1.0, (1.0 / phi.growth()) ** phi.generator.beta)
    rng = np.random.Generator(np.random.PCG64(4))
    pts = rng.uniform(-radius, radius, size=(samples, phi.dim))
    p = np.count_nonzero(phi.evaluate_many(pts) < 1.0) / samples
    box_vol = (2.0 * radius) ** phi.dim
    assert got.value == box_vol * p
    assert got.error == _Z99 * box_vol * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)


def test_monte_carlo_blocks_do_not_change_the_estimate():
    _assert_blocks_match_one_draw(SUPERELLIPSE)


def test_monte_carlo_blocks_on_a_quadratic_form():
    # the float rows take QuadraticForm.strictly_below's fallback
    _assert_blocks_match_one_draw(DISC)


def test_lattice_count_worked_examples():
    # x^2 + y^2 < 2 keeps the origin and the four unit neighbours
    assert lattice_count(DISC, 2.0) == 5
    # |x| < 3.5 on the line keeps -3..3
    assert lattice_count(ABSVAL, 3.5) == 7
    # only the origin below every positive threshold under 1
    assert lattice_count(ABSVAL, 0.5) == 1
    assert lattice_count(SUPERELLIPSE, 0.5) == 1


def test_lattice_count_matches_brute_oracle():
    r = 37.0
    pts = lattice_points(2, 8)
    vals = np.sum(pts.astype(float) ** 2, axis=1)
    assert lattice_count(DISC, r) == brute_count(vals, r)
    # φ that are not coordinate-monotone take the box route
    skew = QuadraticForm([[2.0, 0.7], [0.7, 1.0]])
    uneven = Profile.from_function(
        DISC.generator, lambda p: 1.0 + 0.3 * p[:, 0] / np.linalg.norm(p, axis=1),
        resolution=64)
    pts = lattice_points(2, 12)
    for phi in (skew, uneven):
        assert not phi.coordinate_monotone
        assert max(phi.lattice_box(r)) < 12
        assert lattice_count(phi, r) == brute_count(phi.evaluate_many(pts), r)


def test_lattice_count_box_route_over_many_slabs():
    # 10 phi = 20x^2 + 14xy + 10y^2 is an integer form, and 10 r lies halfway
    # between integers, so the int64 count below has no ties to round
    skew = QuadraticForm([[2.0, 0.7], [0.7, 1.0]])
    r = 24_750.05
    box = skew.lattice_box(r)
    assert not skew.coordinate_monotone
    assert len(slabs(2 * box + 1, _WALK_EVAL_ROWS)) >= 8
    axis = np.arange(-200, 201, dtype=np.int64)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    assert np.all(box < 200)
    expected = int(np.count_nonzero(20 * x * x + 14 * x * y + 10 * y * y <= 247_500))
    assert lattice_count(skew, r) == expected


def test_lattice_count_rejects_bad_radius():
    for r in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            lattice_count(DISC, r)


def test_lattice_count_budget():
    with pytest.raises(BudgetExceededError):
        lattice_count(DISC, 1e12)


def test_counts_monotone_in_radius():
    counts = [lattice_count(DISC, r) for r in (1.0, 2.0, 5.0, 25.0, 100.0)]
    assert counts == sorted(counts)
    assert counts[0] == 1


def test_counting_scan_rows_and_trend():
    scan = counting_limit_scan(DISC, r_schedule=[1e2, 1e3, 1e4])
    assert len(scan.rows) == 3
    r, count, ratio, target, dev = scan.rows[-1]
    assert r == 1e4 and count == lattice_count(DISC, 1e4)
    assert ratio == count / 1e4
    assert abs(target - math.pi) < 1e-6
    assert dev == abs(ratio - target)
    deviations = [row[4] for row in scan.rows]
    assert deviations[-1] < deviations[0]


def test_counting_scan_pole_side():
    scan = counting_limit_scan(ABSVAL, r_schedule=[100.0])
    sigmas = [row[0] for row in scan.pole_rows]
    assert sigmas == [1.5, 1.2, 1.1, 1.05]
    deviations = [row[3] for row in scan.pole_rows]
    assert deviations[-1] < deviations[0]
    # the scaled values head for alpha |B| = 2
    assert abs(scan.pole_rows[-1][1] - 2.0) < 0.15


def test_explicit_schedule_over_budget_raises():
    with pytest.raises(BudgetExceededError):
        counting_limit_scan(DISC, r_schedule=[1e12])


def test_default_schedule_trims_to_budget():
    # the 2e6-wide boxes at r = 1e6 fit for these shapes, so nothing raises
    scan = counting_limit_scan(ABSVAL)
    assert [row[0] for row in scan.rows] == [1e2, 1e3, 1e4, 1e5, 1e6]


def test_estimators_agree_on_disc():
    quad = volume_exp_integral(DISC)
    mc = volume_monte_carlo(DISC, 200_000, seed=3)
    ratio = lattice_count(DISC, 1e4) / 1e4
    assert abs(quad.value - mc.value) <= quad.error + mc.error
    assert abs(ratio - quad.value) < 0.07


def _box_scan(phi, r):
    """The count by the whole-box route: count_strict over every box row."""
    box = phi.lattice_box(r)
    return sum(phi.count_strict(box_rows(box, part), r)
               for part in slabs(2 * box + 1))


HEIGHT_SHAPES = {
    "absval": ABSVAL,
    "disc": DISC,
    "disc_scaled": DISC.scale(1.7),
    "superellipse": SUPERELLIPSE,
    "pnorm2_p3": PNorm(2, 3.0),
    "pnorm3_p1.5": PNorm(3, 1.5),
    "diagonal2": QuadraticForm(np.diag([1.0, 2.5])),
    "diagonal3": QuadraticForm(np.diag([1.0, 2.0, 3.0])),
    "even_quartic": HomogeneousPolynomial(2, {(4, 0): 1.0, (2, 2): 3.0, (0, 4): 1.0}),
}


@pytest.mark.parametrize("name", sorted(HEIGHT_SHAPES))
def test_height_route_matches_box_scan(name):
    phi = HEIGHT_SHAPES[name]
    assert phi.coordinate_monotone
    rng = np.random.default_rng(sum(map(ord, name)))
    # radii equal to lattice values sit on the boundary of the strict set
    values = phi.evaluate_many(box_rows(np.full(phi.dim, 6), nonzero=True))
    radii = list(rng.choice(values, size=6)) + list(rng.uniform(0.3, 40.0, size=6))
    for r in radii:
        assert lattice_count(phi, float(r)) == _box_scan(phi, float(r)), r


def test_height_route_tests_few_rows(monkeypatch):
    seen = []
    mask = QuadraticForm.strictly_below

    def counted(self, points, r):
        seen.append(len(points))
        return mask(self, points, r)

    monkeypatch.setattr(QuadraticForm, "strictly_below", counted)
    assert lattice_count(DISC, 1e6) == 3_141_521
    assert sum(seen) < 100_000
