import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azeta.errors import DomainError
from azeta.homog import (
    _power_sum,
    AnisotropicSuperellipse,
    HomogeneousPolynomial,
    PNorm,
    Profile,
    QuadraticForm,
    Scaled,
    evaluate,
    growth_bounds,
    sandwich_smooth,
    unit_ball_membership,
)
from azeta.lattice import grid_rows

from oracles import brute_count, lattice_points


def euclid2():
    return PNorm(2, 2.0)


def superellipse():
    return AnisotropicSuperellipse([12.0, 18.0], 6.0)


def test_pnorm_evaluates_as_p_norm():
    phi = PNorm(2, 3.0)
    assert evaluate(phi, (1.0, 0.0)) == pytest.approx(1.0)
    assert evaluate(phi, (1.0, 1.0)) == pytest.approx(2.0 ** (1.0 / 3.0))


def test_membership_boundary_is_excluded():
    phi = euclid2()
    assert unit_ball_membership(phi, (0.0, 0.0), 1.0)
    assert not unit_ball_membership(phi, (1.0, 0.0), 1.0)


def test_quadratic_form_is_the_form_not_its_root():
    phi = QuadraticForm([[2.0, 0.5], [0.5, 1.0]])
    assert evaluate(phi, (1.0, 0.0)) == pytest.approx(2.0)
    assert evaluate(phi, (1.0, 1.0)) == pytest.approx(2.0 + 1.0 + 1.0)
    assert phi.alpha == pytest.approx(1.0)  # A = I/2 in dimension 2


def test_quadratic_form_rejects_indefinite():
    with pytest.raises(DomainError):
        QuadraticForm([[1.0, 0.0], [0.0, -1.0]])


def test_polynomial_matches_quadratic_form():
    poly = HomogeneousPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    form = QuadraticForm(np.eye(2))
    pts = np.array([[1.0, 2.0], [-3.0, 0.5], [0.25, -0.75]])
    assert np.allclose(poly(pts), form(pts), rtol=1e-14)
    assert poly.alpha == pytest.approx(1.0)


def test_quartic_polynomial_alpha():
    poly = HomogeneousPolynomial(
        2, {(4, 0): 1.0, (2, 2): 1.0, (0, 4): 1.0}
    )
    assert poly.alpha == pytest.approx(0.5)  # A = I/4 in dimension 2


def test_superellipse_generator_and_alpha():
    phi = superellipse()
    assert np.allclose(
        phi.generator.entries, np.diag([0.5, 1.0 / 3.0]), atol=1e-15
    )
    assert phi.alpha == pytest.approx(5.0 / 6.0)
    assert evaluate(phi, (1.0, 1.0)) == pytest.approx(2.0 ** (1.0 / 6.0))


def test_homogeneity_identity_each_variant():
    variants = [
        euclid2(),
        QuadraticForm([[2.0, 0.5], [0.5, 1.0]]),
        superellipse(),
        HomogeneousPolynomial(2, {(4, 0): 1.0, (2, 2): 0.5, (0, 4): 2.0}),
    ]
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(32, 2)) * 3.0
    for phi in variants:
        base = phi(pts)
        for t in (0.3, 1.7, 9.0):
            moved = phi.generator.apply_flow(t, pts)
            assert np.allclose(phi(moved), t * base, rtol=1e-10)


def test_scale_multiplies_values():
    phi = euclid2()
    doubled = phi.scale(2.0)
    pts = np.array([[1.0, 2.0], [0.5, -0.25]])
    assert np.allclose(doubled(pts), 2.0 * phi(pts), rtol=1e-15)
    assert doubled.alpha == pytest.approx(phi.alpha)


def test_growth_bounds_bracket_euclidean():
    c1, c2, c3, c4 = growth_bounds(euclid2())
    # exact constants are all 1; the certificate may widen but must bracket
    assert c3 <= 1.0 <= c4
    assert c1 <= 1.0 <= c2


def test_growth_certificate_holds_on_samples():
    phi = superellipse()
    _, _, c3, c4 = phi.growth()
    g = phi.generator
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(200, 2)) * 4.0
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
    vals = phi(pts)
    norms = np.linalg.norm(pts, axis=1)
    lower = c3 * np.minimum(norms ** (1.0 / g.beta), norms ** (1.0 / g.gamma))
    upper = c4 * np.maximum(norms ** (1.0 / g.beta), norms ** (1.0 / g.gamma))
    assert np.all(vals >= lower * (1.0 - 1e-12))
    assert np.all(vals <= upper * (1.0 + 1e-12))


def test_lattice_box_contains_sublevel_set():
    for phi, r in ((euclid2(), 7.3), (superellipse(), 3.0)):
        box = phi.lattice_box(r)
        pts = lattice_points(2, int(max(box)) + 2)
        inside = pts[phi(pts) < r]
        assert np.all(np.abs(inside) <= box[None, :])


def test_sandwich_smooth_orders_pointwise():
    phi = superellipse()
    lo, hi = sandwich_smooth(phi, 0.2)
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(100, 2)) * 2.0
    assert np.all(lo(pts) <= phi(pts) * (1.0 + 1e-12))
    assert np.all(phi(pts) <= hi(pts) * (1.0 + 1e-12))


def test_profile_round_trips_smooth_function():
    base = PNorm(2, 4.0)
    prof = Profile.from_function(
        base.generator, lambda pts: base(pts), resolution=256
    )
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(50, 2)) * 3.0
    assert np.allclose(prof(pts), base(pts), rtol=1e-5)


EVEN_VARIANTS = {
    "quadratic_form": QuadraticForm([[2.0, 0.7], [0.7, 1.0]]),
    "polynomial": HomogeneousPolynomial(
        2, {(4, 0): 1.0, (3, 1): 0.5, (1, 3): 0.25, (0, 4): 2.0}),
    "pnorm_1": PNorm(2, 1.0),
    "pnorm_2": PNorm(3, 2.0),
    "pnorm_3.5": PNorm(2, 3.5),
    "superellipse": AnisotropicSuperellipse([12.0, 18.0], 6.0),
    "scaled": Scaled(QuadraticForm([[2.0, 0.7], [0.7, 1.0]]), 1.7),
}


@pytest.mark.parametrize("name", sorted(EVEN_VARIANTS))
def test_even_variants_are_even_bit_for_bit(name):
    phi = EVEN_VARIANTS[name]
    assert phi.is_even
    rng = np.random.default_rng(9)
    pts = np.concatenate([lattice_points(phi.dim, 4),
                          rng.normal(size=(200, phi.dim)) * 3.0])
    np.testing.assert_array_equal(phi(-pts), phi(pts))


def test_profile_is_never_marked_even():
    base = PNorm(2, 4.0)
    prof = Profile.from_function(base.generator, base, resolution=64)
    assert not prof.is_even
    assert not Scaled(prof, 2.0).is_even


def test_profile_needs_enough_samples():
    g = euclid2().generator
    with pytest.raises(DomainError):
        Profile(g, np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))


def test_count_strict_matches_brute_force_integer_form():
    phi = QuadraticForm(np.eye(2))
    pts = lattice_points(2, 12)
    vals = (pts**2).sum(axis=1)
    grid = np.vstack([pts, np.zeros((1, 2))])
    for r in (2.0, 5.0, 25.0, 100.0):
        assert phi.count_strict(grid, r) == brute_count(vals, r)


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(0.5, 6.0),
    p=st.sampled_from([1.0, 2.0, 3.0, 4.0]),
)
def test_count_strict_matches_brute_force_pnorm(r, p):
    phi = PNorm(2, p)
    pts = lattice_points(2, 8)
    grid = np.vstack([pts, np.zeros((1, 2))])
    vals = np.sum(np.abs(pts) ** p, axis=1) ** (1.0 / p)
    assert phi.count_strict(grid, r) == brute_count(vals, r)


def test_superellipse_exact_boundary_exclusion():
    # (3,4) lies exactly on the r=5 boundary of x^2+y^2 under root 2;
    # the strict count must exclude it whatever the float rounding says
    phi = AnisotropicSuperellipse([2.0, 2.0], 2.0)
    pts = np.array([[3.0, 4.0], [3.0, -4.0], [1.0, 1.0]])
    assert phi.count_strict(pts, 5.0) == 1


def test_quadratic_form_counts_non_integer_rows_as_floats():
    # rounding these rows to (0, 0) and (2, 0) would give 1 at both radii
    phi = QuadraticForm(np.eye(2))
    rows = np.array([[0.4, 0.0], [1.6, 0.0]])
    assert phi.count_strict(rows, 0.1) == 0
    assert phi.count_strict(rows, 3.0) == 2


def test_scaled_mask_is_its_base_mask_at_the_scaled_radius():
    base = AnisotropicSuperellipse([2.0, 2.0], 2.0)
    rows = np.array([[3.0, 4.0], [3.0, 3.0], [1.0, 0.0]])
    got = base.scale(2.0).strictly_below(rows, 10.0)
    assert got.tolist() == base.strictly_below(rows, 5.0).tolist() == [False, True, True]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_power_sum_has_the_bits_of_numpy_row_sums(n):
    rows = np.random.default_rng(n).normal(scale=3.0, size=(20_000, n))
    for p in (1.0, 1.5, 2.0, 3.0, 12.0, 18.0):
        want = np.sum(np.abs(rows) ** p, axis=1)
        assert np.array_equal(_power_sum(rows, np.full(n, p)), want)
    # per-axis exponents; a broadcast 2 is a square (see `_power_sum`)
    rng = np.random.default_rng(10 + n)
    for _ in range(8):
        powers = rng.choice([1.0, 1.5, 3.0, 12.0, 18.0], size=n)
        want = np.sum(np.abs(rows) ** powers[None, :], axis=1)
        assert np.array_equal(_power_sum(rows, powers), want)
    squares = np.sum(np.square(rows), axis=1)
    assert np.array_equal(_power_sum(rows, np.full(n, 2.0)), squares)


def _grid_variants():
    """name -> φ, every variant in 1 to 3 dimensions."""
    out = {}
    for n in (1, 2, 3):
        for p in (1.0, 2.0, 3.0, math.inf):
            out[f"pnorm{n}_{p}"] = PNorm(n, p)
        out[f"diag_form{n}"] = QuadraticForm(np.diag([1.0, 2.3, math.pi][:n]))
    out["superellipse1"] = AnisotropicSuperellipse([3.0], 2.0)
    out["superellipse2"] = AnisotropicSuperellipse([12.0, 18.0], 6.0)
    out["superellipse3"] = AnisotropicSuperellipse([2.0, 4.0, 3.0], 1.5)
    out["form2"] = QuadraticForm([[2.0, 0.7], [0.7, 1.0]])
    out["form3"] = QuadraticForm([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]])
    out["polynomial"] = HomogeneousPolynomial(
        2, {(4, 0): 1.0, (3, 1): 0.5, (1, 3): 0.25, (0, 4): 2.0})
    base = PNorm(2, 4.0)
    out["profile2"] = Profile.from_function(base.generator, base, resolution=64)
    base3 = PNorm(3, 2.0)
    out["profile3"] = Profile.from_function(base3.generator, base3, resolution=64)
    out["scaled_superellipse"] = Scaled(out["superellipse2"], 1.7)
    out["scaled_form"] = Scaled(out["form2"], 0.3)
    out["scaled_diag_form"] = Scaled(out["diag_form3"], 1.7)
    return out


GRID_VARIANTS = _grid_variants()


@pytest.mark.parametrize("name", sorted(GRID_VARIANTS))
def test_grid_values_have_the_bits_of_the_rows(name):
    phi = GRID_VARIANTS[name]
    nodes = np.polynomial.legendre.leggauss(16)[0]
    grids = [
        [np.arange(-9.0, 12.0)] * phi.dim,               # integers with 0
        [np.arange(0.0, 40.0)] + [np.arange(1.0, 8.0)] * (phi.dim - 1),
        [np.concatenate([3.1 * nodes, 0.7 * nodes + 5.0])] * phi.dim,
        [np.linspace(-13.3, 9.1, 57)] + [math.e * nodes] * (phi.dim - 1),
    ]
    for axes in grids:
        want = phi.evaluate_many(grid_rows(axes))
        assert np.array_equal(phi.evaluate_grid(axes), want)
