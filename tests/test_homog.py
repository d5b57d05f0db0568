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
    sandwich_smooth,
    unit_ball_membership,
)
from azeta.lattice import grid_rows

from oracles import brute_count, lattice_points
from shapes import ABSVAL, DISC, SQUARE, SUPERELLIPSE


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
    # the exact constant is 1; the certificate may lower it but not raise it
    assert 0.0 < euclid2().growth() <= 1.0


def test_growth_certificate_holds_on_samples():
    phi = superellipse()
    c3 = phi.growth()
    g = phi.generator
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(200, 2)) * 4.0
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
    vals = phi(pts)
    norms = np.linalg.norm(pts, axis=1)
    lower = c3 * np.minimum(norms ** (1.0 / g.beta), norms ** (1.0 / g.gamma))
    assert np.all(vals >= lower * (1.0 - 1e-12))


# c3 of the benchmark's five shapes, to the bit: every certified tail and
# box, and so every CLI output, rests on it
GROWTH_BITS = {
    "absval": (ABSVAL, 0.9),
    "square": (SQUARE, 0.9),
    "disc": (DISC, 0.8999999999999995),
    "disc17": (DISC.scale(1.7), 1.529999999999999),
    "superellipse": (SUPERELLIPSE, 0.4343938423996981),
}


@pytest.mark.parametrize("name", sorted(GROWTH_BITS))
def test_growth_constant_keeps_its_bits(name):
    phi, want = GROWTH_BITS[name]
    got = phi.growth()
    assert type(got) is float and got == want


def test_lattice_box_contains_sublevel_set():
    for phi, r in ((euclid2(), 7.3), (superellipse(), 3.0)):
        box = phi.lattice_box(r)
        pts = lattice_points(2, int(max(box)) + 2)
        inside = pts[phi(pts) < r]
        assert np.all(np.abs(inside) <= box[None, :])


def test_sandwich_smooth_orders_pointwise():
    generator = QuadraticForm(np.eye(2)).generator
    profile = Profile.from_function(
        generator, lambda pts: 1.0 + 0.3 * pts[:, 0] / np.linalg.norm(pts, axis=1),
        resolution=64)
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(100, 2)) * 2.0
    for phi in (superellipse(), profile):
        lo, hi = sandwich_smooth(phi, 0.2)
        vals = phi(pts)
        assert np.all(0.8 * vals <= lo(pts) * (1.0 + 1e-12))
        assert np.all(lo(pts) <= vals * (1.0 + 1e-12))
        assert np.all(vals <= hi(pts) * (1.0 + 1e-12))
        assert np.all(hi(pts) <= 1.2 * vals * (1.0 + 1e-12))


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


def _exact_below(phi, rows, r):
    """φ(row) < r for the integer rows of a superellipse with integer powers
    and root, in Python integers and fractions."""
    from fractions import Fraction

    powers = [int(m) for m in phi.powers]
    rq = Fraction(float(r)) ** int(phi.root)
    return [sum(abs(int(c)) ** m for c, m in zip(row, powers)) < rq for row in rows]


@pytest.mark.parametrize("r", [1.0, 4.0, 64.0, 90000.0])
def test_superellipse_squaring_decides_integer_rows_exactly(r):
    # on each column |x| <= sqrt(r) of x^12 + y^18 < r^6, the rows from two
    # under to two over its boundary y; at r = 90000, 300^12 > 2^53
    rows = []
    for x in range(math.isqrt(int(r)) + 2):
        y = round(max(int(r) ** 6 - x ** 12, 0) ** (1.0 / 18.0))
        rows += [(sx * x, sy * z) for z in range(max(y - 2, 0), y + 3)
                 for sx in (1, -1) for sy in (1, -1)]
    rows = np.array(rows, dtype=float)
    assert SUPERELLIPSE.strictly_below(rows, r).tolist() == _exact_below(SUPERELLIPSE, rows, r)


def test_superellipse_boundary_rows_are_not_below():
    # 1 = 1^6, 2^12 = 4^6, 300^12 = 90000^6 and 8^12 = 4^18 = 64^6
    for rows, r in (([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], 1.0), ([[2.0, 0.0]], 4.0),
                    ([[300.0, 0.0], [-300.0, 0.0]], 90000.0), ([[8.0, 0.0], [0.0, -4.0]], 64.0)):
        assert not SUPERELLIPSE.strictly_below(np.array(rows), r).any()


@pytest.mark.parametrize("r", [1.0, 4.0, 90000.0])
def test_superellipse_squaring_matches_float_values_off_the_boundary(r):
    box = SUPERELLIPSE.lattice_box(r) + 1.0
    rows = np.random.default_rng(int(r)).uniform(-box, box, size=(50_000, 2))
    values = SUPERELLIPSE.evaluate_many(rows)
    clear = np.abs(values - r) > 1e-12 * r
    assert np.count_nonzero(clear) > 49_000
    got = SUPERELLIPSE.strictly_below(rows, r)
    assert np.array_equal(got[clear], (values < r)[clear])


def test_superellipse_rows_that_overflow_are_not_below():
    rows = np.array([[1e30, 0.0], [0.0, 1e20], [np.inf, 0.0], [1e30, -1e30], [0.5, 0.0]])
    with np.errstate(over="ignore"):
        got = SUPERELLIPSE.strictly_below(rows, 1e6)
    assert got.tolist() == [False, False, False, False, True]


def test_superellipse_mixed_block_rechecks_its_integer_rows():
    # r = float(236^12) is 1.9e11 above 236^12, under half an ulp, so x^12
    # and x^12 + y^18 for y <= 4 round to r itself: only the exact recheck
    # puts those rows below, and float rows in the block must not stop it
    phi = AnisotropicSuperellipse([12.0, 18.0], 1.0)
    r = float(236 ** 12)
    ints = np.array([[236.0, 0.0], [236.0, 4.0], [-236.0, -1.0], [236.0, 5.0], [235.0, 9.0]])
    want = [True, True, True, False, True]
    assert _exact_below(phi, ints, r) == want
    assert phi.strictly_below(ints, r).tolist() == want
    # 236 + 1e-9 is inside the float fence, but is no integer to recheck
    floats = np.array([[0.5, 0.25], [235.5, 0.0], [236.0 + 1e-9, 0.0], [1e3, 0.5]])
    mixed = phi.strictly_below(np.vstack([floats[:1], ints, floats[1:]]), r)
    assert mixed.tolist() == [True] + want + [True, False, False]


def test_superellipse_with_fractional_powers_takes_the_power_sum():
    phi = AnisotropicSuperellipse([3.5, 5.0], 1.5)
    rows = np.vstack([np.random.default_rng(3).uniform(-2.0, 2.0, size=(4_000, 2)),
                      [[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]]])
    for r in (0.5, 1.0, 3.0):
        want = _power_sum(rows, phi.powers) < r ** 1.5
        assert np.array_equal(phi.strictly_below(rows, r), want)


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
