import gc
import math
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest

from azeta import volume as volume_module
from azeta import zeta as zeta_module
from azeta.errors import BudgetExceededError, DivergenceError, DomainError, StripError
from azeta.homog import AnisotropicSuperellipse, PNorm, Profile, QuadraticForm, Scaled
from azeta.kernel import Kernel, SampledTransform, fourier_transform
from azeta.quadrature import panel_points
from azeta.theta import BoundedValue, theta_star_table
from azeta.zeta import (
    cache_for,
    default_power,
    growth_scan,
    residue_at_alpha,
    xi_full,
    xi_plus,
    zeta_at_zero,
    zeta_continued,
    zeta_direct,
    zeta_negative_integers,
)
from azeta.zeta import _integral_test_tail, _moment_table, _rigorous_sum, _windowed_sums

from oracles import (
    _gamma,
    dirichlet_beta,
    dirichlet_beta_mp,
    box_points,
    full_box_values,
    riemann_zeta,
    windowed_sums,
)
from shapes import ABSVAL, DISC, SQUARE, SUPERELLIPSE


# frozen from the mpmath oracle (tests/oracles.py):
# 2*zeta(2) = pi^2/3, 2*zeta(3), 2*zeta(1/2), 2*zeta(-1) = -1/6, 2*zeta(-3) = 1/60
TWO_ZETA = {
    2.0: math.pi**2 / 3.0,
    3.0: 2.4041138063191886,
    0.5: -2.9207090176191736,
    -1.0: -1.0 / 6.0,
    -3.0: 1.0 / 60.0,
}

# frozen: sum over Z^2 of (x^2+y^2)^{-3} = 4 zeta(3) beta(3), beta(3) = pi^3/32
DISC_S3 = 4.658913615603843


def absval():
    return ABSVAL


def disc():
    return DISC


def test_frozen_constants_match_oracle():
    assert TWO_ZETA[3.0] == pytest.approx(2.0 * riemann_zeta(3.0).real, abs=1e-14)
    assert TWO_ZETA[0.5] == pytest.approx(2.0 * riemann_zeta(0.5).real, abs=1e-14)
    assert DISC_S3 == pytest.approx(
        4.0 * riemann_zeta(3.0).real * dirichlet_beta(3.0).real, abs=1e-14
    )


def test_direct_1d_riemann_values():
    phi = absval()
    for s in (2.0, 3.0):
        got = zeta_direct(phi, s, target=1e-11)
        assert got.value.real == pytest.approx(TWO_ZETA[s], abs=1e-10)
        assert abs(got.value - TWO_ZETA[s]) <= max(got.error, 1e-12)


def test_continued_1d_riemann_values():
    phi = absval()
    for s in (2.0, 0.5, -1.0):
        got = zeta_continued(phi, s)
        assert got.value.real == pytest.approx(TWO_ZETA[s], abs=1e-8)


def test_continued_matches_direct_on_overlap_disc():
    phi = disc()
    d = zeta_direct(phi, 3.0)
    c = zeta_continued(phi, 3.0)
    assert d.value.real == pytest.approx(DISC_S3, abs=2e-7)
    assert abs(d.value - DISC_S3) <= d.error
    assert c.value.real == pytest.approx(DISC_S3, abs=1e-10)


def test_direct_rejects_divergent_strip():
    with pytest.raises(DivergenceError):
        zeta_direct(absval(), 0.5)
    with pytest.raises(DivergenceError):
        zeta_direct(disc(), 1.0)


def test_exact_pole_raises():
    with pytest.raises(DomainError):
        zeta_continued(absval(), 1.0)
    with pytest.raises(DomainError, match="residue 3.14159265"):
        zeta_continued(disc(), 1.0)


def test_near_pole_carries_laurent_data():
    got = zeta_continued(absval(), 1.0 + 1e-8)
    assert got.near_pole is not None
    pole, dist, residue, _ = got.near_pole
    assert pole == pytest.approx(1.0)
    assert dist == pytest.approx(1e-8)
    assert residue == pytest.approx(2.0, abs=1e-4)
    # the Laurent model dominates: value ~ residue / (s - pole)
    assert got.value.real == pytest.approx(2.0e8, rel=1e-4)


def test_zeta_at_zero_is_minus_one():
    for phi in (ABSVAL, SQUARE, DISC, DISC.scale(1.7), SUPERELLIPSE):
        got = zeta_at_zero(phi)
        assert got.error <= 1e-6
        assert abs(got.value + 1.0) <= got.error


def test_zeta_at_zero_reuses_the_continuation_machine(monkeypatch):
    phi = QuadraticForm(np.eye(2))
    zeta_continued(phi, 0.25 + 1j)
    keys = set(cache_for(phi))

    def no_new_side(*args, **kwargs):
        raise AssertionError("zeta_at_zero built a side table")

    monkeypatch.setattr(zeta_module, "_XiSide", no_new_side)
    got = zeta_at_zero(phi)
    assert set(cache_for(phi)) == keys
    assert abs(got.value + 1.0) <= got.error


# Laurent data at α from the closed forms: 2ζ(s), 2ζ(2s) and 4ζ(s)β(s)
LAURENT = {
    "absval": (ABSVAL, lambda s: 2 * mpmath.zeta(s), 2.0,
               lambda: 2 * mpmath.euler),
    "square": (SQUARE, lambda s: 2 * mpmath.zeta(2 * s), 1.0,
               lambda: 2 * mpmath.euler),
    "disc": (DISC, lambda s: 4 * mpmath.zeta(s) * dirichlet_beta_mp(s), math.pi,
             lambda: mpmath.pi * mpmath.euler + 4 * mpmath.diff(dirichlet_beta_mp, 1)),
}


@pytest.mark.parametrize("name", sorted(LAURENT))
def test_laurent_ring_around_the_pole(name):
    phi, closed_form, residue, constant = LAURENT[name]
    with mpmath.workdps(30):  # the closed forms cancel near the pole
        constant = float(constant())
    alpha = phi.alpha
    for dist in (1e-10, 1e-7, 1e-4, 1e-2):
        for angle in (0.3, 1.9, 3.5, 5.0):
            s = alpha + dist * complex(math.cos(angle), math.sin(angle))
            got = zeta_continued(phi, s)
            with mpmath.workdps(30):
                want = complex(closed_form(mpmath.mpc(s.real, s.imag)))
            assert abs(got.value - want) <= got.error, (dist, angle)
            if dist < 1e-6:
                pole, d, res, const = got.near_pole
                assert (pole, d) == (alpha, abs(s - alpha))
                assert abs(res - residue) <= 1e-8
                assert abs(const - constant) <= 1e-8
            else:
                assert got.near_pole is None


def test_direct_hands_the_pole_neighbourhood_to_the_machine():
    s = 1.0 + 2e-7 + 2e-7j
    got = zeta_direct(disc(), s)
    assert got == zeta_continued(disc(), s)
    assert got.near_pole is not None


def test_residue_closed_forms():
    got = residue_at_alpha(absval())
    assert got.value == pytest.approx(2.0, abs=1e-6)
    got = residue_at_alpha(disc())
    assert got.value == pytest.approx(math.pi, abs=1e-4)


@pytest.mark.parametrize("phi, want", [(ABSVAL, 2.0), (SQUARE, 1.0), (DISC, math.pi)],
                         ids=["absval", "square", "disc"])
def test_residue_within_its_bar(phi, want):
    # the volume of the unit ball times α; the residue is the machine's
    # ĝ(0)/Γ(α+c), the one near_pole reports
    got = residue_at_alpha(phi)
    assert abs(got.value - want) <= got.error
    assert got.error <= 1e-10
    assert zeta_continued(phi, phi.alpha + 1e-9).near_pole[2] == got.value


def _panel_loop(side_end, generator, func, s):
    """∫_1^{t_end} θ* t^{s-1} dt summed panel by panel, on the side's own
    table: every panel's 24 nodes, then every panel's 12, in one call."""
    edges = [1.0]
    while edges[-1] < side_end:
        edges.append(min(2.0 * edges[-1], side_end))
    panels = list(zip(edges[:-1], edges[1:]))
    hi = [panel_points(panel, 24) for panel in panels]
    lo = [panel_points(panel, 12) for panel in panels]
    vals, errs, _ = theta_star_table(
        generator, func, np.concatenate([ts for ts, _ in hi + lo]), target=1e-14)
    value, quad, table = 0j, 0.0, 0.0
    for p, ((ts, ws), (ts_lo, ws_lo)) in enumerate(zip(hi, lo)):
        weights = ws * np.exp((s - 1.0) * np.log(ts))
        hi_sum = complex(np.sum(weights * vals[24 * p:24 * p + 24]))
        table += float(np.sum(np.abs(weights) * errs[24 * p:24 * p + 24]))
        first = 24 * len(panels) + 12 * p
        lo_sum = complex(np.sum(ws_lo * np.exp((s - 1.0) * np.log(ts_lo))
                                * vals[first:first + 12]))
        value += hi_sum
        quad += abs(hi_sum - lo_sum)
    return value, quad, table


@pytest.mark.parametrize("side", ["kernel", "transform"])
def test_flat_side_integral_matches_a_panel_loop(side):
    kernel = Kernel(DISC, power=4.0)
    generator, func = kernel.generator, kernel
    if side == "transform":
        generator, func = generator.transpose(), fourier_transform(kernel)
    flat = zeta_module._XiSide(generator, func)
    for s in (0.25 + 1j, -2.5 + 7j, 3.0):
        value, quad, table = flat.integral(complex(s))
        want_value, want_quad, want_table = _panel_loop(flat.t_end, generator, func, s)
        assert abs(value - want_value) <= 1e-14 * abs(want_value)
        assert abs(table - want_table) <= 1e-14 * want_table
        # the panel differences cancel, so they agree to the values' rounding
        assert abs(quad - want_quad) <= 1e-14 * abs(want_value)


def test_side_build_memory_stays_in_blocks():
    # a 1-D transform of 2^16 + 1 samples over 144 nodes: unblocked, its
    # Dirichlet matrix alone would take 75 MB
    h = 1.0 / 32.0
    x = np.arange(-(1 << 15), (1 << 15) + 1) * h
    tr = SampledTransform([x], np.exp(-x * x), [h], quad_error=0.0, tail_error=0.0)
    tracemalloc.start()
    try:
        side = zeta_module._XiSide(ABSVAL.generator.transpose(), tr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert side.log_t_hi.size >= 96
    assert peak < 8 * 2**20


def test_negative_integers_1d():
    phi = absval()
    want = {1: -1.0 / 6.0, 2: 0.0, 3: 1.0 / 60.0}
    for k, target in want.items():
        got = zeta_negative_integers(phi, k)
        assert got.value.real == pytest.approx(target, abs=1e-6)


def test_scaling_law():
    phi = disc()
    s = 2.25 + 0.75j
    base = zeta_continued(phi, s)
    for a in (2.0, 1.0 / 3.0):
        scaled = zeta_continued(phi.scale(a), s)
        want = a ** (-s) * base.value
        assert scaled.value == pytest.approx(want, abs=1e-8)


def test_conjugate_symmetry():
    phi = absval()
    s = 1.75 + 1.25j
    a = zeta_continued(phi, s)
    b = zeta_continued(phi, np.conj(s))
    assert b.value == pytest.approx(np.conj(a.value), abs=1e-10)


def test_explicit_power_gamma_pole_rejected():
    with pytest.raises(DomainError):
        zeta_continued(absval(), -2.0, power=2.0)


@pytest.mark.parametrize("power", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_continuation_needs_a_positive_power(power):
    # the split drops -g(0)/s only because g(0) = 0, which e^{-φ} (c = 0)
    # does not have
    with pytest.raises(DomainError):
        zeta_continued(absval(), 0.25 + 1.0j, power=power)
    with pytest.raises(DomainError):
        residue_at_alpha(absval(), power=power)


def test_functional_equation_strip_points():
    phi = absval()
    k = Kernel(phi, power=default_power(phi))
    khat = fourier_transform(k)
    khathat = khat.transform()
    alpha = phi.alpha
    for s in (0.4 + 0.6j, 0.55 - 1.2j, 0.7 + 0.0j):
        lhs = xi_full(k.generator, k, khat, s)
        rhs = xi_full(k.generator.transpose(), khat, khathat, alpha - s)
        assert abs(lhs.value - rhs.value) <= lhs.error + rhs.error


# ξ_{A^T}(ĝ, α-s) = ξ_A(g, s) = Γ(s+c) ζ(φ, s), with ζ(φ, s) in closed form
XI_SHAPES = {
    "absval": (ABSVAL, lambda s: 2.0 * riemann_zeta(s)),
    "square": (SQUARE, lambda s: 2.0 * riemann_zeta(2.0 * s)),
}


@pytest.mark.parametrize("name", sorted(XI_SHAPES))
def test_xi_full_is_the_sum_of_its_xi_plus_sides(name):
    phi, closed_form = XI_SHAPES[name]
    c = default_power(phi)
    k = Kernel(phi, power=c)
    khat = fourier_transform(k)
    khathat = khat.transform()
    alpha = phi.alpha
    for s in (alpha / 2 + 0.1 + 0.6j, complex(alpha / 2 + 0.2)):
        u = alpha - s
        full = xi_full(k.generator, k, khat, s)
        side = xi_plus(k.generator, k, s)
        side_hat = xi_plus(k.generator.transpose(), khat, u)
        parts = (-k.value_at_origin / s - khat.value_at_origin / u
                 + side.value + side_hat.value)
        assert abs(full.value - parts) <= full.error + side.error + side_hat.error
        reverse = xi_full(k.generator.transpose(), khat, khathat, u)
        miss = abs(reverse.value - _gamma(s + c) * closed_form(s))
        assert miss <= reverse.error
        assert miss <= 1e-8


def test_xi_full_of_the_self_dual_gaussian():
    # g = e^{-πx²} is its own transform: ξ(g, s) = Γ(s) π^{-s} 2ζ(2s), a
    # rigorous value on both sides of the strip
    g = Kernel(QuadraticForm([[math.pi]]), power=0.0)
    for s in (0.2 + 0.7j, -0.7 + 0.2j):
        got = xi_full(g.generator, g, g, s)
        exact = _gamma(s) * math.pi ** (-s) * 2.0 * riemann_zeta(2.0 * s)
        assert got.kind == "rigorous"
        assert abs(got.value - exact) <= got.error


@pytest.mark.parametrize("phi", [ABSVAL, DISC, SUPERELLIPSE],
                         ids=["absval", "disc", "superellipse"])
def test_kernel_side_tail_bounds_its_dominating_integral(phi):
    # past the table end T, θ*(t) <= θ*(T)(t/T)^c e^{-μ(t-T)}; the closed
    # form bounds that integral against t^{σ-1} from above, and within 2%
    side = zeta_module._xi_machine(phi, default_power(phi)).side
    T, mu, c, top = side.t_end, side.mu, side.c_pow, side.theta_at_end
    for sigma in (-3.0, 0.0, phi.alpha, phi.alpha + 3.0):
        def dominating(t, sigma=sigma):
            return top * (t / T) ** c * mpmath.exp(-mu * (t - T)) * t ** (sigma - 1)

        with mpmath.workdps(30):
            want = mpmath.quad(dominating, [T, T + 1 / mu, T + 4 / mu, T + 16 / mu,
                                            T + 64 / mu, mpmath.inf])
        assert 1.0 <= side.tail(sigma) / want <= 1.02


def test_kernel_side_tail_raises_past_its_decay():
    side = zeta_module._xi_machine(ABSVAL, default_power(ABSVAL)).side
    with pytest.raises(StripError):
        side.tail(side.mu * side.t_end - side.c_pow + 1.0)


def test_xi_plus_rejects_other_summands():
    with pytest.raises(DomainError):
        xi_plus(ABSVAL.generator, ABSVAL, 0.5)


def test_caches_die_with_their_owner():
    phi = QuadraticForm(np.eye(2))
    zeta_continued(phi, 0.25 + 1j)
    zeta_direct(phi, 1.5, box_budget=1e6)
    ref = weakref.ref(phi)
    del phi
    gc.collect()
    assert ref() is None

    k = Kernel(QuadraticForm([[1.0]]), power=4.0)
    khat = fourier_transform(k)
    xi_full(k.generator, k, khat, 0.3 + 0.2j)
    refs = (weakref.ref(k), weakref.ref(khat))
    del k, khat
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_growth_scan_1d_decay_rate():
    rows, rate, threshold, passed = growth_scan(absval())
    assert passed
    assert rate >= math.pi / 2.0 - 0.2
    assert len(rows) >= 3


def test_superellipse_overlap():
    phi = SUPERELLIPSE
    s = 1.6
    d = zeta_direct(phi, s)
    c = zeta_continued(phi, s)
    assert abs(d.value - c.value) <= d.error + c.error
    assert abs(d.value - c.value) < 1e-6


# Re s - α and |Im s| of the direct series' calibration grid, both signs of Im s
CALIBRATION_GRID = [complex(d, sign * h) for d in (0.01, 0.05, 0.2, 1.0, 3.0)
                    for h in (0.0, 0.5, 30.0) for sign in ((1,) if h == 0.0 else (1, -1))]


@pytest.mark.parametrize("name", sorted(LAURENT))
def test_direct_bars_cover_the_closed_forms(name):
    """Across the grid, on both the estimated and the rigorous route, the
    closed form (in mpmath, which holds at |Im 2s| = 60) lies within the bar."""
    phi, closed_form, _, _ = LAURENT[name]
    for offset in CALIBRATION_GRID:
        s = phi.alpha + offset
        got = zeta_direct(phi, s)
        with mpmath.workdps(25):
            want = complex(closed_form(mpmath.mpc(s.real, s.imag)))
        assert abs(got.value - want) <= got.error, (s, got.kind)


@pytest.mark.parametrize("name", ["absval", "square"])
def test_continued_bars_cover_the_closed_forms(name):
    """The one-dimensional calibration sweep: 25 values of Re s across
    [-3, α+3], both sides of the pole, at |Im s| up to 30 with both signs."""
    phi, closed_form, _, _ = LAURENT[name]
    for re in np.linspace(-3.0, phi.alpha + 3.0, 25):
        for im in (0.0, 0.5, -0.5, 3.0, -3.0, 10.0, -10.0, 30.0, -30.0):
            s = complex(re, im)
            got = zeta_continued(phi, s)
            with mpmath.workdps(25):
                want = complex(closed_form(mpmath.mpc(re, im)))
            assert abs(got.value - want) <= got.error, s


def test_direct_bar_carries_the_volume_bar(monkeypatch):
    """|B| closes the series, so a volume off by its own bar may move the
    value by that bar times α|t^{α-s} W(s)|, and the bar must say so."""
    off = BoundedValue(math.pi + 1e-6, 1e-6, "estimated")  # |B| of the disc is π
    monkeypatch.setattr(volume_module, "volume_exp_integral", lambda phi: off)
    _, closed_form, _, _ = LAURENT["disc"]
    for s in (1.01, 1.2 + 0.5j):
        got = zeta_direct(DISC, s)
        with mpmath.workdps(25):
            want = complex(closed_form(mpmath.mpc(s.real, s.imag)))
        assert 1e-8 <= abs(got.value - want) <= got.error, s  # the shift shows


def test_direct_bars_meet_the_continuation_on_the_superellipse():
    """At the default budget, and at 2e5, where the distance between the two
    windows carries the bar near the pole."""
    small = AnisotropicSuperellipse([12.0, 18.0], 6.0)  # a table of its own
    for offset in CALIBRATION_GRID:
        s = SUPERELLIPSE.alpha + offset
        c = zeta_continued(SUPERELLIPSE, s)
        for d in (zeta_direct(SUPERELLIPSE, s), zeta_direct(small, s, box_budget=2e5)):
            assert abs(d.value - c.value) <= d.error + c.error, (s, d.kind)


# frozen: zeta_continued(PNorm(2, 3.0), s) at the default power, (value, bar);
# its transform takes about 10 s and 1 GB, too much to rebuild in the suite
PNORM3_CONTINUED = {
    2.01: (709.6957632843796, 2.3352125733923347e-05),
    2.2 + 0.5j: (7.956407220315722 - 12.09351617544021j, 1.572306392933428e-05),
    3.0: (10.269038567815235, 2.6598295033623335e-06),
}


def test_direct_bars_hold_for_a_phi_that_is_not_smooth():
    """The 3-norm is C^2 but not C^3 on the axes, so its Poisson remainder
    falls only polynomially.  Two budgets agree within their bars, and each
    agrees with the continuation within the summed bars."""
    small, large = PNorm(2, 3.0), PNorm(2, 3.0)  # one table per φ
    for s, (want, bar) in PNORM3_CONTINUED.items():
        a = zeta_direct(small, s, box_budget=2e5)
        b = zeta_direct(large, s, box_budget=5e6)
        assert abs(a.value - b.value) <= a.error + b.error, s
        for got in (a, b):
            assert abs(got.value - want) <= got.error + bar, s


def test_continuation_of_a_phi_that_is_not_smooth_stops_at_the_sample_budget():
    # the 3-norm's transform at the default power would take 1.4e7 samples
    # on its fine grid (about 10 s and 1 GB); it stops before sampling it
    with pytest.raises(BudgetExceededError, match="sample budget"):
        zeta_continued(PNorm(2, 3.0), 2.5 + 1j)


def test_continuation_of_the_3d_ball_fits_the_sample_budget():
    # the largest transform grid measured for a smooth 3-D φ (9.1e6 samples);
    # ζ of a positive quadratic form vanishes at the negative integers
    got = zeta_continued(QuadraticForm(np.eye(3)), -4.0)
    assert abs(got.value) <= got.error


# budgets small enough for a full-box reference, large enough for the
# estimator's point guard; diag(1, 2, 3) has orthant faces of 2, 4 and 8
# sign images, disc 1.7 is a Scaled φ
WINDOW_SHAPES = {
    "disc": (lambda: QuadraticForm(np.eye(2)), 1e6),
    "superellipse": (lambda: AnisotropicSuperellipse([12.0, 18.0], 6.0), 2e5),
    "diag123": (lambda: QuadraticForm(np.diag([1.0, 2.0, 3.0])), 1e6),
    "disc1.7": (lambda: Scaled(QuadraticForm(np.eye(2)), 1.7), 1e6),
}


@pytest.fixture(scope="module")
def window_tables():
    """name -> (table, sorted full-box values below its t_max), built once."""
    out = {}
    for name, (make, budget) in WINDOW_SHAPES.items():
        phi = make()  # fresh: the table cache holds one budget per φ
        table = _moment_table(phi, budget)
        out[name] = (phi, table, full_box_values(phi, table.t_max))
    return out


def _t_lows(table):
    return table.t_max * np.array([1.0, 0.5])


@pytest.mark.parametrize("offset", [0.1, 0.3 + 2.5j])
@pytest.mark.parametrize("name", sorted(WINDOW_SHAPES))
def test_window_sums_match_the_per_window_loop(window_tables, name, offset):
    phi, table, vals = window_tables[name]
    assert table.mult == 2
    assert table.mult * table.moments[0].sum() == vals.size
    s = complex(phi.alpha + offset)
    got, _ = _windowed_sums(s, table)
    want, _ = windowed_sums(s, np.log(vals), _t_lows(table))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


@pytest.mark.parametrize("offset", [0.1, 0.3 + 2.5j, 2.0 + 30.0j])
@pytest.mark.parametrize("name", sorted(WINDOW_SHAPES))
def test_window_sums_lie_within_their_bounds(window_tables, name, offset):
    """Each moment-table sum is within its truncation + ramp-fit + rounding
    bound of an fsum of the terms (plus that sum's own rounding), and the
    bound is a few ulps."""
    phi, table, vals = window_tables[name]
    s = complex(phi.alpha + offset)
    got, bounds = _windowed_sums(s, table)
    want, allowance = windowed_sums(s, np.log(vals), _t_lows(table))
    assert np.all(np.abs(got - want) <= bounds + allowance)
    assert np.all(bounds <= 1e-13 * np.abs(want))


# the rigorous route's own boxes at target 2.5e-7
RIGOROUS_SUMS = {
    "disc": (DISC, 2.9, 89),
    "superellipse": (SUPERELLIPSE, 2.9, 155),
    "diag123": (QuadraticForm(np.diag([1.0, 2.0, 3.0])), 4.0 + 0.5j, 36),
}


@pytest.mark.parametrize("name", sorted(RIGOROUS_SUMS))
def test_rigorous_sum_charges_its_rounding(name):
    """Past the integral-test tail, the bar covers the distance to an fsum
    over the whole nonzero box of terms taken in long double."""
    phi, s, m = RIGOROUS_SUMS[name]
    s = complex(s)
    c3 = phi.growth()[2]
    value, error = _rigorous_sum(phi, s, m, c3)
    lam = np.log(phi.evaluate_many(box_points([m] * phi.dim)).astype(np.longdouble))
    terms = np.exp(-np.clongdouble(s) * lam)
    want = complex(math.fsum(terms.real.astype(float)), math.fsum(terms.imag.astype(float)))
    assert abs(value - want) <= error - _integral_test_tail(phi, s.real, c3, m)


def test_uneven_profile_enumerates_both_halves():
    generator = QuadraticForm(np.eye(2)).generator

    def lopsided(pts):
        return 1.0 + 0.3 * pts[:, 0] / np.linalg.norm(pts, axis=1)

    phi = Profile.from_function(generator, lopsided, resolution=64)
    assert not phi.is_even
    table = _moment_table(phi, 1.5e5)
    assert table.mult == 1
    vals = full_box_values(phi, table.t_max)
    s = complex(phi.alpha + 0.3 + 2.5j)
    got, _ = _windowed_sums(s, table)
    want, _ = windowed_sums(s, np.log(vals), _t_lows(table))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_direct_estimator_names_a_too_small_box_budget():
    with pytest.raises(DomainError, match="box_budget"):
        zeta_direct(QuadraticForm(np.eye(2)), 1.1, box_budget=1e4)


# to the right of the pole, where the bars are a few ulps of the value
ROUNDING_POINTS = {
    "absval": (ABSVAL, 3.661 - 1.014j, lambda s: 2.0 * riemann_zeta(s)),
    "square": (SQUARE, 3.182 - 1.018j, lambda s: 2.0 * riemann_zeta(2.0 * s)),
    "disc": (DISC, 3.650 - 1.024j,
             lambda s: 4.0 * riemann_zeta(s) * dirichlet_beta(s)),
}


@pytest.mark.parametrize("name", sorted(ROUNDING_POINTS))
def test_continued_bars_cover_rounding_right_of_the_pole(name):
    phi, s, closed_form = ROUNDING_POINTS[name]
    got = zeta_continued(phi, s)
    assert abs(got.value - closed_form(s)) <= got.error
