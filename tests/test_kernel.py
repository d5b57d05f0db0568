import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from azeta import kernel as kernel_module
from azeta import zeta as zeta_module
from azeta.errors import DomainError
from azeta.homog import AnisotropicSuperellipse, PNorm, QuadraticForm, Scaled
from azeta.kernel import (
    Kernel,
    SampledTransform,
    _band_probes,
    _fast_length,
    _fft_grid,
    _fold_samples,
    _nudft_points,
    _shell_peak,
    fourier_transform,
    quadratic_root,
    quadratic_transform,
)
from azeta.lattice import box_rows, grid_rows
from azeta.quadrature import panel_points
from azeta.theta import theta_star_table

from shapes import ABSVAL, DISC, SQUARE, SUPERELLIPSE


def test_kernel_needs_nonnegative_power():
    phi = PNorm(1, 1.0)
    with pytest.raises(DomainError):
        Kernel(phi, power=-1.0)
    with pytest.raises(DomainError):
        Kernel(phi, power=math.nan)


def test_kernel_values_both_kinds():
    phi = PNorm(1, 1.0)
    x = np.array([[0.5], [2.0]])
    pe = Kernel(phi, power=3.0)
    assert np.allclose(pe.evaluate_many(x), np.array([0.5, 2.0]) ** 3 * np.exp(-np.array([0.5, 2.0])))
    assert pe.value_at_origin == 0.0
    ep = Kernel(QuadraticForm([[1.0]]), power=0.0)
    assert np.allclose(ep.evaluate_many(x), np.exp(-np.array([0.5, 2.0]) ** 2))
    assert ep.value_at_origin == 1.0


@pytest.mark.parametrize("phi", [ABSVAL, DISC, SUPERELLIPSE],
                         ids=["absval", "disc", "superellipse"])
def test_power_zero_kernel_is_exp_of_minus_phi(phi):
    kernel = Kernel(phi, power=0.0)
    x = box_rows([3] * phi.dim, nonzero=True) * 0.37
    assert np.array_equal(kernel.evaluate_many(x), np.exp(-phi.evaluate_many(x)))
    assert kernel.evaluate_many(np.zeros((1, phi.dim)))[0] == 1.0
    assert kernel.value_at_origin == 1.0
    assert kernel._envelope(0.0) == 1.0


def test_integral_over_space_closed_forms():
    value, err, _ = Kernel(PNorm(1, 1.0), power=0.0).integral_over_space()
    assert value == pytest.approx(2.0, abs=1e-10)
    assert abs(value - 2.0) <= max(err, 1e-12)
    value, err, _ = Kernel(QuadraticForm(np.eye(2)), power=0.0).integral_over_space()
    assert value == pytest.approx(math.pi, abs=1e-9)


def test_transform_exponential_closed_form():
    # g = e^{-|x|}, ghat(y) = 2 / (1 + 4 pi^2 y^2)
    tr = fourier_transform(Kernel(PNorm(1, 1.0), power=0.0))
    ys = np.array([[0.0], [0.1], [0.5], [1.0]])
    want = 2.0 / (1.0 + 4.0 * math.pi**2 * ys[:, 0] ** 2)
    got = tr.evaluate_points(ys)
    assert np.allclose(got.real, want, atol=1e-8)
    assert np.max(np.abs(got.imag)) < 1e-10


def test_transform_gaussian_closed_form():
    # g = e^{-x^2}, ghat(y) = sqrt(pi) e^{-pi^2 y^2}
    tr = fourier_transform(Kernel(QuadraticForm([[1.0]]), power=0.0))
    ys = np.array([[0.0], [0.3], [0.8]])
    want = math.sqrt(math.pi) * np.exp(-math.pi**2 * ys[:, 0] ** 2)
    assert np.allclose(tr.evaluate_points(ys).real, want, atol=1e-10)


def test_transform_2d_gaussian_closed_form():
    # g = e^{-(x^2+y^2)}, ghat(u) = pi e^{-pi^2 |u|^2}
    tr = fourier_transform(Kernel(QuadraticForm(np.eye(2)), power=0.0))
    pts = np.array([[0.0, 0.0], [0.4, -0.2], [1.0, 0.7]])
    want = math.pi * np.exp(-math.pi**2 * np.sum(pts**2, axis=1))
    assert np.allclose(tr.evaluate_points(pts).real, want, atol=1e-10)


def test_transform_quoted_error_covers_closed_form_gap():
    tr = fourier_transform(Kernel(PNorm(1, 1.0), power=0.0))
    ys = np.linspace(0.0, 2.0, 9)[:, None]
    want = 2.0 / (1.0 + 4.0 * math.pi**2 * ys[:, 0] ** 2)
    got = tr.evaluate_points(ys).real
    budget = tr.quad_error + tr.tail_error
    assert np.max(np.abs(got - want)) <= 10.0 * budget


def test_double_transform_reflects_back():
    tr = fourier_transform(Kernel(QuadraticForm([[1.0]]), power=0.0))
    back = tr.transform()
    # 3.5 lies past half the sampled radius: the band covers all of it
    xs = np.array([[0.0], [0.5], [1.25], [3.5]])
    want = np.exp(-xs[:, 0] ** 2)
    assert np.allclose(back.evaluate_points(xs).real, want, atol=1e-9)


def test_double_transform_bar_covers_the_kernel():
    # ĝ̂(x) sums ĝ's samples over the whole dual box, so its bar carries ĝ's
    # pointwise error times the box's volume
    kernel = Kernel(ABSVAL, power=6.0)
    back = fourier_transform(kernel).transform()
    xs = np.array([[0.0], [0.5], [1.0], [3.0], [10.0], [30.0]])
    miss = np.abs(back.evaluate_points(xs) - kernel.evaluate_many(xs))
    bar = back.quad_error + back.tail_error + back.inherited_error
    assert np.all(miss <= bar), miss / bar


def test_one_dimensional_phases_are_exact_products():
    # the spacing comparison behind quad_error sees the trapezoid error, not
    # the rounding of the phases' products x y
    assert fourier_transform(Kernel(ABSVAL, power=6.0)).quad_error <= 2e-13


def test_double_transform_reflects_back_in_two_dimensions():
    tr = fourier_transform(Kernel(QuadraticForm(np.eye(2)), power=0.0))
    back = tr.transform()
    # one point in each quadrant, on both axes and at the origin
    xs = np.array([[0.0, 0.0], [0.5, 0.25], [-1.25, 0.5], [-0.75, -1.5],
                   [2.0, -1.0], [0.0, -0.8], [1.1, 0.0]])
    want = np.exp(-np.sum(xs**2, axis=1))
    assert np.allclose(back.evaluate_points(xs).real, want, atol=1e-9)


# one probe point in each quadrant, per dimension
QUADRANTS = {1: np.array([[0.3], [-0.4]]),
             2: np.array([[0.3, 0.4], [-0.3, 0.4], [-0.3, -0.4], [0.3, -0.4]])}


@pytest.mark.parametrize("phi, power", [
    (DISC, 6.0), (Scaled(DISC, 1.7), 6.0), (SUPERELLIPSE, 6.0), (ABSVAL, 6.0),
    (SQUARE, 3.0)], ids=["disc", "disc17", "superellipse", "absval", "square"])
def test_folded_transform_is_the_full_grid_sum(phi, power):
    # φ even in every coordinate: the transform keeps x >= 0 only, and must
    # give what the trapezoid sum over the mirrored full grid gives
    kernel = Kernel(phi, power=power)
    tr = fourier_transform(kernel)
    assert all(tr.folded) and all(a[0] == 0.0 for a in tr.axes_x)
    axes = [np.concatenate([-a[:0:-1], a]) for a in tr.axes_x]
    g = kernel.evaluate_many(grid_rows(axes)).reshape([a.size for a in axes])
    quadrants = QUADRANTS[phi.dim]
    pts = np.vstack([_band_probes(tr.band), quadrants * tr.band])
    scale = float(np.max(np.abs(tr.hat_grid)))
    want = _nudft_points(axes, g, tr.spacing, pts)
    assert np.max(np.abs(tr.evaluate_points(pts) - want)) <= 1e-12 * scale
    origin = float(np.prod(tr.spacing)) * g.sum()
    assert abs(tr.value_at_origin - origin) <= 1e-12 * scale
    assert abs(tr.center_term - origin) <= 1e-12 * scale


def _seven_smooth(n):
    for p in (3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


def test_fast_length_is_the_smallest_odd_seven_smooth_length():
    # brute force: every odd 3-5-7-smooth length up to past the last answer
    lengths = [m for m in range(1, 6000, 2) if _seven_smooth(m)]
    for n in range(1, 5001):
        got = _fast_length(n)
        assert got % 2 == 1 and got >= n and _seven_smooth(got)
        assert got == min(m for m in lengths if m >= n)


@pytest.mark.parametrize("folded", [(True, True), (False, False)],
                         ids=["folded", "full"])
def test_fft_grid_is_the_trapezoid_sum_at_its_dual_nodes(folded):
    # axes whose FFT length before padding is prime (31, 43; 37, 41): the
    # transform pads them to 35, 45; 45, 45 and must still give the
    # trapezoid sum at every node of its finer dual grid
    h = np.array([0.25, 0.2])
    if all(folded):
        axes = [np.arange(16) * h[0], np.arange(22) * h[1]]
        values = np.exp(-np.square(axes[0])[:, None] - 2.0 * np.square(axes[1]))
        values = _fold_samples(values, folded)
    else:  # off-centre, so ĝ is complex and not even
        axes = [np.arange(-18, 19) * h[0], np.arange(-20, 21) * h[1]]
        values = np.exp(-np.square(axes[0] - 0.3)[:, None] - 2.0 * np.square(axes[1] + 0.2))
    axes_y, hat = _fft_grid(values, h, folded)
    lengths = [2 * a.size - 1 if f else a.size for a, f in zip(axes, folded)]
    want_shape = [(_fast_length(n) + 1) // 2 if f else _fast_length(n)
                  for n, f in zip(lengths, folded)]
    assert all(not _seven_smooth(n) for n in lengths)
    assert list(hat.shape) == want_shape
    for a, n, size, step, f in zip(axes_y, lengths, want_shape, h, folded):
        assert a.size == size and np.allclose(np.diff(a), 1.0 / (_fast_length(n) * step))
        assert a[0] == 0.0 if f else np.array_equal(a, -a[::-1])
    want = _nudft_points(axes, values, h, grid_rows(axes_y), folded).reshape(hat.shape)
    assert np.max(np.abs(hat - want)) <= 1e-12 * np.max(np.abs(hat))


def test_centrally_even_phi_is_not_folded():
    # Q with an off-diagonal entry is even only under x -> -x, so ĝ(y1, y2)
    # and ĝ(y1, -y2) differ, which a folded (cosine) sum cannot show
    tr = fourier_transform(Kernel(QuadraticForm([[1.0, 0.3], [0.3, 2.0]]),
                                  power=0.0))
    assert not any(tr.folded)
    y = 0.1 * tr.band
    a, b = tr.evaluate_points(np.array([[y[0], y[1]], [y[0], -y[1]]])).real
    assert abs(a - b) > 0.1 * abs(a)


def test_out_of_band_queries_are_zero_with_model_bound():
    tr = fourier_transform(Kernel(QuadraticForm([[1.0]]), power=0.0))
    far = np.array([[tr.band[0] * 3.0]])
    assert tr.evaluate_points(far)[0] == 0.0


def test_band_trust_handles_anisotropic_corner_mass():
    # a kernel whose transform decays slowest along the diagonal: the band
    # must be trusted on its whole boundary shell, not only on the axes
    phi = AnisotropicSuperellipse([12.0, 18.0], 6.0)
    k = Kernel(phi, power=6.0)
    tr = fourier_transform(k)
    grid = tr.hat_grid
    mags = np.abs(grid)
    scale = mags.max()
    # worst in-band magnitude near the boundary shell stays at the floor level
    ratio = np.maximum.outer(np.abs(tr.axes_y[0]) / tr.band[0],
                             np.abs(tr.axes_y[1]) / tr.band[1])
    shell = (ratio >= 0.85) & (ratio <= 1.0)
    assert mags[shell].max() <= 2e-8 * scale


def _explicit_box_sum(tr, scales, box):
    """(Σ ĝ(s∘k), Σ |ĝ(s∘k)|) over |k_i| ≤ K_i, one evaluate_points call."""
    vals = tr.evaluate_points(box_rows(box) * np.asarray(scales)[None, :])
    return vals.sum(), np.abs(vals).sum()


def _boxes(tr):
    """(scales, box) pairs whose images stay inside the band: a small box
    with unequal axes, where every term counts, and the whole band."""
    axes = np.arange(tr.dim)
    small = (0.05 * tr.band * (1.0 + 0.3 * axes), 2 + axes)
    scales = 0.37 * tr.band / (3 + axes)
    return [small, (scales, np.floor(tr.band / scales).astype(int))]


@pytest.mark.parametrize("kernel", [
    Kernel(PNorm(1, 1.0), power=2.0),                      # 1-D sampled
    Kernel(QuadraticForm([[1.0, 0.3], [0.3, 2.0]]), power=0.0),  # 2-D sampled
    Kernel(QuadraticForm(np.eye(2)), power=0.0),           # 2-D diagonal
], ids=["sampled-1d", "sampled-2d", "sampled-2d-diagonal"])
def test_box_sum_is_the_sum_over_the_box(kernel):
    tr = fourier_transform(kernel)
    for scales, box in _boxes(tr):
        want, scale = _explicit_box_sum(tr, scales, box)
        assert abs(tr.box_sum(scales, box) - want) <= 1e-12 * scale
    # one row per query: small boxes that differ from row to row, where
    # every term counts
    rows = _boxes(tr) + [(0.05 * tr.band * (1.0 + 0.2 * j), np.full(tr.dim, 1 + j % 4))
                         for j in range(8)]
    batch = tr.box_sum(np.array([s for s, _ in rows]), np.array([b for _, b in rows]))
    for (scales, box), got in zip(rows, batch):
        want, scale = _explicit_box_sum(tr, scales, box)
        assert abs(got - want) <= 1e-12 * scale


def test_box_sum_of_a_complex_transform():
    # a shifted Gaussian is not even, so the samples of its transform are
    # complex (and Hermitian, so the box sums of transform() are real)
    x = np.arange(-60, 61) / 8.0
    g = np.exp(-((x - 0.4) ** 2))
    back = SampledTransform([x], g, [1.0 / 8.0], quad_error=0.0,
                            tail_error=0.0).transform()
    assert np.iscomplexobj(back.values)
    for scales, box in _boxes(back):
        want, scale = _explicit_box_sum(back, scales, box)
        assert abs(back.box_sum(scales, box) - want) <= 1e-12 * scale


def test_box_sum_of_the_empty_box_is_the_center_term():
    for tr in (fourier_transform(Kernel(PNorm(1, 1.0), power=2.0)),
               fourier_transform(Kernel(QuadraticForm(np.eye(2)), power=0.0))):
        box = np.zeros(tr.dim, dtype=int)
        got = tr.box_sum(np.full(tr.dim, 0.7), box)
        assert got == tr.center_term
        want, scale = _explicit_box_sum(tr, np.full(tr.dim, 0.7), box)
        assert abs(got - want) <= 1e-12 * scale


def test_box_sum_at_integer_phases():
    # s h = 1 makes every x s an integer, where D_K(x s) = 2K + 1.  Those k
    # lie beyond the Nyquist band, where evaluate_points returns 0, so the
    # reference is the unmasked trapezoid sum that it evaluates in band.
    h = 1.0 / 8.0
    x = np.arange(-60, 61) * h
    tr = SampledTransform([x], np.exp(-x * x), [h], quad_error=0.0,
                          tail_error=0.0)
    for box in ([0], [1], [4]):
        pts = box_rows(box) / h
        vals = _nudft_points(tr.axes_x, tr.values, tr.spacing, pts)
        got = tr.box_sum([1.0 / h], box)
        assert abs(got - vals.sum()) <= 1e-12 * np.abs(vals).sum()
        assert got == pytest.approx((2 * box[0] + 1) * tr.center_term, rel=1e-15)


@pytest.mark.parametrize("kernel", [
    Kernel(PNorm(1, 1.0), power=6.0),                      # 1-D sampled
    Kernel(QuadraticForm([[1.0, 0.3], [0.3, 2.0]]), power=0.0),  # 2-D sampled
    Kernel(QuadraticForm(np.eye(2)), power=0.0),           # 2-D diagonal
], ids=["sampled-1d", "sampled-2d", "sampled-2d-diagonal"])
def test_batched_table_entries_are_the_box_sums(kernel):
    # 24 Gauss nodes of a transform-side table in one call, where the boxes
    # are small, not empty, and differ from node to node within a block of
    # the contraction: each entry is the sum of ĝ over the node's in-band
    # box minus the origin
    tr = fourier_transform(kernel)
    generator = kernel.generator.transpose()
    rates = np.diag(generator.entries)
    end = float(np.max(tr.band ** (1.0 / rates)))  # the band empties here
    ts, _ = panel_points([end / 8.0, end / 2.0], 24)
    values, _, kind = theta_star_table(generator, tr, ts)
    assert kind == "estimated"
    boxes = np.floor(tr.band / ts[:, None] ** rates).astype(int)
    assert len({tuple(box) for box in boxes}) >= 2
    center = tr.evaluate_points(np.zeros((1, tr.dim)))[0]
    for t, value, box in zip(ts, values, boxes):
        scales = t**rates
        want, scale = _explicit_box_sum(tr, scales, box)
        assert abs(value - (want - center).real) <= 1e-12 * scale, t


def test_origin_only_box_gives_exactly_zero():
    # past the band on every axis the box holds only ω = 0, which θ* drops;
    # the batch also holds an in-band row, so the contraction still runs
    kernel = Kernel(QuadraticForm(np.eye(2)), power=3.0)
    tr = fourier_transform(kernel)
    far = 1.5 * float(np.max(tr.band)) ** 2  # t^{1/2} > band on both axes
    values, errors, _ = theta_star_table(kernel.generator, tr, [1.5, far, 2.0 * far])
    assert values[1] == 0.0 and values[2] == 0.0
    assert values[0] != 0.0
    assert np.all(errors > 0.0)


# ĝ of Q^c e^{-Q} in closed form (GaussianTransform)
SKEW = QuadraticForm([[2.0, 0.5], [0.5, 1.0]])


def _exact_coefficients(n, c):
    """P_c(v) = c! L_c^{(n/2-1)}(v), the generalized Laguerre polynomial, in
    mpmath: an independent route to the coefficients of (-∂_λ)^c λ^{-n/2} e^{-v/λ}."""
    a = mpmath.mpf(n) / 2 - 1
    return [mpmath.factorial(c) * (-1) ** j * mpmath.binomial(c + a, c - j) / mpmath.factorial(j)
            for j in range(c + 1)]


def _exact_scale(q):
    """π^{n/2} det(Q)^{-1/2} in mpmath, at the working precision."""
    q = np.asarray(q, dtype=float).tolist()
    return mpmath.pi ** (mpmath.mpf(len(q)) / 2) / mpmath.sqrt(mpmath.det(mpmath.matrix(q)))


def _exact_ghat(q, c, v):
    """ĝ at ψ = v in mpmath, from the Laguerre coefficients."""
    with mpmath.workdps(30):
        return (_exact_scale(q) * mpmath.polyval(_exact_coefficients(len(q), c)[::-1], v)
                * mpmath.exp(-v))


@pytest.mark.parametrize("a, c", [(1.0, 3), (1.3, 5), (math.pi, 0)])
def test_gaussian_transform_is_the_fourier_integral_in_one_dimension(a, c):
    ghat = quadratic_transform([[a]], c)
    ys = np.array([0.0, 0.1, 0.37, 0.8, 1.5, 2.2])
    got = ghat.evaluate_many(ys[:, None])
    with mpmath.workdps(30):
        for y, value in zip(ys.tolist(), got):
            want = mpmath.quad(lambda x: (a * x * x) ** c * mpmath.exp(-a * x * x)
                               * mpmath.cos(2 * mpmath.pi * x * y), [-mpmath.inf, 0, mpmath.inf])
            assert abs(value - want) <= 1e-14 * max(1.0, abs(ghat.value_at_origin)), y


@pytest.mark.parametrize("phi", [DISC, Scaled(DISC, 1.7), SKEW], ids=["disc", "disc1.7", "skew"])
def test_gaussian_transform_meets_the_sampled_transform(phi):
    # at the band probes, where the sampled transform's quad_error is measured;
    # its trapezoid sums of g >= 0 also round by a few ulps of Σ h^n g = ĝ(0)
    c = 3.0
    sampled = fourier_transform(Kernel(phi, power=c))
    ghat = quadratic_transform(quadratic_root(phi)[0].q_matrix, int(c))
    probes = _band_probes(sampled.band)
    miss = np.abs(sampled.evaluate_points(probes) - ghat.evaluate_many(probes))
    assert np.max(miss) <= sampled.quad_error + 8 * 2.0**-52 * ghat.value_at_origin
    assert ghat.generator.entries.tolist() == phi.generator.entries.T.tolist()


@pytest.mark.parametrize("q", [[[1.0]], np.eye(2), 1.7 * np.eye(2), [[2.0, 0.5], [0.5, 1.0]],
                               [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]],
                         ids=["square", "disc", "disc1.7", "skew", "skew3"])
def test_gaussian_transform_at_the_origin(q):
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    for c in range(7):
        ghat = quadratic_transform(q, c)
        with mpmath.workdps(30):
            half = mpmath.mpf(n) / 2
            want = _exact_scale(q) * mpmath.gamma(c + half) / mpmath.gamma(half)
        assert abs(ghat.value_at_origin - want) <= ghat.origin_error
        assert ghat.origin_error <= 16 * n * 2.0**-52 * abs(want)  # a few ulps


@pytest.mark.parametrize("phi", [SQUARE, DISC, SKEW], ids=["square", "disc", "skew"])
def test_gaussian_transform_coefficients_are_laguerre(phi):
    q = quadratic_root(phi)[0].q_matrix
    n = phi.dim
    for c in (1, 4, 6):
        ghat = quadratic_transform(q, c)
        with mpmath.workdps(30):
            want = [float(_exact_scale(q) * p) for p in _exact_coefficients(n, c)]
        assert np.allclose(ghat.coefficients, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("phi, c", [(SQUARE, 6), (DISC, 6), (SKEW, 4)],
                         ids=["square", "disc", "skew"])
def test_gaussian_table_bars_cover_the_exact_mixed_sign_sums(phi, c):
    # P_c has c positive roots, so at these flow times the terms of one row
    # take both signs and some sit near a root; the truth sums the exact ĝ
    # in mpmath over the box [-8, 8]^n, past which every term is below 1e-50,
    # one term per distinct level times its count
    q = quadratic_root(phi)[0].q_matrix
    ghat = quadratic_transform(q, c)
    ts, _ = panel_points([0.2, 0.5, 1.0, 2.0], 8)
    values, errors, kind = theta_star_table(ghat.generator, ghat, ts)
    assert kind == "rigorous"
    rows = box_rows([8] * phi.dim, nonzero=True)
    _, first, counts = np.unique(np.round(ghat.phi.evaluate_many(rows), 9),
                                    return_index=True, return_counts=True)
    with mpmath.workdps(30):
        q_inv = mpmath.matrix(q.tolist()) ** -1
        levels = [mpmath.pi**2 * (mpmath.matrix(r).T * q_inv * mpmath.matrix(r))[0]
                  for r in rows[first].tolist()]
    signs = set()
    for t, value, error in zip(ts.tolist(), values, errors):
        with mpmath.workdps(30):
            terms = [_exact_ghat(q, c, t * v) for v in levels]
            want = mpmath.fsum(int(k) * x for k, x in zip(counts, terms))
        signs |= {mpmath.sign(x) for x in terms if abs(x) > 1e-12}
        assert abs(value - want) <= error, t
    assert signs == {-1, 1}


def test_gaussian_side_tail_starts_from_the_magnitude():
    # past the table end |ĝ| <= M(t ψ) and M(tv) <= (t/T)^c M(Tv) e^{-(t-T)v},
    # so the tail must start from Σ M at the last node, not from |θ*(T)|
    c = 5
    ghat = quadratic_transform(DISC.q_matrix, c)
    side = zeta_module._xi_side(ghat.generator, ghat)
    t_last = math.exp(side.log_t_hi[-1, -1])
    rows = box_rows([6, 6], nonzero=True)
    size = [abs(p) for p in _exact_coefficients(2, c)]
    with mpmath.workdps(30):
        scale = _exact_scale(DISC.q_matrix)
        want = mpmath.fsum(scale * mpmath.polyval(size[::-1], x) * mpmath.exp(-x)
                           for x in (t_last * mpmath.pi**2 * (r[0] ** 2 + r[1] ** 2)
                                     for r in rows.tolist()))
    assert want <= side.theta_at_end <= 1.01 * want


def _one_shot_fft_grid(values, spacing, folded):
    """`_fft_grid` as it was first written: each folded axis by one rfft of
    the whole grid, the full axes padded, ifftshifted, transformed and
    fftshifted as separate arrays."""
    hat = values
    axes_y = [None] * values.ndim
    for axis in reversed(range(values.ndim)):
        if folded[axis]:
            size = _fast_length(2 * values.shape[axis] - 1)
            hat = np.fft.rfft(hat, n=size, axis=axis).real
            axes_y[axis] = np.fft.rfftfreq(size, d=spacing[axis])
    full = [axis for axis in range(values.ndim) if not folded[axis]]
    if full:
        pad = [(0, 0)] * values.ndim
        for axis in full:
            size = _fast_length(values.shape[axis])
            pad[axis] = ((size - values.shape[axis]) // 2,) * 2
            axes_y[axis] = np.fft.fftshift(np.fft.fftfreq(size, d=spacing[axis]))
        hat = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(np.pad(hat, pad), axes=full),
                                          axes=full), axes=full)
    return axes_y, hat * np.prod(spacing)


def _grid_samples(shape, folded, rng, complex_values=False):
    """Random samples on a grid of `shape`: x >= 0 on a folded axis, a
    symmetric odd grid (odd sizes) on a full one."""
    values = rng.standard_normal(shape)
    if complex_values:
        values = values + 1j * rng.standard_normal(shape)
    return _fold_samples(values, folded)


@pytest.mark.parametrize("shape, block", [((37,), 5), ((23, 41), 100), ((23, 41), 7),
                                          ((9, 11, 13), 300), ((9, 11, 13), 1)])
def test_blocked_folded_rfft_is_the_one_shot_rfft(monkeypatch, shape, block):
    # blocks of a few rows that split the other axis unevenly, down to one
    # row a block, give the one-shot transform's bits
    rng = np.random.default_rng(44)
    folded = (True,) * len(shape)
    values = _grid_samples(shape, folded, rng)
    spacing = np.linspace(0.1, 0.3, len(shape))
    want_axes, want = _one_shot_fft_grid(values, spacing, folded)
    monkeypatch.setattr(kernel_module, "_BOX_BLOCK", block)
    got_axes, got = _fft_grid(values, spacing, folded)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert all(np.array_equal(a, b) for a, b in zip(got_axes, want_axes))
    if len(shape) > 1:
        # one-shot blocks too
        monkeypatch.setattr(kernel_module, "_BOX_BLOCK", 1 << 15)
        assert np.array_equal(_fft_grid(values, spacing, folded)[1], want)


@pytest.mark.parametrize("shape, folded, complex_values", [
    ((21, 33), (True, False), False),
    ((21, 33), (False, True), False),
    ((21, 33), (False, False), False),
    ((21, 33), (False, False), True),
    ((7, 9, 11), (True, False, True), False),
    ((7, 9, 11), (False, True, False), False),
])
def test_fft_grid_full_axes_keep_the_one_shot_bits(monkeypatch, shape, folded, complex_values):
    rng = np.random.default_rng(4)
    values = _grid_samples(shape, folded, rng, complex_values)
    spacing = np.linspace(0.2, 0.4, len(shape))
    want_axes, want = _one_shot_fft_grid(values, spacing, folded)
    monkeypatch.setattr(kernel_module, "_BOX_BLOCK", 50)
    got_axes, got = _fft_grid(values, spacing, folded)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert all(np.array_equal(a, b) for a, b in zip(got_axes, want_axes))


def test_centrally_even_transform_keeps_the_one_shot_bits():
    tr = fourier_transform(Kernel(QuadraticForm([[1.0, 0.3], [0.3, 2.0]]), power=0.0))
    assert not any(tr.folded)
    _, want = _one_shot_fft_grid(tr.values, tr.spacing, tr.folded)
    assert np.array_equal(tr.hat_grid, want)
    # the samples and the transform are a few grids, not the ten arrays that
    # separate padding, shifting and transforming used to hold
    tracemalloc.start()
    try:
        _fft_grid(tr.values, tr.spacing, tr.folded)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * tr.hat_grid.nbytes


def _masked_shell(mags, axes_y, band, lo, hi, closed=False):
    """(max, first index in C order) over the shell, from the full ratio mesh."""
    ratio = np.abs(axes_y[0]) / band[0]
    for a, b in zip(axes_y[1:], band[1:]):
        ratio = np.maximum.outer(ratio, np.abs(a) / b)
    sel = (ratio >= lo) & ((ratio <= hi) if closed else (ratio < hi))
    if not np.any(sel):
        return None, None
    return float(mags[sel].max()), np.unravel_index(int(np.argmax(np.where(sel, mags, -1.0))),
                                                    mags.shape)


@pytest.mark.parametrize("kind", ["folded", "full", "mixed-3d"])
def test_shell_peak_is_the_masked_maximum(kind):
    rng = np.random.default_rng(7)
    if kind == "folded":
        axes_y = [np.fft.rfftfreq(45, 0.1), np.fft.rfftfreq(63, 0.08)]
    elif kind == "full":
        axes_y = [np.fft.fftshift(np.fft.fftfreq(n, h)) for n, h in ((45, 0.1), (35, 0.08))]
    else:
        axes_y = [np.fft.rfftfreq(15, 0.2), np.fft.fftshift(np.fft.fftfreq(21, 0.1)),
                  np.fft.rfftfreq(25, 0.15)]
    band = np.array([2.0, 2.5, 1.5][:len(axes_y)])
    shape = tuple(a.size for a in axes_y)
    # a handful of levels, so the maximum is tied and the first index counts
    mags = np.round(4.0 * rng.random(shape)) / 4.0
    on_grid = float(np.abs(axes_y[0][3]) / band[0])
    cases = [(0.45, 0.6, False), (0.92, 1.08, True), (0.85, 1.0, True),
             (on_grid, 1.3, False), (0.2, on_grid, False), (0.2, on_grid, True),
             (50.0, 60.0, False), (0.0, 1e-9, False)]
    for lo, hi, closed in cases:
        want = _masked_shell(mags, axes_y, band, lo, hi, closed)
        got = _shell_peak(mags, axes_y, band, lo, hi, np.less_equal if closed else np.less)
        assert got[0] == want[0]
        assert (got[1] is None) == (want[1] is None)
        if want[1] is not None:
            assert tuple(map(int, got[1])) == tuple(map(int, want[1]))
    assert _shell_peak(mags, axes_y, band, 50.0, 60.0, np.less) == (None, None)


def test_superellipse_decay_fit_keeps_its_bits():
    tr = fourier_transform(Kernel(AnisotropicSuperellipse([12.0, 18.0], 6.0), power=6.0))
    assert tr.edge_level == 7.177795197676616e-09
    assert tr.decay_tau == 14.743720786859177


def test_transform_memory_stays_near_its_arrays():
    # the samples, ĝ and |ĝ| of the 508 x 405 fine grid take 4.9 MiB; the
    # build once held 11.7 MiB at its peak
    phi = AnisotropicSuperellipse([12.0, 18.0], 6.0)
    kernel = Kernel(phi, power=6.0)
    kernel.box_radii()
    tracemalloc.start()
    try:
        tr = fourier_transform(kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.values.shape == (508, 405)
    assert peak < 8 * 2**20


@pytest.mark.parametrize("power", [0.0, 6.0])
@pytest.mark.parametrize("levels", ["positive", "with-zero"])
def test_radial_keeps_the_masked_bits(power, levels):
    rng = np.random.default_rng(3)
    level = rng.exponential(5.0, size=(40, 30))
    if levels == "with-zero":
        level[0, 0] = 0.0
        level[5, 7] = -0.0
        level[9, 2] = -1.5
    kept = level.copy()
    kernel = Kernel(PNorm(2, 2.0), power=power)
    want = np.full_like(level, kernel.value_at_origin)
    pos = level > 0.0
    want[pos] = np.exp(power * np.log(level[pos]) - level[pos])
    got = kernel.radial(level)
    assert np.array_equal(got, want)
    assert np.array_equal(level, kept)
    terms, _ = kernel.radial_terms(level[level > 0.0])
    assert np.array_equal(terms, want[pos])
