"""The zeta function of a homogeneous φ: direct series and continuation.

Direct side: ζ(φ,s) = Σ over nonzero lattice ω of φ(ω)^{-s}, valid for
Re s > α = trace A.  Truncated sums converge miserably near the pole, so the
estimator sums φ^{-s} under a smooth window ending at a cutoff t and adds the
integral of what the window leaves out, the paper's residue term
α|B| t^{α-s} W(s); |B| = vol{φ < 1} comes from the box quadrature of e^{-φ},
independent of the continuation.  The lattice below the cutoff is kept only
as a moment table: log φ in narrow bins, a few power moments per bin.  Each s
then costs a Taylor expansion of e^{-s log φ} about every bin centre (the
fast Gauss transform's expansion about box centres, Greengard and Strain
1991), a few thousand bins instead of millions of points.

Continuation side: with g = φ^c e^{-φ} one has Γ(s+c) ζ(φ,s) = ξ_A(g,s) and

    ξ_A(g,s) = -g(0)/s - ĝ(0)/(α-s) + ξ⁺_A(g,s) + ξ⁺_{A^T}(ĝ, α-s),

where ξ⁺ integrates θ*(it) t^{s-1} over [1, ∞).  Both ξ⁺ integrands are
s-independent apart from the t^{s-1} factor, so each side is one `_XiSide`:
octave panel tables of θ* built in one `theta_star_table` call over all
their nodes and kept as flat arrays, so that each s costs one exp and one
row sum per node order.
The side's summand sets where its table ends and how its tail is bounded: a
kernel side carries a certified exponential bound; a transform side ends where
its band empties, with a fitted power-law model for what is dropped (reported
as an estimate, never as rigorous).  `_XiMachine` is the one four-term
combination, behind `zeta_continued`, `xi_plus` and `xi_full`.  One machine
per exponent c > 0 serves every s: g(0) = 0 makes s = 0 a regular point
(`zeta_at_zero` is the continuation there), and within 1e-6 of the pole the
same value comes with its Laurent data in closed form; `zeta_direct` hands
that neighbourhood to the machine too, and `residue_at_alpha` reads the
residue ĝ(0)/Γ(α+c) off the same machine.

Derived values live in `cache_for(owner)`, one weak-keyed cache: moment tables,
volumes and ξ machines die with their φ, side tables with their summand.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, DomainError, StripError
from .homog import HomogeneousFunction, _coordinate_monotone
from .kernel import Kernel, SampledTransform, fourier_transform
from .lattice import box_size, half_box_slabs, orthant_slabs
from .quadrature import gl_nodes, panel_points
from .special import (digamma, first_shell, gamma as gamma_fn, gamma_rel_error,
                      power_shell_tail)
from .theta import ESTIMATED, RIGOROUS, BoundedValue, theta_star_table

__all__ = [
    "MeromorphicValue",
    "zeta_direct",
    "zeta_continued",
    "zeta_at_zero",
    "zeta_negative_integers",
    "residue_at_alpha",
    "xi_plus",
    "xi_full",
    "growth_scan",
]

_NEAR_POLE = 1e-6
_EPS = 2.0**-52
_MAX_IMAG = 32.0
_THETA_TARGET = 1e-14  # θ* target of every ξ⁺ side table


@dataclass(frozen=True)
class MeromorphicValue:
    """ζ(φ,s) with an error bar; near the pole the Laurent data rides along."""

    s: complex
    value: complex
    error: float
    kind: str
    near_pole: tuple | None = None  # (pole, distance, residue, constant)


_CACHES = weakref.WeakKeyDictionary()


def cache_for(owner) -> dict:
    """The dict of values derived from `owner`; it dies with the owner.

    No stored value may hold a strong reference to its owner, or the weak
    key never dies.
    """
    return _CACHES.setdefault(owner, {})


# ---------------------------------------------------------------------------
# direct series
# ---------------------------------------------------------------------------


# The direct series' moment table.  λ = log φ goes into bins of width
# H = log 2/192 hanging down from log t_max, so the two windows' ramps, over
# [t_max/2, t_max) and [t_max/4, t_max/2), are 192 bins each.  Each bin keeps
# K moments of u = (λ - c_b)/H about its centre.
_MOMENTS = 8  # K
_OCTAVE_BINS = 192
_BIN_WIDTH = math.log(2.0) / _OCTAVE_BINS  # H
_U_MAX = 0.5 + 1e-9  # |u| in a bin, with room for the rounding of the binning
_MIN_POINTS = 100_000  # lattice points the estimator needs below t_max
# points in the box of the table or of the rigorous sum; disc2d's verify point
# s = 2.25+0.75i takes the rigorous route with a box of 2109^2 = 4,447,881
_BOX_BUDGET = 5e6
# rows per slab of the build: its temporaries stay in cache, and the orthant
# walk's table build on the superellipse at box_budget 1e7 peaked at 43 MB RSS
# with 2^15 rows, at 132 MB with 1 M rows (x86-64 Linux, glibc malloc)
_BUILD_ROWS = 1 << 15
_LONG_EPS = float(np.finfo(np.longdouble).eps)  # the window sums add in long double


@dataclass(frozen=True)
class _MomentTable:
    """Bin b holds t_max 2^{-(b+1)/192} <= φ < t_max 2^{-b/192} (up to the
    rounding of log φ); moments[k, b] is the weighted sum Σ weight u^k over
    its `_lattice_values`, so mult times it is the sum over the box."""

    t_max: float
    moments: np.ndarray
    mult: int
    budget: float


def _centres(t_max: float, bins: int) -> np.ndarray:
    return math.log(t_max) - (np.arange(bins) + 0.5) * _BIN_WIDTH


def _lattice_values(phi: HomogeneousFunction, box):
    """(φ, weight) slab by slab over the nonzero rows of the integer box;
    the weighted sums times mult (2 for an even φ, else 1) are the box's.

    A coordinate-monotone φ (`homog._coordinate_monotone`) walks
    `lattice.orthant_slabs`, evaluated on each slab's grid
    (`evaluate_grid`), a point with 2^k sign images weighing 2^k / 2;
    the origin's slab comes out empty with weight 0, as the half box's
    x_0 = 0 slab does in one dimension.  Any other even φ walks
    `lattice.half_box_slabs` (weight 1), and an uneven φ the negated rows
    too.  The weights are 0 or powers of two, so scaling by them is exact."""
    if _coordinate_monotone(phi):
        for axes, mirrors in orthant_slabs(box, _BUILD_ROWS):
            yield (phi.evaluate_grid(axes) if mirrors > 1 else np.empty(0)), mirrors // 2
        return
    for rows in half_box_slabs(box, _BUILD_ROWS):
        # 0.0 - rows keeps zero coordinates +0.0, as the full box has them
        for pts in (rows,) if phi.is_even else (rows, 0.0 - rows):
            yield phi.evaluate_many(pts), 1


def _moment_table(phi: HomogeneousFunction, box_budget: float) -> _MomentTable:
    """The moment table of the largest complete sublevel set within budget.

    Built in one walk of `_lattice_values`, keeping no value; each slab's
    bin sums are scaled by its weight.  λ goes into bin
    floor((log t_max - λ)/H) at u = (λ - c_b)/H; the two quotients round
    apart by a few ulps of (log t_max + |λ|)/H, under 1e-10 for φ < e^{100},
    so `_windowed_sums` bounds every term for |u| <= `_U_MAX`.  Cached on φ;
    a larger budget rebuilds.
    """
    cache = cache_for(phi)
    table = cache.get("direct_moments")
    if table is not None and table.budget >= box_budget:
        return table
    t_max = 1.0
    while box_size(phi.lattice_box(2.0 * t_max)) <= box_budget:
        t_max *= 2.0
    for frac in (1.9, 1.8, 1.7, 1.6, 1.5, 1.4, 1.3, 1.2, 1.1):
        if box_size(phi.lattice_box(frac * t_max)) <= box_budget:
            t_max *= frac
            break
    moments = np.zeros((_MOMENTS, 2 * _OCTAVE_BINS))
    centres = _centres(t_max, moments.shape[1])
    for vals, weight in _lattice_values(phi, phi.lattice_box(t_max)):
        lam = np.log(vals[vals < t_max])
        u = (math.log(t_max) - lam) / _BIN_WIDTH
        bins = u.astype(np.intp)  # a log rounded up to log t_max goes to bin 0
        width = int(bins.max(initial=0)) + 1
        if width > moments.shape[1]:
            moments = np.pad(moments, ((0, 0), (0, width - moments.shape[1])))
            centres = _centres(t_max, width)
        np.subtract(lam, centres[bins], out=u)
        u /= _BIN_WIDTH
        moments[0] += weight * np.bincount(bins, minlength=centres.size)
        power = u.copy()
        for k in range(1, _MOMENTS):
            moments[k] += weight * np.bincount(bins, weights=power, minlength=centres.size)
            power *= u
    table = _MomentTable(t_max, moments, 2 if phi.is_even else 1, box_budget)
    cache["direct_moments"] = table
    return table


@lru_cache(maxsize=1)
def _ramp_fit() -> tuple:
    """(coefficients, residuals) of the window weight on its 192 ramp bins.

    On bin p under t (p = 0..191) the weight w(φ/t) is, as a function of u,
    the same for both windows.  Row p is the degree K-1 polynomial in u that
    interpolates it at K Chebyshev nodes; residuals[p] is twice its largest
    miss on 257 points of |u| <= `_U_MAX`, plus four ulps.
    """
    def weight(u):
        x = 2.0 * np.exp((u - np.arange(_OCTAVE_BINS)[:, None] - 0.5) * _BIN_WIDTH) - 1.0
        return 1.0 - _smooth_ramp(x)

    nodes = 0.5 * np.cos(np.pi * (np.arange(_MOMENTS) + 0.5) / _MOMENTS)
    coefficients = np.linalg.solve(np.vander(nodes, _MOMENTS, increasing=True),
                                   weight(nodes).T).T
    grid = np.linspace(-_U_MAX, _U_MAX, 257)
    misses = weight(grid) - coefficients @ np.vander(grid, _MOMENTS, increasing=True).T
    return coefficients, 2.0 * np.max(np.abs(misses), axis=1) + 4.0 * _EPS


def _windowed_sums(s: complex, table: _MomentTable) -> tuple:
    """(sums, bounds): Σ φ^{-s} w(φ/t) over the lattice at t = t_max, t_max/2.

    The window w(x) = 1 - `_smooth_ramp`(2x - 1) is 1 below x = 1/2 and 0
    from x = 1 on.  Bin b adds e^{-s c_b} Σ_k (-sH)^k/k! moments[k, b], as
    e^{-sλ} is e^{-s c_b} e^{-sHu}; on the 192 ramp bins under t the Taylor
    row is first multiplied by the ramp's polynomial (a Cauchy product cut
    at degree K).  Each window adds its bins in long double.  The bound
    adds, per bin, the Taylor remainder (|s|H|u|)^K/K! e^{|s|H|u|}, the
    product's dropped degrees K..2K-2 and the ramp-fit residual, each for
    |u| <= `_U_MAX`, and a first-order rounding term for e^{-s c_b}, the
    moments and λ = log φ itself (an ulp of λ).  So it bounds the distance
    to the series over the exact logs of the float64 values of φ.
    """
    s = s.real if s.imag == 0.0 else s  # real s keeps every array real
    moments = table.moments
    counts = moments[0]
    centres = _centres(table.t_max, counts.size)
    taylor = np.cumprod([1.0] + [-s * _BIN_WIDTH / k for k in range(1, _MOMENTS)])
    halves = _U_MAX ** np.arange(2 * _MOMENTS - 1)  # bounds on |u|^k
    x = abs(s) * _BIN_WIDTH * _U_MAX
    phase = np.exp(-s * centres)
    decay = phase if phase.dtype == float else np.exp(-s.real * centres)
    size = counts * decay
    # Σ|u|^K over a bin is at most _U_MAX^2 moments[K-2], K being even
    remainder = ((abs(s) * _BIN_WIDTH) ** _MOMENTS / math.factorial(_MOMENTS) * math.exp(x)
                 * decay * _U_MAX**2 * moments[_MOMENTS - 2])
    # per point: e^{-s c_b}, and an ulp of λ itself
    rounding = (_EPS * (2.0 * abs(s) * (np.abs(centres) + _BIN_WIDTH) + 4.0)
                + _LONG_EPS * (math.log2(counts.size) + 20.0))

    def bin_sums(coef, residual, bins):
        """Values and bounds of the bins for product rows coef (..., 2K-1)."""
        mag = np.abs(coef) * halves
        low = mag[..., 1:_MOMENTS].sum(axis=-1)
        value = phase[bins] * (coef[..., 0] * counts[bins] + np.einsum(
            "...k,k...->...", coef[..., 1:_MOMENTS], moments[1:, bins]))
        bound = remainder[bins] * (1.0 + residual) + size[bins] * (
            mag[..., _MOMENTS:].sum(axis=-1) + (math.exp(x) + 1.0) * residual
            + rounding[bins] * (mag[..., 0] + low) + _EPS * (counts[bins] + _MOMENTS + 2) * low)
        return value, bound

    plain, plain_bound = bin_sums(np.pad(taylor, (0, _MOMENTS - 1)), 0.0, slice(None))
    coefficients, residuals = _ramp_fit()
    product = np.zeros((_OCTAVE_BINS, 2 * _MOMENTS - 1), dtype=taylor.dtype)
    for k, t_k in enumerate(taylor):
        product[:, k:k + _MOMENTS] += t_k * coefficients
    ramp_bins = np.arange(2 * _OCTAVE_BINS).reshape(2, _OCTAVE_BINS)
    ramp, ramp_bound = bin_sums(product, residuals, ramp_bins)
    # each window: its ramp bins and every plain bin below them
    plain = plain.astype(np.clongdouble)
    below = plain[2 * _OCTAVE_BINS:].sum()
    sums = (ramp.astype(np.clongdouble).sum(axis=1)
            + [plain[_OCTAVE_BINS:2 * _OCTAVE_BINS].sum() + below, below]).astype(complex)
    bounds = ramp_bound.sum(axis=1) + [plain_bound[_OCTAVE_BINS:].sum(),
                                       plain_bound[2 * _OCTAVE_BINS:].sum()]
    return table.mult * sums, table.mult * (bounds + _EPS * np.abs(sums))


def _smooth_ramp(x: np.ndarray) -> np.ndarray:
    """C^inf transition, 0 for x <= 0 and 1 for x >= 1."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore"):  # exp(-1/0) = 0 at both ends
        a = np.exp(-1.0 / x)
        b = np.exp(-1.0 / (1.0 - x))
    return a / (a + b)


@lru_cache(maxsize=2)
def _ramp_nodes(nodes: int) -> tuple:
    """(log u, weight times 1 - w(u)) at the Gauss-Legendre nodes on [1/2, 1]."""
    x, w = gl_nodes(nodes)
    u = 0.25 * x + 0.75
    return np.log(u), 0.25 * w * _smooth_ramp((u - 0.5) / 0.5)


def _window_coefficient(alpha: float, s: complex) -> tuple:
    """(W, error): W(s) = ∫_{1/2}^∞ u^{α-s-1} (1 - w(u)) du for the window w.

    Past u = 1 the integrand is a plain power, 1/(s-α) in closed form.  The
    ramp part takes 64 Gauss-Legendre nodes (at rounding for |Im s| <= 60,
    against mpmath); its error is charged as the distance to 48 nodes, which
    overstates it, plus the rounding of the terms and the sums.
    """
    def ramp_part(nodes):
        log_u, weights = _ramp_nodes(nodes)
        terms = weights * np.exp((alpha - s - 1.0) * log_u)
        return complex(np.sum(terms)), float(np.sum(np.abs(terms)))

    (value, size), (coarse, _) = ramp_part(64), ramp_part(48)
    pole = 1.0 / (s - alpha)
    rounding = _EPS * ((abs(alpha - s - 1.0) + 12.0) * size + 2.0 * abs(pole))
    return value + pole, abs(value - coarse) + rounding


def zeta_direct(phi: HomogeneousFunction, s: complex, *,
                target: float = 2.5e-7,
                box_budget: float = _BOX_BUDGET) -> MeromorphicValue:
    """Lattice series for Re s > α, windowed and closed by the residue.

    Rigorous route: when Re s clears the absolute-convergence line βn with
    enough headroom that a sup-norm box within budget certifies the tail by
    the integral test, the truncated sum comes with that bound and its
    rounding (`_rigorous_sum`).  Otherwise each s reads the windowed sums at
    t = t_max and t_max/2 off the moment table of the largest sublevel set
    {φ < t_max} whose box fits box_budget, and adds the pole term
    α|B| t^{α-s} W(s), the integral of what the window leaves out, with |B|
    from `volume.volume_exp_integral`.  The value is the estimate at t_max;
    it misses ζ(φ,s) by a Poisson remainder that falls faster than any power
    of t for φ smooth off the origin.  The bar adds the distance to the
    estimate at t_max/2, the sums' bounds, |B|'s bar times α|t^{α-s} W(s)|,
    W's error and the rounding of the pole term and the final sum.
    """
    s = complex(s)
    alpha = phi.alpha
    if s.real <= alpha:
        raise DivergenceError(
            f"ζ(φ,s) diverges for Re s <= α = {alpha:.6g}, got {s}"
        )
    if abs(s - alpha) < _NEAR_POLE:
        return zeta_continued(phi, s)

    gen = phi.generator
    beta_n = gen.beta * phi.dim
    _, _, c3, _ = phi.growth()
    if s.real > beta_n + 0.25:
        m_box = _rigorous_box(phi, s.real, c3, target)
        if m_box is not None and (2.0 * m_box + 1.0) ** phi.dim <= box_budget:
            value, error = _rigorous_sum(phi, s, m_box, c3)
            return MeromorphicValue(s, value, error, RIGOROUS)

    table = _moment_table(phi, box_budget)
    points = int(table.mult * table.moments[0].sum())
    if points < _MIN_POINTS:
        raise DomainError(
            f"box_budget = {box_budget:.3g} leaves the windowed estimator {points} "
            f"lattice points below t_max = {table.t_max:.6g}; it needs {_MIN_POINTS}")

    from .volume import volume_exp_integral  # volume imports this module
    volume = volume_exp_integral(phi)
    windowed, bounds = _windowed_sums(s, table)
    coefficient, coefficient_error = _window_coefficient(alpha, s)
    scale = alpha * (table.t_max * np.array([1.0, 0.5])) ** complex(alpha - s.real, -s.imag)
    estimates = windowed + volume.value * coefficient * scale
    head = abs(scale[0])  # α|t^{α-s}|
    # rounding: t^{α-s} errs by |(α-s) log t| + 2 ulps, the products and the
    # final sum by an ulp of their magnitudes each
    pole = volume.value * head * abs(coefficient)
    error = (abs(estimates[0] - estimates[1]) + float(bounds.sum())
             + (volume.error * abs(coefficient) + volume.value * coefficient_error) * head
             + _EPS * (pole * (abs(alpha - s) * math.log(table.t_max) + 6.0) + abs(windowed[0])))
    return MeromorphicValue(s, complex(estimates[0]), error, ESTIMATED)


def _integral_test_tail(phi, re_s: float, c3: float, m0: int) -> float:
    """Bound on Σ over sup-norm shells j > m0 of |φ^{-s}|: shell j sits at
    φ >= c3 j^{1/β}, so it is c3^{-σ} `power_shell_tail` of the power σ/β."""
    return c3 ** -re_s * power_shell_tail(phi.dim, m0 + 1, re_s / phi.generator.beta)


def _rigorous_box(phi, re_s: float, c3: float, target: float):
    """Smallest sup-norm box whose tail is within 0.45 target, or None."""
    if re_s / phi.generator.beta <= phi.dim + 0.2:
        return None
    return first_shell(
        lambda m: _integral_test_tail(phi, re_s, c3, m) <= 0.45 * target, 1 << 16)


def _rigorous_sum(phi, s: complex, m_box: int, c3: float):
    """(Σ φ^{-s} over the nonzero box [-m, m]^n, its bar), in `_lattice_values`.

    Each slab's sums are scaled by its weight, exactly.  The bar adds to the
    integral-test tail the rounding: a term errs by (2|s log φ| + |s| + 2)
    ulps of itself (φ, its log, the product and the exp), a slab's np.sum by
    log2(rows) ulps of its terms and each slab by one, all weighted.
    """
    total, size, spread, slabs = 0j, 0.0, 0.0, 0
    for slabs, (vals, weight) in enumerate(_lattice_values(phi, [m_box] * phi.dim), 1):
        lam = np.log(vals)
        terms = np.exp(-s * lam)
        mag = np.abs(terms)
        total += weight * terms.sum()
        size += weight * mag.sum()
        spread += weight * (mag @ np.abs(lam))
    rounding = _EPS * (2.0 * abs(s) * spread
                       + (abs(s) + math.log2(_BUILD_ROWS) + slabs + 2.0) * size)
    mult = 2 if phi.is_even else 1
    return complex(mult * total), _integral_test_tail(phi, s.real, c3, m_box) + float(mult * rounding)


# ---------------------------------------------------------------------------
# xi machinery
# ---------------------------------------------------------------------------


class _XiSide:
    """Octave panel tables of θ*(t) for one side of the split Mellin integral,
    with the bound on what lies past their end.

    The summand decides both.  A Kernel φ^c e^{-φ} decays like t^c e^{-μt}
    along the flow, μ = φ_min: the table ends at the fixed point below and the
    tail is a certified exponential bound.  A band-limited transform's box
    sums are exactly zero once the flow pushes every nonzero lattice point out
    of its band: the table ends there and the tail is the fitted power-law
    model of what the band dropped, an estimate that needs Re s < γτ.  The
    whole table is one `theta_star_table` call over the nodes of every
    panel, kept flat as (panels × nodes) arrays of log t,
    w θ* and w err; per s, Σ w_i θ*(t_i) t_i^{s-1} over the high-order nodes
    is one exp and one row sum, and the low-order nodes, one more of each,
    estimate each panel's quadrature error.  The side keeps no reference to
    the summand, so it can be cached on it.
    """

    def __init__(self, generator, func):
        if isinstance(func, Kernel):
            self.mu, self.c_pow = func.phi.lattice_minimum(), func.power
            t_end = 46.0 / self.mu
            for _ in range(40):
                t_new = (46.0 + (self.c_pow + 9.0) * math.log(max(t_end, 2.0))) / self.mu
                if abs(t_new - t_end) < 1e-9 * t_end:
                    break
                t_end = t_new
        else:
            band = np.asarray(func.band, dtype=float)
            if generator.is_diagonal:
                t_end = float(np.max(band ** (1.0 / np.diag(generator.entries))))
            else:
                t_end = float(np.max(band)) ** (1.0 / generator.gamma)
            t_end *= 1.05
            self.mu = None
            self.decay = generator.gamma * float(func.decay_tau)
            self.edge_level = func.edge_level
        self.t_end = max(2.0, t_end)
        edges = [1.0]
        while edges[-1] < self.t_end:
            edges.append(min(2.0 * edges[-1], self.t_end))
        hi_t, hi_w = panel_points(edges, 24)
        lo_t, lo_w = panel_points(edges, 12)
        values, errors, kind = theta_star_table(
            generator, func, np.concatenate([hi_t, lo_t]), target=_THETA_TARGET)
        panels = len(edges) - 1
        n_hi = hi_t.size
        self.log_t_hi = np.log(hi_t).reshape(panels, 24)
        self.log_t_lo = np.log(lo_t).reshape(panels, 12)
        self.weighted_hi = (hi_w * values[:n_hi]).reshape(panels, 24)
        self.weighted_lo = (lo_w * values[n_hi:]).reshape(panels, 12)
        self.weighted_error_hi = (hi_w * errors[:n_hi]).reshape(panels, 24)
        self.kind = ESTIMATED if self.mu is None else kind
        self.theta_at_end = float(abs(values[n_hi - 1]) + errors[n_hi - 1])

    def integral(self, s: complex):
        """(value, quadrature error, table error) of ∫_1^{t_end} θ* t^{s-1} dt."""
        if abs(s.imag) > _MAX_IMAG:
            raise DomainError(
                f"|Im s| = {abs(s.imag):.3g} too large for the panel tables "
                f"(max {_MAX_IMAG:g})"
            )
        power_hi = np.exp((s - 1.0) * self.log_t_hi)
        hi = (power_hi * self.weighted_hi).sum(axis=1)
        lo = (np.exp((s - 1.0) * self.log_t_lo) * self.weighted_lo).sum(axis=1)
        table_err = float(np.sum(np.abs(power_hi) * self.weighted_error_hi))
        return complex(hi.sum()), float(np.sum(np.abs(hi - lo))), table_err

    def tail(self, re_s: float) -> float:
        """Bound on ∫_{t_end}^∞ |θ*| t^{re_s-1} dt."""
        T = self.t_end
        if self.mu is None:
            if re_s >= self.decay - 0.25:
                raise StripError(
                    f"transform decay γτ ≈ {self.decay:.3g} cannot cover "
                    f"Re(α-s) = {re_s:.3g}",
                    suggestion="increase the kernel exponent c (smoother φ^c)",
                )
            return self.edge_level * T**re_s / (self.decay - re_s)
        # θ*(t) <= θ*(T)(t/T)^c e^{-μ(t-T)} integrates against t^{σ-1} to
        # θ*(T) T^{-c} e^{μT} μ^{-a} Γ(a, μT) with a = c + σ, and
        # Γ(a, x) <= x^{a-1} e^{-x} max(1, x/(x-a+1)) for x > a - 1
        room = self.mu * T - max(self.c_pow + re_s - 1.0, 0.0)
        if room <= 0.0:
            raise StripError(
                f"kernel decay μT ≈ {self.mu * T:.3g} cannot cover "
                f"Re s = {re_s:.3g} past the table end"
            )
        return self.theta_at_end * T**re_s / room

    def xi_plus(self, s: complex) -> BoundedValue:
        value, quad, table = self.integral(s)
        return BoundedValue(value, quad + table + self.tail(s.real), self.kind)


def _xi_side(generator, func) -> _XiSide:
    """The side table of func along the flow of generator, cached on func."""
    if not isinstance(func, (Kernel, SampledTransform)):
        raise DomainError(
            f"ξ⁺ needs a Kernel or a band-limited transform, got {type(func).__name__}"
        )
    store = cache_for(func)
    key = ("xi_side", generator.entries.tobytes())
    side = store.get(key)
    if side is None:
        side = store[key] = _XiSide(generator, func)
    return side


class _XiMachine:
    """ξ_A(f, s) by the four-term split, for a summand f and its transform f̂.

    It keeps the two side tables and the origin terms f(0), f̂(0) and the
    error of f̂(0), never f or f̂ themselves, so it can be cached on φ.
    """

    def __init__(self, generator, func, func_hat):
        self.alpha = generator.alpha
        self.side = _xi_side(generator, func)
        self.side_hat = _xi_side(generator.transpose(), func_hat)
        both = (self.side.kind, self.side_hat.kind)
        self.kind = RIGOROUS if both == (RIGOROUS, RIGOROUS) else ESTIMATED
        self.g_zero = complex(func.value_at_origin).real
        self.ghat_zero = complex(func_hat.value_at_origin).real
        # a Kernel standing for its own transform (a self-dual Gaussian) has an
        # exact value at the origin; a sampled one carries its quadrature error
        self.ghat_zero_error = (0.0 if isinstance(func_hat, Kernel)
                                else func_hat.quad_error + func_hat.tail_error)

    def xi(self, s: complex):
        """(value, error) of ξ_A(f,s); DomainError at the s=0 and s=α poles.

        Near α the pole term -f̂(0)/(α-s) dominates; α - s is exact for s that
        close, so the value keeps its relative accuracy down to s = α itself.
        """
        if abs(s) < 1e-12 and self.g_zero != 0.0:
            raise DomainError("ξ has a pole at s = 0 for kernels with g(0) ≠ 0")
        if s == self.alpha:
            raise DomainError(f"ξ has a pole at s = α = {self.alpha:.6g}")
        u = self.alpha - s
        plus_g = self.side.xi_plus(s)
        plus_ghat = self.side_hat.xi_plus(u)
        value = plus_g.value + plus_ghat.value - self.ghat_zero / u
        err = plus_g.error + plus_ghat.error
        err += self.ghat_zero_error / abs(u)
        terms = abs(plus_g.value) + abs(plus_ghat.value) + abs(self.ghat_zero / u)
        if self.g_zero != 0.0:
            value -= self.g_zero / s
            terms += abs(self.g_zero / s)
        # rounding of the combination: each of the three additions errs by at
        # most half an ulp of the summed magnitudes, the two divisions by half
        # an ulp of theirs together, so 2 ulps of the sum bound it
        err += 2.0 * _EPS * terms
        return value, err


def _xi_machine(phi: HomogeneousFunction, c: float) -> _XiMachine:
    """The machine of the kernel φ^c e^{-φ} and its transform, cached on φ.

    The continuation rests on g(0) = 0, so c must be positive."""
    if not c > 0.0:
        raise DomainError(f"the continuation needs a kernel power c > 0, got {c}")
    cache = cache_for(phi)
    key = ("xi", round(float(c), 12))
    machine = cache.get(key)
    if machine is None:
        kernel = Kernel(phi, power=c)
        transform = fourier_transform(kernel)
        machine = cache[key] = _XiMachine(kernel.generator, kernel, transform)
    return machine


def default_power(phi: HomogeneousFunction, k_max: float = 0.0) -> float:
    """Kernel exponent c = max(βn+1, α+k_max+2), rounded up to the smoothness
    step of the variant; one-dimensional kink variants get a floor of 6 so the
    transform band is wide enough for the tight negative-integer targets."""
    gen = phi.generator
    c = max(gen.beta * phi.dim + 1.0, phi.alpha + k_max + 2.0)
    step = max(1, int(phi.smooth_step))
    c = step * math.ceil(c / step)
    if phi.dim == 1 and phi.smooth_step == 2:
        c = max(c, 6)
    return float(c)


def zeta_continued(phi: HomogeneousFunction, s: complex, *,
                   power: float | None = None) -> MeromorphicValue:
    """Analytic continuation of ζ(φ,s) to C∖{α} via the kernel φ^c e^{-φ}, c > 0.

    ζ(φ,s) = [ -ĝ(0)/(α-s) + ξ⁺_A(g,s) + ξ⁺_{A^T}(ĝ, α-s) ] / Γ(s+c).

    g(0) = 0, so s = 0 is a regular point like any other.  Within 1e-6 of
    the pole the value carries its Laurent data (`_laurent`) in `near_pole`.
    """
    s = complex(s)
    alpha = phi.alpha
    c = default_power(phi, max(0.0, -s.real)) if power is None else float(power)
    sc = s + c
    if sc.imag == 0.0 and sc.real <= 0.0 and sc.real == round(sc.real):
        raise DomainError(
            f"Γ(s+c) pole at s+c = {sc.real:g}; choose a different kernel power"
        )
    machine = _xi_machine(phi, c)
    near_pole = None
    dist = abs(s - alpha)
    if dist < _NEAR_POLE:
        residue, constant = _laurent(machine, c)
        if dist == 0.0:
            raise DomainError(
                f"s = {s} is the pole of ζ(φ, s); residue {residue:.9g}"
            )
        near_pole = (alpha, dist, residue, constant)
    xi_value, xi_err = machine.xi(s)
    gam = gamma_fn(sc)
    value = xi_value / gam
    # the default power keeps Re(s + c) >= α + 2, where gamma_rel_error
    # holds; one more ulp for the division
    error = xi_err / abs(gam) + (gamma_rel_error(sc) + _EPS) * abs(value)
    return MeromorphicValue(s, value, error, ESTIMATED, near_pole)


def _laurent(machine: _XiMachine, c: float) -> tuple:
    """(residue, constant) of ζ(φ,s) = residue/(s-α) + constant + O(s-α).

    ξ(s) = ĝ(0)/(s-α) + R(s) with R(α) = ξ⁺(g,α) + ξ⁺(ĝ,0), and
    1/Γ(s+c) = [1 - ψ(α+c)(s-α) + O((s-α)^2)] / Γ(α+c).
    """
    alpha = machine.alpha
    gam = gamma_fn(alpha + c).real
    r_alpha = (machine.side.xi_plus(complex(alpha)).value
               + machine.side_hat.xi_plus(0j).value).real
    residue = machine.ghat_zero / gam
    constant = (r_alpha - machine.ghat_zero * digamma(alpha + c)) / gam
    return residue, constant


def zeta_at_zero(phi: HomogeneousFunction) -> MeromorphicValue:
    """ζ(φ,0), the continuation at s = 0 on the machine of every Re s >= 0."""
    return zeta_continued(phi, 0.0)


def residue_at_alpha(phi: HomogeneousFunction, *,
                     power: float | None = None) -> BoundedValue:
    """Res_{s=α} ζ(φ,s) = ĝ(0)/Γ(α+c), from the ĝ(0) of the continuation's
    own ξ machine, with its bar, Γ's relative error and an ulp for the
    division."""
    c = default_power(phi) if power is None else float(power)
    machine = _xi_machine(phi, c)
    z = phi.alpha + c
    gam = gamma_fn(z).real
    value = machine.ghat_zero / gam
    error = (machine.ghat_zero_error / abs(gam)
             + (gamma_rel_error(z) + _EPS) * abs(value))
    return BoundedValue(value, error, ESTIMATED)


def zeta_negative_integers(phi: HomogeneousFunction, k: int) -> MeromorphicValue:
    """ζ(φ,-k) for positive integer k, retrying with a larger kernel power if
    the first transform's certified strip falls short."""
    if k < 1 or k != int(k):
        raise DomainError(f"need a positive integer order, got {k}")
    c = default_power(phi, float(k))
    step = max(1, int(phi.smooth_step))
    for attempt in range(2):
        try:
            return zeta_continued(phi, -float(k), power=c + attempt * step)
        except StripError:
            pass
    return zeta_continued(phi, -float(k), power=c + 2 * step)


def xi_plus(generator, func, s: complex) -> BoundedValue:
    """ξ⁺(f, s) = ∫_1^∞ θ*(f, it) t^{s-1} dt for a Kernel or a band-limited
    transform f, with the side table's tail bound in the error bar.

    The θ* table is built once per (f, generator) and cached on f.
    """
    return _xi_side(generator, func).xi_plus(complex(s))


def xi_full(generator, func, func_hat, s: complex) -> BoundedValue:
    """ξ(f, s) by the four-term split, for functional-equation checks.

    func_hat is the sampled transform of func; the side tables are cached on
    func and func_hat, so repeated calls reuse them.
    """
    machine = _XiMachine(generator, func, func_hat)
    return BoundedValue(*machine.xi(complex(s)), machine.kind)


def growth_scan(phi: HomogeneousFunction, *, re_line: float | None = None,
                heights=None, eps: float = 0.1):
    """|Γ(s)ζ(φ,s)| along a vertical line, with the fitted decay rate.

    Returns (rows, fitted_rate, threshold, passed); rows are
    (height, |Γζ|, zeta error bar).  Heights below 1 are excluded.
    """
    re = phi.alpha + 1.0 if re_line is None else float(re_line)
    if heights is None:
        heights = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]
    heights = [h for h in heights if h >= 1.0]
    if len(heights) < 3:
        raise DomainError("need at least three heights >= 1 for the rate fit")
    rows = []
    for h in heights:
        s = complex(re, h)
        z = zeta_continued(phi, s)
        val = abs(gamma_fn(s) * z.value)
        rows.append((h, val, z.error))
    hs = np.asarray([r[0] for r in rows])
    vals = np.asarray([max(r[1], 1e-300) for r in rows])
    # |Γ(σ+ih)| carries a polynomial factor h^{σ-1/2} on top of e^{-πh/2};
    # divide it out so the linear fit reads the exponential rate alone.
    corrected = np.log(vals) - (re - 0.5) * np.log(hs)
    slope, _ = np.polyfit(hs, corrected, 1)
    rate = -float(slope)
    threshold = math.pi / 2.0 - eps - 0.1
    return rows, rate, threshold, rate >= threshold
