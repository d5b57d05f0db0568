"""The zeta function of a homogeneous φ: direct series and continuation.

Direct side: ζ(φ,s) = Σ over nonzero lattice ω of φ(ω)^{-s}, valid for
Re s > α = trace A.  Truncated sums converge miserably near the pole, so the
estimator corrects the truncation at cutoff T by the pole model
Σ_{φ(ω)>=T} φ^{-s} ≈ (α/(s-α)) N(T) T^{-s}, where N(T) counts lattice points
below T (its own best estimate of |B|T^α, so no volume oracle enters), and
averages the corrected value over a spread of cutoffs in the top octave to damp
the counting fluctuations.

Continuation side: with g = φ^c e^{-φ} one has Γ(s+c) ζ(φ,s) = ξ_A(g,s) and

    ξ_A(g,s) = -g(0)/s - ĝ(0)/(α-s) + ξ⁺_A(g,s) + ξ⁺_{A^T}(ĝ, α-s),

where ξ⁺ integrates θ*(it) t^{s-1} over [1, ∞).  Both ξ⁺ integrands are
s-independent apart from the t^{s-1} factor, so each (kernel, transform) pair
gets octave panel tables of θ* built once and dotted with power weights per s.
The kernel-side tail beyond the table is controlled by a certified exponential
bound; the transform side ends where its band empties, with a fitted power-law
model for what is dropped (reported as an estimate, never as rigorous).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, StripError
from .homog import (
    AnisotropicSuperellipse,
    HomogeneousFunction,
    PNorm,
    QuadraticForm,
    Scaled,
)
from .kernel import Kernel, fourier_transform
from .lattice import box_rows, box_size, half_box_slabs
from .quadrature import gl_nodes
from .special import gamma as gamma_fn, gamma_rel_error
from .theta import ESTIMATED, RIGOROUS, BoundedValue, theta_star_matrix

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
_CUTOFF_COUNT = 6
_MAX_IMAG = 32.0


@dataclass(frozen=True)
class MeromorphicValue:
    """ζ(φ,s) with an error bar; near the pole the Laurent data rides along."""

    s: complex
    value: complex
    error: float
    kind: str
    near_pole: tuple | None = None  # (pole, distance, residue, constant)


def _caches(phi: HomogeneousFunction) -> dict:
    store = getattr(phi, "_azeta_caches", None)
    if store is None:
        store = {}
        phi._azeta_caches = store
    return store


# ---------------------------------------------------------------------------
# direct series
# ---------------------------------------------------------------------------


_HEAD_CAP = 1.0e4  # φ below this is kept in float64, above in float32
# Values per chunk of the windowed sums' walk over the tail.  Chunk arrays of
# 256 KB stay in cache: 2^15 ran the superellipse sums 10% faster than 2^18.
_CHUNK = 1 << 15


def _isotropic(phi: HomogeneousFunction) -> bool:
    """Whether the generator of φ is a multiple of the identity."""
    entries = phi.generator.entries
    return bool(np.allclose(entries, entries[0, 0] * np.eye(phi.dim)))


def _default_box_budget(phi: HomogeneousFunction) -> float:
    """Enumeration budget sized to the counting-fluctuation scale of φ.

    Anisotropic shapes have boundary arcs nearly tangent to lattice lines, so
    their count fluctuation grows like t^{1/2} instead of the isotropic
    t^{~1/3}; they need a deeper sublevel set for the same estimator accuracy.
    """
    if phi.dim == 1:
        return 4e6
    return 2.5e7 if _isotropic(phi) else 5.5e7


def _fluct_exponent(phi: HomogeneousFunction) -> float:
    if phi.dim == 1:
        return 0.0
    return 0.35 if _isotropic(phi) else 0.5


def _sorted_log_values(phi: HomogeneousFunction, box_budget: float):
    """log φ(ω) over the largest complete sublevel set within budget, sorted.

    Returns (T_max, head, tail, mult): head is float64 logs for φ < the head
    cap, tail is float32 logs for the rest.  The split keeps tens of millions
    of values affordable; float32 noise on log φ perturbs each term by a
    relative ~|s| 1e-6, harmless beyond the cap where terms are already below
    1e-5.  Only the half box `lattice.half_box_slabs` is walked: for an even φ
    its values stand for ω and -ω alike, so every value has multiplicity
    mult = 2; otherwise the negated rows are evaluated too and mult = 1.
    Sums and counts over the set are mult times those over the arrays.  The
    sort makes the result independent of the slab size.  Cached on φ; a
    larger budget rebuilds.
    """
    cache = _caches(phi)
    entry = cache.get("lattice_logs")
    if entry is not None and entry[4] >= box_budget:
        return entry[:4]
    t_max = 1.0
    while True:
        box = phi.lattice_box(2.0 * t_max)
        if box_size(box) > box_budget:
            break
        t_max *= 2.0
    for frac in (1.9, 1.8, 1.7, 1.6, 1.5, 1.4, 1.3, 1.2, 1.1):
        box = phi.lattice_box(frac * t_max)
        if box_size(box) <= box_budget:
            t_max *= frac
            break
    box = phi.lattice_box(t_max)
    mult = 2 if phi.is_even else 1
    head = []
    tail = []
    for rows in half_box_slabs(box):
        # 0.0 - rows keeps zero coordinates +0.0, as the full box has them
        for pts in (rows,) if mult == 2 else (rows, 0.0 - rows):
            vals = phi.evaluate_many(pts)
            vals = vals[vals < t_max]
            low = vals < _HEAD_CAP
            head.append(np.log(vals[low]))
            tail.append(np.log(vals[~low]).astype(np.float32))
    head = np.sort(np.concatenate(head))
    tail = np.sort(np.concatenate(tail))
    cache["lattice_logs"] = (t_max, head, tail, mult, box_budget)
    return t_max, head, tail, mult


def _window_sums(s: complex, head, tail, mult: int, t_lows) -> tuple:
    """(base, windowed): the series below the smallest window and per window.

    base is the sum of φ^{-s} over φ < min(t_lows)/2, where every window
    weight is 1.  windowed[j] adds the rest below t_j, weighted by
    1 - η(φ/t_j): weight 1 below t_j/2, then the ramp.  The tail is walked
    once in chunks: each chunk's e^{-sλ} is computed once, every window sums
    its plain slice of it and dots its ramp slice with the real weights.
    Both are mult times the sums over the arrays.
    """
    log_t = [math.log(t_j) for t_j in t_lows]
    bounds = np.searchsorted(
        tail, np.float32([[math.log(t_j / 2.0), math.log(t_j)] for t_j in t_lows]))
    shared_idx = int(np.min(bounds[:, 0]))
    base = complex(np.sum(np.exp(-s * head)))
    windowed = np.zeros(len(t_lows), dtype=complex)
    hi_max = int(np.max(bounds))
    for start in range(0, hi_max, _CHUNK):
        stop = min(start + _CHUNK, hi_max)
        lam = tail[start:stop].astype(float)
        if s.imag:
            e = np.exp(-s * lam)
            columns = e.view(np.float64).reshape(-1, 2)  # (re, im) for the dots
        else:
            e = np.exp(-s.real * lam)  # real s: real exponentials
            columns = e[:, None]
        # slice bounds relative to the chunk
        shared = min(max(shared_idx, start), stop) - start
        base += np.sum(e[:shared])
        for j, (lo, hi) in enumerate(np.clip(bounds, start, stop) - start):
            windowed[j] += np.sum(e[shared:lo])
            if hi > lo:
                u = np.exp(lam[lo:hi] - log_t[j])
                weights = 1.0 - _smooth_ramp((u - 0.5) / 0.5)
                windowed[j] += complex(*(weights @ columns[lo:hi]))
    return mult * base, mult * windowed


def _smooth_ramp(x: np.ndarray) -> np.ndarray:
    """C^inf transition, 0 for x <= 0 and 1 for x >= 1."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore"):  # exp(-1/0) = 0 at both ends
        a = np.exp(-1.0 / x)
        b = np.exp(-1.0 / (1.0 - x))
    return a / (a + b)


def _window_coefficient(alpha: float, s: complex) -> complex:
    """∫_{1/2}^∞ u^{α-s-1} (1 - η(u)) du for the smooth window η.

    η is 1 below u = 1/2 and rolls off to 0 at u = 1 through the standard
    bump ramp; past u = 1 the integrand is a plain power with closed form.
    """
    x, w = gl_nodes(48)
    u = 0.25 * x + 0.75
    ramp = _smooth_ramp((u - 0.5) / 0.5)
    vals = np.exp((alpha - s - 1.0) * np.log(u)) * ramp
    return complex(np.sum(0.25 * w * vals)) + 1.0 / (s - alpha)


def _near_pole_data(phi: HomogeneousFunction):
    res = residue_at_alpha(phi)
    alpha = phi.alpha
    locals_ = []
    for sigma in (alpha + 0.05, alpha + 0.1):
        z = zeta_continued(phi, sigma)
        locals_.append(z.value - res.value / (sigma - alpha))
    # two-point linear extrapolation of the regular part to s = alpha
    c0 = 2.0 * locals_[0] - locals_[1]
    return res.value, c0


def _near_pole_value(phi, s: complex):
    residue, constant = _near_pole_data(phi)
    dist = abs(s - phi.alpha)
    if dist == 0.0:
        raise DomainError(
            f"s = {s} is the pole of ζ(φ, s); residue {residue:.9g}"
        )
    value = residue / (s - phi.alpha) + constant
    return MeromorphicValue(
        s=complex(s),
        value=value,
        error=abs(residue) * 1e-3,
        kind=ESTIMATED,
        near_pole=(phi.alpha, dist, residue, constant),
    )


def zeta_direct(phi: HomogeneousFunction, s: complex, *,
                target: float = 2.5e-7,
                box_budget: float | None = None) -> MeromorphicValue:
    """Lattice series for Re s > α, tail-corrected and cutoff-averaged.

    Rigorous route: when Re s clears the absolute-convergence line βn with
    enough headroom that a sup-norm box within budget certifies the tail by the
    integral test, the plain truncated sum is returned with that bound; it
    sums the full box.  Otherwise the pole-model estimator runs (error bar from
    the cutoff spread) on the sorted logs of `_sorted_log_values`: the half
    box with multiplicity 2 for an even φ, which scales the sums and the
    counts N(T).  Its six windowed sums come from one chunked pass of
    e^{-sλ} over the tail (`_window_sums`).
    """
    s = complex(s)
    alpha = phi.alpha
    if box_budget is None:
        box_budget = _default_box_budget(phi)
    if s.real <= alpha:
        raise DivergenceError(
            f"ζ(φ,s) diverges for Re s <= α = {alpha:.6g}, got {s}"
        )
    if abs(s - alpha) < _NEAR_POLE:
        return _near_pole_value(phi, s)

    gen = phi.generator
    beta_n = gen.beta * phi.dim
    _, _, c3, _ = phi.growth()
    if s.real > beta_n + 0.25:
        m_box = _rigorous_box(phi, s.real, c3, target)
        if m_box is not None and (2.0 * m_box + 1.0) ** phi.dim <= box_budget:
            value, tail = _rigorous_sum(phi, s, m_box, c3)
            return MeromorphicValue(s, value, tail, RIGOROUS)

    t_max, head, tail, mult = _sorted_log_values(phi, box_budget)
    t_lows = t_max * 2.0 ** (-np.arange(_CUTOFF_COUNT) / _CUTOFF_COUNT)
    if mult * (head.size + tail.size) < 100 or 0.25 * np.min(t_lows) <= 1.05 * _HEAD_CAP:
        raise DomainError(
            "box budget too small for the windowed estimator; the sublevel "
            "cutoff must clear eight times the head cap"
        )

    # one windowed estimate per cutoff; averaging over cutoffs inside the top
    # octave decorrelates the boundary-counting fluctuation
    base, windowed = _window_sums(s, head, tail, mult, t_lows)
    c_eta = _window_coefficient(alpha, s)
    estimates = np.empty(t_lows.size, dtype=complex)
    for j, t_j in enumerate(t_lows):
        cuts = np.geomspace(0.25 * t_j, 0.5 * t_j, 17)
        counts = mult * (head.size + np.searchsorted(tail, np.log(cuts, dtype=np.float32)))
        b_hat = float(np.mean(counts / cuts**alpha))
        scale = t_j ** complex(alpha - s.real, -s.imag)
        estimates[j] = base + windowed[j] + alpha * b_hat * scale * c_eta
    value = complex(np.mean(estimates))
    spread = float(np.std(estimates))
    theta_hat = _fluct_exponent(phi)
    fluct = (1.0 + abs(s)) * np.min(t_lows) ** (theta_hat - s.real)
    error = (
        2.0 * spread / math.sqrt(t_lows.size)
        + 0.5 * fluct
        + 5e-9 * (1.0 + abs(s))
    )
    return MeromorphicValue(s, value, error, ESTIMATED)


def _integral_test_tail(phi, re_s: float, c3: float, m0: int) -> float:
    """Bound on Σ over sup-norm shells m > m0, by integral comparison.

    Shell m holds fewer than 2n(2m+1)^{n-1} <= 2n 3^{n-1} m^{n-1} points, each
    with φ >= c3 m^{1/β}; the summand decreases in m, so the sum past m0 is at
    most the term at m0+1 plus the integral from m0+1 on.
    """
    dim = phi.dim
    q = re_s / phi.generator.beta
    if q <= dim:
        return math.inf
    coeff = 2 * dim * 3 ** (dim - 1) * c3 ** (-re_s)
    first = coeff * (m0 + 1) ** (dim - 1 - q)
    rest = coeff * (m0 + 1) ** (dim - q) / (q - dim)
    return first + rest


def _rigorous_box(phi, re_s: float, c3: float, target: float):
    """Smallest sup-norm box whose integral-test tail meets target, or None."""
    q = re_s / phi.generator.beta
    dim = phi.dim
    if q <= dim + 0.2:
        return None
    coeff = 2 * dim * 3 ** (dim - 1) * c3 ** (-re_s)
    need = 0.45 * target * (q - dim) / (2.0 * coeff)
    m_box = int(math.ceil(need ** (1.0 / (dim - q)))) + 1
    if m_box < 2 or m_box > 1 << 16:
        return None
    return m_box


def _rigorous_sum(phi, s: complex, m_box: int, c3: float):
    vals = phi.evaluate_many(box_rows([m_box] * phi.dim, nonzero=True))
    total = complex(np.sum(np.exp(-s * np.log(vals))))
    return total, _integral_test_tail(phi, s.real, c3, m_box)


# ---------------------------------------------------------------------------
# xi machinery
# ---------------------------------------------------------------------------


class _XiSide:
    """Octave panel tables of θ*(t) for one side of the split Mellin integral.

    Per-s evaluation is Σ w_i θ*(t_i) t_i^{s-1} over the high-order nodes; the
    low-order nodes estimate panel quadrature error.  Tails beyond t_end are
    bounded by `tail_fn(t_end, re_s)` supplied by the owner.
    """

    def __init__(self, generator, func, t_end: float, theta_target: float):
        self.generator = generator
        self.func = func
        self.t_end = max(2.0, float(t_end))
        edges = [1.0]
        while edges[-1] < self.t_end:
            edges.append(min(2.0 * edges[-1], self.t_end))
        self.panels = []
        estimated = False
        for a, b in zip(edges[:-1], edges[1:]):
            panel = {}
            for tag, order in (("hi", 24), ("lo", 12)):
                x, w = gl_nodes(order)
                ts = 0.5 * (b - a) * x + 0.5 * (a + b)
                ws = 0.5 * (b - a) * w
                rows = [theta_star_matrix(generator, func, t, target=theta_target)
                        for t in ts]
                panel[tag] = (
                    ts,
                    ws,
                    np.asarray([r.value for r in rows], dtype=float),
                    np.asarray([r.error for r in rows], dtype=float),
                )
                estimated = estimated or any(r.kind == ESTIMATED for r in rows)
            self.panels.append(panel)
        self.kind = ESTIMATED if estimated else RIGOROUS
        last = self.panels[-1]["hi"]
        self.theta_at_end = float(abs(last[2][-1]) + last[3][-1])

    def integral(self, s: complex):
        """(value, quadrature error, table error) of ∫_1^{t_end} θ* t^{s-1} dt."""
        if abs(s.imag) > _MAX_IMAG:
            raise DomainError(
                f"|Im s| = {abs(s.imag):.3g} too large for the panel tables "
                f"(max {_MAX_IMAG:g})"
            )
        value = 0.0 + 0.0j
        quad_err = 0.0
        table_err = 0.0
        for panel in self.panels:
            ts, ws, vals, errs = panel["hi"]
            weights = ws * np.exp((s - 1.0) * np.log(ts))
            hi = complex(np.sum(weights * vals))
            table_err += float(np.sum(np.abs(weights) * errs))
            ts2, ws2, vals2, _ = panel["lo"]
            lo = complex(np.sum(ws2 * np.exp((s - 1.0) * np.log(ts2)) * vals2))
            value += hi
            quad_err += abs(hi - lo)
        return value, quad_err, table_err


class _XiMachine:
    """Everything needed to evaluate ξ_A(g, s) repeatedly for one kernel."""

    def __init__(self, kernel: Kernel, *, floor_rel: float | None = None,
                 theta_target: float = 1e-14):
        self.kernel = kernel
        self.generator = kernel.generator
        self.alpha = self.generator.alpha
        self.transform = fourier_transform(kernel, floor_rel=floor_rel)
        self.g_zero = float(kernel.value_at_origin)
        self.ghat_zero = complex(self.transform.value_at_origin).real
        self.ghat_zero_error = self.transform.quad_error + self.transform.tail_error

        # kernel side: exponential decay sets the end of the table
        phi_min = kernel.phi.lattice_minimum()
        if kernel.kind == "exp_power":
            self.mu = phi_min**kernel.root
            self.c_pow = 0.0
        else:
            self.mu = phi_min
            self.c_pow = kernel.power
        t_end = _integration_end(self.generator, kernel)
        self.side_kernel = _XiSide(self.generator, kernel, t_end, theta_target)

        # transform side: the band empties at t_empty; beyond that the tensor
        # sums are exactly zero and only the fitted decay model remains
        gen_t = self.generator.transpose()
        band = np.asarray(self.transform.band, dtype=float)
        if self.generator.is_diagonal:
            a_diag = np.diag(self.generator.entries)
            t_empty = float(np.max(band ** (1.0 / a_diag)))
        else:
            t_empty = float(np.max(band)) ** (1.0 / self.generator.gamma)
        self.t_empty = max(2.0, 1.05 * t_empty)
        self.side_transform = _XiSide(gen_t, self.transform, self.t_empty,
                                      theta_target)
        self.tau = float(self.transform.decay_tau)
        self.gamma = self.generator.gamma

    # -- tails ---------------------------------------------------------------

    def _kernel_tail(self, re_s: float) -> float:
        """∫_{t_end}^∞ bound, from θ*(t) <= θ*(T)(t/T)^c e^{-μ(t-T)}."""
        T = self.side_kernel.t_end
        base = self.side_kernel.theta_at_end
        # numeric bound integral on [T, T + 60/μ] with 64 GL nodes
        x, w = gl_nodes(64)
        span = 60.0 / self.mu
        ts = 0.5 * span * x + 0.5 * (2 * T + span)
        ws = 0.5 * span * w
        vals = (
            base
            * (ts / T) ** self.c_pow
            * np.exp(-self.mu * (ts - T))
            * ts ** (re_s - 1.0)
        )
        return float(np.sum(ws * vals))

    def _transform_tail(self, re_u: float) -> float:
        """Model tail of the ĝ side beyond t_empty; needs re_u < γ τ."""
        decay = self.gamma * self.tau
        if re_u >= decay - 0.25:
            raise StripError(
                f"transform decay γτ ≈ {decay:.3g} cannot cover Re(α-s) = "
                f"{re_u:.3g}",
                suggestion="increase the kernel exponent c (smoother φ^c) or "
                "request a transform with a lower band floor",
            )
        T = self.t_empty
        level = self.transform.edge_level
        return level * T**re_u / (decay - re_u)

    # -- the ξ pieces ----------------------------------------------------------

    def xi_plus_kernel(self, s: complex) -> BoundedValue:
        value, quad, table = self.side_kernel.integral(s)
        err = quad + table + self._kernel_tail(s.real)
        return BoundedValue(value, err, self.side_kernel.kind)

    def xi_plus_transform(self, u: complex) -> BoundedValue:
        value, quad, table = self.side_transform.integral(u)
        err = quad + table + self._transform_tail(u.real)
        return BoundedValue(value, err, ESTIMATED)

    def xi(self, s: complex):
        """ξ_A(g,s) via the four-term split; DomainError at s=0 or s=α poles."""
        if abs(s) < 1e-12 and self.g_zero != 0.0:
            raise DomainError("ξ has a pole at s = 0 for kernels with g(0) ≠ 0")
        if abs(s - self.alpha) < 1e-12:
            raise DomainError(f"ξ has a pole at s = α = {self.alpha:.6g}")
        u = self.alpha - s
        plus_g = self.xi_plus_kernel(s)
        plus_ghat = self.xi_plus_transform(u)
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


def _xi_machine(phi: HomogeneousFunction, kind: str, exponent: float) -> _XiMachine:
    cache = _caches(phi)
    key = ("xi", kind, round(float(exponent), 12))
    machine = cache.get(key)
    if machine is None:
        floor = 1e-15 if phi.dim == 1 else None
        if kind == "power_exp":
            kernel = Kernel(phi, power=exponent)
        else:
            kernel = Kernel(phi, root=exponent)
        machine = _XiMachine(kernel, floor_rel=floor)
        cache[key] = machine
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


def natural_exp_power(phi: HomogeneousFunction) -> float:
    """Exponent b making g = e^{-φ^b} as smooth as the variant allows."""
    base = phi.base if isinstance(phi, Scaled) else phi
    if isinstance(base, AnisotropicSuperellipse):
        return float(base.root)
    if isinstance(base, QuadraticForm):
        return 1.0
    if isinstance(base, PNorm):
        p = base.p
        if p == int(p) and int(p) % 2 == 0:
            return float(p)
        return 2.0
    return 2.0


def zeta_continued(phi: HomogeneousFunction, s: complex, *,
                   power: float | None = None) -> MeromorphicValue:
    """Analytic continuation of ζ(φ,s) to C∖{α} via the PowerExp kernel.

    ζ(φ,s) = [ -ĝ(0)/(α-s) + ξ⁺_A(g,s) + ξ⁺_{A^T}(ĝ, α-s) ] / Γ(s+c).
    """
    s = complex(s)
    alpha = phi.alpha
    if abs(s - alpha) < _NEAR_POLE:
        return _near_pole_value(phi, s)
    c = default_power(phi, max(0.0, -s.real)) if power is None else float(power)
    sc = s + c
    if sc.imag == 0.0 and sc.real <= 0.0 and sc.real == round(sc.real):
        raise DomainError(
            f"Γ(s+c) pole at s+c = {sc.real:g}; choose a different kernel power"
        )
    machine = _xi_machine(phi, "power_exp", c)
    xi_value, xi_err = machine.xi(s)
    gam = gamma_fn(sc)
    value = xi_value / gam
    # the default power keeps Re(s + c) >= α + 2, where gamma_rel_error
    # holds; one more ulp for the division
    error = xi_err / abs(gam) + (gamma_rel_error(sc) + _EPS) * abs(value)
    return MeromorphicValue(s, value, error, ESTIMATED)


def zeta_at_zero(phi: HomogeneousFunction) -> MeromorphicValue:
    """ζ(φ,0) by removable-singularity evaluation of the ExpPower route.

    With g = e^{-φ^b} and B = A/b: Γ(s/b) ζ(φ,s) = ξ_B(g, s/b).  The two-sided
    average at s = ±1e-3 cancels the O(s) error of each one-sided value.
    """
    b = natural_exp_power(phi)
    machine = _xi_machine(phi, "exp_power", b)
    delta = 1e-3
    vals = []
    errs = []
    for s in (delta, -delta):
        u = s / b
        xi_value, xi_err = machine.xi(u)
        gam = gamma_fn(u)
        vals.append(xi_value / gam)
        errs.append(xi_err / abs(gam))
    value = 0.5 * (vals[0] + vals[1])
    error = 0.5 * (errs[0] + errs[1]) + 0.25 * abs(vals[0] - vals[1])
    return MeromorphicValue(0.0, value, error, ESTIMATED)


def residue_at_alpha(phi: HomogeneousFunction, *,
                     power: float | None = None,
                     target: float = 1e-9) -> BoundedValue:
    """Res_{s=α} ζ(φ,s) = ĝ(0)/Γ(α+c), with ĝ(0) = ∫ φ^c e^{-φ} by direct
    real-space quadrature (better conditioned than the Fourier grid)."""
    cache = _caches(phi)
    key = ("residue", power, target)
    hit = cache.get(key)
    if hit is not None:
        return hit
    c = default_power(phi) if power is None else float(power)
    kernel = Kernel(phi, power=c)
    integral, err, _ = kernel.integral_over_space(target=target)
    gam = float(np.real(gamma_fn(phi.alpha + c)))
    out = BoundedValue(float(np.real(integral)) / gam, abs(err) / gam, ESTIMATED)
    cache[key] = out
    return out


def zeta_negative_integers(phi: HomogeneousFunction, k: int) -> MeromorphicValue:
    """ζ(φ,-k) for positive integer k, retrying with a larger kernel power if
    the first transform's certified strip falls short."""
    if k < 1 or k != int(k):
        raise DomainError(f"need a positive integer order, got {k}")
    c = default_power(phi, float(k))
    step = max(1, int(phi.smooth_step))
    for attempt in range(3):
        try:
            return zeta_continued(phi, -float(k), power=c + attempt * step)
        except StripError:
            if attempt == 2:
                raise
    raise DomainError("unreachable")


def _integration_end(generator, func) -> float:
    """Where the θ* integrand becomes negligible for this summand.

    Kernels decay exponentially once t φ_min dominates; sampled transforms go
    quiet when the flow pushes every nonzero lattice point out of the band.
    Anything else is probed octave by octave against its own t = 2 scale.
    """
    band = getattr(func, "band", None)
    if band is not None:
        top = float(np.max(np.asarray(band, dtype=float)))
        return max(2.0, 1.05 * top ** (1.0 / generator.gamma))
    if isinstance(func, Kernel):
        phi_min = func.phi.lattice_minimum()
        mu = phi_min**func.root if func.kind == "exp_power" else phi_min
        c_pow = 0.0 if func.kind == "exp_power" else func.power
        t_end = 46.0 / mu
        for _ in range(40):
            t_new = (46.0 + (c_pow + 9.0) * math.log(max(t_end, 2.0))) / mu
            if abs(t_new - t_end) < 1e-9 * t_end:
                break
            t_end = t_new
        return max(2.0, t_end)
    scale = abs(theta_star_matrix(generator, func, 2.0).value) + 1e-300
    probe_t = 4.0
    while probe_t < 1e5:
        v = theta_star_matrix(generator, func, probe_t)
        if abs(v.value) + v.error < 1e-15 * scale:
            break
        probe_t *= 2.0
    return probe_t


def _xi_side_for(generator, func, t_end: float, target: float) -> _XiSide:
    """The θ* table for (generator, func), cached on the func object.

    The table holds only s-independent node values, so one build serves every
    later evaluation point; functional-equation sweeps hit this repeatedly.
    """
    try:
        store = func._xi_side_tables
    except AttributeError:
        store = {}
        func._xi_side_tables = store
    key = (generator.entries.tobytes(), round(float(t_end), 9), float(target))
    side = store.get(key)
    if side is None:
        side = _XiSide(generator, func, t_end, target)
        store[key] = side
    return side


def xi_plus(generator, func, s: complex, *, target: float = 1e-13) -> BoundedValue:
    """ξ⁺(f, s) = ∫_1^∞ θ*(f, it) t^{s-1} dt for any summable f.

    One-shot version of the table machinery: integrates out to where the
    summand is negligible and charges the dropped remainder to the error bar.
    """
    s = complex(s)
    t_end = _integration_end(generator, func)
    side = _xi_side_for(generator, func, t_end, target)
    value, quad, table = side.integral(s)
    tail = side.theta_at_end * t_end ** max(s.real, 1.0)
    return BoundedValue(value, quad + table + tail, side.kind)


def xi_full(generator, func, func_hat, s: complex) -> BoundedValue:
    """ξ(f, s) by the four-term split, for functional-equation checks."""
    s = complex(s)
    alpha = generator.alpha
    u = alpha - s
    if abs(s) < 1e-9 or abs(u) < 1e-9:
        raise DomainError("ξ has poles at s = 0 and s = α")
    plus_f = xi_plus(generator, func, s)
    plus_hat = xi_plus(generator.transpose(), func_hat, u)
    f0 = complex(func.value_at_origin).real
    fhat0 = complex(func_hat.value_at_origin).real
    value = -f0 / s - fhat0 / u + plus_f.value + plus_hat.value
    err = plus_f.error + plus_hat.error
    err += getattr(func_hat, "quad_error", 0.0) / abs(u)
    return BoundedValue(value, err, plus_f.combine_kind(plus_hat))


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
