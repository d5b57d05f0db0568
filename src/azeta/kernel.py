"""The test functions g = φ^c e^{-φ}, c >= 0, and their sampled Fourier transforms.

c > 0 gives g(0) = 0, the kernel of the continuation; c = 0 gives e^{-φ}
with g(0) = 1, the kernel of the volume through ∫ e^{-φ} = Γ(α+1)|B|.  Every
member decays fast enough that g restricted to a certified box carries all
but a negligible tail, and φ's own generator A carries it along the flow:
g(t^A x) = radial(t φ(x)), which is what makes its theta transform law work.

Fourier convention: ĝ(y) = ∫ g(x) e^{-2πi <x,y>} dx.  Every transform is one
type, `SampledTransform`: the samples of g on a symmetric odd grid over the
certified box, whose trapezoid sums the FFT evaluates on the dual grid;
off-grid values use the same trapezoid sum directly (no interpolation), so the
only errors are the domain tail and aliasing.  Aliasing is measured by halving
the spacing and comparing (the trapezoid error for a sampled Schwartz-type
function IS the aliasing sum, so this difference is the honest estimate).
When φ is even in every coordinate, so are g and ĝ: a transform then samples
g on x >= 0 only and keeps ĝ on y >= 0, its trapezoid sums cosine sums taken
by real FFTs; a φ that is only centrally even keeps the full grid.
Lattice box sums Σ_k ĝ(s∘k) use the same trapezoid sum in closed form:
summed over a box, its phases e^{-2πi x_i s_i k_i} give one real Dirichlet
kernel per axis, so no ĝ value is formed.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily; load it with the package)

from .errors import BudgetExceededError, DomainError
from .homog import HomogeneousFunction, _coordinate_monotone
from .quadrature import box_integral
from .special import exp_shell_tail, power_shell_tail

__all__ = ["Kernel", "SampledTransform", "fourier_transform"]

_G_FLOOR = 1e-16  # relative floor for the real-space tail of g
_BOX_BLOCK = 1 << 15  # Dirichlet entries per axis in one block of box-sum rows
# samples of g on one transform grid, about 85 bytes of peak memory each.
# The test suite, the shipped configs and the benchmark workloads build at
# most 329,896 (a scaled superellipse at c = 6), but a smooth 3-D φ needs far
# more on its fine grid: QuadraticForm(eye(3)) 9,129,329 at Re s = -4 (6 s and
# 750 MB on one Xeon core) and diag(1, 2, 3) 8,238,600 at Re s = -3.  φ whose
# band does not close stop here: the C^2 PNorm(2, 3) at its 1.4e7-sample fine
# grid after 1.6 s and 234 MB (10 s and 1 GB unbounded), a non-diagonal 3-D
# quadratic form at 1.2e7 (56 s and 7 GB unbounded), the 3-D 1- and 2-norms
# at once on their first coarse grid of 8.1e7
_MAX_SAMPLES = 12_000_000


class Kernel:
    """g = φ^c e^{-φ} with c >= 0; c = 0 is e^{-φ}, where g(0) = 1.

    φ(t^A x) = t φ(x) along φ's generator A, so g(t^A x) = radial(t φ(x)).
    """

    def __init__(self, phi: HomogeneousFunction, *, power: float):
        if not power >= 0.0:
            raise DomainError(f"kernel φ^c e^(-φ) needs c >= 0, got {power}")
        self.phi = phi
        self.power = float(power)
        self.generator = phi.generator
        self.value_at_origin = 1.0 if self.power == 0.0 else 0.0

    @property
    def dim(self) -> int:
        return self.phi.dim

    def radial(self, level: np.ndarray) -> np.ndarray:
        """g as a function of v = φ(x): v^c e^{-v}, and g(0) at v = 0."""
        out = np.full_like(level, self.value_at_origin)
        pos = level > 0.0
        # work in logs to dodge overflow of v^c for large shells
        out[pos] = np.exp(self.power * np.log(level[pos]) - level[pos])
        return out

    def radial_error(self, level: np.ndarray) -> np.ndarray:
        """Relative rounding error of radial(v) at v > 0, v itself off by up
        to 4 ulps (from φ and the flow scaling).

        v^c e^{-v} is exp(c ln v - v): the log-derivative c - v amplifies
        the error of v, and forming c ln v - v rounds by up to about
        (c|ln v| + v) ulps.  The last ulps are the exp's own.
        """
        c = self.power
        return (2.0 * np.abs(c - level) + 1.5 * c * np.abs(np.log(level))
                + level + 2.0) * 2.0**-52

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        return self.radial(self.phi.evaluate_many(points))

    def evaluate_grid(self, axes) -> np.ndarray:
        """g over the tensor grid of `axes`, flat in C order
        (`HomogeneousFunction.evaluate_grid`)."""
        return self.radial(self.phi.evaluate_grid(axes))

    def _envelope(self, level: float) -> float:
        """sup of the radial factor over φ >= level."""
        c = self.power
        peak = max(level, c)
        return math.exp(c * math.log(peak) - peak) if peak > 0 else self.value_at_origin

    def shell_tail(self, sigma: float, m: int):
        """(bound on Σ |g| over shells j >= m mapped to norm >= sigma j, True).

        φ >= c3 |y|^{1/β} for |y| >= 1 puts shell j at φ >= a j^{1/β} with
        a = c3 σ^{1/β}; `exp_shell_tail` sums g's envelope over the shells."""
        if sigma * m < 1.0:
            return math.inf, True
        p = 1.0 / self.phi.generator.beta
        a = self.phi.growth()[2] * sigma**p
        return exp_shell_tail(self.dim, m, a, p, self.power), True

    def axis_extent(self, axis: int) -> float:
        """Half-width R on this axis so g is below 1e-16 of its peak outside
        |x_axis| < R."""
        floor = _G_FLOOR * self._envelope(0.0)
        if _coordinate_monotone(self.phi):
            e = np.zeros(self.dim)
            e[axis] = 1.0
            for r in np.geomspace(0.5, 1e4, 200):
                level = float(self.phi.evaluate_many((r * e)[None, :])[0])
                if self._envelope(level) <= floor:
                    return float(r)
            raise DomainError("kernel decays too slowly to box on this axis")
        c3, beta = self.phi.growth()[2], self.phi.generator.beta
        for r in np.geomspace(0.5, 1e4, 200):  # φ >= c3 |x|^{1/β} for |x| >= 1
            if r >= 1.0 and self._envelope(c3 * r ** (1.0 / beta)) <= floor:
                return float(r)
        raise DomainError("kernel decays too slowly to box")

    def box_radii(self) -> list:
        """The certified box: one `axis_extent` per axis."""
        return [self.axis_extent(i) for i in range(self.dim)]

    def integral_over_space(self, target: float = 1e-12):
        """∫ g over R^n by graded panel quadrature on the certified box."""
        if self.dim > 3:
            raise DomainError("space integrals are supported for n <= 3")
        return box_integral(self.evaluate_grid, self.box_radii(), target=target)


# ---------------------------------------------------------------------------
# sampled transforms
# ---------------------------------------------------------------------------


def _fft_grid(values: np.ndarray, spacing: np.ndarray, folded):
    """Trapezoid transform of grid samples on the dual grid; returns (axes_y, hat).

    A folded axis holds x >= 0 of a symmetric odd grid of 2m+1 points, in the
    folded form of `_fold_even`: its sum is the cosine sum Σ_j f_j cos(2π x_j y),
    the real part of a real FFT of length 2m+1 zero-padded past x_m, kept on
    y >= 0.  Folded axes need real samples and go first, while the data are
    real.  Every other axis is a full symmetric odd grid and takes a complex
    FFT on the full dual grid.
    """
    hat = values
    axes_y = [None] * values.ndim
    for axis in reversed(range(values.ndim)):
        if folded[axis]:
            size = 2 * values.shape[axis] - 1
            hat = np.fft.rfft(hat, n=size, axis=axis).real
            axes_y[axis] = np.fft.rfftfreq(size, d=spacing[axis])
    full = [axis for axis in range(values.ndim) if not folded[axis]]
    if full:
        hat = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(hat, axes=full), axes=full),
                              axes=full)
        for axis in full:
            axes_y[axis] = np.fft.fftshift(np.fft.fftfreq(values.shape[axis],
                                                          d=spacing[axis]))
    return axes_y, hat * np.prod(spacing)


def _turns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_j y_m - round(x_j y_m) for every pair, from the exact product.

    The rounded product p errs by up to half an ulp of |x y|, which can be
    hundreds of radians of phase; Dekker's split gives its exact error e,
    so r = (p - round(p)) + e rounds only once, at |r| <= 1/2.
    """
    def split(a):
        c = 134217729.0 * a  # 2^27 + 1: halves of 26 bits, products exact
        hi = c - (c - a)
        return hi, a - hi

    p = np.outer(x, y)
    (xh, xl), (yh, yl) = split(x), split(y)
    e = ((np.outer(xh, yh) - p) + np.outer(xh, yl) + np.outer(xl, yh)) + np.outer(xl, yl)
    return (p - np.round(p)) + e


def _contract(values, mats):
    """Σ_j values[j_1, ..., j_n] Π_i mats[i][j_i, m] for every column m.

    One matrix per axis, rows along the axis and one column per query,
    contracted into the samples last axis first.
    """
    acc = values @ mats[-1]
    for axis in reversed(range(len(mats) - 1)):
        acc = np.einsum("...jm,jm->...m", acc, mats[axis])
    return acc


def _nudft_points(axes_x, values, spacing, points, folded=None):
    """h^n * sum_j g_j e^{-2πi <x_j, y>} at arbitrary points, chunked.

    One phase matrix per axis (`_contract`), every phase from r = x y mod 1
    formed from the exact product (`_turns`): e^{-2πi r} on a full axis,
    cos(2π r) on a folded one (see `_fft_grid`).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    folded = folded or (False,) * len(axes_x)
    out = np.empty(pts.shape[0], dtype=complex)
    chunk = max(1, int(2_000_000 // max(1, values.shape[0])))
    for start in range(0, pts.shape[0], chunk):
        block = pts[start:start + chunk]
        turns = [2.0 * math.pi * _turns(a, block[:, axis]) for axis, a in enumerate(axes_x)]
        out[start:start + chunk] = _contract(values, [
            np.cos(r) if f else np.exp(-1j * r) for r, f in zip(turns, folded)])
    return float(np.prod(spacing)) * out


def _dirichlet(u: np.ndarray, k) -> np.ndarray:
    """D_K(u) = Σ_{|j| ≤ K} e^{-2πi j u} = sin((2K+1)πu) / sin(πu).

    D_K has period 1, so u is first reduced to r = u - round(u); at r = 0
    the removable singularity takes its value 2K+1.  K broadcasts against
    u (one K per row of a block).
    """
    r = u - np.round(u)
    width = 2.0 * np.asarray(k, dtype=float) + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(width * math.pi * r) / np.sin(math.pi * r)
    return np.where(r != 0.0, ratio, width)


def _fold_even(axes, values):
    """(axes, samples) folded onto x_i >= 0 along every symmetric axis.

    D_K is even, so on an odd axis with x_{c-j} = -x_{c+j} the samples at
    ±x_j can be added before any Dirichlet vector meets them: the box sums
    then form half the vectors and contract half the samples per axis.
    Axes that are folded already start at x = 0 and are left as they are.
    """
    axes = list(axes)
    for axis, a in enumerate(axes):
        c = a.size // 2
        if a.size % 2 == 0 or c == 0 or not np.array_equal(a, -a[::-1]):
            continue
        lead = (slice(None),) * axis
        folded = values[lead + (slice(c, None),)].copy()
        folded[lead + (slice(1, None),)] += values[lead + (slice(c - 1, None, -1),)]
        values = folded
        axes[axis] = a[c:]
    return axes, values


def _quadrant(axes, folded):
    """The x >= 0 half of each folded symmetric odd axis; the others whole."""
    return [a[a.size // 2:] if f else a for a, f in zip(axes, folded)]


def _fold_samples(samples, folded):
    """Samples of a function even along each folded axis, given on x >= 0,
    in the folded form of `_fold_even`: off x = 0 a sample also stands for
    its mirror, so it counts twice."""
    if not any(folded):
        return np.asarray(samples)
    values = np.array(samples, dtype=float)
    for axis in np.flatnonzero(folded):
        values[(slice(None),) * axis + (slice(1, None),)] *= 2.0
    return values


def _band_ratio_mesh(axes_y, band) -> np.ndarray:
    """max_i |y_i| / band_i over the tensor grid of the given dual axes."""
    return functools.reduce(np.maximum, np.meshgrid(
        *[np.abs(np.asarray(a)) / b for a, b in zip(axes_y, band)], indexing="ij"))


def _band_probes(band: np.ndarray) -> np.ndarray:
    """A fixed spread of in-band points for spacing comparisons."""
    dim = band.size
    rows = []
    for axis in range(dim):
        for frac in (0.25, 0.5, 0.75, 0.95):
            p = np.zeros(dim)
            p[axis] = frac * band[axis]
            rows.append(p)
            rows.append(-p)
    rng = np.random.Generator(np.random.Philox(0x5EED_BA4D))
    rows.append(rng.uniform(-0.9, 0.9, size=(24, dim)) * band[None, :])
    return np.vstack(rows)


class SampledTransform:
    """The Fourier transform of a function known by samples on a box grid.

    Stores the real-space samples; every evaluation is the same trapezoid sum
    (FFT on the dual grid, direct phase sums off-grid), so on-grid and off-grid
    values carry identical quadrature error.  Queries outside the trusted band
    evaluate to 0; `edge_level` and `decay_tau` describe what was dropped.

    Every axis holds a full symmetric grid unless `folded` names it, for a
    function even along it: such an axis stores x >= 0 only, with real
    samples in the folded form of `_fold_samples`, and ĝ, even along it too,
    is kept on y >= 0 (`hat_grid`, `axes_y`).
    """

    def __init__(self, axes_x, values, spacing, *, quad_error, tail_error,
                 band=None, inherited_error=0.0, folded=None):
        self.axes_x = [np.asarray(a, dtype=float) for a in axes_x]
        self.values = np.asarray(values)
        self.spacing = np.asarray(spacing, dtype=float)
        self.dim = len(self.axes_x)
        self.folded = tuple(bool(f) for f in folded) if folded else (False,) * self.dim
        axes_y, hat = _fft_grid(self.values, self.spacing, self.folded)
        self.axes_y = axes_y
        imag_scale = float(np.max(np.abs(hat.imag)))
        self.real_even = imag_scale <= 1e-9 * max(1.0, float(np.max(np.abs(hat.real))))
        self.hat_grid = hat
        origin = tuple(0 if f else n // 2 for f, n in zip(self.folded, hat.shape))
        self.value_at_origin = complex(hat[origin])
        if self.real_even:
            self.value_at_origin = self.value_at_origin.real
        nyquist = np.asarray([0.5 / h for h in self.spacing])
        self.band = np.minimum(band, nyquist) if band is not None else 0.5 * nyquist
        self.quad_error = float(quad_error)
        self.tail_error = float(tail_error)
        self.inherited_error = float(inherited_error)
        self.edge_level, self.decay_tau = self._fit_decay()
        self._fold_axes, self._fold_values = _fold_even(self.axes_x, self.values)
        # ĝ(0) = h^n Σ g summed the way box_sum sums, so that subtracting it
        # from a box sum drops the ω = 0 term consistently
        self.center_term = self.box_sum(np.zeros(self.dim),
                                        np.zeros(self.dim, dtype=int))

    # -- decay diagnostics ---------------------------------------------------

    def _fit_decay(self):
        """Level at the band boundary and the decay power beyond it.

        Both are taken over max-metric shells (max_i |y_i|/band_i = const) of
        the dual grid, so anisotropic transforms whose slow directions sit off
        the coordinate axes are measured where they are largest, not on the
        axis lines through the center.
        """
        mags = np.abs(self.hat_grid)
        ratio = _band_ratio_mesh(self.axes_y, self.band)
        top = float(mags.max())
        noise = 1e-13 * top
        reach = max(1.2, min(3.2, float(ratio.max())))
        edge_sel = (ratio >= 0.92) & (ratio <= 1.08)
        edge = float(mags[edge_sel].max()) if np.any(edge_sel) else float(mags.min())
        mids, levels = [], []
        shells = np.geomspace(0.45, reach, 16)
        for lo, hi in zip(shells[:-1], shells[1:]):
            sel = (ratio >= lo) & (ratio < hi)
            if not np.any(sel):
                continue
            level = float(mags[sel].max())
            if level > noise:
                mids.append(math.sqrt(lo * hi))
                levels.append(level)
        outside = [i for i, m in enumerate(mids) if m > 1.02]
        if len(outside) >= 3:
            pick = outside
        elif len(mids) >= 3:
            pick = range(len(mids))
        else:
            # below the noise floor within one shell of the edge: too steep to
            # measure, and any steep power is a safe stand-in for the model
            return edge, 12.0
        xs = np.log([mids[i] for i in pick])
        ys = np.log([levels[i] for i in pick])
        slope, _ = np.polyfit(xs, ys, 1)
        return edge, max(-float(slope), 1.1)

    def out_of_band_bound(self, ratio: float) -> float:
        """Heuristic bound on |ĝ(y)| when max_i |y_i|/band_i = ratio >= 1."""
        return self.edge_level * max(ratio, 1.0) ** (-self.decay_tau)

    def shell_tail(self, sigma: float, m: int):
        """(fitted bound on Σ |ĝ| over shells j >= m mapped to norm >= sigma j,
        False): past R = √n max band the model |ĝ| <= edge_level (r/R)^{-τ},
        summed by `power_shell_tail`; +inf until shell m clears R."""
        reach = math.sqrt(self.dim) * float(np.max(self.band))
        if sigma * m <= reach:
            return math.inf, False
        return (self.edge_level * (sigma / reach) ** -self.decay_tau
                * power_shell_tail(self.dim, m, self.decay_tau), False)

    # -- evaluation ------------------------------------------------------------

    def evaluate_points(self, points: np.ndarray) -> np.ndarray:
        """ĝ at arbitrary points (complex); 0 outside the trusted band."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DomainError(f"query dimension {pts.shape[1]} != {self.dim}")
        out = np.zeros(pts.shape[0], dtype=complex)
        inside = np.all(np.abs(pts) <= self.band[None, :], axis=1)
        if not np.any(inside):
            return out
        out[inside] = _nudft_points(self.axes_x, self.values, self.spacing,
                                    pts[inside], self.folded)
        return out

    def box_sum(self, scales, box):
        """Σ ĝ(s∘k) over the integer box |k_i| ≤ K_i, in closed form.

        The sum over k of the trapezoid sum h^n Σ_x g(x) e^{-2πi <x, s∘k>}
        is h^n Σ_x g(x) Π_i D_{K_i}(x_i s_i): one real Dirichlet vector per
        axis, contracted into the samples (folded onto x_i >= 0 where the
        axis is symmetric, `_fold_even`) last axis first.  2-D scales and
        box (one row per query) give one sum per row; the rows' Dirichlet
        matrices are built and contracted in blocks of at most
        `_BOX_BLOCK` entries per axis.  Queries outside the band are not
        masked; the caller keeps the box inside it.
        """
        scales = np.asarray(scales, dtype=float)
        box = np.asarray(box)
        if scales.ndim == 1:
            return self.box_sum(scales[None, :], box[None, :])[0]
        axes, values = self._fold_axes, self._fold_values
        rows = max(1, _BOX_BLOCK // max(a.size for a in axes))
        out = np.empty(scales.shape[0], dtype=np.result_type(values, float))
        for start in range(0, scales.shape[0], rows):
            block = slice(start, start + rows)
            out[block] = _contract(values, [
                _dirichlet(np.outer(scales[block, axis], a), box[block, axis, None]).T
                for axis, a in enumerate(axes)])
        return out * float(np.prod(self.spacing))

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Real-function view (used when ĝ itself is fed back through theta)."""
        return self.evaluate_points(points).real

    def transform(self) -> "SampledTransform":
        """Transform of this transform, from its own dual-grid samples.

        For an even real g this lands back on g (reflection), but computed by a
        second honest trapezoid pass rather than by the inversion identity.
        It is trusted on the whole real-space box the samples came from, and
        folded on the axes this one is folded on.  Each value integrates ĝ's
        pointwise error over the dual box, so it inherits that error times
        the box's volume.
        """
        spacing = np.asarray([a[-1] - a[-2] for a in self.axes_y])
        values = self.hat_grid.real if self.real_even else self.hat_grid
        volume = float(np.prod([2.0 * np.max(np.abs(a)) for a in self.axes_y]))
        return SampledTransform(
            self.axes_y,
            _fold_samples(values, self.folded),
            spacing,
            quad_error=self.quad_error,
            tail_error=self.tail_error + self.edge_level,
            band=[float(np.max(np.abs(a))) for a in self.axes_x],
            inherited_error=(self.quad_error + self.tail_error) * volume,
            folded=self.folded,
        )


# ---------------------------------------------------------------------------
# building transforms from kernels
# ---------------------------------------------------------------------------


def _odd_grid(radius: float, h: float):
    half = int(math.ceil(radius / h))
    return np.arange(-half, half + 1) * h


def _samples(kernel: Kernel, axes) -> np.ndarray:
    """g on the tensor grid of `axes`, in its shape, once the grid's size
    is checked against `_MAX_SAMPLES`."""
    shape = [a.size for a in axes]
    if math.prod(shape) > _MAX_SAMPLES:
        raise BudgetExceededError(
            f"Fourier transform grid {'x'.join(map(str, shape))} holds "
            f"{math.prod(shape):,} samples, over the {_MAX_SAMPLES:,}-sample budget")
    return kernel.evaluate_grid(axes).reshape(shape)


def fourier_transform(kernel: Kernel):
    """Sampled ĝ for a kernel, with measured quadrature and tail estimates.

    The band grows until |ĝ| on its edge falls below a floor relative to
    max |ĝ|: 1e-15 in one dimension, where the grid is cheap, and 3e-11 on
    the grids of two and three, whose coarse axes hold at most 2^16 and
    4096 points.  When φ is even in every coordinate (every
    coordinate-monotone φ is), each pass samples g on x >= 0 only and folds
    every axis (`_fft_grid`); otherwise it samples the full grid.  A grid
    of more than `_MAX_SAMPLES` samples raises `BudgetExceededError`
    before g is evaluated on it.
    """
    n = kernel.dim
    if n > 3:
        raise DomainError("transforms are supported for n <= 3")
    floor, max_grid = (1e-15, 1 << 16) if n == 1 else (3e-11, 4096)
    radii = kernel.box_radii()
    folded = (_coordinate_monotone(kernel.phi),) * n
    band = np.full(n, 2.0)
    for _ in range(14):
        h = 1.0 / (4.0 * band)
        axes = [_odd_grid(r, hi) for r, hi in zip(radii, h)]
        if any(a.size > max_grid for a in axes):
            break
        axes = _quadrant(axes, folded)
        g = _samples(kernel, axes)
        axes_y, hat = _fft_grid(_fold_samples(g, folded), h, folded)
        mags = np.abs(hat)
        scale = float(mags.max())
        # trust is decided on the whole boundary shell of the band box, not on
        # the axis lines: anisotropic kernels can decay slowest off-axis
        ratio = _band_ratio_mesh(axes_y, band)
        shell = (ratio >= 0.85) & (ratio <= 1.0)
        level = float(mags[shell].max()) if np.any(shell) else 0.0
        if level <= floor * scale:
            break
        worst = np.unravel_index(int(np.argmax(np.where(shell, mags, 0.0))),
                                 mags.shape)
        grew = False
        for axis in range(n):
            if abs(axes_y[axis][worst[axis]]) >= 0.6 * band[axis]:
                band[axis] *= 1.6
                grew = True
        if not grew:
            band *= 1.6
    # fine pass at half spacing
    h_fine = 0.5 / (4.0 * band)
    axes_f = [_odd_grid(r, hi) for r, hi in zip(radii, h_fine)]
    for axis in range(n):
        if axes_f[axis].size > 2 * max_grid:
            axes_f[axis] = _odd_grid(radii[axis], (2.0 * radii[axis]) / (2 * max_grid - 1))
    spacing_f = np.asarray([a[-1] - a[-2] for a in axes_f])
    # the coarse grid is every other point of the full axis, which holds
    # x = 0 only when the half-count is even
    coarse = tuple(slice((a.size // 2) % 2 if f else 0, None, 2)
                   for a, f in zip(axes_f, folded))
    axes_f = _quadrant(axes_f, folded)
    g_fine = _samples(kernel, axes_f)
    values = _fold_samples(g_fine, folded)

    probes = _band_probes(band)
    at_c = _nudft_points([a[c] for a, c in zip(axes_f, coarse)], values[coarse],
                         2.0 * spacing_f, probes, folded)
    at_f = _nudft_points(axes_f, values, spacing_f, probes, folded)
    quad = float(np.max(np.abs(at_f - at_c)))
    # the samples on the faces x_i = +R, which every grid holds
    boundary = max(float(np.max(np.abs(np.take(g_fine, -1, axis=axis))))
                   for axis in range(n))
    tail = boundary * float(np.prod(2.0 * np.asarray(radii)))
    return SampledTransform(axes_f, values, spacing_f, quad_error=quad,
                            tail_error=tail, band=band, folded=folded)
