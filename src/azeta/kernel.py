"""The test functions g = φ^c e^{-φ}, c >= 0, and their Fourier transforms.

c > 0 gives g(0) = 0, the kernel of the continuation; c = 0 gives e^{-φ}
with g(0) = 1, the kernel of the volume through ∫ e^{-φ} = Γ(α+1)|B|.  Every
member decays fast enough that g restricted to a certified box carries all
but a negligible tail, and φ's own generator A carries it along the flow:
g(t^A x) = radial(t φ(x)), which is what makes its theta transform law work.

Fourier convention: ĝ(y) = ∫ g(x) e^{-2πi <x,y>} dx.  For a quadratic form
φ = Q and an integer c, ĝ is exact: Epstein's case, a polynomial in
ψ = π² Q⁻¹[y] times e^{-ψ}, which `GaussianTransform` carries as a kernel on
the dual form ψ (`quadratic_transform`).  Every other transform is one
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

import itertools
import math
from fractions import Fraction

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily; load it with the package)

from .errors import BudgetExceededError, DomainError
from .homog import HomogeneousFunction, PNorm, QuadraticForm, Scaled, _coordinate_monotone
from .quadrature import box_integral
from .special import exp_shell_tails, power_shell_tail

__all__ = ["Kernel", "GaussianTransform", "SampledTransform", "fourier_transform",
           "quadratic_transform"]

_G_FLOOR = 1e-16  # relative floor for the real-space tail of g
# Dirichlet entries per axis in one block of box-sum rows, and spectrum
# entries in one block of a folded axis's FFT
_BOX_BLOCK = 1 << 15
# samples of g on one transform grid.  A build peaks at about 28 bytes a
# sample on a folded grid (the samples, ĝ and |ĝ|) and 42 on a full one,
# whose complex FFT and its fftshifted copy are alive at once.
# The shipped configs and the benchmark workloads build at most 329,896 (a
# scaled superellipse at c = 6).  Quadratic forms at integer c take ĝ in
# closed form, so the largest grids left are sampled ones that a caller asks
# for: QuadraticForm(eye(3)) at c = 8 holds 9,129,329 (1.4 s and 283 MB peak
# RSS on one Xeon core; the suite checks the ball's sampled ĝ at c = 2,
# 5,832,000 samples).  φ whose band does not close stop here: the C^2
# PNorm(2, 3) at c = 2 on its 12.4e6-sample fine grid after 0.5 s and 114 MB,
# the 3-D 1- and 2-norms at once on their first coarse grid of 8.1e7
_MAX_SAMPLES = 12_000_000


class Kernel:
    """g = φ^c e^{-φ} with c >= 0; c = 0 is e^{-φ}, where g(0) = 1.

    φ(t^A x) = t φ(x) along φ's generator A, so g(t^A x) = radial(t φ(x)).
    """

    origin_error = 0.0  # g(0) is exact

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
        """g as a function of v = φ(x): v^c e^{-v}, and g(0) at v = 0.

        Formed in one output array, never in `level` itself: the v > 0
        entries take the same log, product, difference and exp as a masked
        evaluation would, and every other entry is then set to g(0).
        """
        # work in logs to dodge overflow of v^c for large shells
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(level)
            out *= self.power
            out -= level
            np.exp(out, out=out)
        if not (level.size and level.min() > 0.0):  # a zero, negative or NaN level
            out[~(level > 0.0)] = self.value_at_origin
        return out

    def radial_terms(self, level: np.ndarray):
        """(radial(v), a bound on its error) at v > 0, v itself off by up to
        4 ulps (from φ and the flow scaling) and by φ's `value_error`.

        v^c e^{-v} is exp(c ln v - v): the log-derivative c - v amplifies
        the relative error of v, and forming c ln v - v rounds by up to
        about (c|ln v| + v) ulps.  The last ulps are the exp's own.
        """
        c = self.power
        terms = self.radial(level)
        gain = np.abs(c - level)
        return terms, terms * ((2.0 * gain + 1.5 * c * np.abs(np.log(level)) + level + 2.0)
                               * 2.0**-52 + gain * self.phi.value_error)

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

    def shell_tail(self, sigma, m):
        """(bounds on Σ |g| over shells j >= m mapped to norm >= sigma j, True),
        over arrays of sigma and m.

        φ >= c3 |y|^{1/β} for |y| >= 1 puts shell j at φ >= a j^{1/β} with
        a = c3 σ^{1/β}; `exp_shell_tails` sums g's envelope over the shells."""
        p = 1.0 / self.phi.generator.beta
        a = self.phi.growth() * sigma**p
        tail = exp_shell_tails(self.dim, m, a, p, self.power)
        return np.where(sigma * m < 1.0, math.inf, tail), True

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
        c3, beta = self.phi.growth(), self.phi.generator.beta
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


class GaussianTransform(Kernel):
    """ĝ of g = Q^c e^{-Q} for a quadratic form Q and an integer c, exactly.

    e^{-λQ} has transform π^{n/2} det(λQ)^{-1/2} e^{-ψ/λ}, ψ = π² Q⁻¹[y], and
    g = (-∂_λ)^c e^{-λQ} at λ = 1, so ĝ = Σ_j p_j ψ^j e^{-ψ}: a polynomial of
    degree c in ψ times e^{-ψ} (`quadratic_transform`).  It is a kernel on
    the dual form ψ, whose generator I/2 is Aᵀ, so its θ* tables take the
    kernel route.  The p_j alternate in sign, so every bound charges the
    magnitude M(v) = Σ_j |p_j| v^j e^{-v}: |ĝ| ≤ M, and M ≤ Σ_j |p_j| v^c e^{-v}
    wherever v >= 1.
    """

    def __init__(self, dual: HomogeneousFunction, coefficients, spread: float):
        super().__init__(dual, power=len(coefficients) - 1)
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.value_at_origin = float(self.coefficients[0])
        # ulps that a Q off the diagonal adds to ψ's values and to det(Q)
        self.spread = float(spread)
        self.origin_error = (6.0 + self.spread) * 2.0**-52 * abs(self.value_at_origin)

    def radial(self, level: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(level, self.coefficients) * np.exp(-level)

    def radial_terms(self, level: np.ndarray):
        """(radial(v), a bound on its rounding error), all in ulps of M(v).

        Horner rounds by c, each coefficient is off by as many ulps as ĝ(0),
        and v, off by e = 4 + `spread` ulps, moves P(v) by at most ce and
        e^{-v} by ve; two more for the exp and the product.
        """
        decay = np.exp(-level)
        size = np.polynomial.polynomial.polyval(level, np.abs(self.coefficients)) * decay
        terms = np.polynomial.polynomial.polyval(level, self.coefficients) * decay
        c, e = self.power, 4.0 + self.spread
        return terms, size * ((e * (level + c) + c + 8.0 + self.spread) * 2.0**-52)

    def magnitude(self) -> "GaussianTransform":
        """The kernel of M(v), whose θ* bounds Σ |ĝ(t^A ω)|."""
        return GaussianTransform(self.phi, np.abs(self.coefficients), self.spread)

    def shell_tail(self, sigma, m):
        """`Kernel.shell_tail` times Σ_j |p_j|: its finite tails lie at
        v >= c, where v^j <= v^c once c >= 1 (c = 0 has the one term)."""
        tail, rigorous = super().shell_tail(sigma, m)
        return float(np.sum(np.abs(self.coefficients))) * tail, rigorous


def quadratic_root(phi: HomogeneousFunction):
    """(Q, b) with φ^b = Q a positive quadratic form, or None: b = 1 and Q = φ
    for a `QuadraticForm`, b = 2 and Q = |x|² for |x| (a 1-D `PNorm` of any
    p) and `PNorm(n, 2)`, and Q times a^b for a `Scaled` a·φ.  Q's generator
    is A/b, and b is a power of two, so s/b is exact: ζ(φ, s) = ζ(Q, s/b)."""
    if isinstance(phi, Scaled):
        root = quadratic_root(phi.base)
        return root and (QuadraticForm(phi.factor ** root[1] * root[0].q_matrix), root[1])
    if isinstance(phi, QuadraticForm):
        return phi, 1
    if isinstance(phi, PNorm) and (phi.dim == 1 or phi.p == 2.0):
        return QuadraticForm(np.eye(phi.dim)), 2
    return None


def dual_form(q_matrix) -> QuadraticForm:
    """ψ = π² Q⁻¹, the form of ĝ's Gaussian."""
    return QuadraticForm(math.pi**2 * np.linalg.inv(q_matrix))


def quadratic_transform(q_matrix, power: int, dual: QuadraticForm | None = None):
    """ĝ of Q^c e^{-Q} in closed form (`GaussianTransform`); dual is ψ.

    (-∂_λ) maps Σ_j a_j v^j λ^{-n/2-k-j} e^{-v/λ} to the same sum at k + 1
    with a_j ← (n/2 + k + j) a_j - a_{j-1}; from a = (1) at k = 0, c steps
    in exact rationals give P_c at λ = 1, with P_c(0) = Γ(c+n/2)/Γ(n/2).
    The scale π^{n/2} det(Q)^{-1/2} and ψ's values round by a few ulps; a Q
    off the diagonal adds n cond(Q) to both (its inverse, its determinant
    and the cancellation of ψ's cross terms).
    """
    q = np.asarray(q_matrix, dtype=float)
    n = q.shape[0]
    coefficients = [Fraction(1)]
    for k in range(int(power)):
        coefficients = [(Fraction(n, 2) + k + j) * a - b for j, (a, b)
                        in enumerate(zip(coefficients + [0], [0] + coefficients))]
    scale = math.pi ** (0.5 * n) / math.sqrt(np.linalg.det(q))
    values = [scale * float(a) for a in coefficients]
    spread = 0.0 if np.count_nonzero(q - np.diag(np.diag(q))) == 0 else n * float(np.linalg.cond(q))
    return GaussianTransform(dual or dual_form(q), values, spread)


# ---------------------------------------------------------------------------
# sampled transforms
# ---------------------------------------------------------------------------


def _fast_length(n: int) -> int:
    """The smallest odd N >= n whose only prime factors are 3, 5 and 7."""
    best, p7 = math.inf, 1
    while p7 < best:
        p5 = p7
        while p5 < best:
            p3 = p5
            while p3 < n:
                p3 *= 3
            best = min(best, p3)
            p5 *= 5
        p7 *= 7
    return best


def _fft_grid(values: np.ndarray, spacing: np.ndarray, folded):
    """Trapezoid transform of grid samples on the dual grid; returns (axes_y, hat).

    Each axis is transformed at N = `_fast_length` of its full grid's size
    (2n - 1 for a folded axis of n samples): a length with a prime factor
    above 7 would send pocketfft to Bluestein's algorithm, several times
    slower and planned anew in every process.  The samples are zero past the
    box, so each output is still the trapezoid sum, at y_k = k / (N h); N
    stays odd, so the dual grid is a symmetric odd grid over one period.

    A folded axis holds x >= 0 of a symmetric odd grid, in the folded form of
    `_fold_even`: its sum is the cosine sum Σ_j f_j cos(2π x_j y), the real
    part of a real FFT zero-padded past x_m, kept on y >= 0.  Folded axes need
    real samples and go first, while the data are real.  Each is transformed
    in blocks of another axis, at most `_BOX_BLOCK` spectrum entries a block,
    whose real parts fill one real array per axis; no grid-sized complex
    spectrum is formed.  Every other axis is a full symmetric odd grid, padded
    with zeros on both sides to length N, and takes a complex FFT on the full
    dual grid: the padded samples are laid out once, already ifftshifted, in
    one complex array that the FFT overwrites.
    """
    hat = values
    axes_y = [None] * values.ndim
    for axis in reversed(range(values.ndim)):
        if folded[axis]:
            size = _fast_length(2 * values.shape[axis] - 1)
            spectrum = np.empty(hat.shape[:axis] + (size // 2 + 1,) + hat.shape[axis + 1:])
            if hat.ndim == 1:
                spectrum[:] = np.fft.rfft(hat, n=size, axis=axis).real
            else:
                other = 0 if axis else hat.ndim - 1
                step = max(1, _BOX_BLOCK * hat.shape[other] // spectrum.size)
                for start in range(0, hat.shape[other], step):
                    block = (slice(None),) * other + (slice(start, start + step),)
                    spectrum[block] = np.fft.rfft(hat[block], n=size, axis=axis).real
            hat = spectrum
            axes_y[axis] = np.fft.rfftfreq(size, d=spacing[axis])
    full = [axis for axis in range(values.ndim) if not folded[axis]]
    if full:
        shape, index = list(hat.shape), list(map(np.arange, hat.shape))
        for axis in full:
            shape[axis] = size = _fast_length(values.shape[axis])
            # sample j of n sits at (j - n//2) mod N once padded and ifftshifted
            index[axis] = (index[axis] - values.shape[axis] // 2) % size
            axes_y[axis] = np.fft.fftshift(np.fft.fftfreq(size, d=spacing[axis]))
        padded = np.zeros(shape, dtype=np.result_type(hat, complex))
        padded[np.ix_(*index)] = hat
        hat = np.fft.fftn(padded, axes=full, out=padded)
        hat = np.fft.fftshift(hat, axes=full)
    hat *= np.prod(spacing)
    return axes_y, hat


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


def _fold_samples(samples, folded, *, copy=True):
    """Samples of a function even along each folded axis, given on x >= 0,
    in the folded form of `_fold_even`: off x = 0 a sample also stands for
    its mirror, so it counts twice.  copy=False doubles float samples where
    they lie."""
    if not any(folded):
        return np.asarray(samples)
    values = np.array(samples, dtype=float) if copy else np.asarray(samples, dtype=float)
    for axis in np.flatnonzero(folded):
        values[(slice(None),) * axis + (slice(1, None),)] *= 2.0
    return values


def _shell_peak(mags, axes_y, band, lo, hi, below):
    """(max, index) of `mags` over the shell lo <= ρ, below(ρ, hi) of the
    dual grid, ρ = max_i r_i with r_i = |y_i| / band_i; (None, None) when
    the shell holds no point.  The index is the first in C order at which
    the maximum sits, the one np.argmax gives.

    No grid-sized ratio or mask is formed.  The shell is the union over i
    of the tensor blocks {r_j < lo for j < i, lo <= r_i, below(r_i, hi),
    below(r_j, hi) for j > i}.  Each block is a product of runs of
    consecutive indices, one set of runs per axis: one run on a folded
    axis, up to two on an fftshifted full one.  So every block is a view of
    `mags`, and its first maximum lies first in C order within the block.
    """
    ratios = list(map(np.divide, map(np.abs, axes_y), band))
    best = where = None
    for i in range(len(ratios)):
        runs = []  # per axis, one (start, stop) row per run
        for j, r in enumerate(ratios):
            inside = r < lo if j < i else below(r, hi)
            if j == i:
                inside &= r >= lo
            edges = np.flatnonzero(np.diff(np.concatenate(([False], inside, [False]))))
            runs.append(edges.reshape(-1, 2))
        for block in itertools.product(*runs):
            starts, stops = np.transpose(block)
            part = mags[tuple(map(slice, starts, stops))]
            k = np.unravel_index(int(np.argmax(part)), part.shape)
            level = float(part[k])
            at = tuple(starts + k)
            if best is None or level > best or (level == best and at < where):
                best, where = level, at
    return best, where


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
        self.real_even = np.isrealobj(hat) or (
            float(np.max(np.abs(hat.imag))) <= 1e-9 * max(1.0, float(np.max(np.abs(hat.real)))))
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
        # ĝ(0) is a trapezoid value like any other: it carries every error
        self.origin_error = self.quad_error + self.inherited_error + self.tail_error
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
        axis lines through the center.  Each shell's maximum is read from
        views of |ĝ|, block by block (`_shell_peak`); the edge shell keeps its
        closed upper bound, max_i |y_i|/band_i <= 1.08.
        """
        mags = np.abs(self.hat_grid)
        top = float(mags.max())
        noise = 1e-13 * top
        # max_i max|y_i| / band_i: division rounds monotonically, so this is
        # the largest ratio on the grid
        reach = max(1.2, min(3.2, float(np.max(list(map(np.max, map(np.abs, self.axes_y)))
                                                / self.band))))
        edge, _ = _shell_peak(mags, self.axes_y, self.band, 0.92, 1.08, np.less_equal)
        if edge is None:
            edge = float(mags.min())
        mids, levels = [], []
        shells = np.geomspace(0.45, reach, 16)
        for lo, hi in zip(shells[:-1], shells[1:]):
            level, _ = _shell_peak(mags, self.axes_y, self.band, lo, hi, np.less)
            if level is None:
                continue
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

    def shell_tail(self, sigma, m):
        """(fitted bounds on Σ |ĝ| over shells j >= m mapped to norm >= sigma j,
        False), over arrays of sigma and m: past R = √n max band the model
        |ĝ| <= edge_level (r/R)^{-τ}, summed by `power_shell_tail`; +inf until
        shell m clears R."""
        reach = math.sqrt(self.dim) * float(np.max(self.band))
        tail = (self.edge_level * (sigma / reach) ** -self.decay_tau
                * power_shell_tail(self.dim, np.asarray(m, dtype=float), self.decay_tau))
        return np.where(sigma * m <= reach, math.inf, tail), False

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
    every axis; otherwise it samples the full grid.  `_fft_grid` takes each
    axis at the next odd length with no prime factor above 7, so no pass
    pays for Bluestein's algorithm; the band is read on that slightly finer
    dual grid, and `edge_level` and `decay_tau` with it.  A grid
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
        axes_y, hat = _fft_grid(_fold_samples(g, folded, copy=False), h, folded)
        mags = np.abs(hat)
        scale = float(mags.max())
        # trust is decided on the whole boundary shell of the band box, not on
        # the axis lines: anisotropic kernels can decay slowest off-axis
        level, worst = _shell_peak(mags, axes_y, band, 0.85, 1.0, np.less_equal)
        if level is None or level <= floor * scale:
            break
        grew = False
        for axis in range(n):
            if abs(axes_y[axis][worst[axis]]) >= 0.6 * band[axis]:
                band[axis] *= 1.6
                grew = True
        if not grew:
            band *= 1.6
    # the last pass's grids die before the fine grid is sampled
    g = hat = mags = None
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
    # the samples on the faces x_i = +R, which every grid holds, read before
    # the fold doubles them in place
    boundary = max(float(np.max(np.abs(np.take(g_fine, -1, axis=axis))))
                   for axis in range(n))
    values = _fold_samples(g_fine, folded, copy=False)

    probes = _band_probes(band)
    at_c = _nudft_points([a[c] for a, c in zip(axes_f, coarse)], values[coarse],
                         2.0 * spacing_f, probes, folded)
    at_f = _nudft_points(axes_f, values, spacing_f, probes, folded)
    quad = float(np.max(np.abs(at_f - at_c)))
    tail = boundary * float(np.prod(2.0 * np.asarray(radii)))
    return SampledTransform(axes_f, values, spacing_f, quad_error=quad,
                            tail_error=tail, band=band, folded=folded)
