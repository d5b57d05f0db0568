"""Anisotropically homogeneous distance functions.

A function φ: R^n -> [0, ∞) here is continuous, positive away from the origin, and
scales as φ(t^A x) = t φ(x) along the flow of a generator matrix A (positive-real-part
spectrum).  The sublevel set B(r) = {φ < r} then has volume r^alpha |B(1)| with
alpha = trace A, and x lies in B(r) exactly when r^{-A} x lies in B(1).

Growth certificates (sampled, with safety factors, validated on 10^4 points):

    |x| <= 1:  c1 |x|^(1/gamma) <= φ(x) <= c2 |x|^(1/beta)
    |x| >= 1:  c3 |x|^(1/beta)  <= φ(x) <= c4 |x|^(1/gamma)

with gamma/beta the certified flow exponents of the generator.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InternalInvariantError
from .lattice import box_rows, box_size, grid_rows
from .matflow import GeneratorMatrix

__all__ = [
    "HomogeneousFunction",
    "QuadraticForm",
    "HomogeneousPolynomial",
    "PNorm",
    "AnisotropicSuperellipse",
    "Profile",
    "Scaled",
    "evaluate",
    "unit_ball_membership",
    "growth_bounds",
    "sandwich_smooth",
]

_GROWTH_SEED = 0x5EED_60441
_VALIDATION_SAMPLES = 10_000


class HomogeneousFunction:
    """Base class; concrete variants implement `evaluate_many`."""

    label = "homogeneous"
    #: kernel exponents are rounded up to a multiple of this to keep φ^c as
    #: smooth as the variant allows (helps the decay of its Fourier transform)
    smooth_step = 1
    #: φ(-x) == φ(x) bit for bit, so a lattice sum may walk half the box;
    #: variants whose arithmetic is sign-symmetric set it
    is_even = False

    def __init__(self, generator: GeneratorMatrix):
        self.generator = generator
        self._growth = None
        self._lattice_min = None

    @property
    def dim(self) -> int:
        return self.generator.dim

    @property
    def alpha(self) -> float:
        return self.generator.alpha

    # -- evaluation --------------------------------------------------------

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate_grid(self, axes) -> np.ndarray:
        """φ over the tensor grid of `axes`, flattened in C order: the
        values of ``evaluate_many(grid_rows(axes))``.  Separable variants
        override it with one term per axis point, to the same bits."""
        return self.evaluate_many(grid_rows(axes))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate_many(points)

    def scale(self, factor: float) -> "Scaled":
        return Scaled(self, factor)

    # -- certified growth --------------------------------------------------

    def growth(self):
        """(c1, c2, c3, c4) for the two-regime power bounds; cached."""
        if self._growth is None:
            self._growth = _certify_growth(self)
        return self._growth

    def lattice_minimum(self) -> float:
        """min φ(ω) over nonzero integer vectors; cached.

        Finite search: once a candidate value v is in hand, any ω with
        c3 |ω|^(1/beta) >= v is excluded, so only a box remains.
        """
        if self._lattice_min is None:
            first = box_rows(np.ones(self.dim, dtype=int), nonzero=True)
            best = float(np.min(self.evaluate_many(first)))
            box = HomogeneousFunction.lattice_box(self, best)
            if box_size(box) > 4e6:
                raise InternalInvariantError(
                    "lattice minimum search box is implausibly large"
                )
            pts = box_rows(box, nonzero=True)
            self._lattice_min = float(np.min(self.evaluate_many(pts)))
        return self._lattice_min

    def lattice_box(self, r: float) -> np.ndarray:
        """Per-axis integer bounds B with {φ < r} inside prod [-B_i, B_i].

        Generic route via the certified lower growth bound; variants override
        with exact boxes where the shape makes one obvious.
        """
        _, _, c3, _ = self.growth()
        beta = self.generator.beta
        radius = max(1.0, (float(r) / c3) ** beta)
        return np.full(self.dim, int(math.ceil(radius)), dtype=int)

    def strictly_below(self, points: np.ndarray, r: float) -> np.ndarray:
        """Row mask of φ(row) < r, strict."""
        return self.evaluate_many(points) < r

    def count_strict(self, points: np.ndarray, r: float) -> int:
        """Number of rows with φ(row) < r, strict."""
        return int(np.count_nonzero(self.strictly_below(points, r)))


# ---------------------------------------------------------------------------
# concrete variants
# ---------------------------------------------------------------------------


def _power_sum(points: np.ndarray, powers) -> np.ndarray:
    """Σ_i |x_i|^{m_i} per row, added column by column in axis order.

    numpy adds fewer than 8 row terms left to right, so up to 7 columns this
    has the bits of ``np.sum(np.abs(points) ** p, axis=1)`` for a scalar p.
    Each exponent goes in as a one-element array, so pow runs vectorised on a
    contiguous column; numpy then takes a 2 or 0.5 as square or sqrt, where
    the exponent grid ``powers[None, :]`` took the vectorised pow.
    """
    powers = np.asarray(powers, dtype=float)
    out = np.abs(points[:, 0]) ** powers[0:1]
    for i in range(1, points.shape[1]):
        out += np.abs(points[:, i]) ** powers[i:i + 1]
    return out


def _grid_sum(terms, op=np.add) -> np.ndarray:
    """op-reduce of the 1-D per-axis terms over their tensor grid, flat in C
    order; np.add adds in axis order, as `_power_sum` adds its columns."""
    dim = len(terms)
    out = terms[0].reshape([-1] + [1] * (dim - 1))
    for i in range(1, dim):
        out = op(out, terms[i].reshape([-1] + [1] * (dim - 1 - i)))
    return out.reshape(-1)


def _grid_power_sum(axes, powers) -> np.ndarray:
    """`_power_sum` over the tensor grid of `axes`: each |a_i|^{m_i} is formed
    once on its axis, with the same one-element exponent."""
    powers = np.asarray(powers, dtype=float)
    return _grid_sum([np.abs(np.asarray(a, dtype=float)) ** powers[i:i + 1]
                      for i, a in enumerate(axes)])


class QuadraticForm(HomogeneousFunction):
    """φ(x) = xᵀ Q x for symmetric positive definite Q; generator A = I/2."""

    label = "quadratic_form"
    is_even = True
    smooth_step = 1

    def __init__(self, q_matrix):
        q = np.array(q_matrix, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DomainError(f"quadratic form needs a square matrix, got {q.shape}")
        if not np.allclose(q, q.T, atol=1e-12 * (1.0 + np.abs(q).max())):
            raise DomainError("quadratic form matrix must be symmetric")
        try:
            np.linalg.cholesky(q)
        except np.linalg.LinAlgError as exc:
            raise DomainError("quadratic form matrix must be positive definite") from exc
        super().__init__(GeneratorMatrix(0.5 * np.eye(q.shape[0])))
        self.q_matrix = q
        self.q_matrix.setflags(write=False)
        self._q_inv_diag = np.diag(np.linalg.inv(q))
        self._diagonal = bool(np.all(q == np.diag(np.diag(q))))
        self.integer_valued = bool(np.all(q == np.round(q)))

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.einsum("ij,jk,ik->i", pts, self.q_matrix, pts)

    def evaluate_grid(self, axes) -> np.ndarray:
        if not self._diagonal:
            return super().evaluate_grid(axes)
        # the einsum's nonzero products (x_i Q_ii) x_i, added in axis order
        axes = [np.asarray(a, dtype=float) for a in axes]
        return _grid_sum([(a * q) * a for a, q in zip(axes, np.diag(self.q_matrix))])

    def lattice_box(self, r: float) -> np.ndarray:
        # φ(x) < r forces x_i^2 <= r (Q^{-1})_{ii}.
        return np.asarray(
            [int(math.ceil(math.sqrt(max(r, 0.0) * d))) for d in self._q_inv_diag],
            dtype=int,
        )

    def strictly_below(self, points: np.ndarray, r: float) -> np.ndarray:
        # integer rows of an integer form compare exactly in int64
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not (self.integer_valued and np.all(pts == np.round(pts))):
            return super().strictly_below(pts, r)
        ints = pts.astype(np.int64)
        q = self.q_matrix.astype(np.int64)
        return np.einsum("ij,jk,ik->i", ints, q, ints) < r


class HomogeneousPolynomial(HomogeneousFunction):
    """An even-degree polynomial, positive away from 0; generator A = I/d.

    `terms` maps exponent tuples to coefficients; every exponent tuple must have
    the same total degree d (even), and positivity is witnessed by the minimum
    over a dense sample of the Lyapunov ellipsoid.
    """

    label = "homogeneous_polynomial"
    is_even = True
    smooth_step = 1

    def __init__(self, dim: int, terms: dict):
        if not terms:
            raise DomainError("polynomial needs at least one term")
        degrees = {sum(e) for e in terms}
        if len(degrees) != 1:
            raise DomainError(f"mixed total degrees {sorted(degrees)}")
        degree = degrees.pop()
        if degree <= 0 or degree % 2 != 0:
            raise DomainError(f"total degree must be a positive even integer, got {degree}")
        for e in terms:
            if len(e) != dim or any(k < 0 for k in e):
                raise DomainError(f"bad exponent tuple {e} for dimension {dim}")
        super().__init__(GeneratorMatrix(np.eye(dim) / degree))
        self.degree = int(degree)
        self.exponents = np.asarray(sorted(terms), dtype=float)
        self.coefficients = np.asarray([terms[tuple(int(v) for v in e)] for e in self.exponents.astype(int)], dtype=float)
        sample = self.generator.sphere_points(4096)
        self.positivity_certificate = float(np.min(self.evaluate_many(sample)))
        if self.positivity_certificate <= 0.0:
            raise DomainError(
                f"polynomial is not positive on the unit ellipsoid "
                f"(sampled minimum {self.positivity_certificate:.3e})"
            )

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        # Each monomial is |x|^e with the sign of its odd powers put back.
        # A monomial of even degree has an even number of odd powers, so
        # negating x gives the same bits.
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        mag = np.abs(pts)
        neg = pts < 0.0
        out = np.zeros(pts.shape[0])
        for coeff, expo in zip(self.coefficients, self.exponents):
            term = np.prod(mag ** expo[None, :], axis=1)
            flip = np.logical_xor.reduce(neg[:, expo % 2 == 1], axis=1)
            out += coeff * np.where(flip, -term, term)
        return out


class PNorm(HomogeneousFunction):
    """φ(x) = (sum |x_i|^p)^(1/p) for p >= 1; generator A = I, so alpha = n."""

    label = "p_norm"
    is_even = True

    def __init__(self, dim: int, p: float):
        if p < 1:
            raise DomainError(f"p-norm needs p >= 1, got {p}")
        super().__init__(GeneratorMatrix(np.eye(dim)))
        self.p = float(p)
        # |x|^c is smooth at 0 for even integer c in one dimension with p = 1;
        # in higher dimensions the axis kinks of p = 1 persist for every power.
        self.smooth_step = 2 if (dim == 1 and p == 1.0) else 1

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if np.isinf(self.p):
            return np.max(np.abs(pts), axis=1)
        return _power_sum(pts, np.full(self.dim, self.p)) ** (1.0 / self.p)

    def evaluate_grid(self, axes) -> np.ndarray:
        if np.isinf(self.p):
            return _grid_sum([np.abs(np.asarray(a, dtype=float)) for a in axes],
                             np.maximum)
        return _grid_power_sum(axes, np.full(self.dim, self.p)) ** (1.0 / self.p)

    def lattice_box(self, r: float) -> np.ndarray:
        return np.full(self.dim, int(math.ceil(max(1.0, r))), dtype=int)


class AnisotropicSuperellipse(HomogeneousFunction):
    """φ(x) = (sum |x_i|^{m_i})^(1/q) with generator diag(q/m_1, ..., q/m_n).

    The diagonal entries are forced by the homogeneity identity
    φ(t^A x) = t φ(x); the constructor verifies it on random samples.
    """

    label = "superellipse"
    is_even = True

    def __init__(self, powers, root: float):
        powers = np.asarray(powers, dtype=float)
        if np.any(powers <= 0) or root <= 0:
            raise DomainError("superellipse powers and root must be positive")
        diag = root / powers
        super().__init__(GeneratorMatrix(np.diag(diag)))
        self.powers = powers
        self.powers.setflags(write=False)
        self.root = float(root)
        even = np.all(powers == np.round(powers)) and np.all(powers % 2 == 0)
        self.smooth_step = max(1, int(round(root))) if even and root == round(root) else 1
        rng = np.random.Generator(np.random.Philox(_GROWTH_SEED + 2))
        x = rng.normal(size=(64, self.dim))
        t = rng.uniform(0.2, 5.0, size=64)
        for ti, xi in zip(t, x):
            lhs = self.evaluate_many(self.generator.apply_flow(ti, xi[None, :]))[0]
            rhs = ti * self.evaluate_many(xi[None, :])[0]
            if abs(lhs - rhs) > 1e-9 * (1.0 + abs(rhs)):
                raise InternalInvariantError(
                    f"superellipse homogeneity identity failed: {lhs} vs {rhs}"
                )

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _power_sum(pts, self.powers) ** (1.0 / self.root)

    def evaluate_grid(self, axes) -> np.ndarray:
        return _grid_power_sum(axes, self.powers) ** (1.0 / self.root)

    def lattice_box(self, r: float) -> np.ndarray:
        # |x_i|^{m_i} < r^q on the sublevel set.
        r = max(float(r), 0.0)
        return np.asarray(
            [int(math.ceil(max(1.0, r ** (self.root / m)))) for m in self.powers],
            dtype=int,
        )

    def strictly_below(self, points: np.ndarray, r: float) -> np.ndarray:
        # Compare sum |x_i|^{m_i} < r^q; monotone in φ so strictness carries over,
        # and it avoids the 1/q root near the boundary.  Powers like x^18 outgrow
        # the 53-bit mantissa, so rows landing within float slop of the
        # boundary are rechecked in exact integer/rational arithmetic.
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = _power_sum(pts, self.powers)
        rq = float(r) ** self.root
        below = vals < rq
        if not (
            np.all(self.powers == np.round(self.powers))
            and self.root == round(self.root)
            and np.all(pts == np.round(pts))
        ):
            return below
        fence = np.flatnonzero(np.abs(vals - rq) <= 1e-9 * max(rq, 1.0))
        from fractions import Fraction

        rq_exact = Fraction(float(r)) ** int(self.root)
        for i in fence:
            exact = sum(
                abs(int(c)) ** int(m) for c, m in zip(pts[i], self.powers)
            )
            below[i] = exact < rq_exact
        return below


class Scaled(HomogeneousFunction):
    """a·φ for a > 0; same generator, every sublevel set rescales as {φ < r/a}."""

    label = "scaled"

    def __init__(self, base: HomogeneousFunction, factor: float):
        if factor <= 0:
            raise DomainError("scale factor must be positive")
        super().__init__(base.generator)
        self.base = base
        self.factor = float(factor)
        self.smooth_step = base.smooth_step
        self.is_even = base.is_even

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        return self.factor * self.base.evaluate_many(points)

    def evaluate_grid(self, axes) -> np.ndarray:
        return self.factor * self.base.evaluate_grid(axes)

    def lattice_box(self, r: float) -> np.ndarray:
        return self.base.lattice_box(float(r) / self.factor)

    def strictly_below(self, points: np.ndarray, r: float) -> np.ndarray:
        return self.base.strictly_below(points, float(r) / self.factor)


def _coordinate_monotone(phi: HomogeneousFunction) -> bool:
    """True when φ is nondecreasing in each |x_i|.

    Such a φ sees each x_i only through |x_i|, so it is even in every
    coordinate, which lets `kernel.fourier_transform` fold its grids and
    `zeta._lattice_values` walk one orthant of the lattice, and {φ < r}
    meets each axis-parallel line in one interval centred on the axis,
    which lets `volume.lattice_count` count by column heights."""
    if isinstance(phi, Scaled):
        return _coordinate_monotone(phi.base)
    if isinstance(phi, (PNorm, AnisotropicSuperellipse)):
        return True
    if isinstance(phi, QuadraticForm):
        return phi._diagonal
    if isinstance(phi, HomogeneousPolynomial):
        return bool(
            np.all(phi.coefficients >= 0.0)
            and np.all(phi.exponents % 2 == 0)
        )
    return False


class Profile(HomogeneousFunction):
    """φ defined by its values on the Lyapunov ellipsoid S_L.

    Given the profile f = φ|_{S_L}, polar coordinates extend it everywhere:
    φ(t^A xbar) = t f(xbar).  In two dimensions the profile is interpolated as a
    periodic cubic spline in the direction angle; in higher dimensions an
    inverse-distance blend over the sample directions is used.  Smoothness of the
    resulting φ is whatever the interpolation provides; it is not certified.
    """

    label = "profile"

    def __init__(self, generator: GeneratorMatrix, directions, values):
        super().__init__(generator)
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        vals = np.asarray(values, dtype=float)
        if dirs.shape[0] != vals.shape[0]:
            raise DomainError("directions and values must have equal length")
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            raise DomainError("profile values must be positive and finite")
        self.positivity_certificate = float(np.min(vals))
        if generator.dim == 2:
            ang = np.arctan2(dirs[:, 1], dirs[:, 0])
            order = np.argsort(ang)
            ang, vals = ang[order], vals[order]
            if ang.size < 8:
                raise DomainError("need at least 8 profile samples in dimension 2")
            ang_wrapped = np.concatenate([ang, [ang[0] + 2.0 * math.pi]])
            vals_wrapped = np.concatenate([vals, [vals[0]]])
            from scipy.interpolate import CubicSpline  # the only 2-D Profile use

            self._spline = CubicSpline(ang_wrapped, vals_wrapped, bc_type="periodic")
            self._base_angle = float(ang[0])
        else:
            norm = np.linalg.norm(dirs, axis=1, keepdims=True)
            self._dirs_unit = dirs / norm
            self._vals = vals

    @classmethod
    def from_function(cls, generator: GeneratorMatrix, fn, resolution: int = 256):
        """Sample a callable φ-profile on S_L and build the interpolant."""
        if generator.dim == 2:
            pts = _ellipse_points(generator, resolution)
        else:
            pts = generator.sphere_points(resolution, seed=13)
        vals = np.asarray(fn(pts), dtype=float)
        return cls(generator, pts, vals)

    def profile_values(self, on_sphere: np.ndarray) -> np.ndarray:
        """f at points of S_L (only their direction matters)."""
        pts = np.atleast_2d(np.asarray(on_sphere, dtype=float))
        if self.dim == 2:
            ang = np.arctan2(pts[:, 1], pts[:, 0])
            two_pi = 2.0 * math.pi
            ang = self._base_angle + np.mod(ang - self._base_angle, two_pi)
            return self._spline(ang)
        dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        # Shepard blend in 1 - cos(angle); exact on the sample directions.
        sim = dirs @ self._dirs_unit.T
        dist = np.maximum(1.0 - sim, 1e-14)
        w = 1.0 / dist**2
        return (w @ self._vals) / np.sum(w, axis=1)

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        nonzero = np.any(pts != 0.0, axis=1)
        if np.any(nonzero):
            t, xbar = self.generator.polar_many(pts[nonzero])
            out[nonzero] = t * self.profile_values(xbar)
        return out


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------


def evaluate(phi: HomogeneousFunction, point) -> float:
    """φ(x); exactly 0 at the origin."""
    x = np.asarray(point, dtype=float).reshape(-1)
    if x.shape[0] != phi.dim:
        raise DomainError(f"point has dimension {x.shape[0]}, φ has {phi.dim}")
    if not np.all(np.isfinite(x)):
        raise DomainError("point must be finite")
    if np.all(x == 0.0):
        return 0.0
    return float(phi.evaluate_many(x[None, :])[0])


def unit_ball_membership(phi: HomogeneousFunction, point, r: float = 1.0) -> bool:
    """Strict membership φ(x) < r of the open sublevel set."""
    if not (r > 0.0):
        raise DomainError(f"sublevel radius must be positive, got {r}")
    return evaluate(phi, point) < r


def _certify_growth(phi: HomogeneousFunction):
    gen = phi.generator
    inv_gamma = 1.0 / gen.gamma
    inv_beta = 1.0 / gen.beta
    rng = np.random.Generator(np.random.Philox(_GROWTH_SEED))
    dirs = rng.normal(size=(256, phi.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    def extremes(radii, low_exp, high_exp):
        lo, hi = np.inf, 0.0
        for r in radii:
            vals = phi.evaluate_many(r * dirs)
            lo = min(lo, float(np.min(vals / r**low_exp)))
            hi = max(hi, float(np.max(vals / r**high_exp)))
        return lo, hi

    small = np.geomspace(1e-3, 1.0, 30)
    large = np.geomspace(1.0, 1e3, 30)
    lo_s, hi_s = extremes(small, inv_gamma, inv_beta)
    lo_l, hi_l = extremes(large, inv_beta, inv_gamma)
    c1, c2 = 0.9 * lo_s, 1.1 * hi_s
    c3, c4 = 0.9 * lo_l, 1.1 * hi_l

    # Validation on fresh samples; widen on any violation.
    val_dirs = rng.normal(size=(_VALIDATION_SAMPLES // 20, phi.dim))
    val_dirs /= np.linalg.norm(val_dirs, axis=1, keepdims=True)
    for r in np.geomspace(1e-3, 1e3, 20):
        vals = phi.evaluate_many(r * val_dirs)
        if r <= 1.0:
            c1 = min(c1, 0.99 * float(np.min(vals)) / r**inv_gamma)
            c2 = max(c2, 1.01 * float(np.max(vals)) / r**inv_beta)
        if r >= 1.0:
            c3 = min(c3, 0.99 * float(np.min(vals)) / r**inv_beta)
            c4 = max(c4, 1.01 * float(np.max(vals)) / r**inv_gamma)
    if min(c1, c2, c3, c4) <= 0.0:
        raise InternalInvariantError("growth certification produced a nonpositive constant")
    return c1, c2, c3, c4


def growth_bounds(phi: HomogeneousFunction):
    """Certified (c1, c2, c3, c4) for the two-regime power bounds on φ."""
    return phi.growth()


def _ellipse_points(generator: GeneratorMatrix, count: int, offset: float = 0.0):
    """`count` points of the 2-D ellipse S_L at equally spaced angles from
    -π + offset."""
    ang = np.linspace(-math.pi, math.pi, count, endpoint=False) + offset
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return dirs / np.sqrt(generator.lyapunov_radius(dirs))[:, None]


def _mollify_periodic(values: np.ndarray, width: float) -> np.ndarray:
    """Circular Gaussian smoothing of uniformly spaced periodic samples."""
    n = values.size
    freq = np.fft.rfftfreq(n, d=1.0 / n)  # integer frequencies
    damp = np.exp(-0.5 * (freq * width) ** 2)
    return np.fft.irfft(np.fft.rfft(values) * damp, n=n)


def sandwich_smooth(phi: HomogeneousFunction, epsilon: float):
    """Smooth homogeneous ψ1 <= φ <= ψ2 with (1-ε)φ <= ψ1 and ψ2 <= (1+ε)φ.

    Smooth built-in variants take the scaling shortcut ψ = (1 ∓ ε/2)φ.  Profiles
    are mollified on the ellipsoid: the profile samples are smoothed with a
    circular Gaussian whose width shrinks until the distortion fits inside ε,
    then scaled down/up to sit on the correct side of φ.
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    if not isinstance(phi, Profile) or phi.dim != 2:
        # interpolated profiles in higher dimension carry no sharper regularity
        # statement than φ itself; scaling is the admissible fallback
        return phi.scale(1.0 - 0.5 * epsilon), phi.scale(1.0 + 0.5 * epsilon)

    gen = phi.generator
    pts = _ellipse_points(gen, 512)
    f = phi.profile_values(pts)
    # The ratio φ/ψ is constant along flow rays, so a dense probe of the
    # ellipsoid bounds it everywhere.
    probe = _ellipse_points(gen, 8192, offset=1e-4)
    f_probe = phi.profile_values(probe)

    width = 16.0
    for _ in range(12):
        smooth = _mollify_periodic(f, width)
        if np.min(smooth) <= 0.0:
            width *= 0.5
            continue
        cand = Profile(gen, pts, smooth)
        ratio = f_probe / cand.profile_values(probe)
        m_lo, m_hi = float(np.min(ratio)), float(np.max(ratio))
        if m_lo > 0.0 and m_lo >= (1.0 - 0.75 * epsilon) * m_hi:
            pad = 1e-6
            lower = Profile(gen, pts, smooth * (m_lo * (1.0 - pad)))
            upper = Profile(gen, pts, smooth * (m_hi * (1.0 + pad)))
            r_lo = lower.profile_values(probe) / f_probe
            r_hi = upper.profile_values(probe) / f_probe
            ok = (
                np.max(r_lo) <= 1.0
                and np.min(r_lo) >= 1.0 - epsilon
                and np.min(r_hi) >= 1.0
                and np.max(r_hi) <= 1.0 + epsilon
            )
            if ok:
                return lower, upper
        width *= 0.5
    raise DomainError(
        "profile is too rough to sandwich at this epsilon; increase epsilon"
    )
