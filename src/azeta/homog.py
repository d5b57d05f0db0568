"""Anisotropically homogeneous distance functions.

A function φ: R^n -> [0, ∞) here is continuous, positive away from the origin, and
scales as φ(t^A x) = t φ(x) along the flow of a generator matrix A (positive-real-part
spectrum).  The sublevel set B(r) = {φ < r} then has volume r^alpha |B(1)| with
alpha = trace A, and x lies in B(r) exactly when r^{-A} x lies in B(1).

Every lattice tail and box rests on one lower growth bound,

    φ(x) >= c3 |x|^(1/beta)  for |x| >= 1,

with beta the certified upper flow exponent of the generator; c3 is
sampled, with a safety factor, and validated on fresh directions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InternalInvariantError
from .lattice import box_size, grid_rows, half_box_slabs, orthant_slabs
from .matflow import _POLAR_TOL, GeneratorMatrix, quadratic_rows

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
    "sandwich_smooth",
]

_GROWTH_SEED = 0x5EED_60441
# rows per slab of `_lattice_values`: its temporaries stay in cache, and the
# orthant walk's moment-table build on the superellipse at box_budget 1e7
# peaked at 43 MB RSS with 2^15 rows, at 132 MB with 1 M rows (x86-64 Linux,
# glibc malloc)
_WALK_ROWS = 1 << 15
# rows per slab where the walk evaluates rows (`evaluate_many`): the rows and
# φ's temporaries are several arrays of the slab's size, and at 2^15 a θ sum
# of 1.7e4-4.5e4 rows grew the heap by 50-290 page faults a call, as many as
# the heap's history left room for; at 2^13 none (same platform)
_WALK_EVAL_ROWS = 1 << 13


class HomogeneousFunction:
    """Base class; concrete variants implement `evaluate_many`."""

    label = "homogeneous"
    #: kernel exponents are rounded up to a multiple of this to keep φ^c as
    #: smooth as the variant allows (helps the decay of its Fourier transform)
    smooth_step = 1
    #: φ(-x) == φ(x) bit for bit, so a lattice sum may walk half the box;
    #: variants whose arithmetic is sign-symmetric set it
    is_even = False
    #: φ is nondecreasing in each |x_i|, so `_lattice_values` and
    #: `kernel.fourier_transform` take one orthant and
    #: `volume.lattice_count` counts by column heights
    coordinate_monotone = False
    #: relative error of φ's values beyond a few ulps: 0 for a closed form
    value_error = 0.0

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

    def growth(self) -> float:
        """c3 of φ(x) >= c3 |x|^(1/β) for |x| >= 1 (`_certify_growth`); cached."""
        if self._growth is None:
            self._growth = _certify_growth(self)
        return self._growth

    def lattice_minimum(self) -> float:
        """min φ(ω) over nonzero integer vectors; cached.

        Finite search: once a candidate value v is in hand, any ω with
        c3 |ω|^(1/beta) >= v is excluded, so only a box remains.  Both
        minima are taken over `_lattice_values`, whose order they ignore.
        """
        def least(box):
            return min(float(np.min(v)) for v, _ in _lattice_values(self, box) if v.size)

        if self._lattice_min is None:
            best = least(np.ones(self.dim, dtype=int))
            box = HomogeneousFunction.lattice_box(self, best)
            if box_size(box) > 4e6:
                raise InternalInvariantError(
                    "lattice minimum search box is implausibly large"
                )
            self._lattice_min = least(box)
        return self._lattice_min

    def lattice_box(self, r: float) -> np.ndarray:
        """Per-axis integer bounds B with {φ < r} inside prod [-B_i, B_i].

        Generic route via the certified lower growth bound; variants override
        with exact boxes where the shape makes one obvious.
        """
        radius = max(1.0, (float(r) / self.growth()) ** self.generator.beta)
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
        self.coordinate_monotone = bool(np.all(q == np.diag(np.diag(q))))
        self.integer_valued = bool(np.all(q == np.round(q)))
        self._q_weight = float(np.abs(q).sum())
        self._q_int64 = q.astype(np.int64) if self._q_weight < 2.0**62 else None

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return quadratic_rows(pts, self.q_matrix)

    def evaluate_grid(self, axes) -> np.ndarray:
        if not self.coordinate_monotone:
            return super().evaluate_grid(axes)
        # `quadratic_rows`' products (x_i Q_ii) x_i, added in axis order
        axes = [np.asarray(a, dtype=float) for a in axes]
        return _grid_sum([(a * q) * a for a, q in zip(axes, np.diag(self.q_matrix))])

    def lattice_box(self, r: float) -> np.ndarray:
        # φ(x) < r forces x_i^2 <= r (Q^{-1})_{ii}.
        return np.asarray(
            [int(math.ceil(math.sqrt(max(r, 0.0) * d))) for d in self._q_inv_diag],
            dtype=int,
        )

    def strictly_below(self, points: np.ndarray, r: float) -> np.ndarray:
        """Row mask of φ(row) < r, strict.  An integer form decides a block
        of integer rows exactly: in int64 against ceil(r) while max|x|^2
        Σ|Q_jk| < 2^62 (which bounds every partial sum) and r is finite,
        else in Python integers.  Other blocks compare φ's float values."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not (self.integer_valued and np.all(pts == np.round(pts))):
            return super().strictly_below(pts, r)
        # initial=1.0 keeps a form with no `_q_int64` off the int64 route
        reach = np.max(np.abs(pts), initial=1.0) ** 2 * self._q_weight
        if reach < 2.0**62 and math.isfinite(r):
            # an integer v is below r exactly when it is below ceil(r)
            return quadratic_rows(pts.astype(np.int64), self._q_int64) < math.ceil(r)
        exact = np.frompyfunc(int, 1, 1)  # Python ints compare with r exactly
        return quadratic_rows(exact(pts), exact(self.q_matrix)) < r


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
        self.exponents = np.asarray(sorted(terms), dtype=float)
        self.coefficients = np.asarray([terms[tuple(int(v) for v in e)] for e in self.exponents.astype(int)], dtype=float)
        self.coordinate_monotone = bool(
            np.all(self.coefficients >= 0.0) and np.all(self.exponents % 2 == 0))
        sample = self.generator.sphere_points(4096)
        certificate = float(np.min(self.evaluate_many(sample)))
        if certificate <= 0.0:
            raise DomainError(
                f"polynomial is not positive on the unit ellipsoid "
                f"(sampled minimum {certificate:.3e})"
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
    coordinate_monotone = True

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
        out = _grid_power_sum(axes, np.full(self.dim, self.p))
        out **= 1.0 / self.p  # in place, as `**` would
        return out

    def lattice_box(self, r: float) -> np.ndarray:
        return np.full(self.dim, int(math.ceil(max(1.0, r))), dtype=int)


class AnisotropicSuperellipse(HomogeneousFunction):
    """φ(x) = (sum |x_i|^{m_i})^(1/q) with generator diag(q/m_1, ..., q/m_n).

    The diagonal entries are forced by the homogeneity identity
    φ(t^A x) = t φ(x): t^A scales x_i by t^{q/m_i}, so |x_i|^{m_i} by t^q.
    """

    label = "superellipse"
    is_even = True
    coordinate_monotone = True

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

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _power_sum(pts, self.powers) ** (1.0 / self.root)

    def evaluate_grid(self, axes) -> np.ndarray:
        out = _grid_power_sum(axes, self.powers)
        out **= 1.0 / self.root  # in place, as `**` would
        return out

    def lattice_box(self, r: float) -> np.ndarray:
        # |x_i|^{m_i} < r^q on the sublevel set.
        r = max(float(r), 0.0)
        return np.asarray(
            [int(math.ceil(max(1.0, r ** (self.root / m)))) for m in self.powers],
            dtype=int,
        )

    def strictly_below(self, points: np.ndarray, r: float) -> np.ndarray:
        # Compare sum |x_i|^{m_i} < r^q; monotone in φ so strictness carries over,
        # and it avoids the 1/q root near the boundary.  Integer powers are
        # formed by repeated squaring, a few ulps from pow.  Powers like x^18
        # outgrow the 53-bit mantissa, so integer rows landing within float
        # slop (1e-9 relative, far above those ulps) of the boundary are
        # rechecked in exact integer/rational arithmetic.
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rq = float(r) ** self.root
        powers = self.powers.tolist()
        if not (self.root.is_integer() and all(map(float.is_integer, powers))):
            return _power_sum(pts, self.powers) < rq
        vals = np.zeros(pts.shape[0])
        for i, m in enumerate(powers):
            # |x|^m = the product of |x|^(2^k) over the set bits k of m
            base, m, term = np.abs(pts[:, i]), int(m), None
            while True:
                if m & 1:
                    if term is None:
                        term = base.copy()
                    else:
                        term *= base
                m >>= 1
                if not m:
                    break
                base *= base
            vals += term
        # vals - rq < 0 exactly when vals < rq, so one difference serves both
        vals -= rq
        below = vals < 0.0
        fence = np.flatnonzero(np.abs(vals, vals) <= 1e-9 * max(rq, 1.0))
        if fence.size:
            fence = fence[np.all(pts[fence] == np.round(pts[fence]), axis=1)]
            from fractions import Fraction

            rq_exact = Fraction(float(r)) ** int(self.root)
            for i in fence:
                exact = sum(abs(int(c)) ** int(m) for c, m in zip(pts[i], powers))
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
        self.coordinate_monotone = base.coordinate_monotone
        self.value_error = base.value_error

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        return self.factor * self.base.evaluate_many(points)

    def evaluate_grid(self, axes) -> np.ndarray:
        return self.factor * self.base.evaluate_grid(axes)

    def lattice_box(self, r: float) -> np.ndarray:
        return self.base.lattice_box(float(r) / self.factor)

    def strictly_below(self, points: np.ndarray, r: float) -> np.ndarray:
        return self.base.strictly_below(points, float(r) / self.factor)


def _lattice_values(phi: HomogeneousFunction, box, grid: bool = True):
    """(φ, weight) slab by slab over the nonzero rows of the integer box;
    the weighted sums times mult (2 for an even φ, else 1) are the box's.

    The one walk of φ over a box, behind the direct series, θ and the
    lattice minimum.  A φ with `coordinate_monotone` set walks
    `lattice.orthant_slabs`, a point with 2^k sign images weighing
    2^k / 2; the origin's slab comes out empty with weight 0, as the half
    box's x_0 = 0 slab does in one dimension.  Its slabs are evaluated on
    their grids (`evaluate_grid`), or with `grid` false as rows in one
    `evaluate_many` call each, to the same bits.  Any other even φ walks
    `lattice.half_box_slabs` (weight 1), and an uneven φ the negated rows
    too.  Grid slabs hold at most `_WALK_ROWS` rows, slabs evaluated as
    rows at most `_WALK_EVAL_ROWS`.  The weights are 0 or powers of two, so
    scaling by them is exact."""
    if phi.coordinate_monotone:
        if grid:
            evaluate, cap = phi.evaluate_grid, _WALK_ROWS
        else:
            evaluate, cap = lambda axes: phi.evaluate_many(grid_rows(axes)), _WALK_EVAL_ROWS
        for axes, mirrors in orthant_slabs(box, cap):
            yield (evaluate(axes) if mirrors > 1 else np.empty(0)), mirrors // 2
        return
    for rows in half_box_slabs(box, _WALK_EVAL_ROWS):
        # 0.0 - rows keeps zero coordinates +0.0, as the full box has them
        for pts in (rows,) if phi.is_even else (rows, 0.0 - rows):
            yield phi.evaluate_many(pts), 1


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
        # `polar_many` stops at |q_L(u) - 1| <= _POLAR_TOL: t is off by ε <=
        # _POLAR_TOL λ_max(L) and u by ε A u, along which the profile's slope
        # is sampled.  Twice ε (1 + slope) covered 40-digit references on 2-D
        # flows: up to 0.39 of it, and 0.97 on a defective one.
        u, h = generator.sphere_points(512), 1e-6
        f = self.profile_values(u)
        slope = np.max(np.abs(self.profile_values(u - h * u @ generator.entries.T) - f) / f) / h
        eps = _POLAR_TOL * np.linalg.eigvalsh(generator.lyapunov)[-1]
        self.value_error = 2.0 * eps * (1.0 + slope)

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


def _point_row(phi: HomogeneousFunction, point) -> np.ndarray:
    """`point` as one finite row of φ's dimension."""
    x = np.asarray(point, dtype=float).reshape(1, -1)
    if x.shape[1] != phi.dim:
        raise DomainError(f"point has dimension {x.shape[1]}, φ has {phi.dim}")
    if not np.all(np.isfinite(x)):
        raise DomainError("point must be finite")
    return x


def evaluate(phi: HomogeneousFunction, point) -> float:
    """φ(x); exactly 0 at the origin."""
    x = _point_row(phi, point)
    return float(phi.evaluate_many(x)[0]) if np.any(x) else 0.0


def unit_ball_membership(phi: HomogeneousFunction, point, r: float = 1.0) -> bool:
    """Strict membership φ(x) < r of the open sublevel set, decided by
    `phi.strictly_below`, so exact wherever that is."""
    if not (r > 0.0):
        raise DomainError(f"sublevel radius must be positive, got {r}")
    return bool(phi.strictly_below(_point_row(phi, point), r)[0])


def _certify_growth(phi: HomogeneousFunction) -> float:
    """c3 of φ(x) >= c3 |x|^(1/β) for |x| >= 1, sampled: 0.9 times the least
    φ(r u)/r^(1/β) over 256 random unit directions u at 30 radii r in
    [1, 10^3], then lowered to 0.99 times the least over 500 fresh
    directions at the radii >= 1 of geomspace(1e-3, 1e3, 20)."""
    inv_beta = 1.0 / phi.generator.beta
    rng = np.random.Generator(np.random.Philox(_GROWTH_SEED))
    dirs = rng.normal(size=(256, phi.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    lo = np.inf
    for r in np.geomspace(1.0, 1e3, 30):
        lo = min(lo, float(np.min(phi.evaluate_many(r * dirs) / r**inv_beta)))
    c3 = 0.9 * lo

    # Validation on fresh directions; lowered on any violation.
    val_dirs = rng.normal(size=(500, phi.dim))
    val_dirs /= np.linalg.norm(val_dirs, axis=1, keepdims=True)
    radii = np.geomspace(1e-3, 1e3, 20)
    for r in radii[radii >= 1.0]:
        vals = phi.evaluate_many(r * val_dirs)
        c3 = min(c3, 0.99 * float(np.min(vals)) / r**inv_beta)
    if c3 <= 0.0:
        raise InternalInvariantError("growth certification produced a nonpositive constant")
    return c3


def _ellipse_points(generator: GeneratorMatrix, count: int):
    """`count` points of the 2-D ellipse S_L at equally spaced angles from -π."""
    ang = np.linspace(-math.pi, math.pi, count, endpoint=False)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return dirs / np.sqrt(generator.lyapunov_radius(dirs))[:, None]


def sandwich_smooth(phi: HomogeneousFunction, epsilon: float):
    """Homogeneous ψ1 <= φ <= ψ2 with (1-ε)φ <= ψ1 and ψ2 <= (1+ε)φ: the
    scalings ψ = (1 ∓ ε/2)φ, as smooth as φ itself, for every φ."""
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    return phi.scale(1.0 - 0.5 * epsilon), phi.scale(1.0 + 0.5 * epsilon)
