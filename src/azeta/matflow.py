"""Matrix scaling flows.

A "generator" here is a real square matrix A whose eigenvalues all have positive real
part.  It induces the one-parameter flow

    t^A := exp((log t) A),    t > 0,

which scales volumes by t^(trace A) and admits generalized polar coordinates: every
x != 0 is uniquely t^A xbar with xbar on the ellipsoid S_L = {q_L = 1} of the Lyapunov
quadratic form q_L(u) = <L u, u>, where L solves  Aᵀ L + L A = I.  Along the flow
q_L(t^{-A} x) is strictly decreasing in t (its derivative is -|t^{-A}x|^2 / t), which
makes the polar radius a bracketed root-finding problem with a clean Newton step.

Flow certificates: constants c1 <= 1 <= c2 with

    c1 t^gamma |x| <= |t^A x| <= c2 t^beta |x|    (t >= 1)
    c1 t^beta  |x| <= |t^A x| <= c2 t^gamma |x|    (0 < t <= 1)

by proof, not by sampling.  For a diagonalizable A = V D V^{-1}, gamma and beta
are the extreme real parts of the spectrum and c2 = 1/c1 = κ(V), since
t^A = V t^D V^{-1} and |t^D| is t^beta for t >= 1 and t^gamma for t <= 1; a
diagonal A has c1 = c2 = 1.  A defective A has its exponents widened by
`_MARGIN`, so that beta I - A and A - gamma I have spectra in Re > 0 and
Lyapunov forms L_beta and L_gamma (`solve_lyapunov`).  Along x(s) = e^{sA} x,

    d/ds <L_beta x, x>  = 2 beta <L_beta x, x> - |x|^2   <= 2 beta <L_beta x, x>
    d/ds <L_gamma x, x> = 2 gamma <L_gamma x, x> + |x|^2 >= 2 gamma <L_gamma x, x>

so L_beta bounds the t^beta sides and L_gamma the t^gamma sides, and both
regimes hold with c2 = 1/c1 = max(sqrt(cond L_beta), sqrt(cond L_gamma)).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError

from .errors import (
    DegenerateSystemError,
    DomainError,
    NotPositiveSpectrumError,
)

__all__ = [
    "GeneratorMatrix",
    "solve_lyapunov",
    "polar_decompose",
]

_EIGVEC_COND_LIMIT = 1e6
# exponent widening for defective generators, and the residual at which
# polar_many's Newton iteration stops
_MARGIN = 0.05
_POLAR_TOL = 1e-13
_CERT_SEED = 0x5EED_A2E7A


def _rng(salt: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_CERT_SEED + salt))


def solve_lyapunov(matrix: np.ndarray) -> np.ndarray:
    """Solve Aᵀ L + L A = I for symmetric positive definite L.

    Solvability plus positive definiteness is equivalent to every eigenvalue of A
    having positive real part; a Cholesky factorization of the result is the check.
    The equation is solved in Kronecker form, (Aᵀ ⊗ I + I ⊗ Aᵀ) vec L = vec I,
    an n² × n² linear system.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    eye = np.eye(n)
    try:
        vec = np.linalg.solve(np.kron(a.T, eye) + np.kron(eye, a.T), eye.ravel())
    except (LinAlgError, ValueError) as exc:
        raise DegenerateSystemError(f"Lyapunov system is singular: {exc}") from exc
    lyap = vec.reshape(n, n)
    lyap = 0.5 * (lyap + lyap.T)
    residual = a.T @ lyap + lyap @ a - eye
    scale = 1.0 + float(np.linalg.norm(lyap))
    if not np.all(np.isfinite(lyap)) or np.linalg.norm(residual) > 1e-9 * scale:
        raise DegenerateSystemError("Lyapunov residual too large; system near-singular")
    try:
        np.linalg.cholesky(lyap)
    except LinAlgError as exc:
        raise NotPositiveSpectrumError(
            "Lyapunov solution is not positive definite; "
            "some eigenvalue of the generator has nonpositive real part"
        ) from exc
    return lyap


def _spectral_certificate(entries: np.ndarray):
    eigvals, eigvecs = np.linalg.eig(entries)
    min_re = float(np.min(eigvals.real))
    max_re = float(np.max(eigvals.real))
    if min_re <= 0.0:
        raise NotPositiveSpectrumError(
            f"generator eigenvalue with real part {min_re:g} <= 0"
        )
    cond = float(np.linalg.cond(eigvecs))
    diagonalizable = np.isfinite(cond) and cond < _EIGVEC_COND_LIMIT
    if diagonalizable:
        eig = (eigvals, eigvecs, np.linalg.inv(eigvecs))
        return min_re, max_re, 1.0 / cond, cond, eig
    # A Jordan block contributes polynomial-in-log factors; absorb them into
    # slightly widened exponents, which makes both shifted systems regular.
    gamma, beta = max(min_re - _MARGIN, 0.5 * min_re), max_re + _MARGIN
    eye = np.eye(entries.shape[0])
    kappa = math.sqrt(max(np.linalg.cond(solve_lyapunov(beta * eye - entries)),
                          np.linalg.cond(solve_lyapunov(entries - gamma * eye))))
    return gamma, beta, 1.0 / kappa, kappa, None


class GeneratorMatrix:
    """A matrix with positive-real-part spectrum plus its certified flow data.

    Attributes
    ----------
    dim : int
    entries : (dim, dim) read-only array
    alpha : trace of the matrix (volume scaling exponent of the flow)
    gamma, beta : certified flow exponents (widened by `_MARGIN` only if defective)
    c1, c2 : proved flow constants, see the module docstring (1 when diagonal)
    defective : True when the eigenvectors are too ill-conditioned to use
    lyapunov : symmetric positive definite L with Aᵀ L + L A = I
    """

    def __init__(self, matrix):
        entries = np.array(matrix, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise DomainError("generator entries must be finite")
        self.dim = int(entries.shape[0])
        gamma, beta, c1, c2, eig = _spectral_certificate(entries)
        self.entries = entries
        self.entries.setflags(write=False)
        self.alpha = float(np.trace(entries))
        self.gamma = float(gamma)
        self.beta = float(beta)
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.defective = eig is None
        self.lyapunov = solve_lyapunov(entries)
        self.lyapunov.setflags(write=False)
        self._eigvals, self._eigvecs, self._eigvecs_inv = eig or (None, None, None)
        self.is_diagonal = bool(
            np.allclose(entries, np.diag(np.diag(entries)), atol=0.0)
        )
        self._transpose = None

    # -- basic protocol ---------------------------------------------------

    def __repr__(self):
        return (
            f"GeneratorMatrix(dim={self.dim}, alpha={self.alpha:.6g}, "
            f"gamma={self.gamma:.6g}, beta={self.beta:.6g})"
        )

    def flow(self, t: float) -> np.ndarray:
        """The matrix t^A = exp((log t) A)."""
        if not (np.isreal(t) and float(t) > 0.0):
            raise DomainError(f"flow parameter must be positive real, got {t!r}")
        t = float(t)
        if self.is_diagonal:
            return np.diag(np.power(t, np.diag(self.entries)))
        if self.defective:
            from scipy.linalg import expm  # defective generators only

            return expm(np.log(t) * self.entries)
        powered = self._eigvecs * np.exp(self._eigvals * np.log(t))[None, :]
        return np.real(powered @ self._eigvecs_inv)

    def apply_flow(self, t: float, points: np.ndarray) -> np.ndarray:
        """Map each row x of `points` to t^A x."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.is_diagonal:
            return points * np.power(float(t), np.diag(self.entries))[None, :]
        return points @ self.flow(t).T

    def transpose(self) -> "GeneratorMatrix":
        """Generator for Aᵀ (same spectrum, its own Lyapunov form); cached."""
        if self._transpose is None:
            self._transpose = GeneratorMatrix(self.entries.T)
        return self._transpose

    def sphere_points(self, count: int, seed: int = 7) -> np.ndarray:
        """Quasi-random points on S_L = {<Lx, x> = 1} (rows)."""
        rng = _rng(seed)
        z = rng.normal(size=(count, self.dim))
        q = np.einsum("ij,jk,ik->i", z, self.lyapunov, z)
        return z / np.sqrt(q)[:, None]

    def lyapunov_radius(self, points: np.ndarray) -> np.ndarray:
        """q_L(x) = <L x, x> for each row x."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.einsum("ij,jk,ik->i", points, self.lyapunov, points)

    # -- vectorized polar coordinates (internal workhorse) -----------------

    def polar_many(self, points: np.ndarray):
        """Polar radii and directions for many points at once.

        Newton iteration on h(t) = q_L(t^{-A} x) - 1, whose derivative is
        -|t^{-A}x|^2/t; falls back to the scalar bisection path for stragglers.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        m = points.shape[0]
        norms = np.linalg.norm(points, axis=1)
        if np.any(norms == 0.0) or not np.all(np.isfinite(points)):
            raise DomainError("polar decomposition needs finite nonzero points")

        if self.is_diagonal:
            diag = np.diag(self.entries)

            def pullback(t):
                return points * np.power(t[:, None], -diag[None, :])

        elif not self.defective:
            vinv_x = self._eigvecs_inv @ points.T  # (n, m) complex

            def pullback(t):
                scale = np.exp(-np.log(t)[None, :] * self._eigvals[:, None])
                return np.real(self._eigvecs @ (scale * vinv_x)).T

        else:  # defective: the flow's own expm route

            def pullback(t):
                return np.vstack(
                    [point @ self.flow(1.0 / ti).T for point, ti in zip(points, t)]
                )

        # Initial guess from the pure-scaling picture q(x)^(1/(2*mean exponent)).
        q0 = self.lyapunov_radius(points)
        t = np.power(q0, self.dim / (2.0 * self.alpha))
        t = np.clip(t, 1e-12, 1e12)
        converged = np.zeros(m, dtype=bool)
        for _ in range(60):
            u = pullback(t)
            q = np.einsum("ij,jk,ik->i", u, self.lyapunov, u)
            h = q - 1.0
            converged = np.abs(h) <= _POLAR_TOL
            if np.all(converged):
                break
            uu = np.einsum("ij,ij->i", u, u)
            step = t * h / np.maximum(uu, 1e-300)
            # Damp wild steps; h is monotone so the direction is always right.
            step = np.clip(step, -0.5 * t, 2.0 * t)
            t = np.where(converged, t, t + step)
        if not np.all(converged):
            for i in np.nonzero(~converged)[0]:
                t[i], _ = polar_decompose(self, points[i])
            u = pullback(t)
        return t, u


def polar_decompose(generator: GeneratorMatrix, point: np.ndarray):
    """Unique (t, xbar) with x = t^A xbar and xbar on S_L.

    Bisection brackets the root of h(t) = q_L(t^{-A}x) - 1 (strictly decreasing,
    +inf at 0+, -> -1 at +inf), then a few Newton steps polish it to |h| <= 1e-12.
    """
    x = np.asarray(point, dtype=float).reshape(-1)
    if x.shape[0] != generator.dim:
        raise DomainError(
            f"point has dimension {x.shape[0]}, generator has {generator.dim}"
        )
    if not np.all(np.isfinite(x)) or np.linalg.norm(x) == 0.0:
        raise DomainError("polar decomposition needs a finite nonzero point")

    def h_at(t):
        u = generator.apply_flow(1.0 / t, x[None, :])[0]
        q = float(u @ generator.lyapunov @ u)
        return q - 1.0, u

    t_lo = t_hi = max(float(np.linalg.norm(x)), 1e-12)
    h_val, _ = h_at(t_lo)
    if h_val > 0.0:
        while True:
            t_hi *= 2.0
            h_val, _ = h_at(t_hi)
            if h_val <= 0.0:
                break
            if t_hi > 1e200:
                raise DegenerateSystemError("polar bracketing ran away upward")
    else:
        while True:
            t_lo *= 0.5
            h_val, _ = h_at(t_lo)
            if h_val >= 0.0:
                break
            if t_lo < 1e-200:
                raise DegenerateSystemError("polar bracketing ran away downward")

    while t_hi - t_lo > 1e-8 * max(1.0, t_lo):
        mid = 0.5 * (t_lo + t_hi)
        h_val, _ = h_at(mid)
        if h_val > 0.0:
            t_lo = mid
        else:
            t_hi = mid

    t = 0.5 * (t_lo + t_hi)
    for _ in range(5):
        h_val, u = h_at(t)
        if abs(h_val) <= 1e-12:
            break
        t += t * h_val / max(float(u @ u), 1e-300)
    h_val, u = h_at(t)
    if abs(h_val) > 1e-12:
        raise DegenerateSystemError(
            f"polar Newton stalled at residual {abs(h_val):.3e}"
        )
    return float(t), u
