"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: mpmath for the classical zeta, beta
and gamma functions, raw lattice enumeration for counts and sums.  The point
is independence from the package internals, not speed.
"""

import math

import mpmath
import numpy as np


def _mp(z):
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def riemann_zeta(s) -> complex:
    """Riemann zeta, from mpmath at 30 digits."""
    with mpmath.workdps(30):
        return complex(mpmath.zeta(_mp(s)))


def dirichlet_beta_mp(s):
    """beta(s) = sum (-1)^k (2k+1)^{-s} = 4^{-s} (ζ(s, 1/4) - ζ(s, 3/4)) at
    the working precision: mpmath's L-function of the character mod 4 sums
    those Hurwitz zetas, and steps off s = 1, where each has its pole."""
    return mpmath.dirichlet(s, [0, 1, 0, -1])


def dirichlet_beta(s) -> complex:
    """Dirichlet beta, from mpmath at 30 digits."""
    with mpmath.workdps(30):
        return complex(dirichlet_beta_mp(_mp(s)))


def _gamma(z) -> complex:
    with mpmath.workdps(30):
        return complex(mpmath.gamma(_mp(z)))


def box_points(box) -> np.ndarray:
    """All integer vectors of the box prod [-B_i, B_i], origin excluded."""
    axes = [np.arange(-int(b), int(b) + 1) for b in box]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    return grid[np.any(grid != 0, axis=1)].astype(float)


def lattice_points(dim: int, box: int) -> np.ndarray:
    """All integer vectors with sup norm <= box, origin excluded."""
    return box_points([box] * dim)


def brute_zeta_sum(phi_values: np.ndarray, s: complex) -> complex:
    """sum phi(omega)^{-s} over precomputed nonzero-lattice values."""
    return complex(np.sum(phi_values.astype(complex) ** (-complex(s))))


def brute_count(phi_values: np.ndarray, r: float) -> int:
    """#{phi(omega) < r} over precomputed values, origin added back."""
    return 1 + int(np.count_nonzero(phi_values < r))


def theta3_sum(w: float, terms: int = 200) -> float:
    """Jacobi theta sum 1 + 2 sum e^{-k^2 w}, truncated far into the tail."""
    ks = np.arange(1, terms + 1, dtype=float)
    return 1.0 + 2.0 * float(np.sum(np.exp(-(ks**2) * w)))


def bernoulli_exact(count: int) -> list:
    """B_0..B_count as Fractions via the defining recursion."""
    from fractions import Fraction
    from math import comb

    out = [Fraction(1)]
    for m in range(1, count + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * out[j]
        out.append(-acc / (m + 1))
    return out


def full_box_values(phi, t_max: float) -> np.ndarray:
    """Sorted φ below t_max over the whole nonzero box of {φ < t_max}."""
    vals = phi.evaluate_many(box_points(phi.lattice_box(t_max)))
    return np.sort(vals[vals < t_max])


def _bump_ramp(x: np.ndarray) -> np.ndarray:
    """exp(-1/x) / (exp(-1/x) + exp(-1/(1-x))) on (0, 1), 0 below, 1 above."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    out = np.where(x >= 1.0, 1.0, 0.0)
    inner = (x > 0.0) & (x < 1.0)
    a = np.exp(-1.0 / x[inner])
    b = np.exp(-1.0 / (1.0 - x[inner]))
    out[inner] = a / (a + b)
    return out


def windowed_sums(s: complex, logs: np.ndarray, t_lows) -> tuple:
    """Σ φ^{-s} (1 - η(φ/t_j)) per cutoff t_j, one window at a time.

    The direct estimator's windowed series summed the plain way from float64
    logs: every term e^{-sλ} times one minus the bump ramp η (weight 1 below
    t_j/2), added by `math.fsum`.  Returns (sums, allowance): allowance[j]
    bounds the rounding of the window's terms, (|s λ| + 6) 2^-52 of each.
    """
    s = complex(s)
    terms = np.exp(-s * logs)
    sums, allowance = [], []
    for t_j in t_lows:
        log_tj = math.log(t_j)
        inside = logs < log_tj
        lam = logs[inside]
        part = terms[inside] * (1.0 - _bump_ramp((np.exp(lam - log_tj) - 0.5) / 0.5))
        sums.append(complex(math.fsum(part.real.tolist()), math.fsum(part.imag.tolist())))
        allowance.append(2.0**-52 * float(np.sum(np.abs(part) * (abs(s) * np.abs(lam) + 6.0))))
    return np.asarray(sums), np.asarray(allowance)
