"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: alternating-series acceleration for
the classical zeta and beta functions, raw lattice enumeration for counts
and sums.  The point is independence from the package internals, not speed.
"""

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _chebyshev_weights(n: int) -> tuple:
    """The d_k acceleration weights for alternating Dirichlet series."""
    d = []
    acc = 0
    for j in range(n + 1):
        acc += (
            math.factorial(n + j - 1) * 4**j
            // (math.factorial(n - j) * math.factorial(2 * j))
        )
        d.append(n * acc)
    return tuple(d)


def _accelerated_alternating(term, n: int = 48) -> complex:
    """sum_{k>=0} (-1)^k term(k), accelerated; term(k) must be a moment
    sequence of a positive measure on [0,1], which k^{-s} powers are."""
    d = _chebyshev_weights(n)
    total = 0.0 + 0.0j
    for k in range(n):
        total += (-1) ** k * (d[k] - d[n]) * term(k)
    return -total / d[n]


def riemann_zeta(s, n: int = 48) -> complex:
    """Riemann zeta by eta-function acceleration plus reflection."""
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise ValueError("pole at s = 1")
    if s.real < 0.5:
        # reflect into the well-conditioned half plane
        reflected = riemann_zeta(1.0 - s, n)
        pref = (
            2.0**s
            * math.pi ** (s - 1.0)
            * np.sin(np.pi * s / 2.0)
            * complex(_gamma(1.0 - s))
        )
        return pref * reflected
    eta = _accelerated_alternating(lambda k: (k + 1.0) ** (-s), n)
    return eta / (1.0 - 2.0 ** (1.0 - s))


def dirichlet_beta(s, n: int = 48) -> complex:
    """beta(s) = sum (-1)^k (2k+1)^{-s}, accelerated."""
    s = complex(s)
    return _accelerated_alternating(lambda k: (2.0 * k + 1.0) ** (-s), n)


def _gamma(z: complex) -> complex:
    z = complex(z)
    if z.imag == 0.0 and z.real > 0.0:
        return complex(math.gamma(z.real))
    from scipy.special import gamma as sp_gamma

    return complex(sp_gamma(z))


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


def sorted_logs_full_box(phi, t_max: float, head_cap: float = 1.0e4):
    """Sorted log φ below t_max over the whole nonzero box of {φ < t_max}.

    Returns (head, tail): float64 logs below head_cap, float32 logs above.
    """
    vals = phi.evaluate_many(box_points(phi.lattice_box(t_max)))
    vals = vals[vals < t_max]
    low = vals < head_cap
    return np.sort(np.log(vals[low])), np.sort(np.log(vals[~low]).astype(np.float32))


def _bump_ramp(x: np.ndarray) -> np.ndarray:
    """exp(-1/x) / (exp(-1/x) + exp(-1/(1-x))) on (0, 1), 0 below, 1 above."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    out = np.where(x >= 1.0, 1.0, 0.0)
    inner = (x > 0.0) & (x < 1.0)
    a = np.exp(-1.0 / x[inner])
    b = np.exp(-1.0 / (1.0 - x[inner]))
    out[inner] = a / (a + b)
    return out


def windowed_sums(s: complex, head, tail, t_lows) -> np.ndarray:
    """Σ φ^{-s} (1 - η(φ/t_j)) per cutoff t_j, one window at a time.

    The direct estimator's windowed series summed the plain way: the full
    series below min(t_lows)/2, then for each window its own slice of the
    tail from there to t_j, weighted by one minus the bump ramp η.
    """
    s = complex(s)
    shared = float(np.min(t_lows)) / 2.0
    shared_idx = int(np.searchsorted(tail, np.float32(math.log(shared))))
    base = complex(np.sum(np.exp(-s * head)))
    base += complex(np.sum(np.exp(-s * tail[:shared_idx].astype(float))))
    out = []
    for t_j in t_lows:
        log_tj = math.log(t_j)
        hi = int(np.searchsorted(tail, np.float32(log_tj)))
        seg = tail[shared_idx:hi].astype(float)
        weights = 1.0 - _bump_ramp((np.exp(seg - log_tj) - 0.5) / 0.5)
        out.append(base + complex(np.sum(np.exp(-s * seg) * weights)))
    return np.asarray(out)
