"""Gamma, digamma, Bernoulli numbers and the lattice shell-tail bounds.

The gamma evaluation is a Lanczos approximation (g = 7, 9 coefficients) with the
reflection formula for Re z < 1/2.  Its relative error grows with |z|: for
Re z >= 1/2 `gamma_rel_error` bounds it, 64 ulps times 1 + |z|.  The test suite
checks real values to 1e-13 against an independent reference implementation.
Lattice sums run over sup-norm shells: `exp_shell_tail` and `power_shell_tail`
bound the shells a sum leaves out, over their exact counts, and `first_shell`
finds the first shell whose tail meets a target.  `exp_shell_tails` is the
array form of `exp_shell_tail`, for a kernel's tails at many flow times at
once (`Kernel.shell_tail`); each search, θ's or a θ* table's, is one scalar
`first_shell`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = ["gamma", "gamma_rel_error", "digamma",
           "bernoulli_numbers", "gamma_tail_factor", "exp_shell_tail",
           "exp_shell_tails", "power_shell_tail", "first_shell"]

# Classic g=7 Lanczos coefficient set (double precision).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _lanczos_right_half(z: complex) -> complex:
    # Valid for Re z >= 0.5.  Standard Lanczos sum followed by the shifted power.
    z = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += coeff / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * cmath.exp(-t) * acc


def gamma(z: complex) -> complex:
    """Gamma function for complex argument.

    Poles at nonpositive integers raise a domain error rather than returning inf,
    since every caller in this package treats a pole hit as a usage bug.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise DomainError(f"gamma pole at z = {z.real:g}")
    if z.real >= 0.5:
        out = _lanczos_right_half(z)
    else:
        # Reflection: gamma(z) gamma(1-z) = pi / sin(pi z).
        out = math.pi / (cmath.sin(math.pi * z) * _lanczos_right_half(1.0 - z))
    if z.imag == 0.0:
        return complex(out.real, 0.0)
    return out


def gamma_rel_error(z: complex) -> float:
    """Relative accuracy of `gamma(z)` for Re z >= 1/2: 64 ulps times 1 + |z|.

    The Lanczos sum and the power t^(z+1/2) lose digits in proportion to |z|.
    Against 40-digit mpmath, 8,000 random points with Re z in [0.5, 20] and
    |Im z| <= 34 stay below 36 ulps times 1 + |z|.
    """
    return 64.0 * 2.0**-52 * (1.0 + abs(z))


def digamma(x: float) -> float:
    """ψ(x) = Γ'(x)/Γ(x) for real x >= 2.

    The recurrence ψ(x) = ψ(x+1) - 1/x lifts x to at least 10, where the
    asymptotic series ln x - 1/(2x) - Σ_k B_2k / (2k x^2k) with eight terms
    leaves a remainder below B_18 / (18 x^18) < 1e-17.
    """
    x = float(x)
    if not x >= 2.0:
        raise DomainError(f"digamma needs real x >= 2, got {x}")
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    b2k = bernoulli_numbers(16)[2::2]  # B_2 .. B_16
    inv2 = 1.0 / (x * x)
    series = 0.0
    for k in range(8, 0, -1):
        series = inv2 * (float(b2k[k - 1]) / (2 * k) + series)
    return math.log(x) - 0.5 / x - series - shift


def bernoulli_numbers(count: int) -> list[Fraction]:
    """Exact Bernoulli numbers B_0 .. B_count (B_1 = -1/2 convention).

    Uses the defining recursion sum_{j=0}^{m} C(m+1, j) B_j = 0, in exact rational
    arithmetic.
    """
    if count < 0:
        raise DomainError("count must be >= 0")
    values = [Fraction(1)]
    for m in range(1, count + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * values[j]
        values.append(-acc / (m + 1))
    return values


def gamma_tail_factor(s: float, x: float) -> float:
    """h = max(1, x/(x-s+1)) with Γ(s, x) <= h x^{s-1} e^{-x} for x > max(0, s-1),
    since (1 + u)^{s-1} <= max(1, e^{(s-1)u}) in Γ(s, x) = x^s e^{-x} ∫_0^∞
    (1 + u)^{s-1} e^{-xu} du; +inf elsewhere."""
    if not x > max(0.0, s - 1.0):
        return math.inf
    return max(1.0, x / (x - s + 1.0))


def _shell_count_terms(dim: int):
    """(k, coef) with N_j = (2j+1)^n - (2j-1)^n = Σ coef j^k for n = dim."""
    return [(k, 2 * math.comb(dim, k) * 2**k) for k in range(dim - 1, -1, -2)]


def exp_shell_tail(dim: int, m: int, a: float, p: float, c: float = 0.0) -> float:
    """Bound on Σ_{j>=m} N_j (a j^p)^c e^{-a j^p} over the shells of Z^dim.

    Once x = a m^p >= (n-1)/p + c, each j^k (a j^p)^c e^{-a j^p} (k < n)
    decreases on [m, ∞), so the sum is at most its term at m plus the integral
    Σ_k (coef_k/p) a^{-(k+1)/p} Γ((k+1)/p + c, x), each term of which is
    (coef_k/p) (m^{k+1}/x) h x^c e^{-x} with h from `gamma_tail_factor`.
    Before that point the bound is +inf.
    """
    x = a * m**p
    if not (x > 0.0 and x >= (dim - 1) / p + c):
        return math.inf
    total = (2 * m + 1) ** dim - (2 * m - 1) ** dim
    for k, coef in _shell_count_terms(dim):
        total += coef / p * m ** (k + 1) / x * gamma_tail_factor((k + 1) / p + c, x)
    return total * math.exp(c * math.log(x) - x)


def exp_shell_tails(dim: int, m, a, p: float, c: float = 0.0) -> np.ndarray:
    """`exp_shell_tail` over arrays of m and a (broadcast together), in the
    same arithmetic done by numpy, whose exp and pow may differ from the
    scalar form's in the last bit."""
    m = np.asarray(m, dtype=float)
    x = a * m**p
    total = (2.0 * m + 1.0) ** dim - (2.0 * m - 1.0) ** dim
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k, coef in _shell_count_terms(dim):
            s = (k + 1) / p + c
            factor = np.where(x > max(0.0, s - 1.0), np.maximum(1.0, x / (x - s + 1.0)), math.inf)
            total = total + coef / p * m ** (k + 1) / x * factor
        out = total * np.exp(c * np.log(x) - x)
    return np.where((x > 0.0) & (x >= (dim - 1) / p + c), out, math.inf)


def _power_sum_bound(p: float, a, b):
    """An upper bound on Σ_{j=a}^{b-1} j^{-p}, p > 1, integers 1 <= a < b <= ∞.

    j^{-p} is convex, so each j > a is at most the integral of x^{-p} over
    [j - 1/2, j + 1/2]; the first term is kept exact.  At a = 1 the bound is
    within about 2% of the sum for p >= 1.5, and tighter for larger a.
    """
    return a ** -p + ((a + 0.5) ** (1.0 - p) - (b - 0.5) ** (1.0 - p)) / (p - 1.0)


def power_shell_tail(dim: int, m: int, q: float) -> float:
    """Bound on Σ_{j>=m} N_j j^{-q} over the shells of Z^dim; +inf for q <= dim."""
    if not q > dim:
        return math.inf
    return sum(coef * _power_sum_bound(q - k, m, math.inf)
               for k, coef in _shell_count_terms(dim))


def first_shell(meets, limit: int):
    """The first m in 1..limit with meets(m), or None; meets must stay true
    once true.  Doubling brackets the first m and bisection finds it."""
    lo, hi = 0, 1
    while not meets(hi):
        if hi >= limit:
            return None
        lo, hi = hi, min(2 * hi, limit)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    return hi
