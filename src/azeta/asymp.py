"""Small-w asymptotics of the theta function theta(phi, iw).

Shifting the Mellin contour of theta across the poles of Gamma(s) zeta(phi, s)
turns the pole at s = alpha into the leading power Gamma(alpha+1)|B| w^{-alpha},
the pole at s = 0 into a constant that cancels exactly (zeta(phi,0) = -1 against
the contribution of the omitted lattice origin), and the Gamma poles at the
negative integers into the correction series

    theta(phi, iw) ~ Gamma(alpha+1)|B| w^{-alpha}
                     + sum_{k>=1} (-1)^k zeta(phi,-k)/k! * w^k.

There is no constant term.  The remainder after N corrections is O(|w|^{N+1-eps})
uniformly on rays |arg w| <= pi/2 - delta, which is what remainder_check
measures: it never touches the contour integral, it just fits the decay of
|theta - expansion| on a ray.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError
from .homog import HomogeneousFunction, PNorm
from .special import bernoulli_numbers, gamma, gamma_rel_error
from .theta import theta_phi
from .volume import volume_exp_integral
from .zeta import zeta_negative_integers

__all__ = [
    "theta_expansion",
    "remainder_check",
    "bernoulli_identity_check",
    "RemainderReport",
    "BernoulliReport",
]

_EPS = 2.0**-52


def _leading_constant(phi: HomogeneousFunction):
    """(Γ(α+1)|B|, its bar): the volume's bar, Γ's relative error and an
    ulp for the product.  The volume is cached on φ."""
    vol = volume_exp_integral(phi)
    z = phi.alpha + 1.0
    gam = gamma(z).real
    value = gam * vol.value
    return value, gam * vol.error + (gamma_rel_error(z) + _EPS) * abs(value)


def theta_expansion(phi: HomogeneousFunction, w: complex, n_terms: int):
    """Truncated expansion at w, with the term-by-term breakdown and bars.

    Returns (value, terms, bars); terms[0] is the leading power, terms[k]
    the k-th correction, so value = sum(terms) and extending n_terms appends
    without changing what is already there.  bars[k] carries the error of
    the constant in terms[k] (|B| or ζ(φ,-k)) and four ulps of the term for
    the power of w.
    """
    w = complex(w)
    if not (w.real > 0.0):
        raise DomainError(f"theta expansion needs Re w > 0, got {w}")
    if n_terms < 0 or n_terms != int(n_terms):
        raise DomainError(f"term count must be a nonnegative integer, got {n_terms}")
    lead, lead_error = _leading_constant(phi)
    power = w ** complex(-phi.alpha)
    terms = [lead * power]
    bars = [lead_error * abs(power)]
    for k in range(1, int(n_terms) + 1):
        z = zeta_negative_integers(phi, k)
        terms.append((-1.0) ** k * z.value / math.factorial(k) * w**k)
        bars.append(z.error / math.factorial(k) * abs(w) ** k)
    bars = [bar + 4.0 * _EPS * abs(term) for bar, term in zip(bars, terms)]
    return sum(terms), terms, bars


@dataclass(frozen=True)
class RemainderReport:
    rows: list            # (|w|, remainder magnitude)
    slope: float          # fitted log-log decay over the smallest |w|
    threshold: float      # n_terms + 1 - eps - 0.15
    passed: bool
    bars: list            # per row: theta's bar plus the expansion's term bars
    within_bars: bool     # the three fitted remainders are all inside their bars


def remainder_check(phi: HomogeneousFunction, ray_angle: float, n_terms: int,
                    eps: float, magnitudes) -> RemainderReport:
    """Measure |theta - expansion| along the ray w = |w| e^{i angle}.

    The remainder should vanish like |w|^{n_terms+1-eps} as |w| -> 0; the
    fitted slope over the three smallest magnitudes is compared against that
    power, minus slack for the constant.  When all three fitted remainders
    lie within the bars of theta and of the expansion, the slope measures
    rounding and bar-sized noise, not the decay; the check then passes, and
    `within_bars` says so.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must sit in (0,1), got {eps}")
    if abs(ray_angle) >= math.pi / 2:
        raise DomainError("the ray must stay in the open right half plane")
    mags = sorted(float(m) for m in magnitudes)
    if len(mags) < 3:
        raise DomainError("need at least three magnitudes for a slope fit")
    phase = cmath.exp(1j * ray_angle)
    rows, bars = [], []
    for m in mags:
        w = m * phase
        theta = theta_phi(phi, w)
        approx, _, term_bars = theta_expansion(phi, w, n_terms)
        rows.append((m, abs(theta.value - approx)))
        bars.append(theta.error + sum(term_bars))
    pts = [(math.log(m), math.log(max(e, 1e-300))) for m, e in rows[:3]]
    mean_x = sum(x for x, _ in pts) / 3.0
    mean_y = sum(y for _, y in pts) / 3.0
    slope = sum((x - mean_x) * (y - mean_y) for x, y in pts) / sum(
        (x - mean_x) ** 2 for x, _ in pts
    )
    threshold = n_terms + 1.0 - eps - 0.15
    within = all(e <= bar for (_, e), bar in zip(rows[:3], bars))
    return RemainderReport(rows, slope, threshold, slope >= threshold or within,
                           bars, within)


@dataclass(frozen=True)
class BernoulliReport:
    rows: list             # (k, -(k+1) zeta(-k), exact B_{k+1}, deviation)
    max_deviation: float


def bernoulli_identity_check(k_max: int) -> BernoulliReport:
    """-(k+1) zeta(-k) against the Bernoulli numbers, k = 1..k_max.

    zeta(-k) here means the Riemann value, recovered from the n=1 lattice sum
    over phi = |x| as half of zeta(phi,-k); the comparison side is exact
    rational arithmetic.
    """
    phi = PNorm(1, 1.0)
    exact = bernoulli_numbers(k_max + 1)
    rows = []
    worst = 0.0
    for k in range(1, k_max + 1):
        z = zeta_negative_integers(phi, k)
        lhs = -(k + 1) * (z.value.real / 2.0)
        rhs = float(exact[k + 1])
        dev = abs(lhs - rhs)
        worst = max(worst, dev)
        rows.append((k, lhs, rhs, dev))
    return BernoulliReport(rows, worst)
