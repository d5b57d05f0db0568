"""Volume of the unit ball of an A-homogeneous function, three ways.

`B = {x : phi(x) < 1}` has finite volume, and the dilates satisfy
`|B(r)| = r^alpha |B|`, so one number controls all scales.  The estimators
here should agree with each other and with the residue of the zeta function
at s = alpha (which equals alpha |B|):

  * exponential integral: integrating e^{-phi} over shells of the flow turns
    the volume into a Gamma integral, `int e^{-phi} dx = Gamma(alpha+1) |B|`;
  * hit-or-miss Monte Carlo over a growth-certified bounding box;
  * lattice counting: #(B(r) cap Z^n) / r^alpha -> |B| as r grows.

`lattice_count` is exact (strict inequality, no tolerance slop), so the
counting scan doubles as an oracle for everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DomainError
from .homog import HomogeneousFunction
from .kernel import Kernel
from .lattice import COUNT_BUDGET, box_rows, box_size, slabs
from .special import gamma, gamma_rel_error
from .theta import ESTIMATED, BoundedValue
from .zeta import zeta_direct

__all__ = [
    "volume_exp_integral",
    "volume_monte_carlo",
    "lattice_count",
    "counting_limit_scan",
    "CountingScan",
]

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def volume_exp_integral(phi: HomogeneousFunction, target: float = 1e-10) -> BoundedValue:
    """|B| from int e^{-phi} dx = Gamma(alpha+1) |B|.

    Runs the graded box quadrature on the certified decay box of e^{-phi}.
    The bar adds Gamma's relative error times the value.  If the refinement
    budget runs out first, the best value so far is returned flagged as
    estimated rather than raising.
    """
    if phi.dim > 3:
        raise DomainError("volume_exp_integral supports n <= 3")
    kernel = Kernel(phi, power=0.0)
    g = gamma(phi.alpha + 1.0).real
    try:
        value, err, _ = kernel.integral_over_space(target=target * g)
    except BudgetExceededError as stop:
        if stop.best_value is None:
            raise
        value = stop.best_value
        err = stop.best_error if stop.best_error is not None else abs(value)
    volume = float(np.real(value)) / g
    err = float(abs(err)) / g + gamma_rel_error(phi.alpha + 1.0) * abs(volume)
    return BoundedValue(volume, err, ESTIMATED)


def volume_monte_carlo(phi: HomogeneousFunction, samples: int,
                       seed: int = 0) -> BoundedValue:
    """Hit-or-miss estimate of |B| with a 99% confidence half-width.

    Uniform draws over the box certified to contain B by the lower growth
    bound; counter-based generator, so the result is a pure function of
    (samples, seed).
    """
    samples = int(samples)
    if samples <= 0:
        raise DomainError(f"need a positive sample count, got {samples}")
    _, _, c3, _ = phi.growth()
    beta = phi.generator.beta
    radius = max(1.0, (1.0 / c3) ** beta)
    box_vol = (2.0 * radius) ** phi.dim
    rng = np.random.Generator(np.random.Philox(int(seed)))
    hits = 0
    chunk = 1 << 20
    for start in range(0, samples, chunk):
        m = min(chunk, samples - start)
        pts = rng.uniform(-radius, radius, size=(m, phi.dim))
        hits += int(np.count_nonzero(phi.evaluate_many(pts) < 1.0))
    p = hits / samples
    estimate = box_vol * p
    half = _Z99 * box_vol * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
    return BoundedValue(estimate, half, ESTIMATED)


def lattice_count(phi: HomogeneousFunction, r: float) -> int:
    """Exact #{omega in Z^n : phi(omega) < r}, strict inequality.

    Enumerates the certified box in first-axis slabs from `lattice.slabs`,
    in the row order that `lattice` fixes; slab counts are integers, so the
    reduction is exact in any order.  The comparison itself is each
    variant's count_strict: integer quadratic forms compare in int64,
    superellipses recheck the float fence with exact integers, everything
    else compares computed float values (a tie at the boundary can then
    land either way).
    """
    if not (r > 0.0) or not math.isfinite(r):
        raise DomainError(f"radius must be positive and finite, got {r}")
    box = phi.lattice_box(r)
    total_pts = box_size(box)
    if total_pts > COUNT_BUDGET:
        raise BudgetExceededError(
            f"lattice box holds {total_pts:.3g} points, over the "
            f"{COUNT_BUDGET:.0e} budget"
        )

    return sum(phi.count_strict(box_rows(box, slab), r)
               for slab in slabs(2 * box + 1))


@dataclass(frozen=True)
class CountingScan:
    """Convergence evidence for the counting limit and the pole limit."""

    volume: BoundedValue
    rows: list          # (r, count, count / r^alpha, volume, deviation)
    pole_rows: list     # (sigma, (sigma - alpha) * zeta_direct(sigma), alpha*volume, deviation)


def counting_limit_scan(phi: HomogeneousFunction, r_schedule=None,
                        volume: BoundedValue | None = None) -> CountingScan:
    """Table of count(r)/r^alpha against |B|, plus the pole-side limit.

    The r-schedule defaults to the decades 1e2..1e6, dropping any radius
    whose enumeration box would blow the point budget; radii from an
    explicit schedule raise instead of being dropped.  The second table
    approaches the same constant from the analytic side:
    (sigma - alpha) zeta(phi, sigma) -> alpha |B| as sigma -> alpha+.
    """
    alpha = phi.alpha
    if volume is None:
        volume = volume_exp_integral(phi)
    default_schedule = r_schedule is None
    if default_schedule:
        r_schedule = [1e2, 1e3, 1e4, 1e5, 1e6]
    rows = []
    for r in r_schedule:
        box = phi.lattice_box(float(r))
        over = box_size(box) > COUNT_BUDGET
        if over and default_schedule:
            # the default schedule trims itself to the budget; an explicit
            # schedule gets the budget error from lattice_count instead
            continue
        count = lattice_count(phi, float(r))
        ratio = count / float(r) ** alpha
        rows.append((float(r), count, ratio, volume.value,
                     abs(ratio - volume.value)))
    pole_rows = []
    for step in (0.5, 0.2, 0.1, 0.05):
        sigma = alpha + step
        scaled = step * zeta_direct(phi, complex(sigma)).value.real
        pole_rows.append((sigma, scaled, alpha * volume.value,
                          abs(scaled - alpha * volume.value)))
    return CountingScan(volume, rows, pole_rows)
