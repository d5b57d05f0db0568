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
counting scan doubles as an oracle for everything else.  It takes one of two
routes.  A φ that is nondecreasing in each |x_i| (`homog._coordinate_monotone`)
meets every axis-parallel line in one interval centred on the axis, so the
count is a sum of column heights, each found by bisection over the heads in
one orthant, each head counted once per sign image; every other φ scans its
whole box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DomainError
from .homog import HomogeneousFunction, _coordinate_monotone
from .kernel import Kernel
from .lattice import COUNT_BUDGET, box_rows, box_size, grid_rows, orthant_slabs, slabs
from .special import gamma, gamma_rel_error
from .theta import ESTIMATED, BoundedValue
from .zeta import cache_for, zeta_direct

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
    estimated rather than raising.  Cached on phi per target, so the pole
    term of `zeta_direct`, which takes the default target, reuses it.
    """
    if phi.dim > 3:
        raise DomainError("volume_exp_integral supports n <= 3")
    cache = cache_for(phi)
    key = ("volume", float(target))
    if key not in cache:
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
        cache[key] = BoundedValue(volume, err, ESTIMATED)
    return cache[key]


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

    Rows are compared by each variant's `strictly_below`: integer quadratic
    forms compare integer rows in int64, superellipses recheck the float
    fence with exact integers, everything else compares computed float
    values (a tie at the boundary can then land either way).

    Height route, for a coordinate-monotone φ: that mask is even and
    nonincreasing in each |x_i| (see `homog._coordinate_monotone`), so on
    the column over a head x' of the longest axis z it passes exactly the
    rows with |z| < h(x') = #{z >= 0 : phi(x', z) < r}, and h is the same
    for every sign image of x'.  One integer bisection over all the heads
    of `lattice.orthant_slabs` (the box with z set to 0) finds every h; a
    small box costs its iterations, not its rows, so the faces share one.
    The count adds mirrors * max(2h - 1, 0) per head, mirrors being the
    head's number of sign images: the box scan's count, from about log2(B)
    rows per head.
    Box route, for every other φ: the whole box in `lattice.slabs`.  Both
    check the box against `COUNT_BUDGET` first.
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
    if not _coordinate_monotone(phi):
        return sum(phi.count_strict(box_rows(box, slab), r)
                   for slab in slabs(2 * box + 1))

    axis = int(np.argmax(box))
    # a box within COUNT_BUDGET has under 2e5 heads, so one array holds them
    faces = list(orthant_slabs(np.where(np.arange(box.size) == axis, 0, box)))
    heads = [grid_rows(axes) for axes, _ in faces]
    mirrors = np.repeat([m for _, m in faces], [rows.shape[0] for rows in heads])
    heads = np.concatenate(heads)
    # h lies in [lo, hi]; a passing test at z = mid - 1 lifts lo to mid
    lo = np.zeros(heads.shape[0], dtype=np.int64)
    hi = np.full(heads.shape[0], int(box[axis]) + 1, dtype=np.int64)
    open_ = np.arange(heads.shape[0])
    while open_.size:
        mid = (lo[open_] + hi[open_] + 1) // 2
        rows = heads[open_]
        rows[:, axis] = mid - 1
        below = phi.strictly_below(rows, r)
        lo[open_] = np.where(below, mid, lo[open_])
        hi[open_] = np.where(below, hi[open_], mid - 1)
        open_ = open_[lo[open_] < hi[open_]]
    return int(np.sum(mirrors * np.maximum(2 * lo - 1, 0)))


@dataclass(frozen=True)
class CountingScan:
    """Convergence evidence for the counting limit and the pole limit."""

    volume: BoundedValue
    rows: list          # (r, count, count / r^alpha, volume, deviation)
    pole_rows: list     # (sigma, (sigma - alpha) * zeta_direct(sigma), alpha*volume, deviation)


def counting_limit_scan(phi: HomogeneousFunction, r_schedule=None) -> CountingScan:
    """Table of count(r)/r^alpha against |B|, plus the pole-side limit.

    The r-schedule defaults to the decades 1e2..1e6, dropping any radius
    whose enumeration box would blow the point budget; radii from an
    explicit schedule raise instead of being dropped.  The second table
    approaches the same constant from the analytic side:
    (sigma - alpha) zeta(phi, sigma) -> alpha |B| as sigma -> alpha+.  Those
    rows rest on |B|, which closes `zeta_direct`'s series; the count rows and
    `zeta.residue_at_alpha` check Res = alpha |B| independently.
    """
    alpha = phi.alpha
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
