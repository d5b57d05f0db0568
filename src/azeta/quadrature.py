"""Gauss-Legendre panel quadrature on lines and boxes.

Everything here is deterministic and vectorized: `box_integral` takes a grid
function, which maps a list of per-axis points to its values over their tensor
grid, flat in C order (`HomogeneousFunction.evaluate_grid`).  Error estimates
come from comparing a panel rule against its refinement (Richardson style), which
is honest for the smooth, rapidly decaying integrands this package produces but is
an estimate, not a bound.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BudgetExceededError
from .lattice import slabs

__all__ = [
    "gl_nodes",
    "panel_points",
    "symmetric_edges",
    "refine_edges",
    "box_integral",
]


@functools.lru_cache(maxsize=64)
def gl_nodes(n: int):
    return leggauss(n)


def panel_points(edges: np.ndarray, n: int):
    """Gauss-Legendre nodes/weights of order n on every [edges[i], edges[i+1]].

    Returns flat arrays (points, weights); integrating f means dot(f(points), weights).
    """
    edges = np.asarray(edges, dtype=float)
    x, w = gl_nodes(n)
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def symmetric_edges(radius: float, levels: int) -> np.ndarray:
    """Panel edges 0 and ±radius 2^-j (j = levels..0) on [-radius, radius].

    The grading toward 0 keeps Gauss panels accurate when the integrand has
    limited smoothness at the origin (the usual situation for kernels built
    from a homogeneous function with a conical kink there).
    """
    pos = np.asarray([0.0] + [radius * 2.0 ** (-j) for j in range(levels, -1, -1)])
    return np.concatenate([-pos[:0:-1], pos])


def refine_edges(edges: np.ndarray) -> np.ndarray:
    """Insert the midpoint of every panel."""
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return np.sort(np.concatenate([edges, mids]))


# box_integral settings: grading levels, Gauss order per panel, refinement
# rounds, evaluation budget, and the row chunk of the tensor sum.  The chunk
# sums add in order, so _CHUNK is part of the summation order.
_LEVELS = 7
_ORDER = 16
_MAX_ROUNDS = 3
_MAX_EVALS = 4e7
_CHUNK = 1 << 19


def _tensor_sum(f, pts_list, wts_list) -> float:
    """Σ f(x) Π_i w_i over the tensor grid, walked in first-axis chunks; f
    maps a list of axes to its values over their grid, flat in C order."""
    rest_w = np.ones(1)
    for wv in wts_list[1:]:
        rest_w = np.outer(rest_w, wv).ravel()
    w0 = wts_list[0]
    total = 0.0
    for slab in slabs([p.size for p in pts_list], _CHUNK):
        vals = np.asarray(f([pts_list[0][slab]] + list(pts_list[1:])))
        total += float(np.dot(w0[slab], vals.reshape(-1, rest_w.size) @ rest_w))
    return total


def box_integral(f, radii, target: float | None = None):
    """Integrate the grid function f over the box prod_i [-radii[i], radii[i]]
    with refinement control.

    Per-axis panels are graded toward 0 and refined globally until two successive
    values agree to `target` (or rounds run out).  Returns (value, error_estimate,
    evaluations).  Raises BudgetExceededError, carrying the best value so far, if a
    refinement would exceed `_MAX_EVALS` point evaluations before reaching `target`.
    """
    radii = [float(r) for r in np.atleast_1d(radii)]
    edges = [symmetric_edges(r, _LEVELS) for r in radii]

    def npoints(eds):
        out = 1
        for e in eds:
            out *= (e.size - 1) * _ORDER
        return out

    if npoints(edges) > _MAX_EVALS:
        raise BudgetExceededError("box integral budget exceeded before first pass")

    def evaluate(eds):
        pts, wts = zip(*(panel_points(e, _ORDER) for e in eds))
        return _tensor_sum(f, pts, wts)

    evals = npoints(edges)
    value = evaluate(edges)
    err = np.inf
    for _ in range(_MAX_ROUNDS):
        finer = [refine_edges(e) for e in edges]
        cost = npoints(finer)
        if evals + cost > _MAX_EVALS:
            raise BudgetExceededError(
                "box integral budget exceeded", best_value=value, best_error=err
            )
        evals += cost
        refined = evaluate(finer)
        err = abs(refined - value)
        value, edges = refined, finer
        if target is not None and err <= target:
            break
    return value, err, evals
