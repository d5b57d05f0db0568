"""Lattice theta sums along a matrix flow.

theta_A(f, it) = sum over the integer lattice of f(t^A ω); the starred variant
drops ω = 0.  Sums run over the box [-m, m]^n of the first m whose tail
meets target, found before any term is summed.  Shell j lands at norm
>= sigma_min(t^A) j, so the summand's `shell_tail(sigma, m)` bounds the tail
in closed form (`special`).  Kernel bounds are certified; sampled transforms
use their fitted decay model and are flagged as estimates.

`theta_star_table` gives θ* at a whole table of flow times in one call, with
one route per summand type: a kernel on its own flow evaluates φ once on the
direct series' walk of the box (`homog._lattice_values`, one orthant or half
the box) and scales it, since φ(t^A ω) = t φ(ω); a transform on a diagonal
flow sums its in-band boxes in closed form, all nodes in one blocked
contraction; anything else sums the box's nonzero rows at each node.  Both
box routes share one box per table (`_table_stop`), cut where the tail meets
`_STAR_TARGET`.  `theta_phi` sums e^{-wφ} over the same walk.

The transform law reads theta_A(g, i/t) = t^alpha theta_{A^T}(ghat, it) in the
convention ghat(y) = ∫ g(x) e^{-2πi <x,y>} dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DomainError
from .homog import _lattice_values
from .kernel import Kernel
from .lattice import COUNT_BUDGET, SLAB_ROWS, box_rows
from .matflow import GeneratorMatrix
from .special import _power_sum_bound, exp_shell_tail, first_shell

__all__ = ["BoundedValue", "theta_star_table", "theta_phi", "jacobi_residual"]

RIGOROUS = "rigorous"
ESTIMATED = "estimated"

# entries per (nodes × points) block of a kernel table, which bounds the
# size of each block's terms and rounding bounds
_TABLE_BLOCK = 1 << 15
_MAX_SHELL = 2000  # shells a θ* search may take; see `_shell_limit`
_STAR_TARGET = 1e-14  # the tail at which a θ* table's box ends
_THETA_PHI_TARGET = 1e-13  # the target of `theta_phi`'s tail


@dataclass(frozen=True)
class BoundedValue:
    """A number with an error bar and a statement of what the bar means."""

    value: float | complex
    error: float
    kind: str = RIGOROUS

    def __post_init__(self):
        if self.kind not in (RIGOROUS, ESTIMATED):
            raise DomainError(f"unknown bound kind {self.kind!r}")


def _grid_sum_error(func, count_in_band: int) -> float:
    quad = getattr(func, "quad_error", 0.0)
    tail = getattr(func, "tail_error", 0.0)
    inherited = getattr(func, "inherited_error", 0.0)
    return count_in_band * (quad + inherited) + tail


def _tensor_table(generator: GeneratorMatrix, func, ts: np.ndarray):
    """Box-sum path: diagonal flow and a transform with a closed-form box sum.

    With scales s_i = t^{a_i}, the box |k_i| ≤ K_i = ⌊band_i / s_i⌋ holds
    every lattice point whose image s∘k lies in the band, since
    |s_i k_i| ≤ s_i K_i ≤ band_i.  The transform is a trapezoid sum, so
    its sum over the box is h^n Σ_x g(x) Π_i D_{K_i}(x_i s_i) with
    D_K(u) = sin((2K+1)πu) / sin(πu): one real contraction per axis, for
    all nodes at once (`box_sum` on one row of scales per node).  The ω = 0
    term is then subtracted.  A node whose box is the origin alone sums
    nothing and is set to exactly 0, since its contraction inside a block
    can differ from `center_term` in the last bits.  Points beyond the box
    are out of band; their total is bounded by the fitted decay model.
    """
    scales = np.exp(np.outer(np.log(ts), np.diag(generator.entries)))
    band = func.band
    k_axis = np.floor(band / scales).astype(int)
    # complex: the samples of a transform() may be complex
    total = np.asarray(func.box_sum(scales, k_axis) - func.center_term,
                       dtype=complex)
    total[~np.any(k_axis, axis=1)] = 0.0
    inside = 2.0 * k_axis + 1.0
    count = np.prod(inside, axis=1) - 1.0

    # out-of-box remainder via the product decay model: on each axis the
    # in-box j (|j| ≤ K) count 1 apiece, and the out-of-box j count
    # (s j / b)^{-p} out to j = K + 3999, bounded above by `_power_sum_bound`
    p = float(max(func.decay_tau, 1.5 * generator.dim) / generator.dim)
    outside = 2.0 * (scales / band) ** (-p) * _power_sum_bound(
        p, k_axis + 1.0, k_axis + 4000.0)
    dropped = 0.0
    for i in range(generator.dim):
        others = np.prod(np.delete(inside + outside, i, axis=1), axis=1)
        dropped = dropped + outside[:, i] * others
    dropped = dropped * func.edge_level

    err = _grid_sum_error(func, count) + dropped + np.abs(total.imag)
    return total.real, err, ESTIMATED


def _shell_limit(dim: int) -> int:
    """The largest m ≤ `_MAX_SHELL` whose box [-m, m]^dim holds at most
    SLAB_ROWS nonzero points: 2000 shells in one dimension, 499 in two and
    49 in three."""
    m = min(_MAX_SHELL, int(((SLAB_ROWS + 1) ** (1.0 / dim) - 1.0) / 2.0) + 1)
    while (2 * m + 1) ** dim - 1 > SLAB_ROWS:
        m -= 1
    return m


def _table_stop(generator: GeneratorMatrix, func, ts: np.ndarray):
    """(m, tails, rigorous) of a table at the flow times ts: the first shell
    m after which the summand's closed-form `shell_tail` meets `_STAR_TARGET`
    at the node of least σ, and each node's own tail past that m.

    Shell m lies at norm ≥ σ m, σ the smallest singular value of t^A: on a
    diagonal A that is t^{a_min} for t ≥ 1 and t^{a_max} below, otherwise
    one batched SVD of the flows.  `shell_tail` does not increase with σ at
    fixed m, so the m that serves the node of least σ serves every node,
    and it is known before any value of the summand is formed.  The search
    ends at `_shell_limit`, so a table never forms more than SLAB_ROWS
    points; a table that needs more raises `BudgetExceededError`.
    """
    if generator.is_diagonal:
        exponents = np.diag(generator.entries)
        sigmas = np.where(ts >= 1.0, ts ** exponents.min(), ts ** exponents.max())
    else:
        flows = np.stack([generator.flow(t) for t in ts.tolist()])
        sigmas = np.linalg.svd(flows, compute_uv=False)[:, -1]
    limit = _shell_limit(generator.dim)
    least = sigmas.min(keepdims=True)
    m = first_shell(lambda j: func.shell_tail(least, j + 1)[0][0] <= _STAR_TARGET, limit)
    if m is None:
        raise BudgetExceededError(
            f"θ* sum did not meet target {_STAR_TARGET:g} within {limit} shells, the "
            f"most whose box fits the {SLAB_ROWS:,}-point budget and the "
            f"{_MAX_SHELL}-shell cap")
    return (m,) + func.shell_tail(sigmas, m + 1)


def _pairwise_rounding(magnitude, count):
    """Bound on the rounding of numpy sums of `count` terms.

    numpy's pairwise sum (blocks of 128 over 8 accumulators) rounds a term
    at most log2(count) + 25 times, and adding up the partial sums once
    more; one rounding moves the sum by at most 2^-53 of the summed
    magnitudes, charged at 2^-52 to cover the second-order terms.
    """
    return (1 + np.log2(count) + 25.0) * 2.0**-52 * magnitude


def _kernel_table(kernel, ts: np.ndarray):
    """A kernel on its own flow, g(t^A ω) = radial(t φ(ω)): φ once on the
    walk of the table's box, each value weighted by the points it stands
    for, and one (nodes × points) array of terms per block of nodes.  The
    bar adds to the tail the rounding of the row sums and each term's own
    error (`Kernel.radial_terms`), on magnitudes, since the terms of a
    `GaussianTransform` change sign."""
    m_stop, tails, rigorous = _table_stop(kernel.generator, kernel, ts)
    mult = 2 if kernel.phi.is_even else 1
    walk = [(vals, np.full(vals.size, mult * weight, dtype=float))
            for vals, weight in _lattice_values(kernel.phi, [m_stop] * kernel.dim)]
    phi_vals, weights = (np.concatenate(part) for part in zip(*walk))
    values = np.empty(ts.size)
    errors = np.array(tails, dtype=float)
    step = max(1, _TABLE_BLOCK // phi_vals.size)
    for start in range(0, ts.size, step):
        block = slice(start, start + step)
        terms, rounding = kernel.radial_terms(np.outer(ts[block], phi_vals))
        values[block] = (terms * weights).sum(axis=1)
        errors[block] += (_pairwise_rounding(np.abs(terms) @ weights, phi_vals.size)
                          + rounding @ weights)
    return values, errors, RIGOROUS if rigorous else ESTIMATED


def _shell_walk(func, flow, offsets, tail: float):
    """(value, error) of one node: one sum over the table's box, the nonzero
    rows `offsets`, mapped by the node's flow."""
    vals = func.evaluate_many(offsets @ flow.T)
    rounding = _pairwise_rounding(float(np.sum(np.abs(vals))), offsets.shape[0])
    err = tail + rounding + _grid_sum_error(func, offsets.shape[0])
    return float(np.sum(vals)), err


def theta_star_table(generator: GeneratorMatrix, func, ts):
    """θ*(t) = Σ over nonzero lattice ω of f(t^A ω) at every node t of ts.

    Returns (values, errors, kind): two arrays and one tag for the table.
    `func` needs evaluate_many(points) and shell_tail(sigma, m), a bound on
    its sum over the shells j >= m at norm >= sigma j, over arrays of sigma
    and m; kernels give certified bounds, sampled transforms fitted ones.
    At fixed m the bound must not increase with sigma: the table's box is
    the one that meets `_STAR_TARGET` at its node of least σ
    (`_table_stop`), and every node charges its own tail past that box.
    Three routes, one per summand type: a Kernel on its own flow
    (`_kernel_table`), a transform with a closed-form box sum on a diagonal
    flow (`_tensor_table`), and a sum over the box's nonzero rows at each
    node for everything else.  A box of more than SLAB_ROWS points raises
    `BudgetExceededError`.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    if not np.all((ts > 0.0) & np.isfinite(ts)):
        raise DomainError(f"flow times must be positive and finite, got {ts}")
    if isinstance(func, Kernel) and np.array_equal(generator.entries,
                                                   func.generator.entries):
        return _kernel_table(func, ts)
    if generator.is_diagonal and hasattr(func, "box_sum"):
        return _tensor_table(generator, func, ts)
    m_stop, tails, rigorous = _table_stop(generator, func, ts)
    rows = box_rows([m_stop] * generator.dim, nonzero=True)
    values, errors = zip(*(_shell_walk(func, generator.flow(t), rows, tail)
                           for t, tail in zip(ts.tolist(), tails.tolist())))
    return (np.asarray(values, dtype=float), np.asarray(errors, dtype=float),
            RIGOROUS if rigorous else ESTIMATED)


def theta_phi(phi, w) -> BoundedValue:
    """theta(φ, iw) = 1 + sum over nonzero ω of e^{-w φ(ω)}, for Re w > 0.

    Accepts complex w in the right half plane (the value is then complex).
    Shell j sits at φ >= c3 j^{1/β}, so `exp_shell_tail` (a = Re w c3,
    p = 1/β) bounds the tail; the first shell m where it meets target is
    found first, `BudgetExceededError` raised if shells 1..m hold more than
    `COUNT_BUDGET` points, and the nonzero rows of the box [-m, m]^n, which
    are shells 1..m, are then summed in the walk of the direct series
    (`homog._lattice_values`): one orthant or half the box where φ's
    symmetry allows.  Each slab is evaluated in one `evaluate_many` call
    (``grid=False``), so a trace of the call counts its points, and the
    slab sums are added exactly (`math.fsum`), the same on every platform.
    """
    w = complex(w)
    if not (w.real > 0.0):
        raise DomainError(f"theta needs Re w > 0, got {w}")
    dim = phi.dim
    a, p = w.real * phi.growth(), 1.0 / phi.generator.beta
    m_stop = first_shell(lambda m: exp_shell_tail(dim, m + 1, a, p) <= _THETA_PHI_TARGET,
                         1 << 60) or 1 << 60
    points = (2 * m_stop + 1) ** dim
    if points > COUNT_BUDGET:
        raise BudgetExceededError(
            f"theta at Re w = {w.real:g} needs at least {points:.3g} lattice "
            f"points, over the {COUNT_BUDGET:.0e} budget")
    rate = w.real if w.imag == 0.0 else w  # real w keeps every array real
    mult = 2 if phi.is_even else 1
    parts = [mult * weight * complex(np.sum(np.exp(-rate * vals)))
             for vals, weight in _lattice_values(phi, [m_stop] * dim, grid=False)]
    value = math.fsum([1.0] + [z.real for z in parts])
    if w.imag != 0.0:
        value = complex(value, math.fsum(z.imag for z in parts))
    return BoundedValue(value, exp_shell_tail(dim, m_stop + 1, a, p), RIGOROUS)


def jacobi_residual(generator: GeneratorMatrix, func, func_hat, t: float) -> BoundedValue:
    """|theta_A(g, i/t) - t^alpha theta_{A^T}(ghat, it)| with its error budget.

    Zero in exact arithmetic; the returned error bar says how much of the
    observed residual the quadrature and tail estimates, and the error of
    ĝ(0) (`origin_error`), can explain.
    """
    if not (t > 0.0):
        raise DomainError(f"flow time must be positive, got {t}")
    left_star, left_err, left_kind = theta_star_table(generator, func, [1.0 / t])
    right_star, right_err, right_kind = theta_star_table(generator.transpose(), func_hat, [t])
    g0 = float(getattr(func, "value_at_origin"))
    ghat0 = complex(func_hat.value_at_origin).real
    scale = t**generator.alpha
    left = g0 + float(left_star[0])
    right = scale * (ghat0 + float(right_star[0]))
    residual = abs(left - right)
    err = float(left_err[0]) + scale * (float(right_err[0]) + func_hat.origin_error)
    kind = RIGOROUS if left_kind == right_kind == RIGOROUS else ESTIMATED
    return BoundedValue(residual, err, kind)
