"""Lattice theta sums along a matrix flow.

theta_A(f, it) = sum over the integer lattice of f(t^A ω); the starred variant
drops ω = 0.  Sums run over sup-norm shells and stop at the first shell whose
tail meets target, found before any shell is summed.  Shell j lands at norm
>= sigma_min(t^A) j, so the summand's `shell_tail(sigma, m)` bounds the tail
in closed form (`special`).  Kernel bounds are certified; sampled transforms
use their fitted decay model and are flagged as estimates.

`theta_star_table` gives θ* at a whole table of flow times in one call, with
one route per summand type: a kernel on its own flow evaluates φ once and
scales it, since φ(t^A ω) = t φ(ω); a transform on a diagonal flow sums its
in-band boxes in closed form, all nodes in one blocked contraction; anything
else is walked shell by shell per node.  `theta_star_matrix` is its one-node
call.

The transform law reads theta_A(g, i/t) = t^alpha theta_{A^T}(ghat, it) in the
convention ghat(y) = ∫ g(x) e^{-2πi <x,y>} dx.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DomainError, DivergenceError
from .kernel import Kernel
from .lattice import COUNT_BUDGET, box_rows, shell, slabs
from .matflow import GeneratorMatrix
from .special import _power_sum_bound, exp_shell_tail, first_shell

__all__ = ["BoundedValue", "theta_star_table", "theta_star_matrix", "theta_phi",
           "jacobi_residual"]

RIGOROUS = "rigorous"
ESTIMATED = "estimated"

# entries per (nodes × points) block of a kernel table: blocks of 2^18 raised
# plane_grid's peak RSS from 100.4 to 101.4 MB
_TABLE_BLOCK = 1 << 15
_MAX_SHELL = 2000  # shells a θ* walk may take before its tail meets target


@dataclass(frozen=True)
class BoundedValue:
    """A number with an error bar and a statement of what the bar means."""

    value: float | complex
    error: float
    kind: str = RIGOROUS

    def __post_init__(self):
        if self.kind not in (RIGOROUS, ESTIMATED):
            raise DomainError(f"unknown bound kind {self.kind!r}")

    def combine_kind(self, other: "BoundedValue") -> str:
        return RIGOROUS if self.kind == other.kind == RIGOROUS else ESTIMATED


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


def _node_stops(generator: GeneratorMatrix, func, ts: np.ndarray, target: float):
    """(flow, m, tail, rigorous) at each flow time t of ts: t^A, and the first
    shell m after which the summand's closed-form `shell_tail` meets target.

    Shell m lies at norm ≥ σ m, σ the smallest singular value of t^A (one
    batched SVD for all nodes), so the stop rests on the tail bound alone
    and is known before any value of the summand is formed.
    """
    flows = np.stack([generator.flow(t) for t in ts.tolist()])
    sigmas = np.linalg.svd(flows, compute_uv=False)[:, -1]
    stops = []
    for flow, sigma_min in zip(flows, sigmas.tolist()):
        m = first_shell(lambda j: func.shell_tail(sigma_min, j + 1)[0] <= target,
                        _MAX_SHELL)
        if m is None:
            raise DivergenceError(f"theta sum did not meet target {target:g} "
                                  f"within {_MAX_SHELL} shells")
        stops.append((flow, m) + func.shell_tail(sigma_min, m + 1))
    return stops


def _pairwise_rounding(magnitude, count, passes: int = 1):
    """Bound on the rounding of numpy sums of `count` terms.

    numpy's pairwise sum (blocks of 128 over 8 accumulators) rounds a term
    at most log2(count) + 25 times, and adding up `passes` partial sums
    `passes` times more; one rounding moves the sum by at most 2^-53 of the
    summed magnitudes, charged at 2^-52 to cover the second-order terms.
    """
    return (passes + np.log2(count) + 25.0) * 2.0**-52 * magnitude


def _kernel_table(kernel, ts: np.ndarray, target: float):
    """A kernel on its own flow: g(t^A ω) = radial(t φ(ω)).

    Each node keeps its own stopping shell and tail bound; φ is evaluated
    once on the shells out to the farthest stop, and each block of nodes'
    terms forms one (nodes × points) array, zero past each node's stop.  The
    bar adds, to the tail and the rounding of the row sum, each term's own
    rounding (`Kernel.radial_error`): at x = tφ ≫ c a relative error of x
    moves x^c e^{-x} by about |c - x| times as much.
    """
    _, m_stop, tails, rigorous = zip(*_node_stops(kernel.generator, kernel, ts, target))
    shells = [shell(kernel.dim, m) for m in range(1, max(m_stop) + 1)]
    used = np.cumsum([rows.shape[0] for rows in shells])[np.asarray(m_stop) - 1]
    phi_vals = kernel.phi.evaluate_many(np.vstack(shells))
    values = np.empty(ts.size)
    errors = np.asarray(tails, dtype=float)
    step = max(1, _TABLE_BLOCK // phi_vals.size)
    for start in range(0, ts.size, step):
        block = slice(start, start + step)
        width = int(used[block].max())
        level = np.outer(ts[block], phi_vals[:width])
        terms = kernel.radial(level)
        terms[np.arange(width)[None, :] >= used[block, None]] = 0.0
        # the terms are positive, so each row sum is also its magnitude
        values[block] = terms.sum(axis=1)
        errors[block] += (_pairwise_rounding(values[block], width)
                          + (terms * kernel.radial_error(level)).sum(axis=1))
    return values, errors, RIGOROUS if all(rigorous) else ESTIMATED


def _shell_walk(func, flow, m_stop: int, tail: float, rigorous: bool):
    """(value, error, kind) of one node, summed shell by shell out to its stop
    (`_node_stops`)."""
    total, magnitude, evaluated = 0.0, 0.0, 0
    for m in range(1, m_stop + 1):
        offsets = shell(flow.shape[0], m)
        vals = func.evaluate_many(offsets @ flow.T)
        total += float(np.sum(vals))
        magnitude += float(np.sum(np.abs(vals)))
        evaluated += offsets.shape[0]
    # the m_stop shell sums are added up m_stop times more
    rounding = _pairwise_rounding(magnitude, offsets.shape[0], m_stop)
    err = tail + rounding + _grid_sum_error(func, evaluated)
    kind = (
        RIGOROUS
        if rigorous and not hasattr(func, "quad_error")
        else ESTIMATED
    )
    return total, err, kind


def theta_star_table(generator: GeneratorMatrix, func, ts, target: float = 1e-12):
    """θ*(t) = Σ over nonzero lattice ω of f(t^A ω) at every node t of ts.

    Returns (values, errors, kind): two arrays and one tag for the table.
    `func` needs evaluate_many(points) and shell_tail(sigma, m), a bound on
    its sum over the shells j >= m at norm >= sigma j; kernels give
    certified bounds, sampled transforms fitted ones.  Three routes, one
    per summand type: a Kernel on its own flow (`_kernel_table`), a
    transform with a closed-form box sum on a diagonal flow
    (`_tensor_table`), and a shell walk per node for everything else.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    if not np.all((ts > 0.0) & np.isfinite(ts)):
        raise DomainError(f"flow times must be positive and finite, got {ts}")
    if isinstance(func, Kernel) and np.array_equal(generator.entries,
                                                   func.generator.entries):
        return _kernel_table(func, ts, target)
    if generator.is_diagonal and hasattr(func, "box_sum"):
        return _tensor_table(generator, func, ts)
    values, errors, kinds = zip(*(_shell_walk(func, *stop) for stop in
                                  _node_stops(generator, func, ts, target)))
    kind = RIGOROUS if all(k == RIGOROUS for k in kinds) else ESTIMATED
    return np.asarray(values, dtype=float), np.asarray(errors, dtype=float), kind


def theta_star_matrix(generator: GeneratorMatrix, func, t: float,
                      target: float = 1e-12) -> BoundedValue:
    """Σ over nonzero lattice points of f(t^A ω), with a tail bound: the
    one-node `theta_star_table`."""
    values, errors, kind = theta_star_table(generator, func, [t], target)
    return BoundedValue(float(values[0]), float(errors[0]), kind)


def theta_phi(phi, w, target: float = 1e-13) -> BoundedValue:
    """theta(φ, iw) = 1 + sum over nonzero ω of e^{-w φ(ω)}, for Re w > 0.

    Accepts complex w in the right half plane (the value is then complex).
    Shell j sits at φ >= c3 j^{1/β}, so `exp_shell_tail` (a = Re w c3,
    p = 1/β) bounds the tail; the first shell m where it meets target is
    found first, `BudgetExceededError` raised if shells 1..m hold more than
    `COUNT_BUDGET` points, and the nonzero rows of the box [-m, m]^n, which
    are shells 1..m, are then summed in `lattice.slabs` of at most a million
    points.
    """
    w = complex(w)
    if not (w.real > 0.0):
        raise DomainError(f"theta needs Re w > 0, got {w}")
    dim = phi.dim
    a, p = w.real * phi.growth()[2], 1.0 / phi.generator.beta
    m_stop = first_shell(lambda m: exp_shell_tail(dim, m + 1, a, p) <= target,
                         1 << 60) or 1 << 60
    points = (2 * m_stop + 1) ** dim
    if points > COUNT_BUDGET:
        raise BudgetExceededError(
            f"theta at Re w = {w.real:g} needs at least {points:.3g} lattice "
            f"points, over the {COUNT_BUDGET:.0e} budget")
    total = 1.0 + 0.0j
    box = [m_stop] * dim
    for part in slabs([2 * m_stop + 1] * dim):
        vals = phi.evaluate_many(box_rows(box, part, nonzero=True))
        total += complex(np.sum(np.exp(-w * vals)))
    value = total.real if w.imag == 0.0 else total
    return BoundedValue(value, exp_shell_tail(dim, m_stop + 1, a, p), RIGOROUS)


def jacobi_residual(generator: GeneratorMatrix, func, func_hat, t: float,
                    target: float = 1e-12) -> BoundedValue:
    """|theta_A(g, i/t) - t^alpha theta_{A^T}(ghat, it)| with its error budget.

    Zero in exact arithmetic; the returned error bar says how much of the
    observed residual the quadrature and tail estimates can explain.
    """
    if not (t > 0.0):
        raise DomainError(f"flow time must be positive, got {t}")
    left_star = theta_star_matrix(generator, func, 1.0 / t, target=target)
    right_star = theta_star_matrix(generator.transpose(), func_hat, t, target=target)
    g0 = float(getattr(func, "value_at_origin"))
    ghat0 = complex(func_hat.value_at_origin).real
    scale = t**generator.alpha
    left = g0 + left_star.value
    right = scale * (ghat0 + right_star.value)
    residual = abs(left - right)
    err = left_star.error + scale * right_star.error
    return BoundedValue(residual, err, left_star.combine_kind(right_star))
