"""Lattice theta sums along a matrix flow.

theta_A(f, it) = sum over the integer lattice of f(t^A ω); the starred variant
drops ω = 0.  Sums run shell by shell in the sup norm.  Tails are controlled by
the smallest singular value of the flow matrix: every lattice point in shell m
lands at Euclidean norm >= sigma_min(t^A) m, where the summand's decay bound
takes over.  Bounds from kernels are certified; bounds from sampled transforms
use their fitted decay model and are flagged as estimates.

The transform law reads theta_A(g, i/t) = t^alpha theta_{A^T}(ghat, it) in the
convention ghat(y) = ∫ g(x) e^{-2πi <x,y>} dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, DivergenceError
from .lattice import box_size, shell
from .matflow import GeneratorMatrix

__all__ = ["BoundedValue", "theta_star_matrix", "theta_phi", "jacobi_residual"]

RIGOROUS = "rigorous"
ESTIMATED = "estimated"


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


def _shell_count(dim: int, m: int) -> int:
    return (2 * m + 1) ** dim - (2 * m - 1) ** dim


def _lattice_tail(shell_term, m0: int):
    """Bound on sum of |f| over shells m >= m0; (bound, rigorous_flag).

    `shell_term(m)` gives shell m's (bound, rigorous) pair.
    """
    total = 0.0
    rigorous = True
    m = m0
    last = math.inf
    while m < m0 + 8000:
        term, rig = shell_term(m)
        rigorous = rigorous and rig
        total += term
        if term <= 1e-18 * (abs(total) + 1e-300) or term == 0.0:
            return total, rigorous
        if m > m0 + 4 and term >= last:
            # decay model not taking hold; give up on a finite bound
            return math.inf, False
        last = term
        m += 1
    # geometric-ish remainder from the last ratio
    ratio = term / last if last > 0 else 0.0
    if ratio < 0.999:
        total += term * ratio / (1.0 - ratio)
        return total, rigorous
    return math.inf, False


def _grid_sum_error(func, count_in_band: int) -> float:
    quad = getattr(func, "quad_error", 0.0)
    tail = getattr(func, "tail_error", 0.0)
    inherited = getattr(func, "inherited_error", 0.0)
    return count_in_band * (quad + inherited) + tail


def _power_sum_bound(p: float, a, b):
    """An upper bound on Σ_{j=a}^{b-1} j^{-p} for p > 1 and integers 1 <= a < b.

    j^{-p} is convex, so each j > a is at most the integral of x^{-p} over
    [j - 1/2, j + 1/2]; the first term is kept exact.  At a = 1 the bound is
    within about 2% of the sum for p >= 1.5, and tighter for larger a.
    """
    return a ** -p + ((a + 0.5) ** (1.0 - p) - (b - 0.5) ** (1.0 - p)) / (p - 1.0)


def _tensor_theta_star(generator: GeneratorMatrix, func, t: float):
    """Fast path: diagonal flow and a transform with a closed-form box sum.

    With scales s_i = t^{a_i}, the box |k_i| ≤ K_i = ⌊band_i / s_i⌋ holds
    every lattice point whose image s∘k lies in the band, since
    |s_i k_i| ≤ s_i K_i ≤ band_i.  The transform is a trapezoid sum, so
    its sum over the box is h^n Σ_x g(x) Π_i D_{K_i}(x_i s_i) with
    D_K(u) = sin((2K+1)πu) / sin(πu): one real contraction per axis.  The
    ω = 0 term is then subtracted.  Points beyond the box are out of band;
    their total is bounded by the fitted decay model.
    """
    a_diag = np.diag(generator.entries)
    scales = np.exp(a_diag * math.log(t))
    band = func.band
    k_axis = np.floor(band / scales).astype(int)
    # complex: the samples of a transform() may be complex
    total = complex(func.box_sum(scales, k_axis) - func.center_term)
    count = int(box_size(k_axis)) - 1

    # out-of-box remainder via the product decay model: on each axis the
    # in-box j (|j| ≤ K) count 1 apiece, and the out-of-box j count
    # (s j / b)^{-p} out to j = K + 3999, bounded above by `_power_sum_bound`
    p = float(max(func.decay_tau, 1.5 * generator.dim) / generator.dim)
    inside = 2.0 * k_axis + 1.0
    # in Python floats: ufunc calls on arrays of dim elements cost more
    outside = 2.0 * (scales / band) ** (-p) * np.array(
        [_power_sum_bound(p, k + 1.0, k + 4000.0) for k in k_axis.tolist()])
    dropped = 0.0
    for i in range(generator.dim):
        others = math.prod(
            inside[j] + outside[j] for j in range(generator.dim) if j != i
        )
        dropped += outside[i] * others
    dropped *= func.edge_level

    err = _grid_sum_error(func, count) + dropped + abs(total.imag)
    return BoundedValue(float(total.real), float(err), ESTIMATED)


def theta_star_matrix(generator: GeneratorMatrix, func, t: float,
                      target: float = 1e-12, max_shell: int = 2000) -> BoundedValue:
    """sum over nonzero lattice points of f(t^A ω), with a tail bound.

    `func` needs evaluate_many(points) and decay_bound(radius); kernels give
    certified bounds, sampled transforms fitted ones.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError(f"flow time must be positive and finite, got {t}")
    if generator.is_diagonal and hasattr(func, "box_sum"):
        return _tensor_theta_star(generator, func, t)

    flow = generator.flow(t)
    sigma_min = float(np.linalg.svd(flow, compute_uv=False)[-1])
    dim = generator.dim

    # each shell's tail term is computed once per call
    @lru_cache(maxsize=None)
    def shell_term(m):
        bound, rig = func.decay_bound(sigma_min * m)
        return _shell_count(dim, m) * bound, rig

    total = 0.0
    magnitude = 0.0
    evaluated = 0
    for m in range(1, max_shell + 1):
        offsets = shell(dim, m)
        pts = offsets @ flow.T
        vals = func.evaluate_many(pts)
        total += float(np.sum(vals))
        magnitude += float(np.sum(np.abs(vals)))
        evaluated += offsets.shape[0]
        if shell_term(m + 1)[0] > target:
            continue  # the tail holds this term, so it cannot meet target
        tail, rigorous = _lattice_tail(shell_term, m + 1)
        if tail <= target:
            # rounding: numpy's pairwise sum of a shell of n terms (blocks of
            # 128 over 8 accumulators) rounds a term at most log2(n) + 25
            # times, adding up the m shell sums m times more; one rounding
            # moves the sum by at most 2^-53 of the summed magnitudes,
            # charged at 2^-52 to cover the second-order terms
            depth = m + math.log2(offsets.shape[0]) + 25.0
            rounding = depth * 2.0**-52 * magnitude
            err = tail + rounding + _grid_sum_error(func, evaluated)
            kind = (
                RIGOROUS
                if rigorous and not hasattr(func, "quad_error")
                else ESTIMATED
            )
            return BoundedValue(total, err, kind)
    raise DivergenceError(
        f"theta sum did not meet target {target:g} within {max_shell} shells"
    )


def theta_phi(phi, w, target: float = 1e-13) -> BoundedValue:
    """theta(φ, iw) = 1 + sum over nonzero ω of e^{-w φ(ω)}, for Re w > 0.

    Accepts complex w in the right half plane (the value is then complex);
    the tail is certified from the lower growth bound of φ either way.
    """
    w = complex(w)
    if not (w.real > 0.0):
        raise DomainError(f"theta needs Re w > 0, got {w}")
    _, _, c3, _ = phi.growth()
    beta = phi.generator.beta
    dim = phi.dim

    # every shell j sits at φ >= c3 j^{1/beta}; each term is computed once
    @lru_cache(maxsize=None)
    def shell_term(j):
        return _shell_count(dim, j) * math.exp(-w.real * c3 * j ** (1.0 / beta))

    total = 1.0 + 0.0j
    for m in range(1, 100000):
        vals = phi.evaluate_many(shell(dim, m))
        total += complex(np.sum(np.exp(-w * vals)))
        if shell_term(m + 1) > target:
            continue  # the tail holds this term, so it cannot meet target
        tail = 0.0
        j = m + 1
        while j < m + 20000:
            term = shell_term(j)
            tail += term
            if term <= 1e-18 * (tail + 1e-300):
                break
            j += 1
        if tail <= target:
            value = total.real if w.imag == 0.0 else total
            return BoundedValue(value, tail, RIGOROUS)
    raise DivergenceError("theta sum did not converge within the shell budget")


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
