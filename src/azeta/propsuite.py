"""The invariant suite behind `azeta verify`.

Each check exercises one identity the rest of the library leans on, at the
tolerance it is specified to hold, and reports a (name, passed, detail) row
instead of raising: the point is a complete scorecard for one phi, not a
fail-fast unit test.  Checks that need serious compute (Monte Carlo volumes,
continued zeta values) keep their budgets small enough that the whole suite
stays in the tens of seconds per phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AzetaError
from .homog import HomogeneousFunction, sandwich_smooth
from .theta import theta_phi
from .volume import lattice_count, volume_exp_integral, volume_monte_carlo
from .zeta import _route, default_power, zeta_continued, zeta_direct

__all__ = ["CheckRow", "verify_suite"]


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    detail: str


def _guard(name, fn):
    """Run one check; an exception becomes a failing row, not a crash."""
    try:
        passed, detail = fn()
    except AzetaError as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckRow(name, bool(passed), detail)


def _check_homogeneity(phi, rng):
    worst = 0.0
    for _ in range(64):
        t = float(rng.uniform(0.2, 5.0))
        x = rng.normal(size=phi.dim)
        lhs = float(phi.evaluate_many(phi.generator.apply_flow(t, x[None, :]))[0])
        rhs = t * float(phi.evaluate_many(x[None, :])[0])
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return (worst <= 1e-9, f"worst relative defect {worst:.2e} (tol 1e-9)")


def _check_group_law(phi, rng):
    gen = phi.generator
    worst = 0.0
    for _ in range(32):
        s = float(rng.uniform(0.2, 5.0))
        t = float(rng.uniform(0.2, 5.0))
        lhs = gen.flow(s) @ gen.flow(t)
        rhs = gen.flow(s * t)
        scale = max(1.0, float(np.abs(rhs).max()))
        worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    return (worst <= 1e-12, f"worst relative defect {worst:.2e} (tol 1e-12)")


def _check_lyapunov(phi):
    gen = phi.generator
    a, ell = gen.entries, gen.lyapunov
    sym = a.T @ ell + ell @ a
    eig_l = float(np.linalg.eigvalsh(ell).min())
    eig_s = float(np.linalg.eigvalsh(0.5 * (sym + sym.T)).min())
    ok = eig_l > 0.0 and eig_s > 0.0
    return (ok, f"min eig L {eig_l:.3e}, min eig sym(AtL+LA) {eig_s:.3e}")


def _check_polar(phi, rng):
    """x = t^A xbar round-trips, xbar lies on S_L, and t obeys the flow
    certificate: with r = |x|/|xbar|, c1 t^e <= r <= c2 t^e' for exponents
    e, e' in {gamma, beta} gives min_e (r/c2)^(1/e) <= t <= max_e (r/c1)^(1/e),
    tight (up to rounding) on a diagonal generator, where c1 = c2 = 1."""
    gen = phi.generator
    pts = rng.normal(size=(64, gen.dim))
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-6]
    t, xbar = gen.polar_many(pts)
    back = np.vstack([gen.apply_flow(ti, xi[None, :]) for ti, xi in zip(t, xbar)])
    norms = np.linalg.norm(pts, axis=1)
    rel = np.linalg.norm(back - pts, axis=1) / norms
    radius = np.einsum("ij,jk,ik->i", xbar, gen.lyapunov, xbar)
    worst_rel = float(rel.max())
    worst_rad = float(np.abs(radius - 1.0).max())
    r = norms / np.linalg.norm(xbar, axis=1)
    lo = np.minimum((r / gen.c2) ** (1.0 / gen.beta), (r / gen.c2) ** (1.0 / gen.gamma))
    hi = np.maximum((r / gen.c1) ** (1.0 / gen.beta), (r / gen.c1) ** (1.0 / gen.gamma))
    bounds = bool(np.all(t >= lo * (1 - 1e-9)) and np.all(t <= hi * (1 + 1e-9)))
    ok = worst_rel <= 1e-10 and worst_rad <= 1e-11 and bounds
    return (ok,
            f"worst rel {worst_rel:.2e} (tol 1e-10), radius defect "
            f"{worst_rad:.2e}, t within certified bounds: {bounds}")


def _check_ball_scaling(phi, seed):
    vol1 = volume_monte_carlo(phi, 400_000, seed=seed)
    rows = []
    ok = True
    for r in (2.0, 5.0):
        dilated = phi.scale(1.0 / r)
        volr = volume_monte_carlo(dilated, 400_000, seed=seed + int(r))
        want = r**phi.alpha * vol1.value
        slack = volr.error + r**phi.alpha * vol1.error
        ok = ok and abs(volr.value - want) <= slack
        rows.append(f"r={r:g}: {volr.value:.4f} vs {want:.4f} (+-{slack:.4f})")
    return (ok, "; ".join(rows))


def _check_estimator_agreement(phi, seed):
    quad = volume_exp_integral(phi)
    mc = volume_monte_carlo(phi, 1_000_000, seed=seed)
    gap = abs(quad.value - mc.value)
    slack = quad.error + mc.error
    return (gap <= slack,
            f"quadrature {quad.value:.6f} vs monte carlo {mc.value:.6f}, "
            f"gap {gap:.2e} <= {slack:.2e}")


def _check_count_monotone(phi):
    radii = [1.5, 2.5, 4.0, 6.5, 10.0]
    counts = [lattice_count(phi, r) for r in radii]
    ok = all(a <= b for a, b in zip(counts, counts[1:]))
    return (ok, f"counts {counts} at radii {radii}")


def _check_count_sandwich(phi):
    lower, upper = sandwich_smooth(phi, 0.2)
    r = 6.0
    c_lower = lattice_count(lower, r)
    c_mid = lattice_count(phi, r)
    c_upper = lattice_count(upper, r)
    ok = c_lower >= c_mid >= c_upper
    return (ok, f"psi1 <= phi <= psi2 gives counts {c_lower} >= {c_mid} >= {c_upper}")


def _suite_s(phi) -> complex:
    """One complex point in the overlap strip, clear of the pole."""
    return complex(phi.alpha + 1.25, 0.75)


def _check_scaling_law(phi):
    s = _suite_s(phi)
    base = zeta_continued(phi, s)
    ok = True
    details = []
    for a in (2.0, 1.0 / 3.0):
        scaled = zeta_continued(phi.scale(a), s)
        want = a ** (-s) * base.value
        gap = abs(scaled.value - want)
        ok = ok and gap <= 1e-8
        details.append(f"a={a:g}: gap {gap:.2e}")
    return (ok, "; ".join(details) + " (tol 1e-8)")


def _check_conjugate_symmetry(phi):
    s = _suite_s(phi)
    plus = zeta_continued(phi, s)
    minus = zeta_continued(phi, s.conjugate())
    gap = abs(plus.value.conjugate() - minus.value)
    slack = plus.error + minus.error
    return (gap <= slack, f"zeta(conj s) vs conj zeta(s): gap {gap:.2e} <= {slack:.2e}")


def _check_kernel_independence(phi):
    s = _suite_s(phi)
    q, _ = _route(phi)  # `power` names the kernel power on the route's φ
    c = default_power(q)
    step = max(1, int(q.smooth_step))
    one = zeta_continued(phi, s, power=c)
    two = zeta_continued(phi, s, power=c + step)
    gap = abs(one.value - two.value)
    slack = one.error + two.error + 1e-12
    return (gap <= slack, f"power {c:g} vs {c + step:g}: gap {gap:.2e} <= {slack:.2e}")


def _check_overlap(phi):
    s = _suite_s(phi)
    direct = zeta_direct(phi, s)
    cont = zeta_continued(phi, s)
    gap = abs(direct.value - cont.value)
    slack = direct.error + cont.error
    return (gap <= slack,
            f"direct vs continued at s={s:.3g}: gap {gap:.2e} <= {slack:.2e}")


def _check_theta_monotone(phi):
    """theta(phi, iw) stays positive and decreasing along w; cheap sanity."""
    values = [theta_phi(phi, w).value.real for w in (0.5, 1.0, 2.0)]
    ok = values[0] > values[1] > values[2] > 1.0
    return (ok,
            f"theta at w=0.5,1,2: {values[0]:.4f} > {values[1]:.4f} > "
            f"{values[2]:.4f} > 1")


def verify_suite(phi: HomogeneousFunction, seed: int = 11) -> list:
    """Run every suite check against one phi; returns CheckRow list."""
    rng = np.random.Generator(np.random.Philox(int(seed)))
    checks = [
        ("homogeneity identity", lambda: _check_homogeneity(phi, rng)),
        ("matrix power group law", lambda: _check_group_law(phi, rng)),
        ("lyapunov certificate", lambda: _check_lyapunov(phi)),
        ("polar round-trip", lambda: _check_polar(phi, rng)),
        ("ball scaling", lambda: _check_ball_scaling(phi, seed)),
        ("volume estimator agreement", lambda: _check_estimator_agreement(phi, seed)),
        ("count monotonicity", lambda: _check_count_monotone(phi)),
        ("count sandwich", lambda: _check_count_sandwich(phi)),
        ("scaling law", lambda: _check_scaling_law(phi)),
        ("conjugate symmetry", lambda: _check_conjugate_symmetry(phi)),
        ("kernel independence", lambda: _check_kernel_independence(phi)),
        ("overlap consistency", lambda: _check_overlap(phi)),
        ("theta monotone on the ray", lambda: _check_theta_monotone(phi)),
    ]
    return [_guard(name, fn) for name, fn in checks]
