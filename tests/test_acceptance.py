"""End-to-end acceptance checklist.

Each test prints one [PASS]/[FAIL] line with the measured quantity and the
tolerance it was held to, then asserts.  Run with -s (or read the captured
output on failure) to see the lines; the whole file is meant to stay under
a few minutes per test.
"""

import math
import os
import time

import numpy as np

from azeta.cli import main as cli_main
from azeta.homog import QuadraticForm
from azeta.kernel import Kernel, fourier_transform
from azeta.theta import jacobi_residual, theta_phi
from azeta.asymp import bernoulli_identity_check, remainder_check
from azeta.volume import counting_limit_scan, lattice_count, volume_monte_carlo
from azeta.zeta import (
    default_power,
    growth_scan,
    residue_at_alpha,
    xi_full,
    zeta_at_zero,
    zeta_continued,
    zeta_direct,
)
from oracles import bernoulli_exact, riemann_zeta
from shapes import ABSVAL, DISC, SQUARE, SUPERELLIPSE

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
Z99 = 2.5758293035489004


def _line(ok: bool, label: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def test_riemann_reduction():
    worst = 0.0
    for s in (2.0, 3.0, 0.5, -1.0, -3.0):
        got = zeta_continued(ABSVAL, complex(s))
        worst = max(worst, abs(got.value - 2.0 * riemann_zeta(s)))
    assert _line(worst <= 1e-7, "riemann reduction",
                 f"worst |zeta(|x|,s) - 2 zeta_R(s)| = {worst:.2e} (tol 1e-7)")


def test_value_at_zero_is_minus_one():
    worst = 0.0
    for phi in (ABSVAL, DISC, SUPERELLIPSE):
        got = zeta_at_zero(phi)
        worst = max(worst, abs(got.value - (-1.0)))
    assert _line(worst <= 1e-4, "value at zero",
                 f"worst |zeta(phi,0) + 1| = {worst:.2e} (tol 1e-4)")


def test_residue_is_alpha_ball_volume():
    r1 = residue_at_alpha(ABSVAL)
    dev1 = abs(r1.value - 2.0)
    r2 = residue_at_alpha(DISC)
    dev2 = abs(r2.value - math.pi)
    res = residue_at_alpha(SUPERELLIPSE)
    mc = volume_monte_carlo(SUPERELLIPSE, 4_000_000, seed=5)
    alpha = SUPERELLIPSE.alpha
    # the Monte Carlo bar is a 99% interval; scale back to one standard error
    combined = math.hypot(res.error, alpha * mc.error / Z99)
    gap = abs(res.value - alpha * mc.value)
    ok = dev1 <= 1e-6 and dev2 <= 1e-4 and gap <= 3.0 * combined
    assert _line(ok, "residue identity",
                 f"interval dev {dev1:.2e} (tol 1e-6), disc dev {dev2:.2e} "
                 f"(tol 1e-4), superellipse gap {gap:.2e} <= 3x{combined:.2e}")


def test_counting_limit():
    r = 1e6
    box = DISC.lattice_box(r)
    points = float(np.prod(2.0 * box.astype(float) + 1.0))
    start = time.perf_counter()
    count = lattice_count(DISC, r)
    elapsed = time.perf_counter() - start
    dev = abs(count / r - math.pi)
    scan = counting_limit_scan(SUPERELLIPSE, r_schedule=[1e3, 1e4, 1e5])
    devs = [row[4] for row in scan.rows]
    trend = devs[0] > devs[1] > devs[2]
    ok = dev < 0.01 and points <= 1e7 and elapsed < 60.0 and trend
    assert _line(ok, "counting limit",
                 f"gauss-circle dev {dev:.2e} (tol 0.01, {points:.2g} points, "
                 f"{elapsed:.1f}s), superellipse devs "
                 + " > ".join(f"{d:.4f}" for d in devs))


def test_pole_limit():
    devs = []
    for sigma in (1.2, 1.1, 1.05):
        z = zeta_direct(DISC, complex(sigma))
        devs.append(abs((sigma - 1.0) * z.value.real - math.pi))
    rel = devs[-1] / math.pi
    ok = rel < 0.05 and devs[0] > devs[1] > devs[2]
    assert _line(ok, "pole limit",
                 f"(sigma-1) zeta(sigma) at 1.05 off pi by {rel:.1%} (tol 5%), "
                 f"deviations " + " > ".join(f"{d:.3f}" for d in devs))


def test_jacobi_transform():
    gauss = Kernel(QuadraticForm([[math.pi]]), power=0.0)
    worst_sd = 0.0
    for t in (1.0, 2.0, 5.0):
        worst_sd = max(worst_sd,
                       jacobi_residual(gauss.generator, gauss, gauss, t).value)
    k = Kernel(SQUARE, power=0.0)
    khat = fourier_transform(k)
    numeric_ok = True
    details = []
    for t in (1.0, 2.0):
        got = jacobi_residual(k.generator, k, khat, t)
        numeric_ok = numeric_ok and got.value <= got.error
        details.append(f"{got.value:.1e}<= {got.error:.1e}")
    ok = worst_sd <= 1e-8 and numeric_ok
    assert _line(ok, "jacobi transform",
                 f"self-dual worst residual {worst_sd:.2e} (tol 1e-8), "
                 f"numeric residual vs budget " + ", ".join(details))


def test_functional_equation():
    ok = True
    worst_ratio = 0.0
    for phi in (ABSVAL, SQUARE):
        k = Kernel(phi, power=default_power(phi))
        khat = fourier_transform(k)
        khathat = khat.transform()
        alpha = phi.alpha
        points = [complex(alpha / 2, 0.3), complex(alpha / 2 + 0.1, -0.7),
                  complex(alpha / 2 - 0.15, 1.1), complex(alpha / 2 + 0.2, 0.0),
                  complex(alpha / 2 - 0.05, -1.6)]
        for s in points:
            lhs = xi_full(k.generator, k, khat, s)
            rhs = xi_full(k.generator.transpose(), khat, khathat, alpha - s)
            resid = abs(lhs.value - rhs.value)
            budget = lhs.error + rhs.error
            ok = ok and resid <= budget
            worst_ratio = max(worst_ratio, resid / budget)
    assert _line(ok, "functional equation",
                 f"worst residual/budget {worst_ratio:.3f} over 5 strip points "
                 f"x 2 shapes (need <= 1)")


def test_overlap_consistency():
    rng = np.random.Generator(np.random.Philox(2026_08_15))
    worst = 0.0
    for phi in (ABSVAL, SQUARE, DISC, SUPERELLIPSE):
        alpha = phi.alpha
        for _ in range(20):
            s = complex(alpha + 0.5 + 2.5 * rng.random(),
                        -2.0 + 4.0 * rng.random())
            d = zeta_direct(phi, s)
            c = zeta_continued(phi, s)
            worst = max(worst, abs(d.value - c.value))
    assert _line(worst <= 1e-6, "overlap consistency",
                 f"worst |direct - continued| = {worst:.2e} over 20 random "
                 f"points x 4 shapes (tol 1e-6)")


def test_theta_expansion():
    report = remainder_check(ABSVAL, 0.0, 3, 0.1, [0.4, 0.2, 0.1, 0.05])
    w = 0.2
    closed = abs(theta_phi(SQUARE, w).value - math.sqrt(math.pi) * w**-0.5)
    ok = report.slope >= report.threshold and closed < 1e-6
    assert _line(ok, "theta expansion",
                 f"remainder slope {report.slope:.2f} >= {report.threshold:.2f}, "
                 f"gaussian closed-form gap {closed:.2e} (tol 1e-6)")


def test_bernoulli_identity():
    report = bernoulli_identity_check(5)
    exact = bernoulli_exact(6)
    worst = max(abs(lhs - float(exact[k + 1])) for k, lhs, _, _ in report.rows)
    assert _line(worst <= 1e-12, "bernoulli identity",
                 f"worst |-(k+1) zeta(-k) - B_(k+1)| = {worst:.2e} for k=1..5 "
                 f"(tol 1e-12)")


def test_growth_scan():
    floor = math.pi / 2.0 - 0.2
    rates = []
    ok = True
    for phi in (ABSVAL, SQUARE):
        _, rate, _, passed = growth_scan(phi)
        rates.append(rate)
        ok = ok and passed and rate >= floor
    assert _line(ok, "growth scan",
                 f"vertical decay rates {rates[0]:.2f}, {rates[1]:.2f} "
                 f">= {floor:.2f}")


def test_invariant_suites(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    codes = {}
    for name in ("riemann1d", "disc2d", "superellipse2d"):
        cfg = os.path.join(CONFIG_DIR, name + ".json")
        codes[name] = cli_main(["verify", "--config", cfg])
    ok = all(rc == 0 for rc in codes.values())
    assert _line(ok, "invariant suites",
                 "azeta verify exit codes " +
                 ", ".join(f"{k}={v}" for k, v in codes.items()))
