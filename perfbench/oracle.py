"""Independent references for the benchmark's checks, in mpmath at 40 digits.

Nothing here imports azeta.  Closed forms cover the shapes that have them:

  * |x|          zeta = 2 zeta(s),  theta(iw) = coth(w/2)
  * x^2          zeta = 2 zeta(2s)
  * x^2+y^2      zeta = 4 zeta(s) beta(s),  theta(iw) = theta_3(e^-w)^2
  * 1.7(x^2+y^2) zeta = 1.7^-s 4 zeta(s) beta(s)
  * any phi      zeta(phi, 0) = -1

The superellipse (x^12+y^18)^(1/6) has no closed-form zeta; its theta sums
are summed term by term over exact integer values of phi^6, its unit-ball
area is 4 G(13/12) G(19/18) / G(1+1/12+1/18), and its lattice counts compare
exact integers.  The Gauss-circle count is exact integer arithmetic too.
"""

from __future__ import annotations

import math

import mpmath

DIGITS = 40
mpmath.mp.dps = DIGITS

# A miss counts as a failure only beyond the bar plus this share of |ref|:
# 64 units in the last place of a double, the rounding that summing a few
# thousand float64 terms can leave and that the library's bars do not include.
ROUNDING_ALLOWANCE = 2.0**-46


def _mpc(z) -> mpmath.mpc:
    if isinstance(z, (mpmath.mpf, mpmath.mpc)):
        return mpmath.mpc(z)
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def dirichlet_beta(s) -> mpmath.mpc:
    return mpmath.dirichlet(_mpc(s), [0, 1, 0, -1])


def zeta_closed_form(shape: str, s):
    """Closed-form zeta(phi, s) for the shapes that have one, else None."""
    s = _mpc(s)
    if shape == "absx":
        return 2 * mpmath.zeta(s)
    if shape == "square":
        return 2 * mpmath.zeta(2 * s)
    if shape == "disc":
        return 4 * mpmath.zeta(s) * dirichlet_beta(s)
    if shape == "disc17":
        return mpmath.power(mpmath.mpf("1.7"), -s) * 4 * mpmath.zeta(s) * dirichlet_beta(s)
    return None


def theta_absx(w) -> mpmath.mpc:
    """sum over n in Z of e^{-w|n|} = coth(w/2)."""
    return mpmath.coth(_mpc(w) / 2)


def theta3_squared(w) -> mpmath.mpc:
    """(sum over n of e^{-w n^2})^2 through the modular transformation
    theta_3(e^-w) = sqrt(pi/w) theta_3(e^{-pi^2/w}), fast for small |w|."""
    w = _mpc(w)
    q = mpmath.exp(-mpmath.pi**2 / w)
    total, n = mpmath.mpf(1), 1
    while True:
        term = 2 * q ** (n * n)
        total += term
        if abs(term) < mpmath.mpf(10) ** (-DIGITS - 5):
            break
        n += 1
    return (mpmath.sqrt(mpmath.pi / w) * total) ** 2


def theta_superellipse(w, powers=(12, 18), root=6) -> mpmath.mpf:
    """sum over Z^2 of e^{-w phi}, phi = (|x|^12+|y|^18)^(1/6), for real w > 0.

    The box |x| <= P^(1/2), |y| <= P^(1/3) holds every point with phi <= P;
    with P = 110/w the dropped terms are below e^-110 each and far below
    the 40-digit working precision in total.
    """
    w = mpmath.mpf(w)
    bound = 110 / w
    mx, my = (int(mpmath.floor(bound ** (mpmath.mpf(root) / m))) for m in powers)
    inv_root = mpmath.mpf(1) / root
    ys = [abs(y) ** powers[1] for y in range(0, my + 1)]
    total = mpmath.mpf(0)
    for x in range(0, mx + 1):
        xpow = x ** powers[0]
        row = mpmath.mpf(0)
        for y, ypow in enumerate(ys):
            value = xpow + ypow
            term = mpmath.exp(-w * mpmath.power(value, inv_root)) if value else mpmath.mpf(1)
            row += term if y == 0 else 2 * term
        total += row if x == 0 else 2 * row
    return total


def superellipse_area(powers=(12, 18), root=6) -> mpmath.mpf:
    """|{phi < 1}| = |{|x|^12 + |y|^18 < 1}| = 4 G(1+1/a) G(1+1/b) / G(1+1/a+1/b)."""
    a, b = (mpmath.mpf(p) for p in powers)
    return 4 * mpmath.gamma(1 + 1 / a) * mpmath.gamma(1 + 1 / b) / mpmath.gamma(1 + 1 / a + 1 / b)


def _iroot_floor(n: int, k: int) -> int:
    """Largest x >= 0 with x^k <= n, exactly."""
    if n < 0:
        return -1
    x = int(round(n ** (1.0 / k)))
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def count_superellipse(r: int, powers=(12, 18), root=6) -> int:
    """#{(x, y) in Z^2 : x^12 + y^18 < r^6} for integer r, exactly."""
    limit = int(r) ** root
    total, y = 0, 0
    while abs(y) ** powers[1] < limit:
        rows = 2 * _iroot_floor(limit - 1 - y ** powers[1], powers[0]) + 1
        total += rows if y == 0 else 2 * rows
        y += 1
    return total


def count_disc(r: int) -> int:
    """Gauss-circle count #{(x, y) in Z^2 : x^2 + y^2 < r}, exactly."""
    r = int(r)
    total = 0
    for x in range(-math.isqrt(r - 1), math.isqrt(r - 1) + 1):
        total += 2 * math.isqrt(r - 1 - x * x) + 1
    return total


def remainder_verdict(ray_angle: float, magnitudes, n_terms: int, eps: float) -> bool:
    """Whether |theta - expansion| on |x| decays fast enough, from exact values.

    Expansion of coth(w/2): 2/w + sum_k (-1)^k 2 zeta(-k)/k! w^k; the slope fit
    over the three smallest |w| mirrors the library's remainder check.
    """
    phase = mpmath.expjpi(mpmath.mpf(ray_angle) / mpmath.pi)
    rows = []
    for m in sorted(magnitudes):
        w = mpmath.mpf(m) * phase
        approx = 2 / w
        for k in range(1, n_terms + 1):
            approx += (-1) ** k * 2 * mpmath.zeta(-k) / mpmath.factorial(k) * w**k
        rows.append((math.log(m), math.log(float(abs(theta_absx(w) - approx)))))
    xs, ys = zip(*rows[:3])
    mx, my = sum(xs) / 3, sum(ys) / 3
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return slope >= n_terms + 1.0 - eps - 0.15


def self_checks() -> list:
    """(name, passed) for identities that pin down the oracle itself."""
    tight = mpmath.mpf(10) ** (-DIGITS + 5)
    w = mpmath.mpf("0.01")
    direct_theta3 = sum(mpmath.exp(-w * n * n) for n in range(-120, 121))
    w2 = mpmath.mpc("0.05", "0.02")
    direct_absx = sum(mpmath.exp(-w2 * abs(n)) for n in range(-6000, 6001))
    return [
        ("zeta(2) = pi^2/6", abs(mpmath.zeta(2) - mpmath.pi**2 / 6) < tight),
        ("beta(1) = pi/4", abs(dirichlet_beta(1) - mpmath.pi / 4) < tight),
        ("theta(disc, iw) w -> pi", abs(direct_theta3**2 * w - mpmath.pi) < tight),
        ("modular theta_3^2 = direct sum", abs(theta3_squared(w) - direct_theta3**2) < tight * 1e3),
        ("coth(w/2) = direct |x| sum", abs(theta_absx(w2) - direct_absx) < 1e-25),
        ("superellipse area = count limit",
         abs(count_superellipse(3 * 10**6) / mpmath.mpf(3 * 10**6) ** (mpmath.mpf(5) / 6)
             - superellipse_area()) < 1e-2),
        ("Gauss circle r=10", count_disc(10) == 29),
    ]
