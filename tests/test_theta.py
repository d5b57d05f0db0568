import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

import azeta
from azeta import theta as theta_module
from azeta.errors import BudgetExceededError, DomainError
from azeta.homog import (_WALK_EVAL_ROWS, PNorm, Profile, QuadraticForm, _coordinate_monotone,
                         _lattice_values)
from azeta.kernel import Kernel, fourier_transform, quadratic_transform
from azeta.lattice import box_rows
from azeta.matflow import GeneratorMatrix
from azeta.quadrature import panel_points
from azeta.special import _power_sum_bound, exp_shell_tail, first_shell, gamma_tail_factor
from azeta.theta import jacobi_residual, theta_phi, theta_star_table
from azeta.zeta import default_power

from oracles import theta3_sum
from shapes import ABSVAL, DISC, SQUARE, SUPERELLIPSE

BALL = QuadraticForm(np.eye(3))

# frozen closed form: theta(|x|, i*1) = 1 + 2/(e - 1)
_THETA_ABS_AT_1 = 1.0 + 2.0 / (math.e - 1.0)


def test_theta_absolute_value_closed_form():
    got = theta_phi(PNorm(1, 1.0), 1.0)
    assert got.value == pytest.approx(_THETA_ABS_AT_1, abs=1e-13)
    assert got.kind == "rigorous"
    assert abs(got.value - _THETA_ABS_AT_1) <= got.error + 1e-15


@pytest.mark.parametrize("w", [0.002, 0.0143, 0.5 + 0.2j, 1e-5])
def test_theta_absolute_value_matches_coth_within_its_bar(w):
    """θ(|x|, iw) = coth(w/2), down to w = 1e-5 (4e6 shells).  The bar
    leaves out the rounding of the sum (an open defect), so four ulps of
    the value are allowed on top; a shell-by-shell sum misses at w = 0.002
    by 2.5e-11."""
    got = theta_phi(PNorm(1, 1.0), w)
    exact = complex(mpmath.coth(mpmath.mpc(w) / 2))
    assert abs(got.value - exact) <= got.error + 4 * 2.0**-52 * abs(exact)


def test_theta_square_matches_jacobi_theta3():
    phi = QuadraticForm([[1.0]])
    for w in (0.5, 1.0, 2.0):
        got = theta_phi(phi, w)
        assert got.value == pytest.approx(theta3_sum(w), abs=1e-12)


def test_theta_disc_is_theta3_squared():
    got = theta_phi(QuadraticForm(np.eye(2)), 1.0)
    assert got.value == pytest.approx(theta3_sum(1.0) ** 2, abs=1e-12)


@pytest.mark.parametrize("w", [2e-3, 1e-5])
def test_theta_disc_is_theta3_squared_to_two_ulps_at_small_w(w):
    """θ(disc, iw) = θ₃(e^{-w})² within 2 ulps of the value, down to
    w = 1e-5 (2,185 shells).  The bar leaves out the sum's rounding (an
    open defect), so the miss is held to the value's ulps; adding the
    slab sums in float64 instead of exactly misses at 1e-5 by 2.9 ulps."""
    got = theta_phi(DISC, w)
    with mpmath.workdps(40):
        # Jacobi's transform: θ₃(e^{-w}) = √(π/w) θ₃(e^{-π²/w})
        wm = mpmath.mpf(w)
        theta3 = mpmath.sqrt(mpmath.pi / wm) * mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi**2 / wm))
        exact = theta3**2
        miss = abs(mpmath.mpf(got.value) - exact)
    assert miss <= 2 * np.spacing(got.value)


def test_theta_complex_argument_conjugates():
    phi = PNorm(1, 1.0)
    w = 0.8 + 0.3j
    a = theta_phi(phi, w)
    b = theta_phi(phi, np.conj(w))
    assert b.value == pytest.approx(np.conj(a.value), abs=1e-13)


def test_theta_rejects_left_half_plane():
    with pytest.raises(DomainError):
        theta_phi(PNorm(1, 1.0), -0.5)
    with pytest.raises(DomainError):
        theta_phi(PNorm(1, 1.0), 1.0j)


def _lopsided_profile():
    def lopsided(pts):
        return 1.0 + 0.3 * pts[:, 0] / np.linalg.norm(pts, axis=1)

    return Profile.from_function(DISC.generator, lopsided, resolution=64)


@pytest.mark.parametrize("phi, branch", [
    (SUPERELLIPSE, "orthant"),
    (QuadraticForm([[2.0, 0.5], [0.5, 1.0]]), "half box"),
    (_lopsided_profile(), "whole box"),
], ids=["monotone", "even", "uneven"])
def test_theta_sums_each_branch_of_the_lattice_walk(phi, branch, monkeypatch):
    assert branch == ("orthant" if _coordinate_monotone(phi)
                      else "half box" if phi.is_even else "whole box")
    mult = 2 if phi.is_even else 1
    boxes = []

    def recording(phi, box, grid=True):
        boxes.append(list(box))
        return _lattice_values(phi, box, grid)

    monkeypatch.setattr(theta_module, "_lattice_values", recording)
    for w in (0.05, 0.5 + 0.2j):
        got = theta_phi(phi, w)
        m = boxes[-1][0]
        walked = sum(mult * weight * vals.size for vals, weight in _lattice_values(phi, boxes[-1]))
        assert walked == (2 * m + 1) ** phi.dim - 1
        # the bar leaves out the sum's rounding (an open defect), so four
        # ulps of the value are allowed on top, as for |x| against coth
        terms = np.exp(-w * phi.evaluate_many(box_rows(boxes[-1], nonzero=True)))
        want = 1.0 + complex(math.fsum(terms.real), math.fsum(np.imag(terms)))
        assert abs(got.value - want) <= got.error + 4 * 2.0**-52 * abs(want)


def test_row_slabs_are_capped_and_give_the_grid_walks_values():
    # the orthant face of [-200, 200]^2 has 4e4 rows: two grid slabs, five row slabs
    box = [200, 200]
    walks = [list(_lattice_values(SUPERELLIPSE, box, grid)) for grid in (True, False)]
    assert max(v.size for v, _ in walks[0]) > _WALK_EVAL_ROWS
    assert max(v.size for v, _ in walks[1]) <= _WALK_EVAL_ROWS
    flat = [(np.concatenate([v for v, _ in walk]),
             np.concatenate([np.full(v.size, w) for v, w in walk])) for walk in walks]
    assert np.array_equal(flat[0][0], flat[1][0]) and np.array_equal(flat[0][1], flat[1][1])


class _StopShell:
    """φ seen through theta_phi's interface, keeping the largest shell summed;
    as an uneven φ it is walked over the whole box, with the empty x_0 = 0
    slab of a one-dimensional half box."""

    is_even = False

    def __init__(self, phi):
        self._phi = phi
        self.dim = phi.dim
        self.generator = phi.generator
        self.stop = 0

    def growth(self):
        return self._phi.growth()

    def evaluate_many(self, points):
        self.stop = max(self.stop, int(np.abs(points).max(initial=0)))
        return self._phi.evaluate_many(points)


@pytest.mark.parametrize("w", [0.002, 0.01, 0.05, 0.5 + 0.2j, 2.0])
@pytest.mark.parametrize("phi", [ABSVAL, SQUARE, DISC, SUPERELLIPSE],
                         ids=["absval", "square", "disc", "superellipse"])
def test_theta_tail_bar_covers_the_dropped_shells(phi, w):
    recorder = _StopShell(phi)
    got = theta_phi(recorder, w)
    m = recorder.stop
    # every shell past the stop, out to one whose terms are all below 1e-30
    # of the bar
    rate = complex(w).real
    top = m + 1
    while True:
        rows = box_rows([top] * phi.dim)
        norms = np.abs(rows).max(axis=1)
        if np.exp(-rate * phi.evaluate_many(rows[norms == top])).max() < 1e-30 * got.error:
            break
        top *= 2
    dropped = math.fsum(np.exp(-rate * phi.evaluate_many(rows[norms > m])).tolist())
    assert dropped <= got.error


def test_theta_over_the_point_budget_raises_at_once():
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="1e\\+08 budget"):
        theta_phi(DISC, 1e-7)
    assert time.perf_counter() - start < 1.0


# θ*(ball kernel, 1e-3) stops at shell 267 by its tail bound, 1.5e8 rows if
# the table were formed; run under a 1 GiB address-space cap, so a tree
# without the point budget fails with MemoryError instead of taking gigabytes
_THETA_STAR_BUDGET_SCRIPT = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from azeta.errors import BudgetExceededError
from azeta.homog import QuadraticForm
from azeta.kernel import Kernel
from azeta.theta import theta_star_table
ball = QuadraticForm(np.eye(3))
start = time.perf_counter()
try:
    theta_star_table(ball.generator, Kernel(ball, power=4), [1e-3])
except BudgetExceededError as exc:
    print(f"{time.perf_counter() - start:.3f}", exc)
"""


def test_theta_star_table_over_the_point_budget_raises_at_once():
    src = str(Path(azeta.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", _THETA_STAR_BUDGET_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    seconds, message = out.stdout.strip().split(" ", 1)
    assert "within 49 shells" in message and "1,000,000-point budget" in message
    assert float(seconds) < 1.0


@pytest.mark.parametrize("entries", [[[1.0, 0.3], [-0.3, 1.0]], [[1.0, 0.3], [0.0, 0.7]]],
                         ids=["rotating", "sheared"])
def test_kernel_table_off_a_diagonal_flow_matches_a_brute_sum(entries):
    # a Profile on a flow that is not diagonal, so `_table_stop` takes the
    # batched SVD; the brute sum applies each flow t^A to the box of 160,
    # past which the terms add up to under 1e-23
    generator = GeneratorMatrix(entries)
    phi = Profile.from_function(
        generator, lambda p: 1.0 + 0.2 * np.cos(3.0 * np.arctan2(p[:, 1], p[:, 0])),
        resolution=64)
    kernel = Kernel(phi, power=4)
    ts = np.array([1.0, 2.5, 6.0])
    values, errors, kind = theta_star_table(generator, kernel, ts)
    assert kind == "rigorous"
    rows = box_rows([160, 160], nonzero=True)
    for t, value, error in zip(ts.tolist(), values, errors):
        want = math.fsum(kernel.evaluate_many(rows @ generator.flow(t).T).tolist())
        assert abs(value - want) <= error, t


@pytest.mark.parametrize("entries", [[[1.0, 0.3], [-0.3, 1.0]], [[1.0, 0.3], [0.0, 0.7]]],
                         ids=["rotating", "sheared"])
def test_kernel_table_bars_cover_the_polar_error_of_a_profile(entries):
    # at target 1e-14 the tail no longer hides a Profile's own error: its
    # polar radius stops at a residual that leaves φ off by up to 7.7e-14
    # relative on the sheared flow, and a term x^c e^{-x} moves by |c - x|
    # times as much; the brute sum is the one of the test above
    generator = GeneratorMatrix(entries)
    phi = Profile.from_function(
        generator, lambda p: 1.0 + 0.2 * np.cos(3.0 * np.arctan2(p[:, 1], p[:, 0])),
        resolution=64)
    kernel = Kernel(phi, power=4)
    ts = np.array([1.0, 2.5, 6.0, 12.0])
    values, errors, kind = theta_star_table(generator, kernel, ts)
    assert kind == "rigorous"
    rows = box_rows([160, 160], nonzero=True)
    for t, value, error in zip(ts.tolist(), values, errors):
        want = math.fsum(kernel.evaluate_many(rows @ generator.flow(t).T).tolist())
        assert abs(value - want) <= error, t


def test_theta_star_is_theta_minus_center_term():
    # theta*(g, it) sums g(t^A omega) over nonzero omega; for g = e^{-phi}
    # at t it matches theta_phi(phi, t) - 1
    phi = PNorm(1, 1.0)
    k = Kernel(phi, power=0.0)
    for t in (1.0, 2.0):
        (star,), _, _ = theta_star_table(k.generator, k, [t])
        full = theta_phi(phi, t)
        assert star == pytest.approx(full.value - 1.0, abs=1e-11)


def test_jacobi_residual_self_dual_gaussian():
    # g = e^{-pi x^2} is its own transform; the identity is exact
    k = Kernel(QuadraticForm([[math.pi]]), power=0.0)  # e^{-pi x^2}
    for t in (1.0, 2.0, 5.0):
        res = jacobi_residual(k.generator, k, k, t)
        assert res.value <= 1e-10


def test_jacobi_residual_numeric_transform():
    k = Kernel(SQUARE, power=0.0)
    khat = fourier_transform(k)
    for t in (1.0, 2.0):
        res = jacobi_residual(k.generator, k, khat, t)
        assert res.value <= max(res.error, 1e-9)


SKEW3 = QuadraticForm([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])


@pytest.mark.parametrize("phi", [SQUARE, DISC, QuadraticForm([[2.0, 0.5], [0.5, 1.0]]), SKEW3],
                         ids=["square", "disc", "skew", "skew3"])
def test_jacobi_residual_of_the_closed_form_transform(phi):
    # ĝ of φ^c e^{-φ} in closed form: the identity holds to the rounding
    for c in (0, 3, 6):
        k = Kernel(phi, power=c)
        ghat = quadratic_transform(phi.q_matrix, c)
        for t in (0.5, 1.0, 3.0):
            res = jacobi_residual(k.generator, k, ghat, t)
            assert res.kind == "rigorous"
            assert res.value <= res.error, (c, t)
            assert res.error <= 1e-11 * (1.0 + t**phi.alpha * ghat.value_at_origin)


def test_jacobi_rejects_nonpositive_time():
    k = Kernel(SQUARE, power=0.0)
    with pytest.raises(DomainError):
        jacobi_residual(k.generator, k, k, 0.0)


class _ShellOnly:
    """A transform seen only through the generic interface of theta_star_table."""

    def __init__(self, transform):
        self._transform = transform
        self.quad_error = transform.quad_error

    def evaluate_many(self, points):
        return self._transform.evaluate_many(points)

    def shell_tail(self, sigma, m):
        return self._transform.shell_tail(sigma, m)


@pytest.mark.parametrize("kernel", [
    Kernel(SQUARE, power=0.0),
    Kernel(DISC, power=0.0),
], ids=["sampled-1d", "sampled-2d-diagonal"])
def test_box_sum_path_agrees_with_shell_path(kernel):
    tr = fourier_transform(kernel)
    generator = kernel.generator.transpose()
    for t in (1.3, 2.7, 5.0):
        (fast,), (fast_error,), _ = theta_star_table(generator, tr, [t])
        (shells,), (shells_error,), _ = theta_star_table(generator, _ShellOnly(tr), [t])
        assert abs(fast - shells) <= fast_error + shells_error


class _Recording:
    """A kernel seen through the generic interface, keeping every value summed."""

    def __init__(self, kernel):
        self._kernel = kernel
        self.values = []

    def evaluate_many(self, points):
        vals = self._kernel.evaluate_many(points)
        self.values.extend(vals.tolist())
        return vals

    def shell_tail(self, sigma, m):
        return self._kernel.shell_tail(sigma, m)


@pytest.mark.parametrize("t", [1.5, 5.0, 25.5, 80.0])
def test_rigorous_shell_bar_covers_the_rounding_of_the_sum(t):
    # the kernel side of the superellipse continuation, at the side tables'
    # target: the truncated tail alone is far below one ulp of the value
    kernel = Kernel(SUPERELLIPSE, power=default_power(SUPERELLIPSE))
    recorder = _Recording(kernel)
    (value,), (error,), kind = theta_star_table(SUPERELLIPSE.generator, recorder, [t])
    assert kind == "rigorous"
    assert abs(value - math.fsum(recorder.values)) <= error


_TAIL_SUMMANDS = {
    "kernel-disc": lambda: Kernel(DISC, power=default_power(DISC)),
    "kernel-superellipse": lambda: Kernel(SUPERELLIPSE, power=default_power(SUPERELLIPSE)),
    "gaussian-disc": lambda: quadratic_transform(DISC.q_matrix, int(default_power(DISC))),
    "sampled-superellipse": lambda: fourier_transform(
        Kernel(SUPERELLIPSE, power=default_power(SUPERELLIPSE))),
}


@pytest.mark.parametrize("name", list(_TAIL_SUMMANDS))
def test_shell_tails_do_not_grow_with_sigma(name):
    # a θ* table takes one stop for all its nodes, the one of its least σ;
    # that serves every node because at fixed m no tail bound grows with σ
    func = _TAIL_SUMMANDS[name]()
    sigmas = np.geomspace(0.05, 50.0, 400)
    for m in (1, 2, 5, 11, 40):
        tails = np.broadcast_to(func.shell_tail(sigmas, m)[0], sigmas.shape)
        assert np.all(tails[1:] <= tails[:-1]), m


@pytest.mark.parametrize("phi, ts", [
    (DISC, np.geomspace(0.3, 40.0, 60)),
    (SUPERELLIPSE, np.geomspace(0.5, 80.0, 60)),
    (Profile.from_function(GeneratorMatrix([[1.0, 0.3], [0.0, 0.7]]),
                           lambda p: 1.0 + 0.2 * p[:, 0] ** 2, resolution=64),
     np.geomspace(0.5, 12.0, 30)),
], ids=["disc", "superellipse", "sheared-profile"])
def test_table_stop_is_the_scalar_search_at_the_least_sigma(phi, ts):
    # the table's stop against a scalar `first_shell` over the scalar
    # `exp_shell_tail` at the least singular value of the nodes' flows, and
    # each node's tail at that stop against the scalar tail at its own σ;
    # the array tails round apart by a few ulps of their exponent
    kernel = Kernel(phi, power=default_power(phi))
    m_stop, tails, rigorous = theta_module._table_stop(phi.generator, kernel, ts)
    assert rigorous is True
    c3, p = phi.growth(), 1.0 / phi.generator.beta
    sigmas = [np.linalg.svd(phi.generator.flow(t), compute_uv=False)[-1] for t in ts]

    def scalar(j, sigma):
        return (math.inf if sigma * j < 1.0
                else exp_shell_tail(phi.dim, j, c3 * sigma**p, p, kernel.power))

    assert m_stop == first_shell(lambda j: scalar(j + 1, min(sigmas)) <= 1e-14, 2000)
    assert np.all(tails <= 1e-14)
    for sigma, tail in zip(sigmas, tails.tolist()):
        assert tail == pytest.approx(scalar(m_stop + 1, sigma), rel=1e-13), sigma


def test_power_sum_bound_is_above_the_sum():
    # the box-sum path's dropped term: Σ_{K < j < K+4000} j^{-p}
    for p in (1.5, 2.0, 3.3, 6.0, 12.0, 40.0):
        for k in (0, 1, 2, 5, 31, 1000, 10000):
            direct = math.fsum(j**-p for j in range(k + 1, k + 4000))
            bound = _power_sum_bound(p, k + 1.0, k + 4000.0)
            assert direct <= bound <= 1.03 * direct, (p, k)
    assert _power_sum_bound(2.5, 2.0, 3.0) == 2.0**-2.5


def _tail_cases():
    """(dim, a, p, c) of the shell tails: theta_phi's a = Re w c3 and p = 1/β
    on |x|, the disc, the superellipse and the 3-ball at the w of the bar
    test below, and the default-power kernels' a = c3 σ^{1/β} at flow times
    1, 2 and 5 (σ the smallest singular value of t^A)."""
    shapes = {"absval": ABSVAL, "square": SQUARE, "disc": DISC,
              "superellipse": SUPERELLIPSE, "ball": BALL}
    cases = []
    for name, phi in shapes.items():
        c3, p = phi.growth(), 1.0 / phi.generator.beta
        if name != "square":
            cases += [pytest.param(phi.dim, w * c3, p, 0.0, id=f"theta-{name}-w{w}")
                      for w in (0.002, 0.01, 0.05, 0.5, 2.0)]
        for t in (1.0, 2.0, 5.0):
            sigma = np.linalg.svd(phi.generator.flow(t), compute_uv=False)[-1]
            cases.append(pytest.param(phi.dim, c3 * sigma**p, p, default_power(phi),
                                      id=f"kernel-{name}-t{t:g}"))
    return cases


def _exact_shell_sum(dim, a, p, c, m):
    """Σ_{j>=m} N_j (a j^p)^c e^{-a j^p} in 30 digits, out to where the terms
    fall below 1e-25 of the sum."""
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        j = m
        while True:
            x = a * mpmath.mpf(j) ** p
            term = ((2 * j + 1) ** dim - (2 * j - 1) ** dim) * x**c * mpmath.exp(-x)
            total += term
            if x > c + dim and term < 1e-25 * total:
                return total
            j += 1


@pytest.mark.parametrize("dim,a,p,c", _tail_cases())
def test_shell_tail_bound_holds_and_is_tight(dim, a, p, c):
    # the first admissible shell: a m^p >= (n-1)/p + c, and past s - 1 for
    # every Γ((k+1)/p + c, ·)
    first = next(m for m in range(1, 1000) if a * m**p >= (dim - 1) / p + c
                 and a * m**p > dim / p + c - 1.0)
    assert math.isfinite(exp_shell_tail(dim, first, a, p, c))
    assert all(exp_shell_tail(dim, m, a, p, c) == math.inf for m in range(1, first))
    x = a * first**p
    for k in range(dim - 1, -1, -2):
        s = (k + 1) / p + c
        with mpmath.workdps(30):
            gamma = mpmath.gammainc(s, x)
            assert gamma <= x ** (s - 1) * mpmath.exp(-x) * gamma_tail_factor(s, x)
    for m in (first, first + 10):
        bound = exp_shell_tail(dim, m, a, p, c)
        exact = _exact_shell_sum(dim, a, p, c, m)
        assert exact <= bound, m
        if m > first:
            # at the first shell Γ's factor x/(x-s+1) can be far above 1
            assert bound <= 1.35 * exact, m


@pytest.mark.parametrize("phi", [ABSVAL, SQUARE, DISC], ids=["absval", "square", "disc"])
def test_kernel_table_bars_cover_the_conditioning_of_g(phi):
    # the last octaves of a kernel-side table, where x = tφ is far above c
    # and a rounding of x moves x^c e^{-x} by |c - x| times as much; these
    # φ are exact at integer points, so a 30-digit sum of the same terms is
    # the truth, and the box holds every term above 1e-300
    c = default_power(phi)
    kernel = Kernel(phi, power=c)
    ts, _ = panel_points([16.0, 32.0, 64.0, 100.0], 24)
    values, errors, kind = theta_star_table(kernel.generator, kernel, ts)
    assert kind == "rigorous"
    levels = phi.evaluate_many(box_rows([8] * phi.dim, nonzero=True)).tolist()
    with mpmath.workdps(30):
        for t, value, error in zip(ts.tolist(), values, errors):
            t = mpmath.mpf(t)
            want = mpmath.fsum((t * v) ** int(c) * mpmath.exp(-t * v) for v in levels)
            assert abs(value - want) <= error, float(t)


def test_kernel_table_in_blocks_matches_one_node_calls(monkeypatch):
    # blocks of a few nodes each over the table's one box, against one-node
    # tables, each over the box of its own stop, which is no larger
    kernel = Kernel(SUPERELLIPSE, power=default_power(SUPERELLIPSE))
    ts, _ = panel_points([1.0, 2.0, 4.0], 12)
    monkeypatch.setattr(theta_module, "_TABLE_BLOCK", 2000)
    values, errors, _ = theta_star_table(kernel.generator, kernel, ts)
    for t, value, error in zip(ts, values, errors):
        (one,), (one_error,), _ = theta_star_table(kernel.generator, kernel, [t])
        assert abs(value - one) <= 1e-15 * one
        assert error == pytest.approx(one_error, rel=0.2)
