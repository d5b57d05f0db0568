import math

import mpmath
import numpy as np
import pytest

from azeta import theta as theta_module
from azeta.errors import DomainError
from azeta.homog import PNorm, QuadraticForm
from azeta.kernel import Kernel, fourier_transform
from azeta.lattice import box_rows
from azeta.quadrature import panel_points
from azeta.theta import (
    _power_sum_bound,
    jacobi_residual,
    theta_phi,
    theta_star_matrix,
    theta_star_table,
)
from azeta.zeta import default_power

from oracles import theta3_sum
from shapes import ABSVAL, DISC, SQUARE, SUPERELLIPSE

# frozen closed form: theta(|x|, i*1) = 1 + 2/(e - 1)
_THETA_ABS_AT_1 = 1.0 + 2.0 / (math.e - 1.0)


def test_theta_absolute_value_closed_form():
    got = theta_phi(PNorm(1, 1.0), 1.0)
    assert got.value == pytest.approx(_THETA_ABS_AT_1, abs=1e-13)
    assert got.kind == "rigorous"
    assert abs(got.value - _THETA_ABS_AT_1) <= got.error + 1e-15


def test_theta_square_matches_jacobi_theta3():
    phi = QuadraticForm([[1.0]])
    for w in (0.5, 1.0, 2.0):
        got = theta_phi(phi, w)
        assert got.value == pytest.approx(theta3_sum(w), abs=1e-12)


def test_theta_disc_is_theta3_squared():
    got = theta_phi(QuadraticForm(np.eye(2)), 1.0)
    assert got.value == pytest.approx(theta3_sum(1.0) ** 2, abs=1e-12)


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


def test_theta_star_is_theta_minus_center_term():
    # theta*(g, it) sums g(t^A omega) over nonzero omega; for g = e^{-phi}
    # at t it matches theta_phi(phi, t) - 1
    phi = PNorm(1, 1.0)
    k = Kernel(phi, root=1.0)
    for t in (1.0, 2.0):
        star = theta_star_matrix(k.generator, k, t)
        full = theta_phi(phi, t)
        assert star.value == pytest.approx(full.value - 1.0, abs=1e-11)


def test_jacobi_residual_self_dual_gaussian():
    # g = e^{-pi x^2} is its own transform; the identity is exact
    phi = PNorm(1, 1.0).scale(math.sqrt(math.pi))
    k = Kernel(phi, root=2.0)  # e^{-pi x^2}
    for t in (1.0, 2.0, 5.0):
        res = jacobi_residual(k.generator, k, k, t)
        assert res.value <= 1e-10


def test_jacobi_residual_numeric_transform():
    phi = PNorm(1, 1.0)
    k = Kernel(phi, root=2.0)
    khat = fourier_transform(k)
    for t in (1.0, 2.0):
        res = jacobi_residual(k.generator, k, khat, t)
        assert res.value <= max(res.error, 1e-9)


def test_jacobi_rejects_nonpositive_time():
    phi = PNorm(1, 1.0)
    k = Kernel(phi, root=2.0)
    with pytest.raises(DomainError):
        jacobi_residual(k.generator, k, k, 0.0)


class _ShellOnly:
    """A transform seen only through the generic interface of theta_star_matrix."""

    def __init__(self, transform):
        self._transform = transform
        self.quad_error = transform.quad_error

    def evaluate_many(self, points):
        return self._transform.evaluate_many(points)

    def decay_bound(self, radius):
        return self._transform.decay_bound(radius)


@pytest.mark.parametrize("kernel", [
    Kernel(PNorm(1, 1.0), root=2.0),
    Kernel(QuadraticForm(np.eye(2)), root=1.0),
], ids=["sampled-1d", "sampled-2d-diagonal"])
def test_box_sum_path_agrees_with_shell_path(kernel):
    tr = fourier_transform(kernel)
    generator = kernel.generator.transpose()
    for t in (1.3, 2.7, 5.0):
        fast = theta_star_matrix(generator, tr, t)
        shells = theta_star_matrix(generator, _ShellOnly(tr), t)
        assert abs(fast.value - shells.value) <= fast.error + shells.error


class _Recording:
    """A kernel seen through the generic interface, keeping every value summed."""

    def __init__(self, kernel):
        self._kernel = kernel
        self.values = []

    def evaluate_many(self, points):
        vals = self._kernel.evaluate_many(points)
        self.values.extend(vals.tolist())
        return vals

    def decay_bound(self, radius):
        return self._kernel.decay_bound(radius)


@pytest.mark.parametrize("t", [1.5, 5.0, 25.5, 80.0])
def test_rigorous_shell_bar_covers_the_rounding_of_the_sum(t):
    # the kernel side of the superellipse continuation, at the side tables'
    # target: the truncated tail alone is far below one ulp of the value
    kernel = Kernel(SUPERELLIPSE, power=default_power(SUPERELLIPSE))
    recorder = _Recording(kernel)
    got = theta_star_matrix(SUPERELLIPSE.generator, recorder, t, target=1e-14)
    assert got.kind == "rigorous"
    assert abs(got.value - math.fsum(recorder.values)) <= got.error


def test_power_sum_bound_is_above_the_sum():
    # the box-sum path's dropped term: Σ_{K < j < K+4000} j^{-p}
    for p in (1.5, 2.0, 3.3, 6.0, 12.0, 40.0):
        for k in (0, 1, 2, 5, 31, 1000, 10000):
            direct = math.fsum(j**-p for j in range(k + 1, k + 4000))
            bound = _power_sum_bound(p, k + 1.0, k + 4000.0)
            assert direct <= bound <= 1.03 * direct, (p, k)
    assert _power_sum_bound(2.5, 2.0, 3.0) == 2.0**-2.5


def test_lattice_tail_past_its_loop_is_geometric():
    # ratio 0.999 reaches the 1e-18 stop only after about 41,000 terms; the
    # remainder past the 8000 summed is then the geometric one, exactly
    geometric = theta_module._lattice_tail(lambda m: (0.999**m, True), 10)
    assert geometric[0] == pytest.approx(0.999**10 / 0.001, rel=1e-12)
    assert geometric[1] is True
    # rising ratios: the geometric remainder can fall short, so it is flagged
    rising = theta_module._lattice_tail(
        lambda m: (math.exp(-0.05 * math.sqrt(m)), True), 10)
    assert math.isfinite(rising[0]) and rising[1] is False


@pytest.mark.parametrize("phi", [ABSVAL, SQUARE, DISC], ids=["absval", "square", "disc"])
def test_kernel_table_bars_cover_the_conditioning_of_g(phi):
    # the last octaves of a kernel-side table, where x = tφ is far above c
    # and a rounding of x moves x^c e^{-x} by |c - x| times as much; these
    # φ are exact at integer points, so a 30-digit sum of the same terms is
    # the truth, and the box holds every term above 1e-300
    c = default_power(phi)
    kernel = Kernel(phi, power=c)
    ts, _ = panel_points([16.0, 32.0, 64.0, 100.0], 24)
    values, errors, kind = theta_star_table(kernel.generator, kernel, ts, target=1e-14)
    assert kind == "rigorous"
    levels = phi.evaluate_many(box_rows([8] * phi.dim, nonzero=True)).tolist()
    with mpmath.workdps(30):
        for t, value, error in zip(ts.tolist(), values, errors):
            t = mpmath.mpf(t)
            want = mpmath.fsum((t * v) ** int(c) * mpmath.exp(-t * v) for v in levels)
            assert abs(value - want) <= error, float(t)


def test_kernel_table_in_blocks_matches_one_node_calls(monkeypatch):
    # blocks of a few nodes each, every block cut to its own farthest stop
    kernel = Kernel(SUPERELLIPSE, power=default_power(SUPERELLIPSE))
    ts, _ = panel_points([1.0, 2.0, 4.0], 12)
    monkeypatch.setattr(theta_module, "_TABLE_BLOCK", 2000)
    values, errors, _ = theta_star_table(kernel.generator, kernel, ts, target=1e-14)
    for t, value, error in zip(ts, values, errors):
        one = theta_star_matrix(kernel.generator, kernel, t, target=1e-14)
        assert abs(value - one.value) <= 1e-15 * one.value
        assert error == pytest.approx(one.error, rel=0.2)
