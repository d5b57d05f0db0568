import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azeta import matflow
from azeta.errors import DegenerateSystemError, DomainError, NotPositiveSpectrumError
from azeta.homog import AnisotropicSuperellipse, PNorm, Profile
from azeta.matflow import (
    GeneratorMatrix,
    polar_decompose,
    quadratic_rows,
    solve_lyapunov,
)
from azeta.propsuite import _check_polar


def test_identity_generator_spectral_data():
    g = GeneratorMatrix(np.eye(2))
    assert g.alpha == 2.0
    assert g.gamma == pytest.approx(1.0)
    assert g.beta == pytest.approx(1.0)
    # the flow of the identity is exact scaling: κ(V) = 1
    assert g.c1 == g.c2 == 1.0
    assert not g.defective
    assert g.is_diagonal


def test_alpha_is_trace():
    g = GeneratorMatrix([[0.5, 0.1], [0.0, 1.0 / 3.0]])
    assert g.alpha == pytest.approx(0.5 + 1.0 / 3.0)


def test_flow_group_law():
    g = GeneratorMatrix([[0.5, 0.2], [0.0, 0.25]])
    lhs = g.flow(2.0) @ g.flow(3.0)
    rhs = g.flow(6.0)
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_flow_at_one_is_identity():
    g = GeneratorMatrix([[1.0, 0.3], [-0.1, 0.8]])
    assert np.allclose(g.flow(1.0), np.eye(2), atol=1e-14)


def test_nonpositive_spectrum_rejected():
    with pytest.raises(NotPositiveSpectrumError):
        GeneratorMatrix([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(NotPositiveSpectrumError):
        GeneratorMatrix([[0.0]])


def test_defective_generator_flagged_and_flows():
    g = GeneratorMatrix([[1.0, 1.0], [0.0, 1.0]])
    assert g.defective
    # t^A = t * [[1, log t], [0, 1]] for the Jordan block
    t = 3.0
    want = t * np.array([[1.0, math.log(t)], [0.0, 1.0]])
    assert np.allclose(g.flow(t), want, rtol=1e-12)


def test_defective_polar_round_trip():
    # the Jordan block's polar coordinates pull back along the flow's own
    # expm route
    g = GeneratorMatrix([[1.0, 1.0], [0.0, 1.0]])
    points = np.array([[0.3, -1.2], [2.5, 0.4], [-4.0, 3.0]])
    t, u = g.polar_many(points)
    assert np.allclose(g.lyapunov_radius(u), 1.0, rtol=0.0, atol=1e-12)
    for ti, ui, x in zip(t, u, points):
        assert np.allclose(g.apply_flow(float(ti), ui)[0], x, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("entries", [[[0.5, 0.0], [0.0, 2.0]], [[1.0, 0.3], [-0.3, 1.0]],
                                     [[1.0, 1.0], [0.0, 1.0]]],
                         ids=["diagonal", "rotating", "defective"])
def test_polar_many_hands_stragglers_to_polar_decompose(monkeypatch, entries):
    # no residual meets a negative tolerance, so every point leaves the
    # Newton loop unconverged and takes the scalar bisection path
    monkeypatch.setattr(matflow, "_POLAR_TOL", -1.0)
    fallback = []

    def recorded(generator, point):
        fallback.append(polar_decompose(generator, point))
        return fallback[-1]

    monkeypatch.setattr(matflow, "polar_decompose", recorded)
    g = GeneratorMatrix(entries)
    points = np.array([[0.3, -1.2], [2.5, 0.4], [-4.0, 3.0], [1e-3, 5e3]])
    t, u = g.polar_many(points)
    assert t.tolist() == [ti for ti, _ in fallback]
    assert np.max(np.abs(g.lyapunov_radius(u) - 1.0)) <= 1e-12
    for ti, ui, x in zip(t, u, points):
        back = g.apply_flow(float(ti), ui)[0]
        assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


def test_lyapunov_solves_equation():
    a = np.array([[0.7, 0.2], [-0.1, 1.1]])
    ell = solve_lyapunov(a)
    assert np.allclose(a.T @ ell + ell @ a, np.eye(2), atol=1e-12)
    assert np.min(np.linalg.eigvalsh(ell)) > 0.0


def _stable_generators():
    """Random generators with spectrum in Re > 0, dims 1-3; half far from normal."""
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        for skew in (0.0, 5.0, 40.0):
            for _ in range(4):
                q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
                upper = np.triu(rng.normal(size=(dim, dim)), 1) * skew
                diag = np.diag(rng.uniform(0.1, 3.0, size=dim))
                yield q @ (diag + upper) @ q.T


def test_lyapunov_residuals_on_random_stable_generators():
    for a in _stable_generators():
        ell = solve_lyapunov(a)
        n = a.shape[0]
        residual = a.T @ ell + ell @ a - np.eye(n)
        assert np.linalg.norm(residual) <= 1e-12 * (1.0 + np.linalg.norm(ell)), a
        assert np.array_equal(ell, ell.T)
        assert np.min(np.linalg.eigvalsh(ell)) > 0.0


def test_lyapunov_error_types():
    with pytest.raises(DegenerateSystemError):
        solve_lyapunov(np.zeros((2, 2)))  # A^T L + L A = 0 for every L
    with pytest.raises(NotPositiveSpectrumError):
        solve_lyapunov(np.diag([1.0, -0.5]))
    with pytest.raises(DomainError):
        solve_lyapunov(np.ones((2, 3)))


def test_spectral_bounds_straddle_eigenvalues():
    g = GeneratorMatrix(np.diag([0.5, 2.0]))
    assert g.gamma == pytest.approx(0.5)
    assert g.beta == pytest.approx(2.0)
    assert 0.0 < g.c1 <= g.c2


_CERTIFIED = {
    "upper": [[0.7, 0.2], [0.0, 1.3]],
    "jordan2": [[1.0, 1.0], [0.0, 1.0]],
    "jordan3": [[0.7, 1.0, 0.0], [0.0, 0.7, 1.0], [0.0, 0.0, 0.7]],
    "nonnormal": [[1.0, 0.3], [0.0, 0.7]],
    "rotation": [[0.8, -0.5], [0.5, 0.8]],
    "skew3": [[0.5, 4.0, 0.0], [0.0, 0.6, 3.0], [0.0, 0.0, 2.0]],
    # a Jordan block far below a fast axis: its t <= 1 upper bound needs
    # L_gamma, whose sqrt(cond) is 24x L_beta's
    "jordan-spread": [[0.3, 2.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 3.0]],
}


def test_spectral_bounds_certificate_holds_on_samples():
    rng = np.random.default_rng(5)
    for name, entries in _CERTIFIED.items():
        g = GeneratorMatrix(entries)
        x = rng.normal(size=(1000, g.dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        for t in np.geomspace(1e-4, 1e4, 200):
            norms = np.linalg.norm(g.apply_flow(t, x), axis=1)
            lo = g.c1 * min(t**g.gamma, t**g.beta)
            hi = g.c2 * max(t**g.gamma, t**g.beta)
            assert np.all(norms >= lo * (1.0 - 1e-12)), (name, t)
            assert np.all(norms <= hi * (1.0 + 1e-12)), (name, t)


def test_polar_decompose_round_trip():
    g = GeneratorMatrix([[0.5, 0.0], [0.0, 1.0 / 3.0]])
    x = np.array([2.0, -3.0])
    t, xbar = polar_decompose(g, x)
    assert t > 0.0
    assert g.lyapunov_radius(xbar)[0] == pytest.approx(1.0, abs=1e-11)
    assert np.allclose(g.apply_flow(t, xbar)[0], x, rtol=1e-10)


def test_polar_decompose_rejects_origin():
    g = GeneratorMatrix(np.eye(2))
    with pytest.raises(DomainError):
        polar_decompose(g, np.zeros(2))


def test_transpose_shares_spectrum():
    g = GeneratorMatrix([[0.5, 0.2], [0.0, 0.25]])
    gt = g.transpose()
    assert gt.alpha == pytest.approx(g.alpha)
    assert gt.gamma == pytest.approx(g.gamma)
    assert np.allclose(gt.entries, g.entries.T)


def test_entries_read_only():
    g = GeneratorMatrix(np.eye(2))
    with pytest.raises(ValueError):
        g.entries[0, 0] = 5.0


@settings(max_examples=25, deadline=None)
@given(
    d1=st.floats(0.2, 3.0),
    d2=st.floats(0.2, 3.0),
    x=st.floats(-8.0, 8.0),
    y=st.floats(-8.0, 8.0),
)
def test_polar_round_trip_diagonal(d1, d2, x, y):
    if abs(x) < 1e-3 and abs(y) < 1e-3:
        return
    g = GeneratorMatrix(np.diag([d1, d2]))
    t, u = g.polar_many(np.array([[x, y]]))
    back = g.apply_flow(float(t[0]), u[0])[0]
    assert np.allclose(back, [x, y], rtol=1e-9, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(t1=st.floats(0.1, 10.0), t2=st.floats(0.1, 10.0))
def test_group_law_random_times(t1, t2):
    g = GeneratorMatrix([[0.8, 0.3], [0.0, 0.6]])
    lhs = g.flow(t1) @ g.flow(t2)
    rhs = g.flow(t1 * t2)
    assert np.allclose(lhs, rhs, rtol=1e-10)


def _profile(entries):
    return Profile.from_function(GeneratorMatrix(entries),
                                 lambda p: 1.0 + 0.2 * p[:, 0] ** 2, resolution=32)


# `_check_polar` reads only phi's generator; the Profiles put non-normal and
# defective generators under it
_POLAR_PHIS = {
    "absval": lambda: PNorm(1, 1.0),
    "superellipse": lambda: AnisotropicSuperellipse([12.0, 18.0], 6.0),
    "profile-nonnormal": lambda: _profile([[1.0, 0.3], [0.0, 0.7]]),
    "profile-defective": lambda: _profile([[1.0, 1.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("make", _POLAR_PHIS.values(), ids=_POLAR_PHIS.keys())
def test_polar_check_holds_with_the_proved_constants(make):
    passed, detail = _check_polar(make(), np.random.default_rng(11))
    assert passed, detail
    assert detail.endswith("t within certified bounds: True")


@pytest.mark.parametrize("constant, factor", [("c1", 1.01), ("c2", 1.0 / 1.01)])
def test_polar_check_is_tight_on_a_diagonal_generator(constant, factor):
    # c1 = c2 = 1 is exact on |x|, so 1% past the proof must fail the check
    phi = PNorm(1, 1.0)
    setattr(phi.generator, constant, getattr(phi.generator, constant) * factor)
    passed, detail = _check_polar(phi, np.random.default_rng(11))
    assert not passed
    assert detail.endswith("t within certified bounds: False")


def test_quadratic_rows_matches_the_einsum():
    # the reference is np.einsum("ij,jk,ik->i", x, M, x), with the same bits
    # on a diagonal M.  On any other M, quadratic_rows rounds each term at
    # most 2n times and the einsum n^2 + 1 times, so to first order they
    # differ by at most (n + 1)^2 eps |x|^T |M| |x| (3 ulps of it were seen)
    rng = np.random.default_rng(50)
    blocks = [rng.uniform(-3.0, 3.0, size=(20_000, 3)),
              rng.integers(-1000, 1000, size=(20_000, 3)).astype(float),
              rng.uniform(-1.0, 1.0, size=(20_000, 3)) * 1e8,
              rng.uniform(-1.0, 1.0, size=(20_000, 3)) * 1e-8]
    diagonal = [np.eye(2), 1.7 * np.eye(2), np.array([[1.0]]), np.diag([1.0, 1.5]),
                np.eye(3), math.pi ** 2 * np.eye(2)]
    skew = [np.array([[2.0, 0.5], [0.5, 1.0]]),
            np.array([[2.0, 0.3, -0.1], [0.3, 1.0, 0.2], [-0.1, 0.2, 1.5]])]
    for m, exact in [(m, True) for m in diagonal] + [(m, False) for m in skew]:
        n = m.shape[0]
        for x in blocks:
            x = np.ascontiguousarray(x[:, :n])
            got, want = quadratic_rows(x, m), np.einsum("ij,jk,ik->i", x, m, x)
            if exact:
                assert np.array_equal(got, want)
            else:
                scale = np.einsum("ij,jk,ik->i", np.abs(x), np.abs(m), np.abs(x))
                assert np.all(np.abs(got - want) <= (n + 1) ** 2 * np.finfo(float).eps * scale)
    ints = rng.integers(-10**6, 10**6, size=(1000, 2))
    assert quadratic_rows(ints, np.array([[3, -1], [-1, 2]])).tolist() == [
        3 * x * x - 2 * x * y + 2 * y * y for x, y in ints.tolist()]
