import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from azeta.errors import DomainError
from azeta.special import (
    bernoulli_numbers,
    digamma,
    gamma,
    gamma_rel_error,
)

from oracles import _gamma, bernoulli_exact


def test_gamma_real_matches_math():
    for x in (0.5, 1.0, 1.5, 11.0 / 6.0, 4.25, 9.0):
        assert gamma(x).imag == 0.0
        assert gamma(x).real == pytest.approx(math.gamma(x), rel=1e-13)


def test_gamma_rel_error_bounds_the_right_half_plane():
    for re in np.linspace(0.5, 20.0, 40):
        for im in np.linspace(-34.0, 34.0, 69):
            z = complex(re, im)
            want = _gamma(z)
            assert abs(gamma(z) - want) <= gamma_rel_error(z) * abs(want)


def test_gamma_half_integer_closed_form():
    assert gamma(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma(2.5).real == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-13)


def test_gamma_functional_equation_complex():
    for z in (0.3 + 1.7j, 2.0 - 0.4j, -1.3 + 0.9j):
        assert gamma(z + 1) == pytest.approx(z * gamma(z), rel=1e-12)


def test_gamma_reflection():
    z = 0.3 + 0.4j
    lhs = gamma(z) * gamma(1 - z)
    rhs = math.pi / cmath.sin(math.pi * z)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gamma_conjugate_symmetry():
    z = 1.7 + 2.3j
    assert gamma(np.conj(z)) == pytest.approx(np.conj(gamma(z)), rel=1e-14)


def test_bernoulli_first_values():
    got = bernoulli_numbers(8)
    want = [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
        Fraction(0),
        Fraction(-1, 30),
    ]
    assert got == want


def test_bernoulli_matches_oracle_recursion():
    assert bernoulli_numbers(20) == bernoulli_exact(20)


def test_gamma_at_alpha_plus_one_within_rel_error():
    # Γ(α+1) turns ∫e^{-φ} into |B|; α = 1/2 (x²), 5/6 (superellipse), 1, 3/2
    for alpha in (0.5, 5.0 / 6.0, 1.0, 1.5, *np.linspace(0.05, 3.0, 60)):
        want = mpmath.gamma(mpmath.mpf(float(alpha)) + 1)
        got = gamma(alpha + 1.0)
        assert got.imag == 0.0
        assert abs(got.real - want) <= gamma_rel_error(alpha + 1.0) * want



def test_digamma_matches_mpmath():
    for x in (2.0, 2.5, 3.0, 4.7, 9.99, 10.0, 12.3, 50.0, 1e3, 1e6):
        want = float(mpmath.digamma(x))
        assert abs(digamma(x) - want) <= 1e-14 * max(1.0, abs(want))


def test_digamma_rejects_small_arguments():
    with pytest.raises(DomainError):
        digamma(1.5)
