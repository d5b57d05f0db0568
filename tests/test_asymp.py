import math
from fractions import Fraction

import pytest

from azeta.asymp import (
    bernoulli_identity_check,
    remainder_check,
    theta_expansion,
)
from azeta.errors import DomainError
from azeta.special import bernoulli_numbers
from azeta.theta import theta_phi
from oracles import bernoulli_exact
from shapes import ABSVAL, DISC, SQUARE


def test_expansion_tracks_theta_on_the_line():
    w = 0.1
    theta = theta_phi(ABSVAL, w)
    approx, terms, _ = theta_expansion(ABSVAL, w, 3)
    assert len(terms) == 4
    assert abs(theta.value - approx) < 1e-8
    assert approx == sum(terms)


def test_expansion_prefix_is_stable():
    w = 0.3 + 0.1j
    _, short, _ = theta_expansion(ABSVAL, w, 2)
    _, long, _ = theta_expansion(ABSVAL, w, 5)
    assert long[:3] == short


def test_square_leading_term_is_sqrt_pi_over_sqrt_w():
    # theta(x^2, iw) = sum e^{-w m^2} has the Gaussian-integral leading term
    w = 0.2
    approx, terms, _ = theta_expansion(SQUARE, w, 0)
    assert len(terms) == 1
    assert abs(approx - math.sqrt(math.pi) * w**-0.5) < 1e-9
    theta = theta_phi(SQUARE, w)
    assert abs(theta.value - approx) < 1e-6


def test_expansion_rejects_bad_requests():
    with pytest.raises(DomainError):
        theta_expansion(ABSVAL, -0.5, 2)
    with pytest.raises(DomainError):
        theta_expansion(ABSVAL, 1j, 2)
    with pytest.raises(DomainError):
        theta_expansion(ABSVAL, 0.5, -1)


def test_remainder_slope_on_the_real_ray():
    report = remainder_check(ABSVAL, 0.0, 3, 0.1, [0.4, 0.2, 0.1, 0.05])
    assert report.passed
    assert report.slope >= report.threshold
    assert report.threshold == pytest.approx(3.75)
    mags = [m for m, _ in report.rows]
    assert mags == sorted(mags)


def test_remainder_slope_on_a_tilted_ray():
    report = remainder_check(ABSVAL, math.pi / 3, 2, 0.1, [0.4, 0.2, 0.1, 0.05])
    assert report.passed


def test_expansion_bars_cover_the_exact_terms():
    # θ(|x|, iw) = coth(w/2): leading term 2/w, then (-1)^k 2ζ(-k) w^k / k!
    w = 0.3 + 0.1j
    _, terms, bars = theta_expansion(ABSVAL, w, 3)
    exact = [2.0 / w] + [(-1) ** k * 2.0 * z / math.factorial(k) * w**k
                         for k, z in ((1, -1.0 / 12.0), (2, 0.0), (3, 1.0 / 120.0))]
    for term, bar, want in zip(terms, bars, exact):
        assert 0.0 < bar <= 1e-8
        assert abs(term - want) <= bar


def test_remainder_within_bars_passes_and_says_so():
    # on |x| the three fitted remainders are far above the bars, so the
    # slope decides; on the disc they are all inside them, the slope reads
    # noise, and the check passes on the bars
    absval = remainder_check(ABSVAL, 0.0, 3, 0.1, [0.4, 0.2, 0.1, 0.05])
    assert not absval.within_bars
    assert any(e > bar for (_, e), bar in zip(absval.rows[:3], absval.bars))
    disc = remainder_check(DISC, 0.0, 3, 0.1, [0.4, 0.2, 0.1, 0.05])
    assert disc.within_bars and disc.passed
    assert all(e <= bar for (_, e), bar in zip(disc.rows[:3], disc.bars))


def test_remainder_check_rejects_bad_requests():
    with pytest.raises(DomainError):
        remainder_check(ABSVAL, 0.0, 3, 1.5, [0.4, 0.2, 0.1])
    with pytest.raises(DomainError):
        remainder_check(ABSVAL, math.pi / 2, 3, 0.1, [0.4, 0.2, 0.1])
    with pytest.raises(DomainError):
        remainder_check(ABSVAL, 0.0, 3, 0.1, [0.4, 0.2])


def test_bernoulli_numbers_first_values():
    bs = bernoulli_numbers(12)
    assert bs[0] == 1
    assert bs[1] == Fraction(-1, 2)
    assert bs[2] == Fraction(1, 6)
    assert bs[3] == 0
    assert bs[4] == Fraction(-1, 30)
    assert bs[12] == Fraction(-691, 2730)
    assert bs == bernoulli_exact(12)


def test_bernoulli_identity_holds_to_1e5():
    report = bernoulli_identity_check(5)
    assert report.max_deviation <= 1e-5
    assert [row[0] for row in report.rows] == [1, 2, 3, 4, 5]
    # spot check k=1: -2 zeta(-1) = 2/12 = B_2
    k, lhs, rhs, dev = report.rows[0]
    assert rhs == pytest.approx(1.0 / 6.0)
    assert dev == abs(lhs - rhs)
