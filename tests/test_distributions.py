"""Probability primitives against independent oracles.

Oracles used here deliberately avoid the implementation's own code
paths: a Taylor-series erf, exact rational binomial sums, closed-form
integer-shape beta CDFs, and scipy's Cephes-based special functions.
"""

import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import betainc as scipy_betainc
from scipy.stats import beta as scipy_beta_dist
from scipy.stats import binom as scipy_binom
from scipy.stats import norm as scipy_norm

from dualcrit.distributions import (
    BetaParams,
    beta_cdf,
    beta_pdf,
    beta_quantile,
    binomial_pmf,
    binomial_tail,
    std_normal_cdf,
    std_normal_quantile,
)


def erf_series(x: float) -> float:
    """Taylor-series erf, the reference for normal CDF spot checks."""
    total = 0.0
    term = x
    k = 0
    while abs(term) > 1e-18 * max(1.0, abs(total)):
        total += term / (2 * k + 1)
        k += 1
        term *= -x * x / k
    return 2.0 / math.sqrt(math.pi) * total


def phi_series(x: float) -> float:
    return 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))


class TestStdNormalCdf:
    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x,target,tol", [(1.2816, 0.9000, 1e-4), (-1.96, 0.0250, 1e-4)])
    def test_known_points(self, x, target, tol):
        assert std_normal_cdf(x) == pytest.approx(target, abs=tol)
        # the quoted targets themselves come from the series oracle
        assert phi_series(x) == pytest.approx(target, abs=tol)

    @pytest.mark.parametrize("x", [-3.0, -2.5, -0.3, 0.7, 1.9, 3.0])
    def test_matches_series_oracle(self, x):
        # the alternating series loses accuracy past |x| ~ 4; the far
        # tails are covered by the relative check against scipy below
        assert std_normal_cdf(x) == pytest.approx(phi_series(x), abs=1e-14)

    @pytest.mark.parametrize("x", [-12.0, -6.0, -4.5, 4.5, 6.0, 12.0])
    def test_far_tails_match_scipy(self, x):
        assert std_normal_cdf(x) == pytest.approx(
            float(scipy_norm.cdf(x)), rel=1e-12
        )

    @pytest.mark.parametrize("x", [-8.0, -3.1, -0.5, 0.0, 0.5, 3.1, 8.0])
    def test_symmetry(self, x):
        assert abs(std_normal_cdf(-x) - (1.0 - std_normal_cdf(x))) < 1e-12

    def test_monotone(self):
        xs = [-6 + 0.25 * i for i in range(49)]
        values = [std_normal_cdf(x) for x in xs]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            std_normal_cdf(bad)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p,target", [(0.9, 1.2816), (0.975, 1.9600)])
    def test_known_points(self, p, target):
        assert std_normal_quantile(p) == pytest.approx(target, abs=1e-3)

    def test_bisection_against_cdf(self):
        # independent bisection through the series oracle
        for p in (0.9, 0.975):
            lo, hi = -10.0, 10.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if phi_series(mid) < p:
                    lo = mid
                else:
                    hi = mid
            assert std_normal_quantile(p) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_round_trip(self):
        for i in range(1, 100):
            p = i / 100.0
            assert abs(std_normal_cdf(std_normal_quantile(p)) - p) < 1e-9

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_degenerate(self, bad):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)

    def test_matches_scipy(self):
        for p in (1e-6, 0.01, 0.3, 0.7, 0.99, 1 - 1e-6):
            assert std_normal_quantile(p) == pytest.approx(
                float(scipy_norm.ppf(p)), abs=1e-9
            )

    @pytest.mark.parametrize("p", [1e-300, 1e-15, 1e-6, 0.5, 1 - 1e-6, 1 - 1e-15])
    def test_relative_accuracy_in_both_tails(self, p):
        # statistics.NormalDist uses Wichura's AS241, not Cephes ndtri
        expected = NormalDist().inv_cdf(p)
        if p == 0.5:
            assert std_normal_quantile(p) == 0.0
        else:
            assert std_normal_quantile(p) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_array_input_keeps_shape(self):
        p = np.array([[1e-9, 0.2, 0.5], [0.6, 0.975, 1 - 1e-9]])
        out = std_normal_quantile(p)
        assert isinstance(out, np.ndarray)
        assert out.shape == p.shape
        assert out.tolist() == [[std_normal_quantile(float(v)) for v in row] for row in p]


def exact_binomial_tail(n: int, p: Fraction, r: int) -> Fraction:
    """Direct pmf summation in exact rational arithmetic."""
    q = 1 - p
    return sum(
        Fraction(math.comb(n, k)) * p**k * q ** (n - k) for k in range(r, n + 1)
    )


class TestBinomial:
    def test_r_zero_is_one(self):
        assert binomial_tail(10, 0.5, 0) == 1.0

    def test_r_past_n_is_zero(self):
        assert binomial_tail(10, 0.5, 11) == 0.0

    def test_direct_summation_oracle(self):
        expected = exact_binomial_tail(10, Fraction(1, 2), 5)  # 638/1024
        assert expected == Fraction(638, 1024)
        assert binomial_tail(10, 0.5, 5) == pytest.approx(float(expected), abs=1e-12)

    def test_trial_type_one_error(self):
        assert binomial_tail(25, 0.075, 5) == pytest.approx(0.036, abs=5e-4)

    @pytest.mark.parametrize("n,p", [(10, 0.5), (25, 0.075), (36, 0.175), (200, 0.02)])
    def test_tail_difference_is_pmf(self, n, p):
        for r in range(n + 1):
            diff = binomial_tail(n, p, r) - binomial_tail(n, p, r + 1)
            assert diff == pytest.approx(binomial_pmf(n, p, r), abs=1e-12)

    def test_monotone_in_r_and_p(self):
        tails = [binomial_tail(30, 0.3, r) for r in range(32)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        by_p = [binomial_tail(30, p, 9) for p in (0.1, 0.2, 0.3, 0.5, 0.8)]
        assert all(a <= b for a, b in zip(by_p, by_p[1:]))

    def test_degenerate_rates(self):
        assert binomial_tail(10, 0.0, 0) == 1.0
        assert binomial_tail(10, 0.0, 1) == 0.0
        assert binomial_tail(10, 1.0, 10) == 1.0

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            binomial_tail(10, 0.5, 12)
        with pytest.raises(ValueError):
            binomial_tail(10, 0.5, -1)

    def test_large_n_no_underflow(self):
        value = binomial_tail(10_000, 0.001, 30)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(
            float(scipy_binom.sf(29, 10_000, 0.001)), rel=1e-9
        )


def integer_shape_beta_cdf(a: int, b: int, x: Fraction) -> Fraction:
    """Closed form for integer shapes: a binomial upper tail."""
    n = a + b - 1
    return sum(
        Fraction(math.comb(n, j)) * x**j * (1 - x) ** (n - j) for j in range(a, n + 1)
    )


class TestBetaCdf:
    def test_uniform(self):
        assert beta_cdf(BetaParams(1, 1), 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_posterior_tail_from_trial(self):
        assert beta_cdf(BetaParams(5.0811, 21), 0.075) == pytest.approx(0.033, abs=1e-3)

    def test_integer_shape_closed_form(self):
        expected = integer_shape_beta_cdf(2, 3, Fraction(1, 2))
        assert expected == Fraction(11, 16)  # 0.6875
        assert beta_cdf(BetaParams(2, 3), 0.5) == pytest.approx(float(expected), abs=1e-12)
        more = integer_shape_beta_cdf(4, 7, Fraction(3, 10))
        assert beta_cdf(BetaParams(4, 7), 0.3) == pytest.approx(float(more), abs=1e-12)

    def test_endpoints(self):
        shape = BetaParams(0.0811, 1.0)
        assert beta_cdf(shape, 0.0) == 0.0
        assert beta_cdf(shape, 1.0) == 1.0

    def test_monotone_in_x(self):
        shape = BetaParams(0.0811, 1.0)
        values = [beta_cdf(shape, x / 50.0) for x in range(51)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_x_outside_unit_interval(self):
        with pytest.raises(ValueError):
            beta_cdf(BetaParams(2, 3), -0.1)
        with pytest.raises(ValueError):
            beta_cdf(BetaParams(2, 3), 1.1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BetaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaParams(1.0, -2.0)

    @pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 2.0, 5.0, 50.0])
    @pytest.mark.parametrize("b", [0.05, 0.5, 1.0, 2.0, 5.0, 50.0])
    def test_matches_scipy_across_shapes(self, a, b):
        for x in (0.01, 0.075, 0.3, 0.5, 0.9):
            assert beta_cdf(BetaParams(a, b), x) == pytest.approx(
                float(scipy_betainc(a, b, x)), abs=1e-12
            )


class TestBetaPdf:
    def test_uniform_density(self):
        assert beta_pdf(BetaParams(1, 1), 0.42) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(0.0811, 1.0), (5.0811, 21.0), (2.0, 3.0)])
    def test_matches_scipy(self, a, b):
        for x in (0.01, 0.075, 0.3, 0.8):
            assert beta_pdf(BetaParams(a, b), x) == pytest.approx(
                float(scipy_beta_dist.pdf(x, a, b)), rel=1e-12
            )

    def test_midpoint_quadrature_recovers_cdf(self):
        # quadrature oracle: integrating the density reproduces the CDF
        shape = BetaParams(5.0811, 21.0)
        steps = 4000
        upper = 0.175
        total = sum(
            beta_pdf(shape, (i + 0.5) * upper / steps) * upper / steps
            for i in range(steps)
        )
        assert total == pytest.approx(beta_cdf(shape, upper), abs=1e-7)

    def test_rejects_boundary_points(self):
        with pytest.raises(ValueError):
            beta_pdf(BetaParams(0.5, 1.0), 0.0)
        with pytest.raises(ValueError):
            beta_pdf(BetaParams(0.5, 1.0), 1.0)


class TestBetaQuantile:
    def test_uniform_median(self):
        assert beta_quantile(BetaParams(1, 1), 0.5) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "a,b,target", [(5.0811, 21, 0.187), (4.0811, 22, 0.148)]
    )
    def test_posterior_medians_from_trial(self, a, b, target):
        assert beta_quantile(BetaParams(a, b), 0.5) == pytest.approx(target, abs=5e-4)

    @pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 2.0, 5.0, 50.0])
    @pytest.mark.parametrize("b", [0.05, 0.5, 1.0, 2.0, 5.0, 50.0])
    def test_mutual_inverse(self, a, b):
        shape = BetaParams(a, b)
        for p in (0.05, 0.25, 0.5, 0.75, 0.95):
            x = beta_quantile(shape, p)
            if abs(beta_cdf(shape, x) - p) < 1e-8:
                continue
            # Shapes this skewed can push the true quantile between two
            # adjacent floats (e.g. within one ulp of 1); the inverse is
            # then exact at machine resolution: the neighbours of the
            # returned point must straddle the target probability.
            below = max(0.0, math.nextafter(x, 0.0))
            above = min(1.0, math.nextafter(x, 2.0))
            assert beta_cdf(shape, below) <= p + 1e-12
            assert beta_cdf(shape, above) >= p - 1e-12

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_rejects_degenerate(self, bad):
        with pytest.raises(ValueError):
            beta_quantile(BetaParams(2, 3), bad)
