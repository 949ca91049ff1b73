"""Probability primitives against independent oracles.

Oracles used here deliberately avoid the implementation's own code
paths: a Taylor-series erf, exact rational binomial sums, closed-form
integer-shape beta CDFs, scipy's Cephes-based special functions, and
mpmath where it is installed.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc as scipy_betainc
from scipy.special import ndtri
from scipy.stats import beta as scipy_beta_dist
from scipy.stats import binom as scipy_binom
from scipy.stats import norm as scipy_norm

from dualcrit.binary import DualCriterionBinaryDesign, decide_binary, min_sample_size_grid, posterior_summary, prior_from_mean
from dualcrit.distributions import (
    BetaParams,
    beta_cdf,
    beta_pdf,
    beta_quantile,
    binomial_pmf,
    binomial_tail,
    check_count,
    check_open_probability,
    check_positive,
    check_probability,
    std_normal_cdf,
    std_normal_quantile,
)
from dualcrit.oracle import SimulationConfig, simulate_tte_oc
from dualcrit.outcomes import CutRule
from dualcrit.three_outcome import ThreeOutcomeDesign, find_three_outcome_design
from dualcrit.tte import (
    DualCriterionTTEDesign,
    PrecisionTTEDesign,
    StandardTTEDesign,
    decide_tte,
    implied_precision_factor,
    min_events_dual,
    significance_threshold,
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


class TestCheckCount:
    @pytest.mark.parametrize("value", [1, 25, 25.0, 2**53])
    def test_accepts_counts_that_convert_to_float_exactly(self, value):
        assert check_count(value, "n") == value
        assert isinstance(check_count(value, "n"), int)

    @pytest.mark.parametrize("value", [0, -3, 2.5, float("nan"), float("inf")])
    def test_rejects_non_counts(self, value):
        with pytest.raises(ValueError, match=f"n must be a positive integer, got {value}"):
            check_count(value, "n")

    @pytest.mark.parametrize("value", [2**53 + 1, 10**400, 1e300])
    def test_rejects_counts_past_2_to_the_53(self, value):
        with pytest.raises(ValueError, match=r"n must be at most 2\*\*53, got"):
            check_count(value, "n")

    def test_binomial_trials_share_it(self):
        with pytest.raises(ValueError, match=r"number of trials must be at most 2\*\*53"):
            binomial_pmf(2**53 + 1, 0.5, 0)


# Every input of the public API that must be positive and finite, as
# (name in the message, call with the input set to the value).
_TTE_DESIGN = DualCriterionTTEDesign(alpha=0.1, decision_hr=0.7, n_events=52)
POSITIVE_INPUTS = {
    "DualCriterionTTEDesign.decision_hr": ("decision_hr", lambda v: DualCriterionTTEDesign(0.1, v)),
    "DualCriterionTTEDesign.null_hr": ("null_hr", lambda v: DualCriterionTTEDesign(0.1, 0.7, null_hr=v)),
    "DualCriterionTTEDesign.sigma": ("sigma", lambda v: DualCriterionTTEDesign(0.1, 0.7, sigma=v)),
    "StandardTTEDesign.alt_hr": ("alt_hr", lambda v: StandardTTEDesign(0.1, 0.1, v)),
    "StandardTTEDesign.null_hr": ("null_hr", lambda v: StandardTTEDesign(0.1, 0.1, 0.5, null_hr=v)),
    "StandardTTEDesign.sigma": ("sigma", lambda v: StandardTTEDesign(0.1, 0.1, 0.5, sigma=v)),
    "PrecisionTTEDesign.sigma": ("sigma", lambda v: PrecisionTTEDesign(1.5, sigma=v)),
    "min_events_dual.null_hr": ("null_hr", lambda v: min_events_dual(0.1, v, 0.7)),
    "min_events_dual.decision_hr": ("decision_hr", lambda v: min_events_dual(0.1, 1.0, v)),
    "min_events_dual.sigma": ("sigma", lambda v: min_events_dual(0.1, 1.0, 0.7, v)),
    "significance_threshold.null_hr": ("null_hr", lambda v: significance_threshold(0.1, v, 2.0, 52)),
    "significance_threshold.sigma": ("sigma", lambda v: significance_threshold(0.1, 1.0, v, 52)),
    "implied_precision_factor.sigma": ("sigma", lambda v: implied_precision_factor(v, 52)),
    "decide_tte.estimated_hr": ("estimated_hr", lambda v: decide_tte(_TTE_DESIGN, v)),
    "BetaParams.a": ("beta shape a", lambda v: BetaParams(v, 1.0)),
    "BetaParams.b": ("beta shape b", lambda v: BetaParams(1.0, v)),
    "prior_from_mean.b": ("b", lambda v: prior_from_mean(0.2, b=v)),
    "CutRule.oc.true_hr": ("true_hr", lambda v: CutRule(0.1, 0.2, se=0.2).oc(v)),
    "simulate_tte_oc.true_hr": (
        "true_hr", lambda v: simulate_tte_oc(_TTE_DESIGN, v, SimulationConfig(seed=1, n_replicates=10))
    ),
}


class TestCheckPositive:
    @pytest.mark.parametrize("value", [2**-1074, 0.7, 1, 1e308])
    def test_accepts_positive_finite_values_as_floats(self, value):
        assert check_positive(value, "x") == value
        assert isinstance(check_positive(value, "x"), float)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("case", list(POSITIVE_INPUTS))
    def test_every_public_input_states_the_rule(self, case, value):
        # inf and nan used to be refused as "must be positive", or, for
        # prior_from_mean's b, blamed on the first beta shape.
        name, call = POSITIVE_INPUTS[case]
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be positive and finite, got {value}$"):
            call(value)


# Entry points that convert an input to float, as (the error message with
# {v} for the value, call with the input set to the value).
FLOAT_INPUTS = {
    "check_positive": ("x must be positive and finite, got {v}", lambda v: check_positive(v, "x")),
    "check_open_probability": ("x must lie strictly in (0, 1), got {v}", lambda v: check_open_probability(v, "x")),
    "check_probability": ("x must lie in [0, 1], got {v}", lambda v: check_probability(v, "x")),
    "BetaParams.a": ("beta shape a must be positive and finite, got {v}", lambda v: BetaParams(v, 1.0)),
    "prior_from_mean.mean": ("mean must lie strictly in (0, 1), got {v}", prior_from_mean),
    "DualCriterionTTEDesign.sigma": (
        "sigma must be positive and finite, got {v}", lambda v: DualCriterionTTEDesign(0.1, 0.7, sigma=v)
    ),
    "DualCriterionTTEDesign.alpha": ("alpha must lie in (0, 0.5), got {v}", lambda v: DualCriterionTTEDesign(v, 0.7)),
    "StandardTTEDesign.beta": ("beta must lie in (0, 0.5), got {v}", lambda v: StandardTTEDesign(0.1, v, 0.5)),
    "PrecisionTTEDesign.factor": ("factor must exceed 1, got {v}", lambda v: PrecisionTTEDesign(v)),
    "PrecisionTTEDesign.level": ("level must lie strictly in (0, 1), got {v}", lambda v: PrecisionTTEDesign(1.5, v)),
    "min_events_dual.decision_hr": (
        "decision_hr must be positive and finite, got {v}", lambda v: min_events_dual(0.1, 1.0, v)
    ),
    "decide_tte.estimated_hr": ("estimated_hr must be positive and finite, got {v}", lambda v: decide_tte(_TTE_DESIGN, v)),
    "CutRule.oc.true_hr": ("true_hr must be positive and finite, got {v}", lambda v: CutRule(0.1, 0.2, se=0.2).oc(v)),
    "CutRule.oc.true_orr": ("true_orr must lie strictly in (0, 1), got {v}", lambda v: CutRule(1, 2, n=5).oc(v)),
    "beta_cdf.x": ("beta_cdf requires x in [0, 1], got {v}", lambda v: beta_cdf(BetaParams(2.0, 3.0), v)),
    "beta_pdf.x": ("beta_pdf requires x in (0, 1), got {v}", lambda v: beta_pdf(BetaParams(2.0, 3.0), v)),
    "binomial_tail.p": ("success probability must lie in [0, 1], got {v}", lambda v: binomial_tail(10, v, 3)),
    "std_normal_cdf": ("std_normal_cdf requires finite input", std_normal_cdf),
    "std_normal_quantile": ("std_normal_quantile requires 0 < p < 1", std_normal_quantile),
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("case", list(FLOAT_INPUTS))
def test_an_integer_past_the_float_range_is_refused_by_name(case, sign):
    # float() of such an integer raises OverflowError; each input takes it
    # as an infinity of its sign, which its own range check refuses.
    message, call = FLOAT_INPUTS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(v=sign * math.inf))}$"):
        call(sign * 10**400)


# Entry points that take an integer, as (the input's name, call with the
# input set to the value).
_PRIOR = BetaParams(0.0811, 1.0)
_BINARY_DESIGN = DualCriterionBinaryDesign(_PRIOR, 0.075, 0.95, 0.175, 25)
_THREE_OUTCOME = (0.075, 0.275, 0.05, 0.1, 0.8, 0.9)  # p0, p1, alpha, beta, eta, pi
INTEGER_INPUTS = {
    "SimulationConfig.seed": ("seed", lambda v: SimulationConfig(seed=v)),
    "SimulationConfig.n_replicates": ("n_replicates", lambda v: SimulationConfig(seed=1, n_replicates=v)),
    "SimulationConfig.scenario": ("scenario", lambda v: SimulationConfig(seed=1, scenario=v)),
    "DualCriterionTTEDesign.n_events": ("n_events", lambda v: DualCriterionTTEDesign(0.1, 0.7, n_events=v)),
    "DualCriterionBinaryDesign.n": ("n", lambda v: DualCriterionBinaryDesign(_PRIOR, 0.075, 0.95, 0.175, v)),
    "ThreeOutcomeDesign.n": ("n", lambda v: ThreeOutcomeDesign(v, 5, 3, *_THREE_OUTCOME)),
    "min_sample_size_grid.n_max": ("n_max", lambda v: min_sample_size_grid(_PRIOR, 0.075, 0.95, 0.175, v)),
    "find_three_outcome_design.n_max": ("n_max", lambda v: find_three_outcome_design(*_THREE_OUTCOME, v)),
    "decide_binary.r": ("responder count", lambda v: decide_binary(_BINARY_DESIGN, v)),
    "posterior_summary.r": ("responder count", lambda v: posterior_summary(_BINARY_DESIGN, v)),
    "binomial_tail.n": ("number of trials", lambda v: binomial_tail(v, 0.3, 1)),
    "binomial_tail.r": ("r", lambda v: binomial_tail(10, 0.3, v)),
    "binomial_pmf.k": ("k", lambda v: binomial_pmf(10, 0.3, v)),
}


@pytest.mark.parametrize("text", ["2", b"2"], ids=["str", "bytes"])
@pytest.mark.parametrize(
    "name,call",
    [*(pytest.param(re.match(r"(.+?) (?:must|requires) ", message)[1], call, id=case)
       for case, (message, call) in FLOAT_INPUTS.items()),
     *(pytest.param(*entry, id=case) for case, entry in INTEGER_INPUTS.items())],
)
def test_text_is_not_a_number(name, call, text):
    # float() parses text, and an int comparison fails on it without
    # naming the input, so each input refuses it as it refuses a list. The
    # name of a float input heads its range message.
    with pytest.raises(TypeError, match=f"^{re.escape(name)} takes a single number, got {type(text).__name__}$"):
        call(text)


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

    def test_relative_accuracy_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for x in [-37.0 + 45.0 * i / 450 for i in range(451)]:
                assert abs(std_normal_cdf(x) / mpmath.ncdf(x) - 1) <= 5e-13, x


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
        # Cephes ndtri, not the AS241 approximation the implementation uses
        expected = float(ndtri(p))
        if p == 0.5:
            assert std_normal_quantile(p) == 0.0
        else:
            assert std_normal_quantile(p) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_relative_accuracy_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        lower = [10.0 ** -(0.3 + 299.7 * i / 150) for i in range(151)]
        upper = [1.0 - 10.0 ** -(0.3 + 14.7 * i / 60) for i in range(61)]
        with mpmath.workdps(60):
            for p in lower + upper + [0.02 * i for i in range(1, 50)]:
                # Newton on the CDF from ndtri's start converges to the
                # exact quantile of the double p.
                x = mpmath.mpf(float(ndtri(p)))
                for _ in range(6):
                    x -= (mpmath.ncdf(x) - p) / mpmath.npdf(x)
                if x == 0:
                    assert std_normal_quantile(p) == 0.0
                else:
                    assert abs(std_normal_quantile(p) / x - 1) <= 2e-15, p

    @pytest.mark.parametrize("function", [std_normal_quantile, std_normal_cdf])
    def test_rejects_arrays(self, function):
        with pytest.raises(TypeError, match=f"{function.__name__} takes a single number, got ndarray"):
            function(np.array([0.2, 0.6]))


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

    def test_pmf_at_degenerate_rates_puts_all_mass_on_one_count(self):
        assert [binomial_pmf(10, 0.0, k) for k in range(11)] == [1.0] + [0.0] * 10
        assert [binomial_pmf(10, 1.0, k) for k in range(11)] == [0.0] * 10 + [1.0]

    @pytest.mark.parametrize("call", [binomial_pmf, binomial_tail], ids=["pmf", "tail"])
    @pytest.mark.parametrize("p", [1.5, -0.5, math.nan])
    def test_rejects_a_rate_outside_the_unit_interval(self, call, p):
        with pytest.raises(ValueError, match=rf"^success probability must lie in \[0, 1\], got {p}$"):
            call(10, p, 3)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            binomial_tail(10, 0.5, 12)
        with pytest.raises(ValueError):
            binomial_tail(10, 0.5, -1)

    @pytest.mark.parametrize(
        "n,p,lo,hi",
        [(10, 0.5, 3, 7), (25, 0.95, 5, 5), (27, 0.9, 4, 5), (12, 0.3, 0, 13), (12, 0.3, 6, 6), (12, 0.3, 13, 13)],
    )
    def test_cut_probs_against_exact_sums(self, n, p, lo, hi):
        # Every part keeps its relative accuracy, including a NO-GO mass of
        # 5e-24 at (25, 0.95) that 1 - P(R >= lo) would round to 1e-15.
        exact = Fraction(p)
        tail_lo, tail_hi = exact_binomial_tail(n, exact, lo), exact_binomial_tail(n, exact, hi)
        want = (tail_hi, 1 - tail_lo, tail_lo - tail_hi)
        got = CutRule(lo, hi, n=n).oc(p).probs
        assert got == pytest.approx([float(w) for w in want], rel=1e-12, abs=0)
        assert all(0.0 <= part <= 1.0 for part in got)

    def test_cut_probs_rejects_crossed_cut_points(self):
        with pytest.raises(ValueError):
            CutRule(6, 5, n=10)
        with pytest.raises(ValueError):
            CutRule(0, 12, n=10)

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

    @settings(derandomize=True, deadline=None)
    @given(st.one_of(st.integers(1, 100_000), st.floats(1e-3, 1e5)))
    @example(3)
    @example(5.0)
    @example(10)
    def test_symmetric_shapes_split_at_one_half_exactly(self, a):
        # I_{1/2}(a, a) = 1/2 by symmetry. The continued fraction alone
        # misses by a few ulps either way, which decides an exact median
        # tie at a decision value of 1/2 by rounding.
        assert beta_cdf(BetaParams(a, a), 0.5) == 0.5

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

    def test_converges_for_large_shapes(self):
        # The most continued-fraction terms seen within the shape cap, 251,
        # are needed at shapes like these near the mean.
        got = beta_cdf(BetaParams(1e5, 71434.8), 0.5833)
        assert got == pytest.approx(float(scipy_betainc(1e5, 71434.8, 0.5833)), abs=1e-9)

    def test_within_1e_minus_9_of_mpmath_up_to_the_shape_cap(self):
        # Past the cap the lgamma differences of the front factor lose more:
        # 1.7e-9 at shapes of 1e6 and 0.30 at I_{1/2}(1e14, 1e14).
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(16)
        with mpmath.workdps(25):
            for _ in range(40):
                a, b = 1e5, float(rng.uniform(1.0, 1e5))
                if rng.random() < 0.5:
                    a, b = b, a
                mean = a / (a + b)
                x = mean + float(rng.uniform(-4.0, 4.0)) * math.sqrt(mean * (1 - mean) / (a + b))
                # Each series runs on the side where its terms fall.
                flip = x > mean
                sa, sb, sx = (mpmath.mpf(v) for v in ((b, a, 1 - x) if flip else (a, b, x)))
                front = mpmath.exp(sa * mpmath.log(sx) + sb * mpmath.log1p(-sx) - mpmath.log(sa) - mpmath.log(mpmath.beta(sa, sb)))
                want = front * mpmath.hyp2f1(sa + sb, 1, sa + 1, sx, maxterms=10**6)
                want = 1 - want if flip else want
                assert abs(beta_cdf(BetaParams(a, b), x) - float(want)) <= 1e-9, (a, b, x)

    @pytest.mark.parametrize("shapes", [(1e5 + 1, 1.0), (1.0, 1e6), (1e14, 1e14)])
    def test_rejects_shapes_past_the_accurate_range(self, shapes):
        with pytest.raises(ValueError, match="beta shapes must be at most 100000"):
            BetaParams(*shapes)

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
