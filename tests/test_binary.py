"""Beta-binomial dual-criterion designs.

Independent oracles: scipy's beta distribution for posterior medians and
tail probabilities (a separate incomplete-beta implementation), exact
binomial summation via integer combinatorics, and a from-scratch grid
scan for the minimum sample size.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betaincc, betaincinv
from scipy.stats import beta as scipy_beta

from dualcrit.binary import (
    DualCriterionBinaryDesign,
    clinical_boundary,
    decide_binary,
    min_responders,
    min_sample_size_grid,
    oc_binary,
    posterior_summary,
    prior_from_mean,
    statistical_boundary,
)
from dualcrit.distributions import BetaParams, beta_cdf, binomial_pmf, binomial_tail
from dualcrit import binary
from dualcrit.outcomes import DecisionTag, InfeasibleDesignError, first_true

PRIOR = BetaParams(a=0.0811, b=1.0)


def make_design(n: int) -> DualCriterionBinaryDesign:
    return DualCriterionBinaryDesign(
        prior=PRIOR, null_orr=0.075, sig_prob=0.95, decision_orr=0.175, n=n
    )


def oracle_median(n: int, r: int) -> float:
    return float(scipy_beta.ppf(0.5, PRIOR.a + r, PRIOR.b + n - r))


def oracle_prob_positive(n: int, r: int) -> float:
    return float(scipy_beta.sf(0.075, PRIOR.a + r, PRIOR.b + n - r))


def oracle_min_responders(n: int) -> int | None:
    """Boundary scan through scipy's quantile, the stated reference route."""
    for r in range(n + 1):
        if oracle_median(n, r) >= 0.175 and oracle_prob_positive(n, r) >= 0.95:
            return r
    return None


class TestPriorFromMean:
    def test_matches_published_prior(self):
        assert prior_from_mean(0.075).a == pytest.approx(0.0811, abs=1e-4)
        assert prior_from_mean(0.075).b == 1.0

    def test_symmetric_mean(self):
        assert prior_from_mean(0.5).a == pytest.approx(1.0, abs=1e-12)

    def test_algebraic_identity(self):
        prior = prior_from_mean(0.2, b=2.0)
        assert prior.a == pytest.approx(0.5, abs=1e-12)
        assert prior.mean == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_rejects_degenerate_mean(self, bad):
        with pytest.raises(ValueError):
            prior_from_mean(bad)

    @pytest.mark.parametrize("b", [0.0, -1.0, math.nan])
    def test_rejects_a_second_shape_that_is_not_positive(self, b):
        with pytest.raises(ValueError, match=f"^b must be positive and finite, got {b}$"):
            prior_from_mean(0.2, b=b)


class TestPosteriorSummary:
    @pytest.mark.parametrize(
        "n,r,prob_positive,median",
        [
            (25, 5, 0.967, 0.187),
            (25, 4, 0.895, 0.148),
            (36, 7, 0.985, 0.185),
            (36, 6, 0.954, 0.158),
            (27, 4, 0.869, 0.137),
        ],
    )
    def test_published_summaries(self, n, r, prob_positive, median):
        summary = posterior_summary(make_design(n), r)
        assert summary.prob_positive == pytest.approx(prob_positive, abs=5e-4)
        assert summary.median == pytest.approx(median, abs=5e-4)
        assert summary.prob_positive == pytest.approx(oracle_prob_positive(n, r), abs=1e-10)
        assert summary.median == pytest.approx(oracle_median(n, r), abs=1e-10)

    def test_conjugate_update_shapes(self):
        summary = posterior_summary(make_design(25), 5)
        assert summary.posterior.a == pytest.approx(PRIOR.a + 5)
        assert summary.posterior.b == pytest.approx(PRIOR.b + 20)

    def test_metrics_strictly_increase_in_r(self):
        design = make_design(30)
        summaries = [posterior_summary(design, r) for r in range(31)]
        for lo, hi in zip(summaries, summaries[1:]):
            # strictly increasing until the tail probability saturates
            # at 1.0 in double precision
            assert hi.prob_positive > lo.prob_positive or lo.prob_positive == 1.0
            assert hi.median > lo.median

    def test_rejects_r_out_of_range(self):
        with pytest.raises(ValueError):
            posterior_summary(make_design(25), 26)


class TestBoundaries:
    @pytest.mark.parametrize("n,expected", [(22, 5), (25, 5), (36, 7)])
    def test_min_responders(self, n, expected):
        assert min_responders(make_design(n)) == expected
        assert oracle_min_responders(n) == expected

    def test_inconclusive_zone_at_36(self):
        design = make_design(36)
        assert clinical_boundary(design) == 7
        assert statistical_boundary(design) == 6

    def test_no_inconclusive_zone_at_25(self):
        design = make_design(25)
        assert clinical_boundary(design) == 5
        assert statistical_boundary(design) == 5

    def test_single_patient_boundary(self):
        # One responder in one patient pulls the posterior median to
        # 0.5^(1/1.0811) ~ 0.53, which already clears the decision value;
        # the statistical criterion is what fails at n=1.
        design = make_design(1)
        assert clinical_boundary(design) == 1
        assert oracle_median(1, 1) >= 0.175
        assert statistical_boundary(design) is None
        assert min_responders(design) is None


class TestGridSearch:
    def test_published_minimum_size(self):
        assert min_sample_size_grid(PRIOR, 0.075, 0.95, 0.175, n_max=100) == 22

    def test_minimum_size_semantics(self):
        # conclusive from 22 on, but not everywhere below
        for n in range(22, 80):
            design = make_design(n)
            assert statistical_boundary(design) <= clinical_boundary(design)
        below = [
            n
            for n in range(1, 22)
            if (sb := statistical_boundary(make_design(n))) is None
            or sb > clinical_boundary(make_design(n))
        ]
        assert below, "some size below the minimum must break the implication"

    @settings(derandomize=True, deadline=None)
    @given(
        st.floats(0.05, 3.0), st.floats(0.2, 3.0), st.floats(0.02, 0.6),
        st.floats(0.8, 0.995), st.floats(0.01, 0.35), st.integers(1, 60),
    )
    @example(PRIOR.a, PRIOR.b, 0.075, 0.975, 0.1, 200)
    # Prior b = 5, with the clinical boundary out of reach at the smallest
    # sizes: significance there is unknown, not failed (the first gives 3).
    @example(1.9399, 5.0, 0.1989, 0.9, 0.2485, 50)
    @example(0.3375, 5.0, 0.0989, 0.842, 0.3383, 32)
    @example(1.0852, 5.0, 0.3593, 0.914, 0.3174, 48)
    def test_exhaustive_scan_oracle(self, a, b, null_orr, sig_prob, gap, n_max):
        decision_orr = null_orr + gap

        def implication_holds(n: int) -> bool:
            r = np.arange(n + 1)
            relevant = betaincinv(a + r, b + n - r, 0.5) >= decision_orr
            if not relevant.any():
                return False
            r_clin = relevant.argmax()
            return betaincc(a + r_clin, b + n - r_clin, null_orr) >= sig_prob

        failures = [n for n in range(1, n_max + 1) if not implication_holds(n)]
        expected = failures[-1] + 1 if failures else 1
        try:
            result = min_sample_size_grid(BetaParams(a, b), null_orr, sig_prob, decision_orr, n_max=n_max)
        except InfeasibleDesignError:
            result = None
        assert result == (expected if expected <= n_max else None)

    def test_paper_design_probes_the_posterior_once_or_twice_per_size(self, monkeypatch):
        calls = []
        monkeypatch.setattr(binary, "beta_cdf", lambda *args: calls.append(args) or beta_cdf(*args))
        assert min_sample_size_grid(PRIOR, 0.075, 0.95, 0.175, n_max=1000) == 22
        # One relevance probe per size from n = 0, and a significance probe
        # only where neither ordering decides it.
        assert len(calls) == 1822 <= 2 * 1000 + 1

    @pytest.mark.parametrize(
        "prior,null_orr,sig_prob,decision_orr",
        [(PRIOR, 0.075, 0.95, 0.175), (BetaParams(1.9399, 5.0), 0.1989, 0.9, 0.4474),
         (BetaParams(1.0, 1.0), 0.2, 0.9, 0.35), (BetaParams(0.5, 2.0), 0.1, 0.975, 0.2),
         (BetaParams(3.0, 5.0), 0.3, 0.8, 0.45), (PRIOR, 0.075, 0.999999, 0.076)],
    )
    def test_walk_matches_a_per_size_boundary_scan(self, prior, null_orr, sig_prob, decision_orr):
        def implication_holds(n: int) -> bool:
            design = DualCriterionBinaryDesign(prior, null_orr, sig_prob, decision_orr, n)
            clin, stat = clinical_boundary(design), statistical_boundary(design)
            return clin is not None and stat is not None and stat <= clin

        failures = [n for n in range(1, 201) if not implication_holds(n)]
        expected = failures[-1] + 1 if failures else 1
        try:
            result = min_sample_size_grid(prior, null_orr, sig_prob, decision_orr, n_max=200)
        except InfeasibleDesignError:
            result = None
        assert result == (expected if expected <= 200 else None)

    # Integer symmetric priors at a decision value of 1/2, where the
    # posterior median sits exactly at 1/2 whenever r = n / 2. Rounding
    # once called such a tie not relevant and gave 11 for Beta(1, 1), 0.3.
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("null_orr", ["0.3", "0.4"])
    @pytest.mark.parametrize("sig_prob", ["0.8", "0.95", "0.975"])
    def test_symmetric_prior_at_one_half_matches_exact_rationals(self, k, null_orr, sig_prob):
        n_max = 120
        p, s = Fraction(null_orr), Fraction(sig_prob)
        a, b = p.numerator, p.denominator - p.numerator
        last_failure = 0
        for n in range(1, n_max + 1):
            m = 2 * k + n - 1
            row = [math.comb(m, j) for j in range(m + 1)]
            # Relevant: I_{1/2}(k + r, k + n - r) = P(Bin(m, 1/2) >= k + r) <= 1/2.
            r = next(r for r in range(n + 2) if r > n or 2 * sum(row[k + r:]) <= 2**m)
            # Significant: 1 - I_p(k + r, k + n - r) = P(Bin(m, p) < k + r) >= sig_prob.
            below = sum(row[j] * a**j * b ** (m - j) for j in range(k + r))
            if r > n or below * s.denominator < s.numerator * p.denominator**m:
                last_failure = n
        assert last_failure < n_max
        got = min_sample_size_grid(BetaParams(k, k), float(null_orr), float(sig_prob), 0.5, n_max=n_max)
        assert got == last_failure + 1

    def test_weak_statistical_criterion_needs_single_patient(self):
        assert min_sample_size_grid(PRIOR, 0.075, 0.5, 0.175, n_max=50) == 1

    def test_unreachable_size_is_reported(self):
        with pytest.raises(InfeasibleDesignError, match="no conclusive sample size"):
            min_sample_size_grid(PRIOR, 0.075, 0.999999, 0.076, n_max=25)

    @pytest.mark.parametrize("n_max", [0, 2.5, 2**53 + 1, 10**400])
    def test_rejects_a_size_cap_that_is_not_a_count(self, n_max):
        with pytest.raises(ValueError, match="n_max must be"):
            min_sample_size_grid(PRIOR, 0.075, 0.95, 0.175, n_max=n_max)

    def test_rejects_sig_prob_below_one_half(self):
        with pytest.raises(ValueError, match=r"sig_prob must lie in \[0\.5, 1\), got 0\.3"):
            min_sample_size_grid(PRIOR, 0.075, 0.3, 0.175, n_max=50)

    @pytest.mark.parametrize(
        "null_orr,sig_prob,decision_orr",
        [(0.075, 0.3, 0.175), (0.075, 1.0, 0.175), (0.075, 0.95, 0.05), (0.0, 0.95, 0.175),
         (0.075, 0.95, 1.0), (0.075, float("nan"), 0.175)],
    )
    def test_search_rejects_what_the_design_rejects(self, null_orr, sig_prob, decision_orr):
        with pytest.raises(ValueError) as design_error:
            DualCriterionBinaryDesign(
                prior=PRIOR, null_orr=null_orr, sig_prob=sig_prob, decision_orr=decision_orr, n=25
            )
        with pytest.raises(ValueError) as search_error:
            min_sample_size_grid(PRIOR, null_orr, sig_prob, decision_orr, n_max=50)
        assert str(search_error.value) == str(design_error.value)

    def test_design_at_sig_prob_one_half_builds(self):
        design = DualCriterionBinaryDesign(
            prior=PRIOR, null_orr=0.075, sig_prob=0.5, decision_orr=0.175, n=1
        )
        assert design.sig_prob == 0.5


# Published operating characteristics: (true_orr, p_go, p_nogo, p_inc).
TABLE_N25 = [
    (0.075, 0.036, 0.964, 0.0),
    (0.125, 0.195, 0.805, 0.0),
    (0.175, 0.451, 0.549, 0.0),
    (0.225, 0.693, 0.307, 0.0),
    (0.275, 0.858, 0.142, 0.0),
]
TABLE_N36 = [
    (0.075, 0.016, 0.950, 0.033),
    (0.125, 0.156, 0.709, 0.135),
    (0.175, 0.446, 0.380, 0.174),
    (0.225, 0.731, 0.149, 0.121),
    (0.275, 0.902, 0.044, 0.054),
]


def exact_zone_probs(n: int, p: Fraction, r_lower: int, r_upper: int) -> tuple:
    """Exact rational (GO, NO-GO, inconclusive) with GO at r >= r_upper."""
    pmf = [Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    go = sum(pmf[r_upper:], Fraction(0))
    nogo = sum(pmf[:r_lower], Fraction(0))
    return go, nogo, 1 - go - nogo


class TestOperatingCharacteristics:
    @pytest.mark.parametrize("true_orr,p_go,p_nogo,p_inc", TABLE_N25)
    def test_published_rows_n25(self, true_orr, p_go, p_nogo, p_inc):
        oc = oc_binary(make_design(25), true_orr)
        assert oc.p_go == pytest.approx(p_go, abs=1e-3)
        assert oc.p_nogo == pytest.approx(p_nogo, abs=1e-3)
        assert oc.p_inconclusive == pytest.approx(p_inc, abs=1e-3)

    @pytest.mark.parametrize("true_orr,p_go,p_nogo,p_inc", TABLE_N36)
    def test_published_rows_n36(self, true_orr, p_go, p_nogo, p_inc):
        oc = oc_binary(make_design(36), true_orr)
        assert oc.p_go == pytest.approx(p_go, abs=1e-3)
        assert oc.p_nogo == pytest.approx(p_nogo, abs=1e-3)
        assert oc.p_inconclusive == pytest.approx(p_inc, abs=1e-3)

    def test_exact_against_direct_summation(self):
        for n, lower, upper in ((25, 5, 5), (36, 6, 7)):
            for num, den in ((75, 1000), (175, 1000), (275, 1000)):
                oc = oc_binary(make_design(n), num / den)
                go, nogo, inc = exact_zone_probs(n, Fraction(num, den), lower, upper)
                assert oc.p_go == pytest.approx(float(go), abs=1e-12)
                assert oc.p_nogo == pytest.approx(float(nogo), abs=1e-12)
                assert oc.p_inconclusive == pytest.approx(float(inc), abs=1e-12)

    def test_far_tail_nogo_keeps_relative_accuracy(self):
        # 1 - P(R >= 5) leaves 1.4e-15 of rounding here; the exact mass is 5e-24
        oc = oc_binary(make_design(25), 0.95)
        _, nogo, _ = exact_zone_probs(25, Fraction(0.95), 5, 5)
        assert oc.p_nogo == pytest.approx(float(nogo), rel=1e-12, abs=0)

    def test_rows_sum_to_one(self):
        for n in (1, 7, 25, 36, 120):
            for true_orr in (0.01, 0.075, 0.175, 0.5, 0.9):
                assert sum(oc_binary(make_design(n), true_orr).probs) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_p_go_nondecreasing_in_true_orr(self):
        design = make_design(36)
        grid = [i / 100 for i in range(2, 92, 3)]
        gos = [oc_binary(design, p).p_go for p in grid]
        assert all(a <= b for a, b in zip(gos, gos[1:]))

    def test_type_one_error_within_posterior_budget(self):
        # discreteness keeps the frequentist size under 1 - sig_prob here
        for n in (22, 25, 36, 60):
            assert oc_binary(make_design(n), 0.075).p_go <= 0.05

    def test_boundaries_are_searched_once_per_design(self, monkeypatch):
        searches = []
        monkeypatch.setattr(binary, "first_true", lambda *args: searches.append(args) or first_true(*args))
        design = make_design(36)
        for p in (0.075, 0.175, 0.275):
            oc_binary(design, p)
        assert min_responders(design) == 7
        # One search per criterion, for all of the calls above.
        assert len(searches) == 2


class TestDecide:
    def test_go_at_boundary(self):
        decision = decide_binary(make_design(25), 5)
        assert decision.tag is DecisionTag.GO

    def test_nogo_below_boundary(self):
        decision = decide_binary(make_design(25), 4)
        assert decision.tag is DecisionTag.NOGO
        assert not decision.significant and not decision.relevant

    def test_inconclusive_case3_at_36(self):
        decision = decide_binary(make_design(36), 6)
        assert decision.tag is DecisionTag.INCONCLUSIVE_SIG_NOT_RELEVANT
        assert decision.case == 3

    def test_case4_impossible_at_or_above_minimum_size(self):
        for n in range(22, 70):
            design = make_design(n)
            for r in range(n + 1):
                assert decide_binary(design, r).tag is not (
                    DecisionTag.INCONCLUSIVE_RELEVANT_NOT_SIG
                )

    def test_case4_possible_below_minimum_size(self):
        seen = set()
        for n in (13, 14, 15, 20, 21):
            design = make_design(n)
            seen.update(decide_binary(design, r).tag for r in range(n + 1))
        assert DecisionTag.INCONCLUSIVE_RELEVANT_NOT_SIG in seen

    def test_decisions_match_boundaries(self):
        for n in (5, 25, 36):
            design = make_design(n)
            stat, clin = statistical_boundary(design), clinical_boundary(design)
            for r in range(n + 1):
                decision = decide_binary(design, r)
                assert decision.significant == (stat is not None and r >= stat)
                assert decision.relevant == (clin is not None and r >= clin)

    def test_rejects_r_out_of_range(self):
        with pytest.raises(ValueError):
            decide_binary(make_design(25), 26)
        with pytest.raises(ValueError):
            decide_binary(make_design(25), -1)

    @pytest.mark.parametrize("n,r", [(25, 4), (25, 5), (36, 6)])
    def test_a_posterior_probability_equal_to_sig_prob_is_significant(self, n, r):
        # The statistical criterion is inclusive: at sig_prob set to the
        # posterior probability itself, r is significant and is the
        # statistical boundary.
        tied = replace(make_design(n), sig_prob=posterior_summary(make_design(n), r).prob_positive)
        assert decide_binary(tied, r).significant
        assert statistical_boundary(tied) == r


@pytest.mark.parametrize("value", [2.5, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "call,name",
    [
        (lambda value: binomial_pmf(10, 0.5, value), "k"),
        (lambda value: binomial_tail(10, 0.5, value), "r"),
        (lambda value: decide_binary(make_design(25), value), "responder count"),
        (lambda value: posterior_summary(make_design(25), value), "responder count"),
    ],
    ids=["binomial_pmf", "binomial_tail", "decide_binary", "posterior_summary"],
)
def test_count_that_is_not_whole_and_finite_is_a_value_error_naming_it(call, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer in \[0, \d+\], got {value}$"):
        call(value)
