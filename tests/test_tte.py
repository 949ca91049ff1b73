"""Time-to-event designs: sizing, thresholds, Table-style golden rows,
and the structural properties of the dual criterion.

Independent oracle: scipy's normal distribution, driving the same closed
forms by a separate special-function implementation.
"""

import math
import random
import warnings
from dataclasses import replace

import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import norm as scipy_norm

from dualcrit.outcomes import DecisionTag
from dualcrit.tte import (
    DualCriterionTTEDesign,
    PrecisionTTEDesign,
    StandardTTEDesign,
    decide_tte,
    dual_cut_rule,
    implied_precision_factor,
    min_events_dual,
    oc_dual_tte,
    oc_standard_tte,
    precision_events,
    significance_threshold,
    standard_design_events,
)

DESIGN_1 = DualCriterionTTEDesign(alpha=0.1, decision_hr=0.7, n_events=70)
DESIGN_2 = DualCriterionTTEDesign(alpha=0.1, decision_hr=0.7, n_events=52)


def oracle_threshold(alpha, null_hr, sigma, n):
    return null_hr * math.exp(-float(scipy_norm.ppf(1 - alpha)) * sigma / math.sqrt(n))


def oracle_dual_oc(alpha, null_hr, decision_hr, sigma, n, true_hr):
    s = sigma / math.sqrt(n)
    t_sig = oracle_threshold(alpha, null_hr, sigma, n)
    t, u = min(decision_hr, t_sig), max(decision_hr, t_sig)
    p_go = float(scipy_norm.cdf((math.log(t) - math.log(true_hr)) / s))
    p_nogo = 1.0 - float(scipy_norm.cdf((math.log(u) - math.log(true_hr)) / s))
    return p_go, p_nogo, 1.0 - p_go - p_nogo


class TestSizing:
    @pytest.mark.parametrize(
        "alpha,null_hr,decision_hr,expected",
        [(0.1, 1.0, 0.7, 52), (0.025, 1.0, 0.8, 309)],
    )
    def test_min_events_dual(self, alpha, null_hr, decision_hr, expected):
        assert min_events_dual(alpha, null_hr, decision_hr, 2.0) == expected

    def test_min_events_is_smallest_conclusive_size(self):
        n_min = min_events_dual(0.1, 1.0, 0.7, 2.0)
        assert significance_threshold(0.1, 1.0, 2.0, n_min) >= 0.7
        assert significance_threshold(0.1, 1.0, 2.0, n_min - 1) < 0.7

    def test_min_events_diverges_near_null(self):
        assert min_events_dual(0.025, 1.0, 0.99999, 2.0) > 10**9

    def test_min_events_rejects_inverted_values(self):
        with pytest.raises(ValueError):
            min_events_dual(0.025, 1.0, 1.0, 2.0)

    @pytest.mark.parametrize(
        "alpha,beta,alt_hr,expected",
        [(0.025, 0.1, 0.75, 508), (0.1, 0.1, 0.5, 55), (0.1, 0.2, 0.5, 38), (0.2, 0.1, 0.5, 38)],
    )
    def test_standard_design_events(self, alpha, beta, alt_hr, expected):
        design = StandardTTEDesign(alpha=alpha, beta=beta, alt_hr=alt_hr)
        assert standard_design_events(design, 2.0) == expected
        assert design.n_events == expected

    def test_standard_rejects_inverted_alternative(self):
        with pytest.raises(ValueError):
            StandardTTEDesign(alpha=0.025, beta=0.1, alt_hr=1.2)

    @pytest.mark.parametrize("factor,expected", [(1.2, 462), (1.25, 309)])
    def test_precision_events(self, factor, expected):
        assert precision_events(PrecisionTTEDesign(factor=factor)) == expected

    def test_precision_huge_factor_needs_one_event(self):
        assert precision_events(PrecisionTTEDesign(factor=1e9)) == 1

    def test_precision_rejects_factor_at_most_one(self):
        with pytest.raises(ValueError):
            PrecisionTTEDesign(factor=1.0)

    def test_implied_precision_round_trip(self):
        design = PrecisionTTEDesign(factor=1.25)
        n = precision_events(design)
        assert implied_precision_factor(2.0, n) == pytest.approx(1.25, abs=2e-3)


class TestSignificanceThreshold:
    # exact values; the published table renders these at 3 decimals
    @pytest.mark.parametrize(
        "alpha,n,expected",
        [
            (0.025, 508, 0.840365),
            (0.1, 70, 0.736129),
            (0.1, 55, 0.707789),
            (0.1, 38, 0.659819),
            (0.2, 38, 0.761049),
        ],
    )
    def test_golden_values(self, alpha, n, expected):
        value = significance_threshold(alpha, 1.0, 2.0, n)
        assert value == pytest.approx(expected, abs=5e-7)
        assert value == pytest.approx(oracle_threshold(alpha, 1.0, 2.0, n), abs=1e-12)

    def test_monotone_in_n(self):
        values = [significance_threshold(0.1, 1.0, 2.0, n) for n in (10, 30, 70, 200)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_empty_trial(self):
        with pytest.raises(ValueError):
            significance_threshold(0.1, 1.0, 2.0, 0)


# Golden rows: (true_hr, p_go, p_nogo, p_inconclusive) as published.
TABLE_DESIGN_1 = [
    (0.5, 0.920, 0.053, 0.027),
    (0.6, 0.740, 0.196, 0.064),
    (0.7, 0.500, 0.417, 0.083),
    (0.8, 0.288, 0.636, 0.076),
    (0.9, 0.147, 0.800, 0.054),
    (1.0, 0.068, 0.900, 0.032),
]

TABLE_STANDARD = {
    (0.1, 0.1): [(0.5, 0.901), (0.6, 0.729), (0.7, 0.516), (0.8, 0.325), (0.9, 0.186), (1.0, 0.100)],
    (0.1, 0.2): [(0.5, 0.804), (0.6, 0.615), (0.7, 0.428), (0.8, 0.276), (0.9, 0.169), (1.0, 0.100)],
    (0.2, 0.1): [(0.5, 0.902), (0.6, 0.768), (0.7, 0.602), (0.8, 0.439), (0.9, 0.303), (1.0, 0.200)],
}

# Design 2 rows frozen from the oracle formula at the integer event count.
# The published table idealizes the significance threshold as exactly the
# decision value there; the exact threshold at n=52 is 0.700866, so the
# published NO-GO cells sit up to 0.0018 away from these.
TABLE_DESIGN_2_EXACT = [
    (0.5, 0.887467, 0.111683, 0.000850),
    (0.6, 0.710826, 0.287652, 0.001522),
    (0.7, 0.500000, 0.498221, 0.001779),
    (0.8, 0.315097, 0.683318, 0.001586),
    (0.9, 0.182434, 0.816384, 0.001182),
    (1.0, 0.099220, 0.900000, 0.000780),
]


class TestDualOperatingCharacteristics:
    @pytest.mark.parametrize("true_hr,p_go,p_nogo,p_inc", TABLE_DESIGN_1)
    def test_design_1_rows(self, true_hr, p_go, p_nogo, p_inc):
        oc = oc_dual_tte(DESIGN_1, true_hr)
        assert oc.p_go == pytest.approx(p_go, abs=1e-3)
        assert oc.p_nogo == pytest.approx(p_nogo, abs=1e-3)
        assert oc.p_inconclusive == pytest.approx(p_inc, abs=1e-3)

    @pytest.mark.parametrize("true_hr,p_go,p_nogo,p_inc", TABLE_DESIGN_2_EXACT)
    def test_design_2_rows_exact(self, true_hr, p_go, p_nogo, p_inc):
        oc = oc_dual_tte(DESIGN_2, true_hr)
        oracle = oracle_dual_oc(0.1, 1.0, 0.7, 2.0, 52, true_hr)
        assert oc.p_go == pytest.approx(oracle[0], abs=1e-12)
        assert oc.p_nogo == pytest.approx(oracle[1], abs=1e-12)
        assert oc.p_go == pytest.approx(p_go, abs=1e-6)
        assert oc.p_nogo == pytest.approx(p_nogo, abs=1e-6)
        assert oc.p_inconclusive == pytest.approx(p_inc, abs=1e-6)

    def test_design_2_go_column_matches_published(self):
        published_go = [0.887, 0.711, 0.500, 0.315, 0.182, 0.099]
        for (true_hr, *_), go in zip(TABLE_DESIGN_2_EXACT, published_go):
            assert oc_dual_tte(DESIGN_2, true_hr).p_go == pytest.approx(go, abs=1e-3)

    def test_matches_oracle_formula(self):
        for true_hr in (0.45, 0.7, 0.736, 1.0, 1.3):
            oc = oc_dual_tte(DESIGN_1, true_hr)
            oracle = oracle_dual_oc(0.1, 1.0, 0.7, 2.0, 70, true_hr)
            assert oc.p_go == pytest.approx(oracle[0], abs=1e-12)
            assert oc.p_nogo == pytest.approx(oracle[1], abs=1e-12)

    def test_nogo_far_tail_keeps_relative_accuracy(self):
        # at HR 0.3 with 420 events the NO-GO tail is ~1.6e-25, far below
        # the spacing of doubles near 1
        design = DualCriterionTTEDesign(alpha=0.025, decision_hr=0.8, n_events=420)
        s = 2.0 / math.sqrt(420)
        t_sig = math.exp(float(ndtri(0.025)) * s)
        x = (math.log(max(0.8, t_sig)) - math.log(0.3)) / s
        expected = float(ndtr(-x))
        assert 1e-26 < expected < 1e-24
        assert oc_dual_tte(design, 0.3).p_nogo == pytest.approx(expected, rel=1e-12, abs=0.0)

    # The four paper designs: (alpha, decision value, events).
    PAPER_DESIGNS = [(0.025, 0.8, 309), (0.025, 0.8, 420), (0.1, 0.7, 52), (0.1, 0.7, 70)]

    @pytest.mark.parametrize("alpha,dv,n", PAPER_DESIGNS)
    def test_inconclusive_matches_mpmath(self, alpha, dv, n):
        # Far from the cut points both tails are small, so 1 - p_go - p_nogo
        # would keep only the rounding of the larger part.
        mpmath = pytest.importorskip("mpmath")
        design = DualCriterionTTEDesign(alpha=alpha, decision_hr=dv, n_events=n)
        with mpmath.workdps(100):
            s = 2 / mpmath.sqrt(n)
            t_sig = mpmath.exp(-mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(alpha)) * s)
            log_t, log_u = sorted((mpmath.log(dv), mpmath.log(t_sig)))
            for i in range(13):
                true_hr = round(0.3 + 0.1 * i, 1)
                x_t, x_u = ((v - mpmath.log(true_hr)) / s for v in (log_t, log_u))
                want = float(mpmath.ncdf(x_u) - mpmath.ncdf(x_t))
                got = oc_dual_tte(design, true_hr).p_inconclusive
                assert got == pytest.approx(want, rel=1e-11, abs=0), true_hr

    def test_power_at_decision_value_is_exactly_half(self):
        for n in (52, 70, 103, 400):
            oc = oc_dual_tte(
                DualCriterionTTEDesign(alpha=0.1, decision_hr=0.7, n_events=n), 0.7
            )
            assert oc.p_go == 0.5

    def test_type_one_error_at_most_alpha_and_exact_at_real_n_min(self):
        alpha, dv = 0.1, 0.7
        for n in (52, 70, 120):
            oc = oc_dual_tte(
                DualCriterionTTEDesign(alpha=alpha, decision_hr=dv, n_events=n), 1.0
            )
            assert oc.p_go <= alpha + 1e-12
        # at the real-valued minimum size the two thresholds coincide and
        # the GO probability under the null equals alpha exactly
        z = float(scipy_norm.ppf(1 - alpha))
        n_exact = (2.0 * z / (math.log(1.0) - math.log(dv))) ** 2
        oc = dual_cut_rule(alpha, 1.0, dv, 2.0, n_exact).oc(1.0)
        assert oc.p_go == pytest.approx(alpha, abs=1e-9)
        assert oc.p_inconclusive == pytest.approx(0.0, abs=1e-9)

    def test_inconclusive_bounded_by_threshold_gap_at_integer_n_min(self):
        design = DESIGN_2
        s = design.sigma / math.sqrt(design.n_events)
        gap = math.log(design.significance_threshold) - math.log(design.decision_hr)
        band = gap / s * (1.0 / math.sqrt(2.0 * math.pi))
        for true_hr in (0.4, 0.7, 0.93, 1.2):
            assert oc_dual_tte(design, true_hr).p_inconclusive <= band + 1e-12

    def test_p_go_monotone_in_true_hr(self):
        grid = [0.4 + 0.05 * i for i in range(17)]
        gos = [oc_dual_tte(DESIGN_1, hr).p_go for hr in grid]
        assert all(a >= b for a, b in zip(gos, gos[1:]))
        nogos = [oc_dual_tte(DESIGN_1, hr).p_nogo for hr in grid]
        assert all(a <= b for a, b in zip(nogos, nogos[1:]))

    def test_growing_trial_sharpens_power_around_decision_value(self):
        small, large = DESIGN_2, DESIGN_1  # 52 vs 70 events
        for hr in (0.5, 0.6, 0.65):
            assert oc_dual_tte(large, hr).p_go > oc_dual_tte(small, hr).p_go
        for hr in (0.75, 0.85, 1.0):
            assert oc_dual_tte(large, hr).p_go < oc_dual_tte(small, hr).p_go
        assert oc_dual_tte(large, 0.7).p_go == oc_dual_tte(small, 0.7).p_go == 0.5

    def test_simplex_on_randomized_designs(self):
        rng = random.Random(20240811)
        for _ in range(200):
            alpha = rng.uniform(0.01, 0.45)
            dv = rng.uniform(0.3, 0.95)
            n = rng.randint(5, 600)
            true_hr = rng.uniform(0.2, 1.6)
            with pytest.warns() if n < min_events_dual(alpha, 1.0, dv, 2.0) else _no_warning():
                design = DualCriterionTTEDesign(alpha=alpha, decision_hr=dv, n_events=n)
            oc = oc_dual_tte(design, true_hr)
            assert abs(sum(oc.probs) - 1.0) < 1e-9
            assert all(p >= 0.0 for p in oc.probs)


def _no_warning():
    import contextlib

    return contextlib.nullcontext()


class TestDualDesignSize:
    def test_filled_size_is_the_minimum(self, recwarn):
        design = DualCriterionTTEDesign(alpha=0.1, decision_hr=0.7, sigma=3.0)
        assert design.n_events == min_events_dual(0.1, 1.0, 0.7, 3.0) == 117
        assert design == DualCriterionTTEDesign(0.1, 0.7, 117, sigma=3.0)
        assert len(recwarn) == 0

    def test_replace_keeps_a_filled_size_unless_it_is_cleared(self):
        design = DualCriterionTTEDesign(alpha=0.1, decision_hr=0.7)
        assert replace(design, decision_hr=0.6, n_events=None).n_events == 26
        with pytest.warns(UserWarning, match="n_events=52 is below the minimum 86"):
            assert replace(design, alpha=0.05).n_events == 52

    def test_a_filled_size_has_the_count_bound(self):
        with pytest.raises(ValueError, match=r"n_events must be at most 2\*\*53"):
            DualCriterionTTEDesign(alpha=0.1, decision_hr=0.7, sigma=1e12)


class TestStandardDesignSize:
    def test_filled_size_follows_sigma(self):
        assert StandardTTEDesign(0.1, 0.1, 0.5, sigma=3.0).n_events == standard_design_events(
            StandardTTEDesign(0.1, 0.1, 0.5), 3.0
        )

    def test_given_size_is_kept(self):
        design = StandardTTEDesign(0.1, 0.1, 0.5, sigma=2.5, n_events=77)
        assert design.n_events == 77
        assert design.significance_threshold == significance_threshold(0.1, 1.0, 2.5, 77)

    @pytest.mark.parametrize("n_events", [0, -4, 0.5, float("nan")])
    def test_rejects_fewer_than_one_event(self, n_events):
        with pytest.raises(ValueError, match="n_events must be at least 1, got"):
            StandardTTEDesign(0.1, 0.1, 0.5, n_events=n_events)

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError, match="sigma must be positive"):
            StandardTTEDesign(0.1, 0.1, 0.5, sigma=0.0)

    def test_oc_runs_the_design_at_the_given_sigma_and_size(self):
        sized = StandardTTEDesign(0.1, 0.1, 0.5, sigma=2.5, n_events=77)
        for true_hr in (0.5, 0.7, 1.0):
            assert oc_standard_tte(
                StandardTTEDesign(0.1, 0.1, 0.5), 2.5, 77, true_hr
            ) == sized.cut_rule.oc(true_hr)

    @pytest.mark.parametrize("n_events", [10**400, float("inf")])
    def test_rejects_a_size_past_the_float_range(self, n_events):
        with pytest.raises(ValueError, match="n_events must be at most 1.7976931348623157e[+]308"):
            StandardTTEDesign(0.1, 0.1, 0.5, n_events=n_events)


class TestInputBounds:
    """Each input is checked once, with the bound its formula needs."""

    def test_real_valued_event_counts_are_not_capped_at_2_to_the_53(self):
        assert significance_threshold(0.1, 1.0, 2.0, 1e25) < 1.0
        assert implied_precision_factor(2.0, 1e25) > 1.0
        with pytest.raises(ValueError, match="n_events must be at most"):
            implied_precision_factor(2.0, 10**400)

    def test_dual_design_size_is_a_count(self):
        for n_events in (70.5, 2**53 + 1):
            with pytest.raises(ValueError, match="n_events must be"):
                DualCriterionTTEDesign(alpha=0.1, decision_hr=0.7, n_events=n_events)

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_error_rates_below_2_to_the_minus_53_rejected(self, name):
        rates = {"alpha": 0.1, "beta": 0.1, name: 1e-17}
        with pytest.raises(ValueError, match=f"{name} must be at least 2[*][*]-53, got 1e-17"):
            StandardTTEDesign(alt_hr=0.5, **rates)
        rates[name] = 2**-53
        assert StandardTTEDesign(alt_hr=0.5, **rates).n_events >= 1

    def test_level_whose_quantile_rounds_to_one_rejected(self):
        top = 1.0 - 2**-52
        assert implied_precision_factor(2.0, 100, top) > 1.0
        assert precision_events(PrecisionTTEDesign(factor=1.5, level=top)) >= 1
        for call in (
            lambda: implied_precision_factor(2.0, 100, 0.9999999999999999),
            lambda: PrecisionTTEDesign(factor=1.5, level=0.9999999999999999),
        ):
            with pytest.raises(ValueError, match="level must be at most 1 - 2[*][*]-52"):
                call()

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_level_outside_the_unit_interval_rejected(self, level):
        with pytest.raises(ValueError, match=f"^level must lie strictly in \\(0, 1\\), got {level}$"):
            implied_precision_factor(2.0, 100, level)

    def test_a_factor_past_the_largest_double_is_a_value_error(self):
        with pytest.raises(
            ValueError, match="^the CI half-width factor overflows at sigma=1000.0, n_events=1$"
        ):
            implied_precision_factor(1000.0, 1)


class TestSmallErrorRates:
    """Upper quantiles are taken as minus the lower ones, so sizes and
    thresholds keep full accuracy at a small alpha, where 1 - alpha is
    rounded."""

    @pytest.mark.parametrize("alpha", [1e-8, 1e-12, 1e-15, 3e-16])
    def test_sizes_and_threshold_match_mpmath(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            z_a = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(alpha))
            z_b = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(0.1))
            n_dual = int(mpmath.ceil((2 * z_a / mpmath.log(1 / mpmath.mpf(0.7))) ** 2))
            n_standard = int(mpmath.ceil((2 * (z_a + z_b) / mpmath.log(2)) ** 2))
            threshold = float(mpmath.exp(-z_a * 2 / mpmath.sqrt(200)))
        assert min_events_dual(alpha, 1.0, 0.7) == n_dual
        assert StandardTTEDesign(alpha=alpha, beta=0.1, alt_hr=0.5).n_events == n_standard
        assert significance_threshold(alpha, 1.0, 2.0, 200) == pytest.approx(threshold, rel=1e-14, abs=0)

    @pytest.mark.parametrize("level", [1 - 1e-8, 1 - 1e-12, 1 - 2**-52])
    def test_precision_factor_matches_mpmath(self, level):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            z = mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(level))
            factor = float(mpmath.exp(z * 2 / mpmath.sqrt(100)))
        assert implied_precision_factor(2.0, 100, level) == pytest.approx(factor, rel=1e-14, abs=0)


class TestStandardOperatingCharacteristics:
    @pytest.mark.parametrize("key,rows", sorted(TABLE_STANDARD.items()))
    def test_published_go_cells(self, key, rows):
        alpha, beta = key
        design = StandardTTEDesign(alpha=alpha, beta=beta, alt_hr=0.5)
        n = standard_design_events(design, 2.0)
        for true_hr, p_go in rows:
            oc = oc_standard_tte(design, 2.0, n, true_hr)
            assert oc.p_go == pytest.approx(p_go, abs=1e-3)
            assert oc.p_nogo == pytest.approx(1.0 - p_go, abs=1e-3)
            assert oc.p_inconclusive == 0.0

    def test_nogo_far_tail_keeps_relative_accuracy(self):
        design = StandardTTEDesign(alpha=0.025, beta=0.1, alt_hr=0.5)
        n = 420
        s = 2.0 / math.sqrt(n)
        t_sig = math.exp(float(ndtri(0.025)) * s)
        x = (math.log(t_sig) - math.log(0.3)) / s
        expected = float(ndtr(-x))
        assert expected < 1e-20
        assert oc_standard_tte(design, 2.0, n, 0.3).p_nogo == pytest.approx(
            expected, rel=1e-12, abs=0.0
        )

    def test_inconclusive_is_exactly_zero(self):
        design = StandardTTEDesign(alpha=0.025, beta=0.1, alt_hr=0.5)
        for true_hr in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5, 3.0):
            assert oc_standard_tte(design, 2.0, 420, true_hr).p_inconclusive == 0.0

    def test_half_power_at_threshold(self):
        design = StandardTTEDesign(alpha=0.1, beta=0.2, alt_hr=0.5)
        n = standard_design_events(design, 2.0)
        t_sig = significance_threshold(0.1, 1.0, 2.0, n)
        assert oc_standard_tte(design, 2.0, n, t_sig).p_go == pytest.approx(0.5, abs=1e-12)

    def test_power_at_alternative_meets_target(self):
        for alpha, beta in ((0.025, 0.1), (0.1, 0.2), (0.2, 0.1)):
            design = StandardTTEDesign(alpha=alpha, beta=beta, alt_hr=0.5)
            n = standard_design_events(design, 2.0)
            assert oc_standard_tte(design, 2.0, n, 0.5).p_go >= 1.0 - beta

    @pytest.mark.parametrize("n_events", [0, -4])
    def test_rejects_fewer_than_one_event(self, n_events):
        design = StandardTTEDesign(alpha=0.1, beta=0.2, alt_hr=0.5)
        with pytest.raises(ValueError, match="n_events must be at least 1"):
            oc_standard_tte(design, 2.0, n_events, 0.7)


class TestDecide:
    def test_both_criteria_met(self):
        decision = decide_tte(DESIGN_1, 0.65)
        assert decision.tag is DecisionTag.GO
        assert decision.significant and decision.relevant
        assert decision.case == 2

    def test_significant_but_not_relevant(self):
        decision = decide_tte(DESIGN_1, 0.72)
        assert decision.tag is DecisionTag.INCONCLUSIVE_SIG_NOT_RELEVANT
        assert decision.case == 3

    def test_relevant_but_not_significant_below_minimum_size(self):
        with pytest.warns(UserWarning, match="below the minimum") as record:
            design = DualCriterionTTEDesign(alpha=0.1, decision_hr=0.7, n_events=30)
        # The warning points at the caller, not into the generated __init__.
        assert [w.filename for w in record] == [__file__]
        assert design.significance_threshold == pytest.approx(0.626, abs=1e-3)
        decision = decide_tte(design, 0.69)
        assert decision.tag is DecisionTag.INCONCLUSIVE_RELEVANT_NOT_SIG
        assert decision.case == 4

    def test_both_criteria_missed(self):
        decision = decide_tte(DESIGN_1, 0.9)
        assert decision.tag is DecisionTag.NOGO
        assert decision.case == 1

    def test_thresholds_are_inclusive(self):
        assert decide_tte(DESIGN_1, DESIGN_1.decision_hr).relevant
        assert decide_tte(DESIGN_1, DESIGN_1.significance_threshold).significant

    def test_rejects_nonpositive_estimate(self):
        with pytest.raises(ValueError):
            decide_tte(DESIGN_1, 0.0)

    @pytest.mark.parametrize("n_events", [30, 52, 70])
    def test_criteria_on_an_array_agree_with_decide_tte_at_each_estimate(self, n_events):
        import numpy as np

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # 30 events is below the minimum
            design = DualCriterionTTEDesign(alpha=0.1, decision_hr=0.7, n_events=n_events)
        thresholds = (design.significance_threshold, design.decision_hr)
        estimates = np.array(
            [*thresholds, *(math.nextafter(t, to) for t in thresholds for to in (0.0, math.inf)),
             0.3, 0.65, 0.72, 0.9, 1.0, 2.5]
        )
        significant, relevant = design.criteria(estimates)
        assert significant.shape == relevant.shape == estimates.shape
        # Both thresholds are inclusive, elementwise as for one estimate.
        assert significant[0] and relevant[1]
        for hr, sig, rel in zip(estimates.tolist(), significant.tolist(), relevant.tolist()):
            decision = decide_tte(design, hr)
            assert (decision.significant, decision.relevant) == (sig, rel) == design.criteria(hr)


class TestContrastWithStandardDesign:
    def test_implied_threshold_and_power_gap(self):
        design = StandardTTEDesign(alpha=0.025, beta=0.2, alt_hr=0.667)
        n = standard_design_events(design, 2.0)
        threshold = significance_threshold(0.025, 1.0, 2.0, n)
        assert threshold == pytest.approx(0.754, abs=5e-4)
        # the standard design keeps ~80% power at 0.667 while a dual
        # criterion with decision value 0.667 has exactly 50% there
        assert oc_standard_tte(design, 2.0, n, 0.667).p_go == pytest.approx(0.80, abs=5e-3)
        dual = DualCriterionTTEDesign(alpha=0.025, decision_hr=0.667, n_events=n)
        assert oc_dual_tte(dual, 0.667).p_go == 0.5
