"""The one boundary search, against a linear scan of every small case; the
cut-point rule's checks; the small value types."""

import math
import pickle
from dataclasses import replace

import pytest

from dualcrit import distributions
from dualcrit.binary import DualCriterionBinaryDesign, PosteriorSummary
from dualcrit.distributions import BetaParams
from dualcrit.outcomes import CutRule, Decision, OperatingCharacteristics, first_true
from dualcrit.three_outcome import ThreeOutcomeDesign, feasible_pairs, find_three_outcome_design


def test_first_true_matches_a_linear_scan_and_probes_only_its_range():
    for lo in range(4):
        for hi in range(lo - 1, 40):
            for threshold in range(lo - 1, hi + 3):
                probes = []

                def holds(r):
                    probes.append(r)
                    return r >= threshold

                want = next((r for r in range(lo, hi + 1) if r >= threshold), hi + 1)
                assert first_true(holds, lo, hi) == want
                assert all(lo <= r <= hi for r in probes)
                assert len(probes) == len(set(probes))
                # One call for an answer at lo, two at lo + 1, O(log) beyond.
                distance = want - lo
                assert len(probes) <= (distance + 1 if distance < 2 else 2 * math.log2(distance) + 2)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: CutRule(3, 2, n=10), "cut lo must not exceed cut hi, got lo=3, hi=2"),
        (lambda: CutRule(0, 12, n=10), r"cut hi must be an integer in \[0, 11\], got 12"),
        (lambda: CutRule(-1, 3, n=10), r"cut lo must be an integer in \[0, 11\], got -1"),
        (lambda: CutRule(2.5, 3, n=10), r"cut lo must be an integer in \[0, 11\], got 2.5"),
        (lambda: CutRule(2, 3, n=10).shifted(0.5), r"cut hi must be an integer in \[0, 11\], got 3.5"),
        (lambda: CutRule(math.nan, 3, n=10), "cut lo must not exceed cut hi, got lo=nan, hi=3"),
        (lambda: CutRule(0.5, -0.5, se=0.2), "cut lo must not exceed cut hi, got lo=0.5, hi=-0.5"),
        (lambda: CutRule(0.0, math.nan, se=0.2), "cut lo must not exceed cut hi, got lo=0.0, hi=nan"),
        (lambda: CutRule(2, 3, n=10, se=0.2), "a cut rule needs exactly one of n and se"),
        (lambda: CutRule(2, 3), "a cut rule needs exactly one of n and se"),
        # A shift past the float range, or one whose cut overflows to inf.
        (lambda: CutRule(0.1, 0.2, se=0.1).shifted(10**400),
         f"the GO cut shifted by {10**400} standard errors is not finite$"),
        (lambda: CutRule(0.1, 0.2, se=0.1).shifted(-(10**400)),
         f"the GO cut shifted by {-(10**400)} standard errors is not finite$"),
        (lambda: CutRule(0.1, 0.2, se=2.0).shifted(10**308),
         f"the GO cut shifted by {10**308} standard errors is not finite$"),
        (lambda: CutRule(0.1, 0.2, se=0.1).shifted(math.nan), "the GO cut shifted by nan standard errors"),
    ],
    ids=["crossed", "hi-above-n+1", "lo-negative", "lo-not-whole", "shifted-not-whole",
         "lo-nan", "normal-crossed", "normal-hi-nan", "both-n-and-se", "neither-n-nor-se",
         "shift-past-float-range", "shift-past-float-range-below", "shift-to-inf", "shift-nan"],
)
def test_a_bad_cut_is_a_value_error_naming_it(build, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


def test_a_shift_keeps_a_finite_normal_cut_and_clamps_a_binary_one():
    assert CutRule(0.1, 0.2, se=0.1).shifted(3) == CutRule(0.1, 0.2 + 3 * 0.1, se=0.1)
    assert CutRule(0.1, 0.2, se=0.1).shifted(-3) == CutRule(0.2 - 3 * 0.1, 0.2 - 3 * 0.1, se=0.1)
    assert CutRule(2, 3, n=10).shifted(10**400) == CutRule(2, 11, n=10)
    assert CutRule(2, 3, n=10).shifted(-(10**400)) == CutRule(0, 0, n=10)


@pytest.mark.parametrize(
    "parts,message",
    [
        ((1.5, -0.25, -0.25), r"p_go out of \[0, 1\]: 1.5"),
        ((0.5, -0.1, 0.6), r"p_nogo out of \[0, 1\]: -0.1"),
        ((0.2, 0.3, math.nan), r"p_inconclusive out of \[0, 1\]: nan"),
        ((0.5, 0.5, 0.5), "outcome probabilities sum to 1.5, not 1"),
        ((0.2, 0.3, 0.4), "outcome probabilities sum to 0.9, not 1"),
    ],
    ids=["go-above-1", "nogo-negative", "inconclusive-nan", "sum-above-1", "sum-below-1"],
)
def test_operating_characteristics_off_the_simplex_are_a_value_error(parts, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        OperatingCharacteristics(0.5, *parts)


def test_small_value_types_have_slots_and_round_trip():
    values = [
        Decision(significant=True, relevant=False),
        OperatingCharacteristics(0.2, 0.5, 0.3, 0.2),
        BetaParams(0.0811, 1.0),
        PosteriorSummary(posterior=BetaParams(2.0, 3.0), prob_positive=0.9, median=0.4),
    ]
    for value in values:
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value
        assert replace(value) == value


def test_the_analytic_binomial_side_reads_no_pmf(monkeypatch):
    # The pmf is the simulation oracle's alone, so a fault in it cannot
    # move the analytic OC it is checked against.
    def refuse(*args):
        raise AssertionError("binomial_pmf called")

    monkeypatch.setattr(distributions, "binomial_pmf", refuse)
    constraints = dict(p0=0.075, p1=0.275, alpha=0.05, beta=0.1, eta=0.8, pi=0.9)
    designs = [
        DualCriterionBinaryDesign(BetaParams(0.0811, 1.0), 0.075, 0.95, 0.175, n=25),
        ThreeOutcomeDesign(n=27, r_go=5, r_nogo=3, **constraints),
    ]
    for design in designs:
        for rate in (0.001, 0.075, 0.175, 0.5, 0.999):
            assert sum(design.cut_rule.oc(rate).probs) == pytest.approx(1.0, abs=1e-12)
    assert (3, 5) in feasible_pairs(27, **constraints)
    assert find_three_outcome_design(**constraints) == designs[1]
