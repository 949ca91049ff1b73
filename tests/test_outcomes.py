"""The one boundary search, against a linear scan of every small case; the
cut-point rule's checks; the small value types."""

import math
import pickle
from dataclasses import replace

import pytest

from dualcrit.binary import PosteriorSummary
from dualcrit.distributions import BetaParams, binomial_cut_probs
from dualcrit.outcomes import CutRule, Decision, OperatingCharacteristics, first_true


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
        (lambda: CutRule(0, 12, n=10), r"cut hi must be a whole number in \[0, 11\], got 12"),
        (lambda: CutRule(-1, 3, n=10), r"cut lo must be a whole number in \[0, 11\], got -1"),
        (lambda: CutRule(2.5, 3, n=10), r"cut lo must be a whole number in \[0, 11\], got 2.5"),
        (lambda: CutRule(2, 3, n=10).shifted(0.5), r"cut hi must be a whole number in \[0, 11\], got 3.5"),
        (lambda: CutRule(math.nan, 3, n=10), "cut lo must not exceed cut hi, got lo=nan, hi=3"),
        (lambda: CutRule(0.5, -0.5, se=0.2), "cut lo must not exceed cut hi, got lo=0.5, hi=-0.5"),
        (lambda: CutRule(0.0, math.nan, se=0.2), "cut lo must not exceed cut hi, got lo=0.0, hi=nan"),
        (lambda: binomial_cut_probs(10, 0.5, 2.5, 3), "cut points must be whole numbers"),
    ],
    ids=["crossed", "hi-above-n+1", "lo-negative", "lo-not-whole", "shifted-not-whole",
         "lo-nan", "normal-crossed", "normal-hi-nan", "binomial_cut_probs-not-whole"],
)
def test_a_bad_cut_is_a_value_error_naming_it(build, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


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
