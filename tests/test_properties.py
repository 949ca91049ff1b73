"""Properties of the binary designs over random inputs, by hypothesis.

The exact operating characteristics must be the binomial mass of the
counts that the design's own decision rule sends to each outcome, with
scipy's pmf as an independent reference, and P(GO) must not fall as the
true response rate rises.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from dualcrit.binary import DualCriterionBinaryDesign, decide_binary, oc_binary
from dualcrit.config import DESIGNS
from dualcrit.distributions import BetaParams
from dualcrit.three_outcome import ThreeOutcomeDesign, three_outcome_oc

PROPERTY = settings(derandomize=True, deadline=None)
# Every pmf term stays above 1e-300 for these rates and n <= 80.
RATES = st.floats(0.001, 0.999)
# A step against the direction larger than rounding.
MONOTONE_TOL = 1e-12


@st.composite
def binary_designs(draw):
    null_orr = draw(st.floats(0.02, 0.6))
    return DualCriterionBinaryDesign(
        prior=BetaParams(draw(st.floats(0.05, 3.0)), draw(st.floats(0.2, 3.0))),
        null_orr=null_orr,
        sig_prob=draw(st.floats(0.8, 0.99)),
        decision_orr=draw(st.floats(null_orr + 0.01, null_orr + 0.35)),
        n=draw(st.integers(1, 80)),
    )


@st.composite
def three_outcome_designs(draw):
    n = draw(st.integers(1, 80))
    r_nogo = draw(st.integers(0, n - 1))
    # The four constraint levels play no part in the decision or the OC.
    return ThreeOutcomeDesign(
        n=n, r_go=draw(st.integers(r_nogo + 1, n)), r_nogo=r_nogo,
        p0=0.1, p1=0.3, alpha=0.05, beta=0.1, eta=0.8, pi=0.9,
    )


def assert_oc_is_mass_of_decisions(oc, outcomes, n, true_orr):
    pmf = binom.pmf(range(n + 1), n, true_orr)
    for got, outcome in ((oc.p_go, "GO"), (oc.p_nogo, "NO-GO")):
        want = math.fsum(pmf[r] for r in range(n + 1) if outcomes[r] == outcome)
        assert got == pytest.approx(want, rel=1e-12, abs=0), outcome


@PROPERTY
@given(binary_designs(), RATES)
def test_binary_dual_oc_is_the_mass_of_its_decisions(design, true_orr):
    outcomes = [decide_binary(design, r).tag.value for r in range(design.n + 1)]
    assert_oc_is_mass_of_decisions(oc_binary(design, true_orr), outcomes, design.n, true_orr)


@PROPERTY
@given(three_outcome_designs(), RATES)
def test_three_outcome_oc_is_the_mass_of_its_decisions(design, true_orr):
    decide = DESIGNS["binary", "three_outcome"].decide
    outcomes = [decide(design, str(r), None)[0].split(":")[0] for r in range(design.n + 1)]
    assert_oc_is_mass_of_decisions(
        three_outcome_oc(design, true_orr), outcomes, design.n, true_orr
    )


@PROPERTY
@given(binary_designs(), RATES, RATES)
def test_binary_dual_p_go_nondecreasing_in_orr(design, a, b):
    low, high = sorted((a, b))
    assert oc_binary(design, low).p_go <= oc_binary(design, high).p_go + MONOTONE_TOL


@PROPERTY
@given(three_outcome_designs(), RATES, RATES)
def test_three_outcome_p_go_nondecreasing_in_orr(design, a, b):
    low, high = sorted((a, b))
    assert three_outcome_oc(design, low).p_go <= three_outcome_oc(design, high).p_go + MONOTONE_TOL
