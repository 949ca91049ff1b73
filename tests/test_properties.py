"""Properties of the designs and their configs over random inputs, by
hypothesis.

The exact binary operating characteristics must be the binomial mass of
the counts that the design's own decision rule sends to each outcome, with
scipy's pmf as an independent reference. The TTE P(GO) and P(NO-GO) must
be the normal mass beyond the estimates at which ``decide_tte`` itself
switches, with ``math.erfc`` as the reference. P(GO) must not fall as the
true response rate rises, nor rise as the true hazard ratio rises. A
dumped config of every design kind must parse back to the same design.
"""

import math
import string
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from dualcrit.binary import DualCriterionBinaryDesign, decide_binary, oc_binary
from dualcrit.config import DESIGNS, dump_config, parse_config_text, resolve_design
from dualcrit.distributions import BetaParams
from dualcrit.three_outcome import ThreeOutcomeDesign, three_outcome_oc
from dualcrit.outcomes import DecisionTag
from dualcrit.tte import DualCriterionTTEDesign, decide_tte, min_events_dual, oc_dual_tte

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


@st.composite
def tte_dual_designs(draw):
    alpha = draw(st.floats(0.01, 0.3))
    decision_hr = draw(st.floats(0.3, 0.9))
    sigma = draw(st.floats(1.0, 3.0))
    # At or above the minimum, so the design raises no below-minimum warning.
    n_events = min_events_dual(alpha, 1.0, decision_hr, sigma) + draw(st.integers(0, 500))
    return DualCriterionTTEDesign(alpha=alpha, decision_hr=decision_hr, n_events=n_events, sigma=sigma)


HAZARD_RATIOS = st.floats(0.05, 3.0)


@PROPERTY
@given(tte_dual_designs(), HAZARD_RATIOS, HAZARD_RATIOS)
def test_tte_dual_p_go_nonincreasing_in_hr(design, a, b):
    low, high = sorted((a, b))
    assert oc_dual_tte(design, high).p_go <= oc_dual_tte(design, low).p_go + MONOTONE_TOL


def switch_point(is_on, lo, hi):
    """Largest float in [lo, hi) at which ``is_on`` holds, for a predicate
    that holds at lo, fails at hi and switches once in between."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if is_on(mid):
            lo = mid
        else:
            hi = mid


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@settings(PROPERTY, max_examples=300)
@given(
    st.floats(0.005, 0.3), st.floats(0.3, 0.95), st.integers(1, 3000), HAZARD_RATIOS
)
def test_tte_dual_oc_is_the_mass_beyond_the_decision_switches(alpha, decision_hr, n_events, true_hr):
    with warnings.catch_warnings():
        # Sizes below the minimum are part of the input space.
        warnings.simplefilter("ignore", UserWarning)
        design = DualCriterionTTEDesign(alpha=alpha, decision_hr=decision_hr, n_events=n_events)

    def tag(log_estimate):
        return decide_tte(design, math.exp(log_estimate)).tag

    # Every threshold lies in (exp(-20), 1), so GO holds at -20 and NO-GO at 20.
    log_go = switch_point(lambda x: tag(x) is DecisionTag.GO, -20.0, 20.0)
    log_nogo = switch_point(lambda x: tag(x) is not DecisionTag.NOGO, -20.0, 20.0)
    s = design.sigma / math.sqrt(n_events)
    oc = oc_dual_tte(design, true_hr)
    assert oc.p_go == pytest.approx(normal_cdf((log_go - math.log(true_hr)) / s), rel=1e-12, abs=0)
    assert oc.p_nogo == pytest.approx(normal_cdf((math.log(true_hr) - log_nogo) / s), rel=1e-12, abs=0)


def optional(value):
    return st.one_of(st.none(), value)


PROBS = st.floats(0.01, 0.99)
LEVELS = st.floats(0.5, 0.99)


@st.composite
def tte_dual_configs(draw):
    alpha, decision_hr = draw(st.floats(0.01, 0.3)), draw(st.floats(0.3, 0.9))
    return dict(
        design_kind="dual", alpha=alpha, decision_hr=decision_hr,
        sigma=draw(optional(st.floats(1.0, 3.0))), level=draw(optional(LEVELS)),
        n_events=draw(optional(st.integers(1, 3000))), null_hr=draw(optional(st.just(1.0))),
    )


@st.composite
def tte_standard_configs(draw):
    return dict(
        design_kind="standard", alpha=draw(st.floats(0.01, 0.3)), beta=draw(st.floats(0.05, 0.3)),
        alt_hr=draw(st.floats(0.3, 0.9)), null_hr=draw(optional(st.floats(0.95, 1.2))),
        sigma=draw(optional(st.floats(1.0, 3.0))), level=draw(optional(LEVELS)),
        n_events=draw(optional(st.integers(1, 3000))),
    )


@st.composite
def tte_precision_configs(draw):
    return dict(
        design_kind="precision", factor=draw(st.floats(1.05, 3.0)),
        level=draw(optional(LEVELS)), sigma=draw(optional(st.floats(1.0, 3.0))),
    )


@st.composite
def binary_dual_configs(draw):
    null_orr = draw(st.floats(0.02, 0.6))
    prior_key = draw(st.sampled_from(("prior_a", "prior_mean")))
    return {
        "endpoint": "binary", "design_kind": "dual",
        prior_key: draw(st.floats(0.05, 0.9)), "prior_b": draw(optional(st.floats(0.2, 3.0))),
        "null_orr": null_orr, "sig_prob": draw(st.floats(0.51, 0.99)),
        "decision_orr": draw(st.floats(null_orr + 0.01, null_orr + 0.35)),
        "n": draw(optional(st.integers(1, 500))), "n_max": draw(optional(st.integers(1, 2000))),
    }


@st.composite
def three_outcome_configs(draw):
    n = draw(st.integers(1, 200))
    r_nogo = draw(st.integers(0, n - 1))
    p0 = draw(st.floats(0.02, 0.6))
    return dict(
        endpoint="binary", design_kind="three_outcome", p0=p0, p1=draw(st.floats(p0 + 0.01, 0.95)),
        alpha=draw(PROBS), beta=draw(PROBS), eta=draw(PROBS), pi=draw(PROBS),
        n=n, r_nogo=r_nogo, r_go=draw(st.integers(r_nogo + 1, n)),
        n_max=draw(optional(st.integers(1, 500))),
    )


CONFIGS_BY_KIND = {
    ("tte", "dual"): tte_dual_configs(),
    ("tte", "standard"): tte_standard_configs(),
    ("tte", "precision"): tte_precision_configs(),
    ("binary", "dual"): binary_dual_configs(),
    ("binary", "three_outcome"): three_outcome_configs(),
}
# Stripped, single-line labels; "=" and "#" inside a value are kept verbatim.
LABELS = st.text(string.ascii_letters + string.digits + " .,=#()-", min_size=1, max_size=30).map(
    str.strip
).filter(bool)


@st.composite
def run_keys(draw):
    return dict(
        label=draw(optional(LABELS)),
        grid=draw(optional(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=6))),
        seed=draw(optional(st.integers(0, 2**64 - 1))),
        reps=draw(optional(st.integers(1, 10**7))),
    )


def test_every_registry_kind_has_a_config_strategy():
    assert CONFIGS_BY_KIND.keys() == DESIGNS.keys()


@pytest.mark.filterwarnings("ignore:n_events=.* is below the minimum:UserWarning")
@pytest.mark.parametrize("kind", list(CONFIGS_BY_KIND), ids="-".join)
def test_dumped_config_rebuilds_an_equal_design(kind):
    @PROPERTY
    @given(CONFIGS_BY_KIND[kind], run_keys())
    def check(drawn, run):
        cfg = {"endpoint": kind[0], **drawn, **run}
        cfg = {key: value for key, value in cfg.items() if value is not None}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dump.cfg"
            dump_config(cfg, path)
            parsed = parse_config_text(path.read_text(encoding="utf-8"))
        assert parsed == cfg
        assert resolve_design(parsed, require_n=False) == resolve_design(cfg, require_n=False)

    check()
