"""Properties of the designs and their configs over random inputs, by
hypothesis.

The exact binary operating characteristics must be the binomial mass of
the counts that the design's own decision rule sends to each outcome, with
scipy's pmf as an independent reference. The TTE P(GO) and P(NO-GO) must
be the normal mass beyond the estimates at which ``decide_tte`` itself
switches, with scipy's ``ndtr`` as the reference. P(GO) must not fall as the
true response rate rises, nor rise as the true hazard ratio rises. A
dumped config of every design kind must parse back to the same design,
whose OC table caption shows each dumped field as the dump writes it.
Any config and overrides the CLI is given end in a documented exit code,
with exactly one ``error:`` line and no traceback when the run fails.
"""

import contextlib
import io
import math
import string
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import binom

from dualcrit.binary import DualCriterionBinaryDesign, decide_binary, oc_binary
from dualcrit.cli import main
from dualcrit.config import DESIGNS, dump_config, parse_config_text, resolve_design
from dualcrit.distributions import BetaParams
from dualcrit.three_outcome import ThreeOutcomeDesign, three_outcome_oc
from dualcrit.outcomes import DecisionTag, InfeasibleDesignError
from dualcrit.tte import DualCriterionTTEDesign, decide_tte, min_events_dual, oc_dual_tte

PROPERTY = settings(derandomize=True, deadline=None)
# Every pmf term stays above 1e-300 for these rates and n <= 80. Past that
# a far-tail term may underflow, in the program and in scipy alike.
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
        # Large enough that boundaries lie several doubling strides of the
        # boundary search away from 0.
        n=draw(st.integers(1, 300)),
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
    # From the design's definition, not from the cut rule whose OC this checks.
    outcomes = [
        "GO" if r >= design.r_go else "NO-GO" if r <= design.r_nogo else "INCONCLUSIVE"
        for r in range(design.n + 1)
    ]
    assert_oc_is_mass_of_decisions(
        three_outcome_oc(design, true_orr), outcomes, design.n, true_orr
    )


@PROPERTY
@given(three_outcome_designs())
def test_three_outcome_decision_table_is_its_three_zones(design):
    # NO-GO at r <= r_nogo, INCONCLUSIVE strictly between, GO at r >= r_go.
    table = design.decision_table
    assert len(table) == design.n + 1
    assert set(table[: design.r_nogo + 1]) == {DecisionTag.NOGO}
    assert set(table[design.r_nogo + 1 : design.r_go]) <= {DecisionTag.INCONCLUSIVE}
    assert table.count(DecisionTag.INCONCLUSIVE) == design.r_go - design.r_nogo - 1
    assert set(table[design.r_go :]) == {DecisionTag.GO}
    assert design.decision_table is table  # built once per design


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
    return float(ndtr(x))


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
            text = path.read_text(encoding="utf-8")
        parsed = parse_config_text(text)
        assert parsed == cfg
        rd = resolved_or_error(cfg)
        assert resolved_or_error(parsed) == rd
        # A caption shows each dumped field as the dump writes it.
        dumped = dict(line.split(" = ", 1) for line in text.splitlines())
        if not isinstance(rd, str) and rd.entry.caption_fields:
            fields = f" {rd.entry.caption(rd.design).partition(': ')[2]},"
            for key in dumped.keys() & set(rd.entry.caption_fields):
                assert f" {key}={dumped[key]}," in fields

    check()


def resolved_or_error(cfg):
    """The resolved design, or the message of the error a size search
    without a feasible size up to ``n_max`` raises."""
    try:
        return resolve_design(cfg)
    except InfeasibleDesignError as exc:
        return str(exc)


# CLI fuzz: config files and ``--set`` overrides over every design kind.
# A drawn config starts from in-range values and then takes up to two
# faults: a key missing, a key the kind does not read, a bad endpoint or
# design kind, or a value out of range, non-numeric, nan, inf or extreme.
# Sizes stay small enough for the sizing scans: n <= 200, n_events <= 2000,
# reps 1000-5000; a bad count past 2**53 must be rejected before any scan.
FUZZ_FLOATS = {
    "alpha": (0.001, 0.45), "beta": (0.01, 0.45), "null_hr": (0.9, 1.5),
    "decision_hr": (0.1, 0.95), "alt_hr": (0.1, 0.95), "sigma": (0.5, 5.0),
    "factor": (1.01, 3.0), "level": (0.5, 0.999), "prior_a": (0.01, 5.0),
    "prior_b": (0.01, 5.0), "prior_mean": (0.01, 0.99), "null_orr": (0.02, 0.4),
    "sig_prob": (0.5, 0.999), "decision_orr": (0.05, 0.8), "p0": (0.02, 0.4),
    "p1": (0.2, 0.9), "eta": (0.5, 0.99), "pi": (0.5, 0.99),
}
FUZZ_INTS = {
    "n_events": (1, 2000), "n": (1, 200), "r_go": (1, 200), "r_nogo": (0, 199),
    "n_max": (1, 200), "seed": (0, 2**64 - 1), "reps": (1000, 5000),
}
NOT_NUMBERS = ["nan", "inf", "-inf", "abc", "", "1,2"]
BAD_VALUES = {
    "float": NOT_NUMBERS + ["0", "-1", "1", "1e300", "1e-300", "-1e-300"],
    # 1e400 and 2**53 + 1 are past what a count converts to float exactly.
    "int": NOT_NUMBERS + ["0", "-3", "2.5", "1e2", "1" + "0" * 400, str(2**53 + 1)],
    "grid": NOT_NUMBERS + ["0", "-1", "1", "1e300", "1e-300", "0.5, nan"],
    "seed": ["-1", str(2**64), "2.5", "nan"],
    "reps": ["0", "-3", "999", "2.5", "nan"],
}
EXTREMES = [
    "1e300", "1e-300", "1e12", "1e-12", "1e-17", "0.4999999999", "0.9999999999",
    "0.9999999999999999",
]
ALL_KEYS = sorted({key for entry in DESIGNS.values() for key in entry.keys})


def valid_value(key, endpoint="tte"):
    if key in FUZZ_FLOATS:
        return st.floats(*FUZZ_FLOATS[key]).map(repr)
    if key in FUZZ_INTS:
        return st.integers(*FUZZ_INTS[key]).map(str)
    if key == "grid":
        effects = st.floats(0.01, 3.0 if endpoint == "tte" else 0.99)
        return st.lists(effects, min_size=1, max_size=6).map(
            lambda points: ", ".join(map(repr, points))
        )
    return LABELS


def bad_value(key):
    if key in ("endpoint", "design_kind"):
        return st.sampled_from(("", "x", "tte", "binary", "dual", "standard"))
    if key in BAD_VALUES:
        return st.sampled_from(BAD_VALUES[key])
    return st.sampled_from(BAD_VALUES["int" if key in FUZZ_INTS else "float"])


@st.composite
def fuzz_faults(draw, cfg):
    """One fault applied to a config: a key missing, set out of range, to a
    non-number or to an extreme magnitude, or a key the design kind does
    not read."""
    fault = draw(st.sampled_from(("extreme", "bad", "missing", "unread")))
    real_keys = sorted(key for key in cfg if key in FUZZ_FLOATS)
    if fault == "unread":
        key = draw(st.sampled_from(ALL_KEYS))
        cfg[key] = draw(valid_value(key))
    elif fault == "extreme" and real_keys:
        cfg[draw(st.sampled_from(real_keys))] = draw(st.sampled_from(EXTREMES))
    elif cfg:
        key = draw(st.sampled_from(sorted(cfg)))
        if fault == "missing":
            del cfg[key]
        else:
            cfg[key] = draw(bad_value(key))


@st.composite
def fuzz_configs(draw):
    endpoint, kind = draw(st.sampled_from(sorted(DESIGNS)))
    cfg = {"endpoint": endpoint, "design_kind": kind}
    keys = ["label", "grid", "seed", "reps", *DESIGNS[endpoint, kind].keys]
    if kind == "three_outcome":
        keys = [key for key in keys if key not in ("n", "r_go", "r_nogo")]
        if draw(st.booleans()):
            n = draw(st.integers(1, 200))
            r_nogo = draw(st.integers(0, n - 1))
            cfg.update(n=str(n), r_nogo=str(r_nogo), r_go=str(draw(st.integers(r_nogo + 1, n))))
    if "prior_mean" in keys:
        keys.remove(draw(st.sampled_from(("prior_mean", "prior_a"))))
    for key in keys:
        cfg[key] = draw(valid_value(key, endpoint))
    for _ in range(draw(st.integers(0, 2))):
        draw(fuzz_faults(cfg))
    return cfg


def override_items(key):
    return st.one_of(valid_value(key), valid_value(key), bad_value(key)).map(
        lambda value: f"{key}={value}"
    )


OVERRIDE_ITEMS = st.sampled_from(ALL_KEYS + ["grid", "seed", "reps"]).flatmap(override_items)
FUZZ_OVERRIDES = st.lists(
    st.one_of(
        OVERRIDE_ITEMS, OVERRIDE_ITEMS, OVERRIDE_ITEMS,
        st.sampled_from(("alpha", "bogus=1", "endpoint=binary")),
    ),
    max_size=2,
)
COMMANDS = st.sampled_from(["size", "oc", "oc --csv", "decide", "decide --csv", "compare", "verify"])
OBSERVED = st.sampled_from(["3", "0.7", "0.95", "1.3", "0", "5", "25", "-1", "2.5", "abc", "nan", "inf", "1e300"])


@settings(PROPERTY, max_examples=500)
@given(fuzz_configs(), FUZZ_OVERRIDES, COMMANDS, OBSERVED, st.integers(-2, 2))
def test_cli_exits_with_a_documented_code_and_one_error_line(cfg, overrides, command, observed, delta):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in cfg.items()), encoding="utf-8")
        name, *flags = command.split()
        argv = [name, f"--config={path}", *(f"--set={item}" for item in overrides)]
        if name == "compare":
            argv.append(f"--config={path}")
        if name == "decide":
            argv.append(f"--observed={observed}")
        if name == "verify":
            argv.append(f"--corrupt-go-boundary={delta}")
        if flags:
            argv.append(f"--csv={Path(tmp) / 'out.csv'}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # sizes below the minimum
            code = main(argv)
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    else:
        assert err.getvalue() == ""
