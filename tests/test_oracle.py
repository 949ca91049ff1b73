"""Simulation oracle: reproducibility, exact counting, and agreement
with the analytic operating characteristics."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcrit import binary
from dualcrit.binary import DualCriterionBinaryDesign, decide_binary, oc_binary
from dualcrit.distributions import BetaParams, binomial_pmf
from dualcrit.oracle import (
    SimulatedOC,
    SimulationConfig,
    _keyed_chunks,
    simulate_binary_oc,
    simulate_tte_oc,
    within_monte_carlo_error,
)
from dualcrit.outcomes import DecisionTag
from dualcrit.three_outcome import ThreeOutcomeDesign
from dualcrit.tte import DualCriterionTTEDesign, min_events_dual, oc_dual_tte

TTE_DESIGN = DualCriterionTTEDesign(alpha=0.1, decision_hr=0.7, n_events=70)
BINARY_DESIGN = DualCriterionBinaryDesign(
    prior=BetaParams(0.0811, 1.0), null_orr=0.075, sig_prob=0.95, decision_orr=0.175, n=25
)
THREE_OUTCOME = ThreeOutcomeDesign(
    n=27, r_go=5, r_nogo=3, p0=0.075, p1=0.275, alpha=0.05, beta=0.1, eta=0.8, pi=0.9
)


def _stream(seed, scenario, n, draw="random"):
    """All n draws of a scenario, the keyed chunks laid end to end; ``draw``
    names the ``Generator`` method each chunk draws with."""
    return np.concatenate([getattr(gen, draw)(size) for gen, size in _keyed_chunks(seed, scenario, n)])


def _full_array_counts(design, effect, cfg, tags=None):
    """Reference tally over full-size arrays: one decision code per
    replicate from nested ``np.where`` (TTE) or a per-count code table
    (binary), then one ``bincount``. TTE replicates take one standard
    normal each, binary replicates one uniform, from the keyed streams.
    ``tags``, one per responder count, stands in for ``decide_binary``."""
    go, nogo, inconclusive = 0, 1, 2
    if isinstance(design, DualCriterionTTEDesign):
        z = _stream(cfg.seed, cfg.scenario, cfg.n_replicates, "standard_normal")
        s = design.sigma / math.sqrt(design.n_events)
        hr = np.exp(math.log(effect) + s * z)
        significant = hr <= design.significance_threshold
        relevant = hr <= design.decision_hr
        codes = np.where(
            significant & relevant,
            go,
            np.where(~significant & ~relevant, nogo, inconclusive),
        )
    else:
        n_trials = design.n
        if isinstance(design, ThreeOutcomeDesign):
            codes_by_r = np.full(n_trials + 1, inconclusive)
            codes_by_r[design.r_go:] = go
            codes_by_r[: design.r_nogo + 1] = nogo
        else:
            if tags is None:
                tags = [decide_binary(design, r).tag for r in range(n_trials + 1)]
            codes_by_r = np.array(
                [go if t is DecisionTag.GO else nogo if t is DecisionTag.NOGO else inconclusive
                 for t in tags]
            )
        cdf = np.cumsum([binomial_pmf(n_trials, effect, k) for k in range(n_trials + 1)])
        u = _stream(cfg.seed, cfg.scenario, cfg.n_replicates)
        draws = np.minimum(np.searchsorted(cdf, u, side="right"), n_trials)
        codes = codes_by_r[draws]
    return tuple(int(c) for c in np.bincount(codes, minlength=3))


class TestConfig:
    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=1, n_replicates=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=-1)

    def test_rejects_seed_beyond_64_bits(self):
        # the Philox key holds 64 bits of seed; a wider seed would alias
        with pytest.raises(ValueError, match="seed"):
            SimulationConfig(seed=2**64)
        with pytest.raises(ValueError, match="seed"):
            SimulationConfig(seed=5 + 2**64)
        cfg = SimulationConfig(seed=2**64 - 1, n_replicates=1000)
        assert sum(simulate_tte_oc(TTE_DESIGN, 0.7, cfg).counts) == 1000

    @pytest.mark.parametrize(
        "field,value",
        [("seed", 1.5), ("n_replicates", 2000.5), ("scenario", 0.5), ("scenario", 2**32)],
    )
    def test_rejects_a_non_integral_or_out_of_range_field(self, field, value):
        # seed=1.5 used to alias seed 1's stream
        with pytest.raises(ValueError, match=f"^{field} must"):
            SimulationConfig(**{"seed": 1, field: value})

    def test_rejects_replicates_beyond_one_stream_per_chunk_index(self):
        # chunk indices fill 32 bits under the scenario: one replicate more
        # would read the next scenario's first stream, and at the last
        # scenario overflow the 64-bit key word
        assert SimulationConfig(seed=1, n_replicates=8192 * 2**32).n_replicates == 2**45
        with pytest.raises(ValueError, match=r"^n_replicates must be at most 8192 \* 2\*\*32"):
            SimulationConfig(seed=1, n_replicates=8192 * 2**32 + 1)

    def test_integral_floats_key_the_same_stream(self):
        as_float = SimulationConfig(seed=3.0, n_replicates=2000.0, scenario=2.0)
        assert as_float == SimulationConfig(seed=3, n_replicates=2000, scenario=2)
        assert all(type(v) is int for v in (as_float.seed, as_float.n_replicates, as_float.scenario))

    def test_counts_must_partition(self):
        good = simulate_binary_oc(BINARY_DESIGN, 0.1, SimulationConfig(seed=3, n_replicates=2000))
        with pytest.raises(ValueError):
            SimulatedOC(
                oc=good.oc,
                counts=(good.counts[0] + 1, good.counts[1], good.counts[2]),
                n_replicates=good.n_replicates,
            )


class TestKeyedStreams:
    def test_stream_is_reproducible(self):
        a = _stream(42, 3, 50_000)
        b = _stream(42, 3, 50_000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("draw", ["random", "standard_normal"])
    def test_chunks_are_independent_of_assembly_order(self, draw):
        # each fixed-size chunk is its own keyed stream, so any slice can
        # be regenerated in isolation, in any order
        full = _stream(7, 2, 30_000, draw)
        for chunk_index in (3, 0, 2, 1):
            lo = chunk_index * 8192
            hi = min(30_000, lo + 8192)
            key = np.array([7, (2 << 32) | chunk_index], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(full[lo:hi], getattr(gen, draw)(hi - lo))

    @pytest.mark.parametrize("draw", ["random", "standard_normal"])
    def test_rekeyed_generator_draws_what_a_freshly_keyed_one_does(self, draw):
        # One Philox is re-keyed per chunk; an odd draw leaves part of the
        # previous chunk's buffer behind, which re-keying must drop.
        seed, scenario = 2**64 - 1, 2**32 - 1
        for chunk, (gen, _) in enumerate(_keyed_chunks(seed, scenario, 13 * 8192)):
            if chunk in (0, 1, 12):
                key = np.array([seed, (scenario << 32) | chunk], dtype=np.uint64)
                fresh = np.random.Generator(np.random.Philox(key=key))
                assert np.array_equal(getattr(gen, draw)(8191), getattr(fresh, draw)(8191))
            else:
                getattr(gen, draw)(3)

    def test_streams_differ_across_seed_and_scenario(self):
        base = _stream(42, 0, 4096)
        assert not np.array_equal(base, _stream(43, 0, 4096))
        assert not np.array_equal(base, _stream(42, 1, 4096))


class TestSimulateTTE:
    def test_bit_identical_across_runs(self):
        cfg = SimulationConfig(seed=42, n_replicates=50_000)
        first = simulate_tte_oc(TTE_DESIGN, 0.5, cfg)
        second = simulate_tte_oc(TTE_DESIGN, 0.5, cfg)
        assert first.counts == second.counts

    @pytest.mark.parametrize(
        "alpha,decision_hr,n_events,seed,scenario,true_hr,counts",
        [
            (0.025, 0.8, 420, 5, 0, 0.8, (49978, 37281, 12741)),
            (0.1, 0.7, 150, 20240611, 3, 0.65, (67479, 8778, 23743)),
        ],
    )
    def test_counts_pinned(self, alpha, decision_hr, n_events, seed, scenario, true_hr, counts):
        # fixed values from the stream layout, the decision rule and numpy's
        # normal sampler; a change to any of them moves them
        design = DualCriterionTTEDesign(alpha=alpha, decision_hr=decision_hr, n_events=n_events)
        cfg = SimulationConfig(seed=seed, scenario=scenario)
        assert simulate_tte_oc(design, true_hr, cfg).counts == counts

    def test_counts_partition_replicates(self):
        cfg = SimulationConfig(seed=9, n_replicates=12_345)
        sim = simulate_tte_oc(TTE_DESIGN, 0.8, cfg)
        assert sum(sim.counts) == 12_345

    def test_within_three_standard_errors_of_analytic(self):
        cfg = SimulationConfig(seed=42, n_replicates=100_000)
        sim = simulate_tte_oc(TTE_DESIGN, 0.5, cfg)
        analytic = oc_dual_tte(TTE_DESIGN, 0.5)
        assert analytic.p_go == pytest.approx(0.920, abs=1e-3)
        assert within_monte_carlo_error(analytic, sim)
        assert abs(sim.oc.p_go - analytic.p_go) <= 3.0 * 0.00086

    def test_half_power_at_decision_value(self):
        design = DualCriterionTTEDesign(alpha=0.1, decision_hr=0.7, n_events=52)
        cfg = SimulationConfig(seed=11, n_replicates=100_000)
        sim = simulate_tte_oc(design, 0.7, cfg)
        assert within_monte_carlo_error(oc_dual_tte(design, 0.7), sim)
        assert sim.oc.p_go == pytest.approx(0.5, abs=0.005)

    def test_rejects_bad_true_hr(self):
        with pytest.raises(ValueError):
            simulate_tte_oc(TTE_DESIGN, 0.0, SimulationConfig(seed=1, n_replicates=1000))

    @pytest.mark.parametrize("true_hr", [math.inf, math.nan])
    def test_rejects_a_non_finite_true_hr_as_the_analytic_side_does(self, true_hr):
        # an infinite HR used to simulate as all NO-GO
        message = f"^true_hr must be positive, got {true_hr}$"
        with pytest.raises(ValueError, match=message):
            oc_dual_tte(TTE_DESIGN, true_hr)
        with pytest.raises(ValueError, match=message):
            simulate_tte_oc(TTE_DESIGN, true_hr, SimulationConfig(seed=1, n_replicates=1000))


# Bernstein's inequality for a sum of n Bernoulli(p) replicates,
# P(|count - n p| >= t) <= 2 exp(-t**2 / (2 (n p (1 - p) + t / 3))), solved
# for the t at which the bound is 1e-9.
BERNSTEIN_LOG = math.log(2 / 1e-9)


def bernstein_limit(n, p):
    third = BERNSTEIN_LOG / 3
    return third + math.sqrt(third**2 + 2 * BERNSTEIN_LOG * n * p * (1 - p))


@st.composite
def tte_dual_designs(draw):
    alpha = draw(st.floats(0.005, 0.3))
    decision_hr = draw(st.floats(0.3, 0.95))
    n_min = min_events_dual(alpha, 1.0, decision_hr)
    # About half the sizes fall below n_min, where relevant-but-not-
    # significant estimates are possible and the design warns.
    n_events = draw(st.integers(1, 2 * n_min))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return DualCriterionTTEDesign(alpha=alpha, decision_hr=decision_hr, n_events=n_events)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(tte_dual_designs(), st.floats(0.3, 1.5), st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
def test_tte_counts_within_a_bernstein_limit_of_the_analytic_oc(design, true_hr, seed, scenario):
    # 300 cells at 1e-9 each: a correct oracle fails with probability below
    # 3e-7. A sampler whose spread is 3 % too wide, or whose log-HR mean is
    # 0.02 off, fails it.
    n = 100_000
    sim = simulate_tte_oc(design, true_hr, SimulationConfig(seed=seed, n_replicates=n, scenario=scenario))
    for count, p in zip(sim.counts, oc_dual_tte(design, true_hr).probs):
        assert abs(count - n * p) <= bernstein_limit(n, p), (sim.counts, p)


class TestSimulateBinary:
    def test_bit_identical_across_runs(self):
        cfg = SimulationConfig(seed=7, n_replicates=50_000)
        first = simulate_binary_oc(BINARY_DESIGN, 0.075, cfg)
        second = simulate_binary_oc(BINARY_DESIGN, 0.075, cfg)
        assert first.counts == second.counts

    def test_dual_design_agrees_with_analytic(self):
        cfg = SimulationConfig(seed=42, n_replicates=100_000)
        sim = simulate_binary_oc(BINARY_DESIGN, 0.075, cfg)
        analytic = oc_binary(BINARY_DESIGN, 0.075)
        assert analytic.p_go == pytest.approx(0.036, abs=1e-3)
        assert within_monte_carlo_error(analytic, sim)

    def test_three_outcome_inconclusive_rate(self):
        from dualcrit.three_outcome import three_outcome_oc

        cfg = SimulationConfig(seed=7, n_replicates=100_000)
        sim = simulate_binary_oc(THREE_OUTCOME, 0.175, cfg)
        analytic = three_outcome_oc(THREE_OUTCOME, 0.175)
        assert analytic.p_inconclusive == pytest.approx(0.197, abs=1e-3)
        assert within_monte_carlo_error(analytic, sim)

    def test_impossible_categories_stay_empty(self):
        # n=25 has coincident boundaries: inconclusive draws cannot occur
        cfg = SimulationConfig(seed=5, n_replicates=20_000)
        sim = simulate_binary_oc(BINARY_DESIGN, 0.2, cfg)
        assert sim.counts[2] == 0

    def test_rejects_bad_true_orr(self):
        with pytest.raises(ValueError):
            simulate_binary_oc(BINARY_DESIGN, 1.0, SimulationConfig(seed=1, n_replicates=1000))

    def test_decision_table_is_built_once_per_design(self, monkeypatch):
        calls = []
        monkeypatch.setattr(binary, "decide_binary", lambda *args: calls.append(args) or decide_binary(*args))
        design = dataclasses.replace(BINARY_DESIGN)  # no table cached yet
        for p in (0.05, 0.075, 0.1, 0.175, 0.2, 0.275, 0.4):
            simulate_binary_oc(design, p, SimulationConfig(seed=1, n_replicates=1000))
        # One decision per responder count, for all of the calls above.
        assert sorted(r for _, r in calls) == list(range(design.n + 1))


class TestToleranceGate:
    def test_detects_a_corrupted_probability(self):
        cfg = SimulationConfig(seed=13, n_replicates=50_000)
        sim = simulate_binary_oc(THREE_OUTCOME, 0.175, cfg)
        from dualcrit.three_outcome import three_outcome_oc

        analytic = three_outcome_oc(THREE_OUTCOME, 0.175)
        assert within_monte_carlo_error(analytic, sim)
        import dataclasses

        corrupted = dataclasses.replace(THREE_OUTCOME, r_go=6)
        assert not within_monte_carlo_error(three_outcome_oc(corrupted, 0.175), sim)


BINARY_WITH_INCONCLUSIVE = DualCriterionBinaryDesign(
    prior=BetaParams(0.0811, 1.0), null_orr=0.075, sig_prob=0.95, decision_orr=0.175, n=40
)


class TestAgainstFullArrayTally:
    @pytest.mark.parametrize(
        "design,effect",
        [
            (TTE_DESIGN, 0.7),
            (TTE_DESIGN, 1.0),
            (BINARY_DESIGN, 0.1),
            (BINARY_WITH_INCONCLUSIVE, 0.175),
            (THREE_OUTCOME, 0.175),
            (THREE_OUTCOME, 1e-9),
            (THREE_OUTCOME, 1.0 - 1e-9),
        ],
    )
    @pytest.mark.parametrize("n_replicates", [1, 8191, 8192, 8193, 100_000])
    @pytest.mark.parametrize("seed,scenario", [(42, 0), (20240611, 3), (2**64 - 1, 2**32 - 1)])
    def test_chunked_counts_equal_the_full_array_tally(
        self, design, effect, n_replicates, seed, scenario
    ):
        cfg = SimulationConfig(seed=seed, n_replicates=n_replicates, scenario=scenario)
        if isinstance(design, DualCriterionTTEDesign):
            sim = simulate_tte_oc(design, effect, cfg)
        else:
            sim = simulate_binary_oc(design, effect, cfg)
        assert sim.counts == _full_array_counts(design, effect, cfg)
        assert all(type(c) is int for c in sim.counts)


def _alternating_tags(n):
    """GO at every third count, NO-GO after it and an inconclusive count
    of either kind after that: a table no monotone rule produces."""
    inconclusive = (DecisionTag.INCONCLUSIVE_RELEVANT_NOT_SIG, DecisionTag.INCONCLUSIVE_SIG_NOT_RELEVANT)
    return tuple(
        (DecisionTag.GO, DecisionTag.NOGO, inconclusive[r % 2])[r % 3] for r in range(n + 1)
    )


class TestRunEdgeCounting:
    @pytest.mark.parametrize("n_replicates", [1, 8191, 8193, 100_000])
    def test_a_table_of_many_runs_counts_as_the_full_array_tally(self, n_replicates):
        design = dataclasses.replace(BINARY_WITH_INCONCLUSIVE)
        tags = _alternating_tags(design.n)
        design.__dict__["decision_table"] = tags  # where cached_property keeps it
        cfg = SimulationConfig(seed=20240611, n_replicates=n_replicates, scenario=3)
        sim = simulate_binary_oc(design, 0.175, cfg)
        assert sim.counts == _full_array_counts(design, 0.175, cfg, tags=tags)
        if n_replicates == 100_000:
            # the patched table, not the design's own, decided the trials
            assert sim.counts != simulate_binary_oc(BINARY_WITH_INCONCLUSIVE, 0.175, cfg).counts


class TestMemory:
    @pytest.mark.parametrize(
        "simulate,design,effect",
        [
            (simulate_tte_oc, TTE_DESIGN, 0.7),
            (simulate_binary_oc, BINARY_WITH_INCONCLUSIVE, 0.175),
            (simulate_binary_oc, THREE_OUTCOME, 0.175),
        ],
    )
    def test_arrays_stay_chunk_sized(self, simulate, design, effect):
        # one full-size float array of a million replicates is 8 MB; the
        # oracle holds a few arrays of one 8192-replicate chunk at a time
        simulate(design, effect, SimulationConfig(seed=1, n_replicates=10))
        tracemalloc.start()
        try:
            sim = simulate(design, effect, SimulationConfig(seed=1, n_replicates=1_000_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(sim.counts) == 1_000_000
        assert peak < 2_000_000
