"""Simulation oracle: reproducibility, exact counting, and agreement
with the analytic operating characteristics."""

import numpy as np
import pytest

from dualcrit.binary import DualCriterionBinaryDesign, oc_binary
from dualcrit.distributions import BetaParams
from dualcrit.oracle import (
    SimulatedOC,
    SimulationConfig,
    _uniform_stream,
    simulate_binary_oc,
    simulate_tte_oc,
    within_monte_carlo_error,
)
from dualcrit.three_outcome import ThreeOutcomeDesign
from dualcrit.tte import DualCriterionTTEDesign, oc_dual_tte

TTE_DESIGN = DualCriterionTTEDesign(alpha=0.1, decision_hr=0.7, n_events=70)
BINARY_DESIGN = DualCriterionBinaryDesign(
    prior=BetaParams(0.0811, 1.0), null_orr=0.075, sig_prob=0.95, decision_orr=0.175, n=25
)
THREE_OUTCOME = ThreeOutcomeDesign(
    n=27, r_go=5, r_nogo=3, p0=0.075, p1=0.275, alpha=0.05, beta=0.1, eta=0.8, pi=0.9
)


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

    def test_counts_must_partition(self):
        good = simulate_binary_oc(BINARY_DESIGN, 0.1, SimulationConfig(seed=3, n_replicates=2000))
        with pytest.raises(ValueError):
            SimulatedOC(
                oc=good.oc,
                counts=(good.counts[0] + 1, good.counts[1], good.counts[2]),
                std_errors=good.std_errors,
                n_replicates=good.n_replicates,
            )


class TestKeyedStreams:
    def test_stream_is_reproducible(self):
        a = _uniform_stream(42, 3, 50_000)
        b = _uniform_stream(42, 3, 50_000)
        assert np.array_equal(a, b)

    def test_chunks_are_independent_of_assembly_order(self):
        # each fixed-size chunk is its own keyed stream, so any slice can
        # be regenerated in isolation, in any order
        full = _uniform_stream(7, 2, 30_000)
        for chunk_index in (3, 0, 2, 1):
            lo = chunk_index * 8192
            hi = min(30_000, lo + 8192)
            key = np.array([7, (2 << 32) | chunk_index], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(full[lo:hi], gen.random(hi - lo))

    def test_streams_differ_across_seed_and_scenario(self):
        base = _uniform_stream(42, 0, 4096)
        assert not np.array_equal(base, _uniform_stream(43, 0, 4096))
        assert not np.array_equal(base, _uniform_stream(42, 1, 4096))


class TestSimulateTTE:
    def test_bit_identical_across_runs(self):
        cfg = SimulationConfig(seed=42, n_replicates=50_000)
        first = simulate_tte_oc(TTE_DESIGN, 0.5, cfg)
        second = simulate_tte_oc(TTE_DESIGN, 0.5, cfg)
        assert first.counts == second.counts

    @pytest.mark.parametrize(
        "alpha,decision_hr,n_events,seed,scenario,true_hr,counts",
        [
            (0.025, 0.8, 420, 5, 0, 0.8, (49919, 37282, 12799)),
            (0.1, 0.7, 150, 20240611, 3, 0.65, (67551, 8688, 23761)),
        ],
    )
    def test_counts_pinned(self, alpha, decision_hr, n_events, seed, scenario, true_hr, counts):
        # fixed values from the stream layout and decision rule; any change
        # to either, or to the inverse CDF beyond rounding, moves them
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
