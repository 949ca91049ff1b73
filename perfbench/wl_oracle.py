"""oracle_verify: one operation verifies one (design, true effect) scenario.

It computes the analytic OC, simulates 100,000 replicates with the
Monte Carlo oracle and applies the program's 3-standard-error gate. Each
round of ten holds seven time-to-event (TTE) dual designs, two binary dual
designs and one three-outcome design, close to the 38:15 mix of scenarios
in ``configs/``. Three of the ten come from ``configs/`` (a fourth, the
three-outcome one, on even rounds); the rest are drawn from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import reference as ref
from workload import CONFIGS, Workload

REPLICATES = 100_000
ROUNDS = 6
# Slot kinds in every round, and which slots take a scenario from configs/.
PATTERN = ("tte", "tte", "binary", "tte", "tte", "three_outcome", "tte", "tte", "binary", "tte")
FROM_CONFIGS = {0, 2, 4}


@dataclass(frozen=True)
class Scenario:
    kind: str
    index: int
    effect: float
    params: tuple
    design: object = field(repr=False, compare=False)
    cfg: object = field(repr=False, compare=False)


class OracleVerify(Workload):
    def _configs(self):
        from dualcrit.config import load_config

        tte, binary = [], []
        for name in ("randomized_tte_design1", "randomized_tte_design2", "oc_curve_n309", "oc_curve_n420"):
            c = load_config(CONFIGS / f"{name}.cfg")
            params = (c["alpha"], c["null_hr"], c["decision_hr"], c["sigma"], c["n_events"])
            tte += [(params, hr) for hr in c["grid"]]
        for name in ("single_arm_binary_design1", "single_arm_binary_design2"):
            c = load_config(CONFIGS / f"{name}.cfg")
            params = (c["prior_a"], c["prior_b"], c["null_orr"], c["sig_prob"], c["decision_orr"], c["n"])
            binary += [(params, p) for p in c["grid"]]
        c = load_config(CONFIGS / "single_arm_binary_design3.cfg")
        three = [((c["n"], c["r_nogo"], c["r_go"]), p) for p in c["grid"]]
        return tte, binary, three

    def _generated(self, kind: str):
        rng = self.rng
        if kind == "tte":
            # Event counts stay within 100 of the minimum and true HRs at or
            # above 0.5, far from where 1 - Phi(x) flushes the NO-GO tail.
            alpha = rng.uniform(0.025, 0.2)
            dv = rng.uniform(0.6, 0.8)
            n_min, _ = ref.tte_min_events(alpha, 1.0, dv, 2.0)
            return (alpha, 1.0, dv, 2.0, n_min + rng.randrange(0, 101)), rng.uniform(0.5, 1.1)
        if kind == "binary":
            mean = rng.uniform(0.05, 0.15)
            null = rng.uniform(0.05, 0.2)
            dv = null + rng.uniform(0.08, 0.15)
            params = (mean / (1.0 - mean), 1.0, null, rng.choice((0.9, 0.95)), dv, rng.randrange(15, 61))
            return params, rng.uniform(max(0.02, null - 0.03), dv + 0.15)
        n = rng.randrange(15, 51)
        r_nogo = rng.randrange(1, n // 3)
        return (n, r_nogo, r_nogo + rng.randrange(2, 6)), rng.uniform(0.05, 0.4)

    def _design(self, kind, params):
        dc = self.dc
        if kind == "tte":
            alpha, null, dv, sigma, n = params
            return dc.DualCriterionTTEDesign(alpha=alpha, decision_hr=dv, n_events=n, null_hr=null, sigma=sigma)
        if kind == "binary":
            a, b, null, sig, dv, n = params
            return dc.DualCriterionBinaryDesign(dc.BetaParams(a, b), null, sig, dv, n)
        n, r_nogo, r_go = params
        # The four constraint levels play no part in the OC or the oracle.
        return dc.ThreeOutcomeDesign(n=n, r_go=r_go, r_nogo=r_nogo, p0=0.1, p1=0.3,
                                     alpha=0.05, beta=0.1, eta=0.8, pi=0.9)

    def setup(self) -> None:
        rng = self.rng
        repo = dict(zip(("tte", "binary", "three_outcome"), self._configs()))
        self.sim_seed = rng.randrange(2**32)
        index = 0
        for r in range(ROUNDS):
            rnd = []
            for slot, kind in enumerate(PATTERN):
                from_repo = slot in FROM_CONFIGS or (kind == "three_outcome" and r % 2 == 0)
                params, effect = rng.choice(repo[kind]) if from_repo else self._generated(kind)
                cfg = self.dc.SimulationConfig(seed=self.sim_seed, n_replicates=REPLICATES, scenario=index)
                rnd.append(Scenario(kind, index, effect, params, self._design(kind, params), cfg))
                index += 1
            self.rounds.append(rnd)

    def run(self, sc: Scenario):
        dc = self.dc
        if sc.kind == "tte":
            analytic = dc.oc_dual_tte(sc.design, sc.effect)
            simulated = dc.simulate_tte_oc(sc.design, sc.effect, sc.cfg)
        else:
            if sc.kind == "binary":
                analytic = dc.oc_binary(sc.design, sc.effect)
            else:
                analytic = dc.three_outcome_oc(sc.design, sc.effect)
            simulated = dc.simulate_binary_oc(sc.design, sc.effect, sc.cfg)
        return analytic, simulated, dc.within_monte_carlo_error(analytic, simulated)

    def reference(self, sc: Scenario):
        if sc.kind == "tte":
            return ref.tte_dual_oc(*sc.params, sc.effect)
        if sc.kind == "binary":
            return ref.binary_oc(*sc.params, sc.effect)
        return ref.three_outcome_oc(*sc.params, sc.effect)

    def check(self, results, checks) -> None:
        first = {}
        for sc, out in results:
            if sc.index in first:
                checks.expect(out[1].counts == first[sc.index][1].counts,
                              f"scenario {sc.index}: rerun with the same seed changed the counts")
                continue
            first[sc.index] = out
            self._check_one(sc, out, checks)
        # A rerun outside the timed loop, whatever the run length.
        for sc in self.rounds[0][:3]:
            if sc.index in first:
                again = self.run(sc)
                checks.expect(again[1].counts == first[sc.index][1].counts,
                              f"scenario {sc.index}: rerun with the same seed changed the counts")
        self._check_monotone(checks)

    def _check_one(self, sc, out, checks) -> None:
        analytic, simulated, gate = out
        want = self.reference(sc)
        if want is None:
            checks.excused += 1
            return
        for name, got, exp in zip(("p_go", "p_nogo", "p_inconclusive"), analytic.probs, want):
            checks.close(got, exp, ref.PROB_TOL, lambda: f"{sc!r} analytic {name}")
        checks.close(sum(analytic.probs), 1.0, ref.PROB_TOL, lambda: f"{sc!r} probabilities sum")
        checks.expect(sum(simulated.counts) == REPLICATES, f"{sc!r}: counts do not add to the replicates")
        checks.expect(ref.within_mc(simulated.counts, REPLICATES, want),
                      lambda: f"{sc!r}: simulated counts {simulated.counts} beyond the Bernstein limit of {want}")
        checks.expect(gate == ref.gate_3se(analytic.probs, simulated.oc.probs, REPLICATES),
                      f"{sc!r}: gate verdict {gate} disagrees with the 3-SE rule")

    def _check_monotone(self, checks) -> None:
        """P(GO) falls with the true HR and rises with the true ORR."""
        dc = self.dc
        for sc in self.rounds[0]:
            if sc.kind == "tte":
                gos = [dc.oc_dual_tte(sc.design, 0.4 + 0.05 * i).p_go for i in range(17)]
                checks.expect(ref.monotone(gos, increasing=False), f"{sc!r}: P(GO) not monotone")
            else:
                oc = dc.oc_binary if sc.kind == "binary" else dc.three_outcome_oc
                gos = [oc(sc.design, 0.02 + 0.04 * i).p_go for i in range(20)]
                checks.expect(ref.monotone(gos, increasing=True), f"{sc!r}: P(GO) not monotone")
