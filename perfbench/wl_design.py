"""design_study: one operation is one design study as in the paper.

TTE part: the dual-criterion minimum events, the standard and precision
sizes, dual OC (at the minimum and at a larger size) and standard OC on
a 17-point HR grid, and ``decide_tte`` over 21 estimates. Binary part: the
grid-searched minimum n (default n_max 1000), ``min_responders``, exact
``oc_binary`` on a 9-point ORR grid at that n and at one larger n,
``find_three_outcome_design`` with its OC, and ``posterior_summary`` at
the GO boundary and one count below it. No oracle call.

Each round holds the paper's own study and nine drawn ones whose
parameters each take one value from every ninth of their range, so every
round covers the whole input space whatever the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import reference as ref
from paper import PUBLISHED_TOL, TTE_TABLE
from workload import Workload, strata

ROUNDS = 4
PER_ROUND = 9
HR_GRID = tuple(round(0.40 + 0.05 * i, 2) for i in range(17))
ESTIMATES = tuple(round(0.50 + 0.025 * i, 3) for i in range(21))

# The paper's studies: TTE alpha 0.1, DV 0.7, 70 events, standard design
# alpha 0.1, beta 0.1 at HR 0.5, precision factor 1.25; binary prior
# Beta(0.0811, 1), null 0.075, posterior probability 0.95, DV 0.175 at
# n = 36; three-outcome p0 0.075, p1 0.275, alpha 0.05, beta 0.1, eta 0.8,
# pi 0.9.
PAPER = dict(
    alpha=0.1, dv=0.7, extra_events=18, std_beta=0.1, alt_hr=0.5, factor=1.25,
    prior_a=0.0811, null_orr=0.075, sig_prob=0.95, decision_orr=0.175, extra_n=14,
    p0=0.075, p1=0.275, t_alpha=0.05, t_beta=0.1, eta=0.8, pi=0.9,
)


@dataclass(frozen=True)
class Study:
    kind: str
    index: int
    alpha: float
    dv: float
    extra_events: int
    std_beta: float
    alt_hr: float
    factor: float
    prior_a: float
    null_orr: float
    sig_prob: float
    decision_orr: float
    extra_n: int
    p0: float
    p1: float
    t_alpha: float
    t_beta: float
    eta: float
    pi: float

    @property
    def orr_grid(self):
        lo = max(0.01, self.null_orr - 0.05)
        return tuple(lo + (self.decision_orr + 0.2 - lo) * i / 8 for i in range(9))


def _draws(rng, k):
    """k studies' parameters, each stratified over its range."""
    cols = dict(
        alpha=strata(rng, k, 0.025, 0.2), dv=strata(rng, k, 0.6, 0.8),
        extra_events=[int(v) for v in strata(rng, k, 5, 60)],
        std_beta=strata(rng, k, 0.1, 0.2), alt_hr=strata(rng, k, 0.5, 0.75),
        factor=strata(rng, k, 1.15, 1.5),
        prior_a=[m / (1 - m) for m in strata(rng, k, 0.05, 0.15)],
        null_orr=strata(rng, k, 0.05, 0.2), dv_gap=strata(rng, k, 0.1, 0.2),
        sig_prob=strata(rng, k, 0.9, 0.95), extra_n=[int(v) for v in strata(rng, k, 5, 30)],
        p0=strata(rng, k, 0.05, 0.2), p_gap=strata(rng, k, 0.2, 0.3),
        t_alpha=strata(rng, k, 0.05, 0.1), t_beta=strata(rng, k, 0.1, 0.2),
        eta=strata(rng, k, 0.7, 0.85), pi=strata(rng, k, 0.8, 0.9),
    )
    out = []
    for i in range(k):
        row = {name: col[i] for name, col in cols.items()}
        row["decision_orr"] = row["null_orr"] + row.pop("dv_gap")
        row["p1"] = row["p0"] + row.pop("p_gap")
        out.append(row)
    return out


class DesignStudy(Workload):
    def setup(self) -> None:
        index = 0
        for _ in range(ROUNDS):
            rnd = [Study("paper", index, **PAPER)]
            index += 1
            for row in _draws(self.rng, PER_ROUND):
                rnd.append(Study("drawn", index, **row))
                index += 1
            self.rounds.append(rnd)

    def run(self, s: Study):
        dc = self.dc
        out = {}
        # Time to event.
        n_min = dc.min_events_dual(s.alpha, 1.0, s.dv, 2.0)
        std = dc.StandardTTEDesign(alpha=s.alpha, beta=s.std_beta, alt_hr=s.alt_hr)
        out["n_min_tte"] = n_min
        out["n_std"] = n_std = dc.standard_design_events(std, 2.0)
        out["n_prec"] = dc.precision_events(dc.PrecisionTTEDesign(factor=s.factor))
        dual_min = dc.DualCriterionTTEDesign(alpha=s.alpha, decision_hr=s.dv, n_events=n_min)
        dual_big = dc.DualCriterionTTEDesign(alpha=s.alpha, decision_hr=s.dv, n_events=n_min + s.extra_events)
        out["dual_min"] = [dc.oc_dual_tte(dual_min, hr) for hr in HR_GRID]
        out["dual_big"] = [dc.oc_dual_tte(dual_big, hr) for hr in HR_GRID]
        out["standard"] = [dc.oc_standard_tte(std, 2.0, n_std, hr) for hr in HR_GRID]
        out["decide"] = [dc.decide_tte(dual_big, est) for est in ESTIMATES]
        # Binary.
        prior = dc.BetaParams(s.prior_a, 1.0)
        n_b = dc.min_sample_size_grid(prior, s.null_orr, s.sig_prob, s.decision_orr)
        out["n_min_binary"] = n_b
        small = dc.DualCriterionBinaryDesign(prior, s.null_orr, s.sig_prob, s.decision_orr, n_b)
        big = dc.DualCriterionBinaryDesign(prior, s.null_orr, s.sig_prob, s.decision_orr, n_b + s.extra_n)
        out["r_go"] = r_go = dc.min_responders(small)
        out["oc_small"] = [dc.oc_binary(small, p) for p in s.orr_grid]
        out["oc_big"] = [dc.oc_binary(big, p) for p in s.orr_grid]
        three = dc.find_three_outcome_design(s.p0, s.p1, s.t_alpha, s.t_beta, s.eta, s.pi)
        out["three_outcome"] = (three.n, three.r_nogo, three.r_go)
        out["oc_three"] = [dc.three_outcome_oc(three, p) for p in s.orr_grid]
        out["posterior"] = [(r, dc.posterior_summary(small, r)) for r in (r_go - 1, r_go)]
        return out

    def check(self, results, checks) -> None:
        first = {}
        for s, out in results:
            if s.index in first:
                checks.expect(out == first[s.index], f"study {s.index}: repeated study gave other outputs")
                continue
            first[s.index] = out
            self._check_tte(s, out, checks)
            self._check_binary(s, out, checks)
            self._check_three(s, out, checks)
            if s.kind == "paper":
                self._check_paper(out, checks)

    def _size(self, checks, got, want_tie, what):
        want, tie = want_tie
        if tie and abs(got - want) <= 1:
            checks.excused += 1
        else:
            checks.expect(got == want, lambda: f"{what}: got {got}, want {want}")

    def _ocs(self, checks, ocs, wants, what, increasing):
        for oc, want in zip(ocs, wants):
            if want is None:
                checks.excused += 1
                continue
            for name, g, w in zip(("p_go", "p_nogo", "p_inconclusive"), oc.probs, want):
                checks.close(g, w, ref.PROB_TOL, lambda: f"{what} at {oc.true_effect} {name}")
            checks.close(sum(oc.probs), 1.0, ref.PROB_TOL, lambda: f"{what} at {oc.true_effect} sum")
        checks.expect(ref.monotone([oc.p_go for oc in ocs], increasing),
                      f"{what}: P(GO) not monotone in the true effect")

    def _check_tte(self, s, out, checks):
        who = f"study {s.index}"
        n_min = out["n_min_tte"]
        self._size(checks, n_min, ref.tte_min_events(s.alpha, 1.0, s.dv, 2.0), f"{who} dual n_min")
        self._size(checks, out["n_std"], ref.tte_standard_events(s.alpha, s.std_beta, 1.0, s.alt_hr, 2.0),
                   f"{who} standard events")
        self._size(checks, out["n_prec"], ref.tte_precision_events(s.factor, 0.95, 2.0), f"{who} precision events")
        # Minimality: relevance implies significance at n_min, not below.
        checks.expect(ref.tte_threshold(s.alpha, 1.0, 2.0, n_min) >= s.dv * (1 - ref.TIE)
                      and ref.tte_threshold(s.alpha, 1.0, 2.0, n_min - 1) < s.dv * (1 + ref.TIE)
                      if n_min > 1 else True, f"{who}: dual n_min {n_min} is not minimal")
        big = n_min + s.extra_events
        self._ocs(checks, out["dual_min"], [ref.tte_dual_oc(s.alpha, 1.0, s.dv, 2.0, n_min, hr) for hr in HR_GRID],
                  f"{who} dual OC at {n_min}", increasing=False)
        self._ocs(checks, out["dual_big"], [ref.tte_dual_oc(s.alpha, 1.0, s.dv, 2.0, big, hr) for hr in HR_GRID],
                  f"{who} dual OC at {big}", increasing=False)
        self._ocs(checks, out["standard"],
                  [ref.tte_standard_oc(s.alpha, 1.0, 2.0, out["n_std"], hr) for hr in HR_GRID],
                  f"{who} standard OC", increasing=False)
        for est, decision in zip(ESTIMATES, out["decide"]):
            sig, rel, tie = ref.tte_decision(s.alpha, 1.0, s.dv, 2.0, big, est)
            if tie:
                checks.excused += 1
                continue
            checks.expect((decision.significant, decision.relevant) == (sig, rel),
                          f"{who}: decide_tte({est}) gave {decision.tag}")

    def _check_binary(self, s, out, checks):
        who = f"study {s.index}"
        n_b = out["n_min_binary"]
        want, tie = ref.binary_min_sample_size(s.prior_a, 1.0, s.null_orr, s.sig_prob, s.decision_orr, 1000)
        self._size(checks, n_b, (want, tie), f"{who} binary n_min")
        args = (s.prior_a, 1.0, s.null_orr, s.sig_prob, s.decision_orr)
        decisions = ref.binary_decisions(*args, n_b)
        r_want = ref.binary_min_responders(decisions)
        if any(excused for _, _, excused in decisions):
            checks.excused += 1
        else:
            checks.expect(out["r_go"] == r_want, f"{who}: min_responders {out['r_go']}, want {r_want}")
        for key, n in (("oc_small", n_b), ("oc_big", n_b + s.extra_n)):
            self._ocs(checks, out[key], [ref.binary_oc(*args, n, p) for p in s.orr_grid],
                      f"{who} binary OC at n={n}", increasing=True)
        for r, summary in out["posterior"]:
            a, b = s.prior_a + r, 1.0 + n_b - r
            checks.close(summary.prob_positive, float(1 - ref.beta_cdf_mp(a, b, s.null_orr)), ref.PROB_TOL,
                         f"{who} posterior P(ORR >= null) at r={r}")
            checks.close(float(ref.beta_cdf_mp(a, b, summary.median)), 0.5, ref.PROB_TOL,
                         f"{who} posterior CDF at the reported median, r={r}")

    def _check_three(self, s, out, checks):
        who = f"study {s.index}"
        want, tie = ref.three_outcome_search(s.p0, s.p1, s.t_alpha, s.t_beta, s.eta, s.pi, 100)
        n, r_nogo, r_go = out["three_outcome"]
        if tie:
            checks.excused += 1
        else:
            checks.expect(out["three_outcome"] == want, f"{who}: three-outcome design {out['three_outcome']}, want {want}")
        holds, tie = ref.three_outcome_constraints(n, r_nogo, r_go, s.p0, s.p1, s.t_alpha, s.t_beta, s.eta, s.pi)
        checks.expect(holds or tie, f"{who}: three-outcome design violates a constraint")
        self._ocs(checks, out["oc_three"], [ref.three_outcome_oc(n, r_nogo, r_go, p) for p in s.orr_grid],
                  f"{who} three-outcome OC", increasing=True)

    def _check_paper(self, out, checks):
        sizes = {"n_min_tte": 52, "n_std": 55, "n_prec": 309, "n_min_binary": 22, "three_outcome": (27, 3, 5)}
        for key, want in sizes.items():
            checks.expect(out[key] == want, f"paper study: {key} = {out[key]}, published {want}")
        # HR 0.5, 0.6, ..., 1.0 sit at every other point of HR_GRID from 0.5.
        for key, design in (("dual_big", "design1"), ("dual_min", "design2"), ("standard", "design3")):
            for oc, published in zip(out[key][2:13:2], TTE_TABLE[design]):
                for g, w in zip(oc.probs, published):
                    if w is not None:
                        checks.close(g, w, PUBLISHED_TOL, f"paper {key} at HR {oc.true_effect}")
