"""Bayesian dual-criterion design for a single-arm binary endpoint.

The responder count is binomial and the response rate carries a conjugate
Beta prior. GO requires both criteria at the final analysis:

* statistical: posterior probability that the ORR is at or above the null
  value reaches ``sig_prob`` (e.g. 0.95);
* clinical: posterior median ORR reaches ``decision_orr``.

Both criteria are monotone in the responder count, so each has a smallest
qualifying count, found by ``outcomes.first_true``; the gap between the
two boundaries is the inconclusive zone. Rates are proportions throughout
(0.075, never 7.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

from .distributions import BetaParams, beta_cdf, beta_quantile, check_integer, check_open_probability, check_positive, check_trials
from .outcomes import CutRule, Decision, DecisionTag, InfeasibleDesignError, OperatingCharacteristics, first_true

DEFAULT_N_MAX = 1000


def _check_criteria(null_orr: float, sig_prob: float, decision_orr: float) -> None:
    check_open_probability(null_orr, "null_orr")
    check_open_probability(decision_orr, "decision_orr")
    if not 0.5 <= sig_prob < 1.0:
        raise ValueError(f"sig_prob must lie in [0.5, 1), got {sig_prob}")
    if decision_orr <= null_orr:
        raise ValueError(f"decision_orr must exceed null_orr, got {decision_orr} <= {null_orr}")


@dataclass(frozen=True)
class DualCriterionBinaryDesign:
    prior: BetaParams
    null_orr: float
    sig_prob: float
    decision_orr: float
    n: int

    def __post_init__(self):
        _check_criteria(self.null_orr, self.sig_prob, self.decision_orr)
        check_trials(self.n, "n", self.prior)

    @cached_property
    def cut_rule(self) -> CutRule:
        """The decision as cut points on the responder count: GO at r >= hi,
        NO-GO at r < lo. A boundary the design never reaches is n + 1.
        """
        boundaries = (statistical_boundary(self), clinical_boundary(self))
        stat, clin = (self.n + 1 if r is None else r for r in boundaries)
        return CutRule(min(stat, clin), max(stat, clin), n=self.n)

    @cached_property
    def decision_table(self) -> tuple[DecisionTag, ...]:
        """The tag ``decide_binary`` gives each responder count 0..n, built
        once per design. The oracle decides its simulated trials by it,
        independently of the boundaries in ``cut_rule``.
        """
        return tuple(decide_binary(self, r).tag for r in range(self.n + 1))


@dataclass(frozen=True, slots=True)
class PosteriorSummary:
    """Conjugate posterior after r responders, with the two decision metrics."""

    posterior: BetaParams
    prob_positive: float
    median: float


def prior_from_mean(mean: float, b: float = 1.0) -> BetaParams:
    """Beta prior with the given mean and second shape parameter b."""
    mean = check_open_probability(mean, "mean")
    check_positive(b, "b")
    return BetaParams(a=b * mean / (1.0 - mean), b=b)


def _posterior(prior: BetaParams, n: int, r: int) -> BetaParams:
    return BetaParams(a=prior.a + r, b=prior.b + n - r)


def _significant(prior: BetaParams, null_orr: float, sig_prob: float, n: int, r: int) -> bool:
    return 1.0 - beta_cdf(_posterior(prior, n, r), null_orr) >= sig_prob


def _relevant(prior: BetaParams, decision_orr: float, n: int, r: int) -> bool:
    # median >= decision_orr is equivalent to CDF(decision_orr) <= 1/2,
    # which avoids a quantile inversion in the boundary scans.
    return beta_cdf(_posterior(prior, n, r), decision_orr) <= 0.5


def posterior_summary(design: DualCriterionBinaryDesign, r: int) -> PosteriorSummary:
    """Posterior shape, probability of a positive effect, and median ORR."""
    r = check_integer(r, "responder count", design.n)
    post = _posterior(design.prior, design.n, r)
    return PosteriorSummary(
        posterior=post,
        prob_positive=1.0 - beta_cdf(post, design.null_orr),
        median=beta_quantile(post, 0.5),
    )


def _smallest(design: DualCriterionBinaryDesign, criterion) -> int | None:
    """Smallest r in [0, n] meeting ``criterion(n, r)``; None if none does."""
    r = first_true(partial(criterion, design.n), 0, design.n)
    return None if r > design.n else r


def statistical_boundary(design: DualCriterionBinaryDesign) -> int | None:
    """Smallest responder count meeting the statistical criterion alone."""
    return _smallest(design, partial(_significant, design.prior, design.null_orr, design.sig_prob))


def clinical_boundary(design: DualCriterionBinaryDesign) -> int | None:
    """Smallest responder count meeting the clinical criterion alone."""
    return _smallest(design, partial(_relevant, design.prior, design.decision_orr))


def min_responders(design: DualCriterionBinaryDesign) -> int | None:
    """Smallest responder count meeting both criteria; None if unreachable."""
    hi = design.cut_rule.hi
    return None if hi > design.n else hi


def decide_binary(design: DualCriterionBinaryDesign, r: int) -> Decision:
    """Classify an observed responder count. Both inequalities are inclusive."""
    r = check_integer(r, "responder count", design.n)
    return Decision(
        significant=_significant(
            design.prior, design.null_orr, design.sig_prob, design.n, r
        ),
        relevant=_relevant(design.prior, design.decision_orr, design.n, r),
    )


def min_sample_size_grid(
    prior: BetaParams,
    null_orr: float,
    sig_prob: float,
    decision_orr: float,
    n_max: int = DEFAULT_N_MAX,
) -> int:
    """Smallest n from which the clinical criterion implies the statistical one.

    Decides every size up to ``n_max`` (discreteness makes the implication
    non-monotone in n, so a first-hit search would be wrong) and returns
    the smallest n such that the implication holds at n and at every
    larger size up to ``n_max``: the last failing size plus one.

    The sizes are walked from the prior (n = 0) along the clinical
    boundary R(n), the smallest relevant responder count, with one
    relevance probe per size. Two orderings of the Beta posterior make
    this exact:

    * R(n) is R(n - 1) or R(n - 1) + 1. An extra non-responder cannot make
      a count relevant, and if (n - 1, r) is relevant so is (n, r + 1):
      the same b, one more a. So R(n) is R(n - 1) when (n, R(n - 1)) is
      relevant and R(n - 1) + 1 otherwise; n + 1 means out of reach.
    * A step that adds a responder (one more a) keeps significance, and one
      that adds a non-responder (one more b) keeps non-significance. Any
      other step probes once. Out-of-reach sizes come first (R(n) <= n
      implies R(n + 1) <= n + 1), so the first size within reach probes.
    """
    _check_criteria(null_orr, sig_prob, decision_orr)
    check_trials(n_max, "n_max", prior)
    last_failure = 0
    r_clin = 0 if _relevant(prior, decision_orr, 0, 0) else 1
    significant = None  # at (n - 1, R(n - 1)); None until within reach
    for n in range(1, n_max + 1):
        added_responder = not _relevant(prior, decision_orr, n, r_clin)
        r_clin += added_responder
        if r_clin > n:
            last_failure = n
            continue
        # Inherited when the step matches the verdict; never from None.
        if significant != added_responder:
            significant = _significant(prior, null_orr, sig_prob, n, r_clin)
        if not significant:
            last_failure = n
    if last_failure == n_max:
        raise InfeasibleDesignError(
            f"no conclusive sample size at or below n_max={n_max}"
        )
    return last_failure + 1


def oc_binary(design: DualCriterionBinaryDesign, true_orr: float) -> OperatingCharacteristics:
    """Exact operating characteristics under a true response rate."""
    return design.cut_rule.oc(true_orr)
