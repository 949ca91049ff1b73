"""Shared decision vocabulary: outcome tags, OC, the cut-point rule and
the one search that finds every cut point."""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Callable

# Called through the module so that a patched attribute reaches every call.
from . import distributions

_SIMPLEX_TOL = 1e-9
# The outcome of each probability in OperatingCharacteristics, in order.
OUTCOMES = ("p_go", "p_nogo", "p_inconclusive")


class InfeasibleDesignError(ValueError):
    """Raised when no design satisfies the requested constraints."""


def first_true(holds: Callable[[int], bool], lo: int, hi: int) -> int:
    """Smallest r in [lo, hi] where ``holds``, a predicate that is false
    and then true, holds; hi + 1 if it never does.

    Probes lo, lo + 1, lo + 3, lo + 7, ... until the predicate holds or hi
    is passed, then bisects the last stride, so an answer d above lo costs
    about 2 log2(d) calls and one at lo or lo + 1 costs one or two.
    """
    below, probe, stride = lo - 1, lo, 1
    while probe <= hi and not holds(probe):
        below, probe, stride = probe, probe + stride, 2 * stride
    return bisect_left(range(below + 1, min(probe, hi + 1)), True, key=holds) + below + 1


def responder_tails(n: int, p: float) -> tuple[Callable[[int], float], Callable[[int], float]]:
    """c -> P(R >= c) and c -> P(R < c) for R ~ Binomial(n, p) and a cut c
    in [0, n + 1]; each is one incomplete beta on its own side."""
    tail = distributions.binomial_tail
    return (lambda c: tail(n, p, c)), (lambda c: tail(n, 1.0 - p, n + 1 - c))


class DecisionTag(enum.Enum):
    GO = "GO"
    NOGO = "NO-GO"
    INCONCLUSIVE_SIG_NOT_RELEVANT = "INCONCLUSIVE_SIG_NOT_RELEVANT"
    INCONCLUSIVE_RELEVANT_NOT_SIG = "INCONCLUSIVE_RELEVANT_NOT_SIG"
    # The three-outcome design's middle zone; no Decision returns it.
    INCONCLUSIVE = "INCONCLUSIVE"


# Conventional four-case numbering: 1 = both criteria missed, 2 = both met,
# 3 = significant only, 4 = relevant only.
_CASE_NUMBER = {
    DecisionTag.NOGO: 1,
    DecisionTag.GO: 2,
    DecisionTag.INCONCLUSIVE_SIG_NOT_RELEVANT: 3,
    DecisionTag.INCONCLUSIVE_RELEVANT_NOT_SIG: 4,
}


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome of applying the dual criterion to an observed result."""

    significant: bool
    relevant: bool

    @property
    def tag(self) -> DecisionTag:
        if self.significant and self.relevant:
            return DecisionTag.GO
        if self.significant:
            return DecisionTag.INCONCLUSIVE_SIG_NOT_RELEVANT
        if self.relevant:
            return DecisionTag.INCONCLUSIVE_RELEVANT_NOT_SIG
        return DecisionTag.NOGO

    @property
    def case(self) -> int:
        return _CASE_NUMBER[self.tag]

    @property
    def is_inconclusive(self) -> bool:
        return self.significant != self.relevant


@dataclass(frozen=True, slots=True)
class OperatingCharacteristics:
    """GO / NO-GO / inconclusive probabilities at one true effect size."""

    true_effect: float
    p_go: float
    p_nogo: float
    p_inconclusive: float

    def __post_init__(self):
        for name in OUTCOMES:
            value = getattr(self, name)
            if not -_SIMPLEX_TOL <= value <= 1.0 + _SIMPLEX_TOL:
                raise ValueError(f"{name} out of [0, 1]: {value}")
        total = self.p_go + self.p_nogo + self.p_inconclusive
        if abs(total - 1.0) > _SIMPLEX_TOL:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")

    @property
    def probs(self) -> tuple[float, float, float]:
        return (self.p_go, self.p_nogo, self.p_inconclusive)


@dataclass(frozen=True)
class CutRule:
    """Cut points lo <= hi on one statistic: GO at or above hi, NO-GO below
    lo, inconclusive between. With ``n`` the statistic is a Binomial(n, p)
    responder count and the cuts are integers in [0, n + 1]; with ``se``
    instead it is minus the log-HR estimate, Normal(-log HR, se). A rule
    whose cuts break these conditions is a ValueError when it is built.
    """

    lo: float
    hi: float
    n: int | None = None
    se: float | None = None

    def __post_init__(self):
        # Each input alone first, so that text is refused by name, not by a sum.
        for name in ("lo", "hi"):
            distributions._scalar(getattr(self, name), f"cut {name}")
        if self.n is not None:
            distributions.check_count(self.n, "n")
        if self.se is not None:
            distributions._scalar(self.se, "se")
        if (self.n is None) == (self.se is None):
            raise ValueError("a cut rule needs exactly one of n and se")
        # A NaN cut fails this comparison too.
        if not self.lo <= self.hi:
            raise ValueError(f"cut lo must not exceed cut hi, got lo={self.lo}, hi={self.hi}")
        if self.n is not None:
            for name in ("lo", "hi"):
                distributions.check_integer(getattr(self, name), f"cut {name}", self.n + 1)

    def oc(self, true_effect: float) -> OperatingCharacteristics:
        """Outcome probabilities at a true response rate or hazard ratio:
        the upper tail at hi (GO), the lower tail at lo (NO-GO) and between
        them the difference of the two tails on the mean's side, or 1 minus
        both where the cuts straddle the mean. Each part keeps its relative
        accuracy, and equal cuts give exactly 0 inconclusive."""
        if self.n is not None:
            true_effect = distributions.check_open_probability(true_effect, "true_orr")
            mean = self.n * true_effect
            upper, lower = responder_tails(self.n, true_effect)
        else:
            mean = -math.log(distributions.check_positive(true_effect, "true_hr"))
            se, cdf = self.se, distributions.std_normal_cdf
            upper, lower = (lambda c: cdf((mean - c) / se)), (lambda c: cdf((c - mean) / se))
        p_go, p_nogo = upper(self.hi), lower(self.lo)
        if mean <= self.lo:
            between = upper(self.lo) - p_go
        elif self.hi <= mean:
            between = lower(self.hi) - p_nogo
        else:
            between = 1.0 - p_go - p_nogo
        return OperatingCharacteristics(true_effect, p_go, p_nogo, between)

    def shifted(self, delta: float) -> CutRule:
        """The GO cut moved by delta responders, clamped to [0, n + 1], or by
        delta standard errors, which must leave it finite; a GO cut moved
        below lo takes lo along."""
        if self.n is not None:
            hi = min(max(self.hi + delta, 0), self.n + 1)
        else:
            try:
                hi = self.hi + delta * self.se
            except OverflowError:  # an int delta past the float range
                hi = math.inf
            if not math.isfinite(hi):
                raise ValueError(f"the GO cut shifted by {delta} standard errors is not finite")
        return replace(self, lo=min(self.lo, hi), hi=hi)
