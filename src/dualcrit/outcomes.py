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


class DecisionTag(enum.Enum):
    GO = "GO"
    NOGO = "NO-GO"
    INCONCLUSIVE_SIG_NOT_RELEVANT = "INCONCLUSIVE_SIG_NOT_RELEVANT"
    INCONCLUSIVE_RELEVANT_NOT_SIG = "INCONCLUSIVE_RELEVANT_NOT_SIG"


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
        for name in ("p_go", "p_nogo", "p_inconclusive"):
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
        if (self.n is None) == (self.se is None):
            raise ValueError("a cut rule needs exactly one of n and se")
        # A NaN cut fails this comparison too.
        if not self.lo <= self.hi:
            raise ValueError(f"cut lo must not exceed cut hi, got lo={self.lo}, hi={self.hi}")
        if self.n is not None:
            for name in ("lo", "hi"):
                cut = getattr(self, name)
                if not 0 <= cut <= self.n + 1 or cut != int(cut):
                    raise ValueError(f"cut {name} must be a whole number in [0, {self.n + 1}], got {cut}")

    def oc(self, true_effect: float) -> OperatingCharacteristics:
        """Outcome probabilities at a true response rate or hazard ratio."""
        if self.n is not None:
            true_effect = distributions.check_open_probability(true_effect, "true_orr")
            probs = distributions.binomial_cut_probs(self.n, true_effect, self.lo, self.hi)
        elif math.isfinite(true_effect) and true_effect > 0.0:
            probs = distributions.normal_cut_probs(-math.log(true_effect), self.se, self.lo, self.hi)
        else:
            raise ValueError(f"true_hr must be positive, got {true_effect}")
        return OperatingCharacteristics(true_effect, *probs)

    def shifted(self, delta: float) -> CutRule:
        """The GO cut moved by delta responders, clamped to [0, n + 1], or by
        delta standard errors; a GO cut moved below lo takes lo along."""
        hi = self.hi + delta * self.se if self.n is None else min(max(self.hi + delta, 0), self.n + 1)
        return replace(self, lo=min(self.lo, hi), hi=hi)
