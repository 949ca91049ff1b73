"""Hazard-ratio designs under the normal approximation to the log scale.

Covers three ways to size a randomized time-to-event trial and their
operating characteristics:

* dual-criterion: significance at one-sided level alpha plus an estimated
  hazard ratio at or below a clinically chosen decision value;
* standard: type-I error alpha and power 1 - beta at an alternative HR;
* precision: a target multiplicative confidence-interval half-width only.

Hazard ratios below the null value mean benefit. All internal arithmetic
happens on the natural-log scale, where the estimated log-HR is treated as
normal with standard deviation sigma / sqrt(events); sigma defaults to 2,
the value for equally randomized arms. Inputs and outputs stay on the HR
scale. Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

from .distributions import _scalar, check_count, check_open_probability, check_positive, std_normal_quantile
from .outcomes import CutRule, Decision, OperatingCharacteristics

DEFAULT_SIGMA = 2.0
DEFAULT_LEVEL = 0.95

# Guard against float slop when the sizing formula lands on an integer.
_CEIL_EPS = 1e-9


def _check_alpha(alpha: float, name: str = "alpha") -> float:
    alpha = _scalar(alpha, name)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"{name} must lie in (0, 0.5), got {alpha}")
    # The lower-tail quantile is accurate far below this floor; the floor
    # keeps 1 - alpha, the confidence level of a threshold, below 1 in a double.
    if alpha < 2**-53:
        raise ValueError(f"{name} must be at least 2**-53, got {alpha}")
    return alpha


def _check_events(n_events: float) -> None:
    """A real-valued event count, compared as given: at least 1, at most the float range."""
    _scalar(n_events, "n_events")
    if not n_events >= 1:
        raise ValueError(f"n_events must be at least 1, got {n_events}")
    if n_events > sys.float_info.max:
        raise ValueError(f"n_events must be at most {sys.float_info.max!r}, got {n_events}")


def _check_level(level: float) -> None:
    """A two-sided confidence level in (0, 1) whose upper tail point
    (1 + level) / 2 is distinct from 1 in a double."""
    check_open_probability(level, "level")
    if 0.5 * (1.0 + level) == 1.0:
        raise ValueError(f"level must be at most 1 - 2**-52, got {level}")


def _squared(root: float) -> float:
    """The square of a sizing formula's root, which is the event count."""
    if not root < 1e150:
        raise ValueError("the required number of events exceeds 1e300")
    return root**2


@dataclass(frozen=True)
class DualCriterionTTEDesign:
    """Dual-criterion design for a hazard-ratio endpoint.

    GO requires a one-sided p-value at or below ``alpha`` (equivalently an
    estimate at or below the significance threshold) together with an
    estimated HR at or below ``decision_hr``.

    ``n_events`` left out is filled with ``min_events_dual``;
    ``dataclasses.replace`` keeps it, so pass ``n_events=None`` to re-size.
    """

    alpha: float
    decision_hr: float
    n_events: int | None = None
    null_hr: float = 1.0
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self):
        n_min = min_events_dual(self.alpha, self.null_hr, self.decision_hr, self.sigma)
        if self.n_events is None:
            object.__setattr__(self, "n_events", n_min)
        check_count(self.n_events, "n_events")
        if self.n_events < n_min:
            # Level 3 is the caller of the generated __init__.
            warnings.warn(
                f"n_events={self.n_events} is below the minimum {n_min} at which "
                f"meeting the decision value implies significance; "
                f"relevant-but-not-significant outcomes are possible",
                UserWarning,
                stacklevel=3,
            )

    @cached_property
    def significance_threshold(self) -> float:
        """Computed once per design: ``criteria`` reads it for every chunk of the oracle."""
        return significance_threshold(self.alpha, self.null_hr, self.sigma, self.n_events)

    def criteria(self, estimated_hr):
        """(significant, relevant) for an HR estimate, or elementwise for an
        array of them. Both inequalities are inclusive. ``decide_tte`` and
        the oracle decide by this rule, not by the cut points."""
        return estimated_hr <= self.significance_threshold, estimated_hr <= self.decision_hr

    @cached_property
    def cut_rule(self) -> CutRule:
        """``dual_cut_rule`` at this design's parameters."""
        return dual_cut_rule(self.alpha, self.null_hr, self.decision_hr, self.sigma, self.n_events)


@dataclass(frozen=True)
class StandardTTEDesign:
    """Standard design: type-I error plus power at an alternative HR.

    ``n_events`` left out is filled with the events needed for power
    1 - beta at ``alt_hr``; ``dataclasses.replace`` keeps a filled count,
    so pass ``n_events=None`` to re-size.
    """

    alpha: float
    beta: float
    alt_hr: float
    null_hr: float = 1.0
    sigma: float = DEFAULT_SIGMA
    n_events: float | None = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_alpha(self.beta, "beta")
        check_positive(self.null_hr, "null_hr")
        check_positive(self.alt_hr, "alt_hr")
        if self.alt_hr >= self.null_hr:
            raise ValueError(
                f"alt_hr must be below null_hr, got {self.alt_hr} >= {self.null_hr}"
            )
        check_positive(self.sigma, "sigma")
        if self.n_events is None:
            z_a = -std_normal_quantile(self.alpha)
            z_b = -std_normal_quantile(self.beta)
            delta = math.log(self.null_hr) - math.log(self.alt_hr)
            n = math.ceil(_squared(self.sigma * (z_a + z_b) / delta) - _CEIL_EPS)
            object.__setattr__(self, "n_events", max(1, n))
        else:
            _check_events(self.n_events)

    @property
    def significance_threshold(self) -> float:
        return significance_threshold(self.alpha, self.null_hr, self.sigma, self.n_events)

    @cached_property
    def cut_rule(self) -> CutRule:
        """One cut at the significance threshold: GO or NO-GO, never inconclusive."""
        cut = -math.log(self.significance_threshold)
        return CutRule(lo=cut, hi=cut, se=self.sigma / math.sqrt(self.n_events))


@dataclass(frozen=True)
class PrecisionTTEDesign:
    """Precision design: no benchmarks, only a target CI half-width.

    ``factor`` f > 1 defines the target two-sided interval
    (HR / f, HR * f) at the given confidence level.
    """

    factor: float
    level: float = DEFAULT_LEVEL
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self):
        factor = _scalar(self.factor, "factor")
        if not (math.isfinite(factor) and factor > 1.0):
            raise ValueError(f"factor must exceed 1, got {factor}")
        _check_level(self.level)
        check_positive(self.sigma, "sigma")


def min_events_dual(
    alpha: float, null_hr: float, decision_hr: float, sigma: float = DEFAULT_SIGMA
) -> int:
    """Smallest event count at which the significance threshold reaches
    the decision value, so that clinical relevance implies significance.
    """
    alpha = _check_alpha(alpha)
    check_positive(null_hr, "null_hr")
    check_positive(decision_hr, "decision_hr")
    check_positive(sigma, "sigma")
    if decision_hr >= null_hr:
        raise ValueError(f"decision_hr must be below null_hr, got {decision_hr} >= {null_hr}")
    z = -std_normal_quantile(alpha)
    delta = math.log(null_hr) - math.log(decision_hr)
    return max(1, math.ceil(_squared(sigma * z / delta) - _CEIL_EPS))


def significance_threshold(
    alpha: float, null_hr: float, sigma: float, n_events: float
) -> float:
    """Largest estimated HR that is still one-sided significant at alpha."""
    alpha = _check_alpha(alpha)
    check_positive(null_hr, "null_hr")
    check_positive(sigma, "sigma")
    _check_events(n_events)
    z = -std_normal_quantile(alpha)
    threshold = null_hr * math.exp(-z * sigma / math.sqrt(n_events))
    if threshold == 0.0:
        raise ValueError(
            f"the significance threshold underflows at sigma={sigma}, n_events={n_events}"
        )
    return threshold


def standard_design_events(design: StandardTTEDesign, sigma: float = DEFAULT_SIGMA) -> int:
    """Events needed for power 1 - beta at the alternative HR."""
    return replace(design, sigma=sigma, n_events=None).n_events


def precision_events(design: PrecisionTTEDesign) -> int:
    """Events needed so the two-sided CI has the requested half-width factor.

    Rounded to the nearest integer (half away from zero), never below 1.
    """
    z = -std_normal_quantile(0.5 * (1.0 - design.level))
    n = _squared(z * design.sigma / math.log(design.factor))
    return max(1, math.floor(n + 0.5))


def implied_precision_factor(
    sigma: float, n_events: float, level: float = DEFAULT_LEVEL
) -> float:
    """Half-width factor f of the two-sided CI achieved by a given size.

    Convenience output for comparing designs: the interval at the stated
    confidence level is (estimate / f, estimate * f).
    """
    check_positive(sigma, "sigma")
    _check_events(n_events)
    _check_level(level)
    z = -std_normal_quantile(0.5 * (1.0 - level))
    try:
        return math.exp(z * sigma / math.sqrt(n_events))
    except OverflowError:
        raise ValueError(
            f"the CI half-width factor overflows at sigma={sigma}, n_events={n_events}"
        ) from None


def dual_cut_rule(
    alpha: float, null_hr: float, decision_hr: float, sigma: float, n_events: float
) -> CutRule:
    """The dual criterion as cut points on minus the log-HR estimate, at the
    decision value and the significance threshold; inconclusive between."""
    t_sig = significance_threshold(alpha, null_hr, sigma, n_events)
    lo, hi = -math.log(max(decision_hr, t_sig)), -math.log(min(decision_hr, t_sig))
    return CutRule(lo, hi, se=sigma / math.sqrt(n_events))


def oc_dual_tte(design: DualCriterionTTEDesign, true_hr: float) -> OperatingCharacteristics:
    """GO / NO-GO / inconclusive probabilities at a true hazard ratio.

    GO when the estimate clears both thresholds, NO-GO when it misses
    both; estimates between the decision value and the significance
    threshold are inconclusive.
    """
    return design.cut_rule.oc(true_hr)


def oc_standard_tte(
    design: StandardTTEDesign, sigma: float, n_events: float, true_hr: float
) -> OperatingCharacteristics:
    """Operating characteristics of a standard design (GO or NO-GO only)
    run at the given sigma and event count."""
    return replace(design, sigma=sigma, n_events=n_events).cut_rule.oc(true_hr)


def decide_tte(design: DualCriterionTTEDesign, estimated_hr: float) -> Decision:
    """Classify an observed HR estimate by the design's ``criteria``."""
    check_positive(estimated_hr, "estimated_hr")
    return Decision(*design.criteria(estimated_hr))
