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
import warnings
from dataclasses import dataclass

from .distributions import std_normal_cdf, std_normal_quantile
from .outcomes import Decision, OperatingCharacteristics

DEFAULT_SIGMA = 2.0

# Guard against float slop when the sizing formula lands on an integer.
_CEIL_EPS = 1e-9


def _check_alpha(alpha: float, name: str = "alpha") -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"{name} must lie in (0, 0.5), got {alpha}")
    return alpha


def _check_positive(value: float, name: str) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class DualCriterionTTEDesign:
    """Dual-criterion design for a hazard-ratio endpoint.

    GO requires a one-sided p-value at or below ``alpha`` (equivalently an
    estimate at or below the significance threshold) together with an
    estimated HR at or below ``decision_hr``.
    """

    alpha: float
    decision_hr: float
    n_events: int
    null_hr: float = 1.0
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_positive(self.null_hr, "null_hr")
        _check_positive(self.decision_hr, "decision_hr")
        _check_positive(self.sigma, "sigma")
        if self.decision_hr >= self.null_hr:
            raise ValueError(
                f"decision_hr must be below null_hr, got "
                f"{self.decision_hr} >= {self.null_hr}"
            )
        if self.n_events < 1 or self.n_events != int(self.n_events):
            raise ValueError(f"n_events must be a positive integer, got {self.n_events}")
        n_min = min_events_dual(self.alpha, self.null_hr, self.decision_hr, self.sigma)
        if self.n_events < n_min:
            warnings.warn(
                f"n_events={self.n_events} is below the minimum {n_min} at which "
                f"meeting the decision value implies significance; "
                f"relevant-but-not-significant outcomes are possible",
                UserWarning,
                stacklevel=2,
            )

    @property
    def min_events(self) -> int:
        return min_events_dual(self.alpha, self.null_hr, self.decision_hr, self.sigma)

    @property
    def significance_threshold(self) -> float:
        return significance_threshold(self.alpha, self.null_hr, self.sigma, self.n_events)


@dataclass(frozen=True)
class StandardTTEDesign:
    """Standard design: type-I error plus power at an alternative HR."""

    alpha: float
    beta: float
    alt_hr: float
    null_hr: float = 1.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_alpha(self.beta, "beta")
        _check_positive(self.null_hr, "null_hr")
        _check_positive(self.alt_hr, "alt_hr")
        if self.alt_hr >= self.null_hr:
            raise ValueError(
                f"alt_hr must be below null_hr, got {self.alt_hr} >= {self.null_hr}"
            )


@dataclass(frozen=True)
class PrecisionTTEDesign:
    """Precision design: no benchmarks, only a target CI half-width.

    ``factor`` f > 1 defines the target two-sided interval
    (HR / f, HR * f) at the given confidence level.
    """

    factor: float
    level: float = 0.95
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self):
        if not (math.isfinite(self.factor) and self.factor > 1.0):
            raise ValueError(f"factor must exceed 1, got {self.factor}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        _check_positive(self.sigma, "sigma")


def min_events_dual(
    alpha: float, null_hr: float, decision_hr: float, sigma: float = DEFAULT_SIGMA
) -> int:
    """Smallest event count at which the significance threshold reaches
    the decision value, so that clinical relevance implies significance.
    """
    alpha = _check_alpha(alpha)
    _check_positive(null_hr, "null_hr")
    _check_positive(decision_hr, "decision_hr")
    _check_positive(sigma, "sigma")
    if decision_hr >= null_hr:
        raise ValueError(
            "decision_hr must be below null_hr; equal values admit no finite size"
        )
    z = std_normal_quantile(1.0 - alpha)
    delta = math.log(null_hr) - math.log(decision_hr)
    return math.ceil((sigma * z / delta) ** 2 - _CEIL_EPS)


def significance_threshold(
    alpha: float, null_hr: float, sigma: float, n_events: float
) -> float:
    """Largest estimated HR that is still one-sided significant at alpha."""
    alpha = _check_alpha(alpha)
    _check_positive(null_hr, "null_hr")
    _check_positive(sigma, "sigma")
    if not n_events >= 1:
        raise ValueError(f"n_events must be at least 1, got {n_events}")
    z = std_normal_quantile(1.0 - alpha)
    return null_hr * math.exp(-z * sigma / math.sqrt(n_events))


def standard_design_events(design: StandardTTEDesign, sigma: float = DEFAULT_SIGMA) -> int:
    """Events needed for power 1 - beta at the alternative HR."""
    _check_positive(sigma, "sigma")
    z_a = std_normal_quantile(1.0 - design.alpha)
    z_b = std_normal_quantile(1.0 - design.beta)
    delta = math.log(design.null_hr) - math.log(design.alt_hr)
    return math.ceil((sigma * (z_a + z_b) / delta) ** 2 - _CEIL_EPS)


def precision_events(design: PrecisionTTEDesign) -> int:
    """Events needed so the two-sided CI has the requested half-width factor.

    Rounded to the nearest integer (half away from zero), never below 1.
    """
    z = std_normal_quantile(0.5 * (1.0 + design.level))
    n = (z * design.sigma / math.log(design.factor)) ** 2
    return max(1, math.floor(n + 0.5))


def implied_precision_factor(
    sigma: float, n_events: float, level: float = 0.95
) -> float:
    """Half-width factor f of the two-sided CI achieved by a given size.

    Convenience output for comparing designs: the interval at the stated
    confidence level is (estimate / f, estimate * f).
    """
    _check_positive(sigma, "sigma")
    if not n_events >= 1:
        raise ValueError(f"n_events must be at least 1, got {n_events}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    z = std_normal_quantile(0.5 * (1.0 + level))
    return math.exp(z * sigma / math.sqrt(n_events))


def _dual_oc(
    alpha: float,
    null_hr: float,
    decision_hr: float,
    sigma: float,
    n_events: float,
    true_hr: float,
) -> OperatingCharacteristics:
    """Operating characteristics of the dual criterion at a real-valued size."""
    s = sigma / math.sqrt(n_events)
    t_sig = significance_threshold(alpha, null_hr, sigma, n_events)
    t = min(decision_hr, t_sig)
    u = max(decision_hr, t_sig)
    log_true = math.log(true_hr)
    p_go = std_normal_cdf((math.log(t) - log_true) / s)
    p_nogo = std_normal_cdf((log_true - math.log(u)) / s)
    p_inconclusive = max(0.0, 1.0 - p_go - p_nogo)
    return OperatingCharacteristics(
        true_effect=true_hr, p_go=p_go, p_nogo=p_nogo, p_inconclusive=p_inconclusive
    )


def oc_dual_tte(design: DualCriterionTTEDesign, true_hr: float) -> OperatingCharacteristics:
    """GO / NO-GO / inconclusive probabilities at a true hazard ratio.

    GO when the estimate clears both thresholds, NO-GO when it misses
    both; estimates between the decision value and the significance
    threshold are inconclusive.
    """
    _check_positive(true_hr, "true_hr")
    return _dual_oc(
        design.alpha,
        design.null_hr,
        design.decision_hr,
        design.sigma,
        design.n_events,
        true_hr,
    )


def oc_standard_tte(
    design: StandardTTEDesign, sigma: float, n_events: float, true_hr: float
) -> OperatingCharacteristics:
    """Operating characteristics of a standard design (GO or NO-GO only)."""
    _check_positive(true_hr, "true_hr")
    _check_positive(sigma, "sigma")
    s = sigma / math.sqrt(n_events)
    t_sig = significance_threshold(design.alpha, design.null_hr, sigma, n_events)
    x = (math.log(t_sig) - math.log(true_hr)) / s
    return OperatingCharacteristics(
        true_effect=true_hr,
        p_go=std_normal_cdf(x),
        p_nogo=std_normal_cdf(-x),
        p_inconclusive=0.0,
    )


def decide_tte(design: DualCriterionTTEDesign, estimated_hr: float) -> Decision:
    """Classify an observed HR estimate. Both inequalities are inclusive."""
    _check_positive(estimated_hr, "estimated_hr")
    significant = estimated_hr <= design.significance_threshold
    relevant = estimated_hr <= design.decision_hr
    return Decision.from_criteria(significant=significant, relevant=relevant)
