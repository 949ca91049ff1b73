"""Design engine for phase II dual-criterion GO/NO-GO trials.

Sizing, decision boundaries, and operating characteristics for
time-to-event (frequentist, normal approximation) and single-arm binary
(Bayesian, Beta-binomial) endpoints, with standard, precision, and
three-outcome designs as comparators, plus a Monte Carlo oracle and the
``dualcrit`` command-line front end.
"""

from .binary import (
    DualCriterionBinaryDesign,
    PosteriorSummary,
    clinical_boundary,
    decide_binary,
    min_responders,
    min_sample_size_grid,
    oc_binary,
    posterior_summary,
    prior_from_mean,
    statistical_boundary,
)
from .distributions import (
    BetaParams,
    beta_cdf,
    beta_pdf,
    beta_quantile,
    binomial_pmf,
    binomial_tail,
    std_normal_cdf,
    std_normal_quantile,
)
from .oracle import (
    SimulatedOC,
    SimulationConfig,
    simulate_binary_oc,
    simulate_tte_oc,
    within_monte_carlo_error,
)
from .outcomes import (
    CutRule,
    Decision,
    DecisionTag,
    InfeasibleDesignError,
    OperatingCharacteristics,
)
from .three_outcome import (
    ThreeOutcomeDesign,
    feasible_pairs,
    find_three_outcome_design,
    three_outcome_oc,
)
from .tte import (
    DualCriterionTTEDesign,
    PrecisionTTEDesign,
    StandardTTEDesign,
    decide_tte,
    implied_precision_factor,
    min_events_dual,
    oc_dual_tte,
    oc_standard_tte,
    precision_events,
    significance_threshold,
    standard_design_events,
)

__version__ = "0.1.0"

__all__ = [
    "BetaParams",
    "CutRule",
    "Decision",
    "DecisionTag",
    "DualCriterionBinaryDesign",
    "DualCriterionTTEDesign",
    "InfeasibleDesignError",
    "OperatingCharacteristics",
    "PosteriorSummary",
    "PrecisionTTEDesign",
    "SimulatedOC",
    "SimulationConfig",
    "StandardTTEDesign",
    "ThreeOutcomeDesign",
    "beta_cdf",
    "beta_pdf",
    "beta_quantile",
    "binomial_pmf",
    "binomial_tail",
    "clinical_boundary",
    "decide_binary",
    "decide_tte",
    "feasible_pairs",
    "find_three_outcome_design",
    "implied_precision_factor",
    "min_events_dual",
    "min_responders",
    "min_sample_size_grid",
    "oc_binary",
    "oc_dual_tte",
    "oc_standard_tte",
    "posterior_summary",
    "precision_events",
    "prior_from_mean",
    "significance_threshold",
    "simulate_binary_oc",
    "simulate_tte_oc",
    "standard_design_events",
    "statistical_boundary",
    "std_normal_cdf",
    "std_normal_quantile",
    "three_outcome_oc",
    "within_monte_carlo_error",
]
