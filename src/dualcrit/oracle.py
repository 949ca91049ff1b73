"""Independent Monte Carlo check of every analytic operating characteristic.

Replicates are driven by counter-based Philox streams keyed by
(seed, scenario, chunk), with a fixed chunk size, so results are
bit-identical for a given seed no matter how the chunks are executed or
in what order the counts are reduced. Normal draws go through the same
inverse-CDF code path the analytic formulas use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binary import DualCriterionBinaryDesign, decide_binary
from .distributions import binomial_pmf, std_normal_quantile
from .outcomes import DecisionTag, OperatingCharacteristics
from .three_outcome import ThreeOutcomeDesign
from .tte import DualCriterionTTEDesign

# Replicates per keyed stream; fixed so that the replicate -> stream map
# never depends on how work is scheduled.
_CHUNK = 8192

_GO, _NOGO, _INCONCLUSIVE = 0, 1, 2


@dataclass(frozen=True)
class SimulationConfig:
    """Replication count, seed, and the scenario index keying the stream."""

    seed: int
    n_replicates: int = 100_000
    scenario: int = 0

    def __post_init__(self):
        if self.n_replicates < 1:
            raise ValueError(
                f"n_replicates must be a positive integer, got {self.n_replicates}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not 0 <= self.scenario < 2**32:
            raise ValueError(f"scenario index must fit in 32 bits, got {self.scenario}")


@dataclass(frozen=True)
class SimulatedOC:
    """Simulated operating characteristics with exact category counts."""

    oc: OperatingCharacteristics
    counts: tuple[int, int, int]
    std_errors: tuple[float, float, float]
    n_replicates: int

    def __post_init__(self):
        if sum(self.counts) != self.n_replicates:
            raise ValueError("category counts must partition the replicates")


def _uniform_stream(seed: int, scenario: int, n: int) -> np.ndarray:
    """n uniforms from Philox streams keyed by (seed, scenario, chunk)."""
    out = np.empty(n)
    for chunk in range((n + _CHUNK - 1) // _CHUNK):
        key = np.array([seed, (scenario << 32) | chunk], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        lo = chunk * _CHUNK
        hi = min(n, lo + _CHUNK)
        out[lo:hi] = gen.random(hi - lo)
    return out


def _summarize(true_effect: float, codes: np.ndarray, n: int) -> SimulatedOC:
    counts = np.bincount(codes, minlength=3)
    n_go, n_nogo, n_inc = (int(counts[c]) for c in (_GO, _NOGO, _INCONCLUSIVE))
    probs = (n_go / n, n_nogo / n, n_inc / n)
    ses = tuple(math.sqrt(p * (1.0 - p) / n) for p in probs)
    oc = OperatingCharacteristics(
        true_effect=true_effect,
        p_go=probs[0],
        p_nogo=probs[1],
        p_inconclusive=probs[2],
    )
    return SimulatedOC(oc=oc, counts=(n_go, n_nogo, n_inc), std_errors=ses, n_replicates=n)


def simulate_tte_oc(
    design: DualCriterionTTEDesign, true_hr: float, cfg: SimulationConfig
) -> SimulatedOC:
    """Draw HR estimates from the log-normal sampling model and tabulate
    the decisions they trigger.
    """
    if not true_hr > 0.0:
        raise ValueError(f"true_hr must be positive, got {true_hr}")
    n = cfg.n_replicates
    u = _uniform_stream(cfg.seed, cfg.scenario, n)
    # The quantile transform needs open-interval inputs.
    z = std_normal_quantile(np.maximum(u, np.finfo(float).tiny))
    s = design.sigma / math.sqrt(design.n_events)
    hr = np.exp(math.log(true_hr) + s * z)
    significant = hr <= design.significance_threshold
    relevant = hr <= design.decision_hr
    codes = np.where(
        significant & relevant,
        _GO,
        np.where(~significant & ~relevant, _NOGO, _INCONCLUSIVE),
    )
    return _summarize(true_hr, codes, n)


def simulate_binary_oc(
    design: DualCriterionBinaryDesign | ThreeOutcomeDesign,
    true_orr: float,
    cfg: SimulationConfig,
) -> SimulatedOC:
    """Draw responder counts and apply the design's own decision rule.

    Dual-criterion designs are decided through the posterior criteria at
    each drawn count, independently of the boundary arithmetic the
    analytic operating characteristics use.
    """
    if not 0.0 < true_orr < 1.0:
        raise ValueError(f"true_orr must lie in (0, 1), got {true_orr}")
    n_trials = design.n
    if isinstance(design, ThreeOutcomeDesign):
        codes_by_r = np.full(n_trials + 1, _INCONCLUSIVE)
        codes_by_r[design.r_go:] = _GO
        codes_by_r[: design.r_nogo + 1] = _NOGO
    else:
        tags = [decide_binary(design, r).tag for r in range(n_trials + 1)]
        codes_by_r = np.array(
            [_GO if t is DecisionTag.GO else _NOGO if t is DecisionTag.NOGO else _INCONCLUSIVE
             for t in tags]
        )
    cdf = np.cumsum([binomial_pmf(n_trials, true_orr, k) for k in range(n_trials + 1)])
    n = cfg.n_replicates
    u = _uniform_stream(cfg.seed, cfg.scenario, n)
    draws = np.minimum(np.searchsorted(cdf, u, side="right"), n_trials)
    return _summarize(true_orr, codes_by_r[draws], n)


def within_monte_carlo_error(
    analytic: OperatingCharacteristics, simulated: SimulatedOC, n_se: float = 3.0
) -> bool:
    """True when every simulated category is within n_se standard errors
    of the analytic probability (standard errors taken at the analytic
    values, so exact zero cells must be reproduced exactly).
    """
    n = simulated.n_replicates
    for p, p_hat in zip(analytic.probs, simulated.oc.probs):
        se = math.sqrt(p * (1.0 - p) / n)
        if abs(p - p_hat) > n_se * se:
            return False
    return True
