"""Independent Monte Carlo check of every analytic operating characteristic.

Replicates are drawn, decided and counted one keyed chunk at a time. Each
chunk of a fixed size has its own counter-based Philox stream keyed by
(seed, scenario, chunk), and its GO and NO-GO counts are added up as exact
integers, so results are bit-identical for a given seed no matter how the
chunks are executed or in what order the counts are reduced, and the
arrays held at any time are O(chunk), not O(replicates). Normal draws go
through the same inverse-CDF code path the analytic formulas use. numpy is
imported by the functions that draw and count, so importing this module
for ``SimulationConfig`` or ``monte_carlo_limit`` does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from .binary import DualCriterionBinaryDesign, decide_binary
from .distributions import binomial_pmf, check_count, std_normal_quantile
from .outcomes import DecisionTag, OperatingCharacteristics
from .three_outcome import ThreeOutcomeDesign
from .tte import DualCriterionTTEDesign

if TYPE_CHECKING:
    import numpy as np

# Replicates per keyed stream; fixed so that the replicate -> stream map
# never depends on how work is scheduled.
_CHUNK = 8192


def _key_word(value, name: str, bits: int) -> int:
    """Validate an integer that fills ``bits`` bits of the Philox key."""
    if not 0 <= value < 2**bits:
        raise ValueError(f"{name} must lie in [0, 2**{bits}), got {value}")
    if value != int(value):
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


@dataclass(frozen=True)
class SimulationConfig:
    """Replication count, seed, and the scenario index keying the stream."""

    seed: int
    n_replicates: int = 100_000
    scenario: int = 0

    def __post_init__(self):
        # Stored as int, so that an integral float keys the same stream.
        object.__setattr__(self, "n_replicates", check_count(self.n_replicates, "n_replicates"))
        object.__setattr__(self, "seed", _key_word(self.seed, "seed", 64))
        object.__setattr__(self, "scenario", _key_word(self.scenario, "scenario", 32))


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


def _keyed_chunks(seed: int, scenario: int, n: int) -> Iterator[np.ndarray]:
    """The uniforms of n replicates, one chunk at a time: chunk c holds
    replicates [c * _CHUNK, (c + 1) * _CHUNK) and draws them from the Philox
    stream keyed by (seed, scenario << 32 | c)."""
    import numpy as np

    for chunk, lo in enumerate(range(0, n, _CHUNK)):
        key = np.array([seed, (scenario << 32) | chunk], dtype=np.uint64)
        yield np.random.Generator(np.random.Philox(key=key)).random(min(_CHUNK, n - lo))


def _tally(
    true_effect: float,
    decide: Callable[[np.ndarray], tuple[int, int]],
    cfg: SimulationConfig,
) -> SimulatedOC:
    """Add up the (GO, NO-GO) counts ``decide`` gives for each chunk's
    uniforms; the remaining replicates are inconclusive."""
    n = cfg.n_replicates
    n_go = n_nogo = 0
    for u in _keyed_chunks(cfg.seed, cfg.scenario, n):
        go, nogo = decide(u)
        n_go += go
        n_nogo += nogo
    counts = (n_go, n_nogo, n - n_go - n_nogo)
    probs = tuple(c / n for c in counts)
    ses = tuple(math.sqrt(p * (1.0 - p) / n) for p in probs)
    oc = OperatingCharacteristics(
        true_effect=true_effect,
        p_go=probs[0],
        p_nogo=probs[1],
        p_inconclusive=probs[2],
    )
    return SimulatedOC(oc=oc, counts=counts, std_errors=ses, n_replicates=n)


def simulate_tte_oc(
    design: DualCriterionTTEDesign, true_hr: float, cfg: SimulationConfig
) -> SimulatedOC:
    """Draw HR estimates from the log-normal sampling model and tabulate
    the decisions they trigger.
    """
    import numpy as np

    if not true_hr > 0.0:
        raise ValueError(f"true_hr must be positive, got {true_hr}")
    tiny = np.finfo(float).tiny
    s = design.sigma / math.sqrt(design.n_events)
    significance_hr = design.significance_threshold

    def decide(u):
        # The quantile transform needs open-interval inputs.
        z = std_normal_quantile(np.maximum(u, tiny, out=u))
        hr = np.exp(math.log(true_hr) + s * z)
        significant = hr <= significance_hr
        relevant = hr <= design.decision_hr
        return (
            int(np.count_nonzero(significant & relevant)),
            int(np.count_nonzero(~(significant | relevant))),
        )

    return _tally(true_hr, decide, cfg)


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
    import numpy as np

    if not 0.0 < true_orr < 1.0:
        raise ValueError(f"true_orr must lie in (0, 1), got {true_orr}")
    n_trials = design.n
    if isinstance(design, ThreeOutcomeDesign):
        responders = np.arange(n_trials + 1)
        go, nogo = responders >= design.r_go, responders <= design.r_nogo
    else:
        tags = [decide_binary(design, r).tag for r in range(n_trials + 1)]
        go = np.array([t is DecisionTag.GO for t in tags])
        nogo = np.array([t is DecisionTag.NOGO for t in tags])
    cdf = np.cumsum([binomial_pmf(n_trials, true_orr, k) for k in range(n_trials + 1)])

    def decide(u):
        # A replicate draws at most k responders when u < cdf[k]; n takes
        # every u above the rounded CDF's last entry. Sorting the chunk
        # turns that into one binary search per count, not per replicate.
        u.sort()
        at_most = np.searchsorted(u, cdf[:-1])
        by_count = np.diff(at_most, prepend=0, append=u.size)
        return int(by_count[go].sum()), int(by_count[nogo].sum())

    return _tally(true_orr, decide, cfg)


def monte_carlo_limit(p: float, n_replicates: int) -> float:
    """Largest accepted |analytic - simulated| for one category: 3
    standard errors of a proportion over n_replicates, taken at the
    analytic probability p, so an exact zero cell must be reproduced exactly.
    """
    return 3.0 * math.sqrt(p * (1.0 - p) / n_replicates)


def within_monte_carlo_error(analytic: OperatingCharacteristics, simulated: SimulatedOC) -> bool:
    """True when every simulated category is within ``monte_carlo_limit``
    of the analytic probability.
    """
    n = simulated.n_replicates
    return all(
        abs(p - p_hat) <= monte_carlo_limit(p, n)
        for p, p_hat in zip(analytic.probs, simulated.oc.probs)
    )
