"""Independent Monte Carlo check of every analytic operating characteristic.

Replicates are drawn, decided and counted one keyed chunk at a time. Each
chunk of a fixed size has its own counter-based Philox stream keyed by
(seed, scenario, chunk), and its GO and NO-GO counts are added up as exact
integers, so results are bit-identical for a given seed no matter how the
chunks are executed or in what order the counts are reduced, and the
arrays held at any time are O(chunk), not O(replicates).

One Philox bit generator serves a whole tally: before each chunk it is
re-keyed to that chunk's key, at counter 0 with an empty buffer, which is
the state a freshly keyed Philox starts in.

Each chunk hands its decision rule the keyed generator, and the rule draws
what its model needs. A time-to-event replicate is one standard normal from
numpy's ziggurat sampler (``Generator.standard_normal``), with no quantile
transform, so the simulated side shares no normal code with the AS241
quantile the analytic formulas use. A binary replicate is one uniform,
inverted through the binomial CDF: the replicates of a chunk are counted
below the CDF at each edge of the design's decision table, the counts where
the decision changes, and the table is built once per design. The counts
therefore depend on numpy's ``Generator`` algorithms as well as on the
seed. This is the only module that imports numpy, and only in the
functions that draw and count, so importing it for ``SimulationConfig`` or
``monte_carlo_cells`` does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .binary import DualCriterionBinaryDesign
from .distributions import binomial_pmf, check_count
from .outcomes import DecisionTag, OperatingCharacteristics
from .three_outcome import ThreeOutcomeDesign
from .tte import DualCriterionTTEDesign

if TYPE_CHECKING:
    import numpy as np

# Replicates per keyed stream; fixed so that the replicate -> stream map
# never depends on how work is scheduled.
_CHUNK = 8192
# The chunk index fills the low 32 bits of the second key word, under the
# scenario; more chunks than that would read the next scenario's streams.
_MAX_REPLICATES = _CHUNK * 2**32
# Tally index of a decision; the two inconclusive tags share the last.
_CODE = {DecisionTag.GO: 0, DecisionTag.NOGO: 1}


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
        n = check_count(self.n_replicates, "n_replicates")
        if n > _MAX_REPLICATES:
            raise ValueError(
                f"n_replicates must be at most {_CHUNK} * 2**32, one keyed stream per "
                f"{_CHUNK}-replicate chunk, got {n}"
            )
        object.__setattr__(self, "n_replicates", n)
        object.__setattr__(self, "seed", _key_word(self.seed, "seed", 64))
        object.__setattr__(self, "scenario", _key_word(self.scenario, "scenario", 32))


@dataclass(frozen=True)
class SimulatedOC:
    """Simulated operating characteristics with exact category counts."""

    oc: OperatingCharacteristics
    counts: tuple[int, int, int]
    n_replicates: int

    def __post_init__(self):
        if sum(self.counts) != self.n_replicates:
            raise ValueError("category counts must partition the replicates")


def _keyed_chunks(seed: int, scenario: int, n: int) -> Iterator[tuple[np.random.Generator, int]]:
    """n replicates, one chunk at a time: chunk c holds replicates
    [c * _CHUNK, (c + 1) * _CHUNK), drawn from the Philox stream keyed by
    (seed, scenario << 32 | c). Yields each chunk's generator and size.

    One bit generator is re-keyed for every chunk, so each yielded
    generator is valid only until the next chunk is asked for. A new
    ``Philox(key=...)`` per chunk would draw the same numbers, but would
    first seed itself from OS entropy only to have the key overwrite it.
    """
    import numpy as np

    bits = np.random.Philox()
    gen = np.random.Generator(bits)
    start = np.zeros(4, dtype=np.uint64)
    for chunk, lo in enumerate(range(0, n, _CHUNK)):
        key = np.array([seed, (scenario << 32) | chunk], dtype=np.uint64)
        # Counter 0 and an empty buffer: the state Philox(key=key) starts in.
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": start, "key": key},
            "buffer": start,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen, min(_CHUNK, n - lo)


def _tally(
    true_effect: float,
    decide: Callable[[np.random.Generator, int], tuple[int, int]],
    cfg: SimulationConfig,
) -> SimulatedOC:
    """Add up the (GO, NO-GO) counts ``decide`` gives for each chunk's
    generator and size; the remaining replicates are inconclusive."""
    n = cfg.n_replicates
    n_go = n_nogo = 0
    for gen, size in _keyed_chunks(cfg.seed, cfg.scenario, n):
        go, nogo = decide(gen, size)
        n_go += go
        n_nogo += nogo
    counts = (n_go, n_nogo, n - n_go - n_nogo)
    oc = OperatingCharacteristics(true_effect, *(c / n for c in counts))
    return SimulatedOC(oc=oc, counts=counts, n_replicates=n)


def simulate_tte_oc(
    design: DualCriterionTTEDesign, true_hr: float, cfg: SimulationConfig
) -> SimulatedOC:
    """Draw HR estimates from the log-normal sampling model, one standard
    normal per replicate, and tabulate the decisions they trigger.
    """
    import numpy as np

    # As the analytic OC: an infinite or NaN HR is refused, not simulated.
    if not (math.isfinite(true_hr) and true_hr > 0.0):
        raise ValueError(f"true_hr must be positive, got {true_hr}")
    s = design.sigma / math.sqrt(design.n_events)
    significance_hr = design.significance_threshold

    def decide(gen, size):
        hr = np.exp(math.log(true_hr) + s * gen.standard_normal(size))
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
    each count, in the design's ``decision_table``, independently of the
    boundary arithmetic the analytic operating characteristics use.
    """
    import numpy as np

    if not 0.0 < true_orr < 1.0:
        raise ValueError(f"true_orr must lie in (0, 1), got {true_orr}")
    n_trials = design.n
    # One code per responder count, indexing the (GO, NO-GO, inconclusive) tally.
    if isinstance(design, ThreeOutcomeDesign):
        codes = [0 if r >= design.r_go else 1 if r <= design.r_nogo else 2 for r in range(n_trials + 1)]
    else:
        codes = [_CODE.get(tag, 2) for tag in design.decision_table]
    cdf = np.cumsum([binomial_pmf(n_trials, true_orr, k) for k in range(n_trials + 1)])
    # The edges of the table: each count k < n whose code differs from k + 1's.
    edges = [(cdf[k], codes[k]) for k in range(n_trials) if codes[k] != codes[k + 1]]

    def decide(gen, size):
        # A replicate draws at most k responders when u < cdf[k]; n takes
        # every u above the rounded CDF's last entry. The run of equal codes
        # that ends at an edge takes the uniforms below that edge's CDF not
        # taken by the runs before it: one pass per edge, not per count.
        u = gen.random(size)
        tally = [0, 0, 0]
        taken = 0
        for bound, code in edges:
            below = int(np.count_nonzero(u < bound))
            tally[code] += below - taken
            taken = below
        tally[codes[-1]] += size - taken
        return tally[0], tally[1]

    return _tally(true_orr, decide, cfg)


class GateCell(NamedTuple):
    """One outcome category of the Monte Carlo gate."""

    outcome: str
    analytic: float
    simulated: float
    limit: float
    passed: bool


def monte_carlo_cells(analytic: OperatingCharacteristics, simulated: SimulatedOC) -> list[GateCell]:
    """The gate for p_go, p_nogo and p_inconclusive in turn. A cell passes
    when |analytic - simulated| is at most its limit: 3 standard errors of
    a proportion over the replicates, taken at the analytic probability p,
    so an exact zero cell must be reproduced exactly.
    """
    cells = []
    for outcome, p, p_hat in zip(("p_go", "p_nogo", "p_inconclusive"), analytic.probs, simulated.oc.probs):
        limit = 3.0 * math.sqrt(p * (1.0 - p) / simulated.n_replicates)
        cells.append(GateCell(outcome, p, p_hat, limit, abs(p - p_hat) <= limit))
    return cells


def within_monte_carlo_error(analytic: OperatingCharacteristics, simulated: SimulatedOC) -> bool:
    """True when every cell of ``monte_carlo_cells`` passes."""
    return all(cell.passed for cell in monte_carlo_cells(analytic, simulated))
