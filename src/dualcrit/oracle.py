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
from .distributions import binomial_pmf, check_count, check_integer, check_open_probability, check_positive
from .outcomes import OUTCOMES, DecisionTag, OperatingCharacteristics
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
# Tally index of a decision; every inconclusive tag shares the last.
_CODE = {DecisionTag.GO: 0, DecisionTag.NOGO: 1}


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
        # The seed fills 64 bits of the Philox key, the scenario 32.
        object.__setattr__(self, "seed", check_integer(self.seed, "seed", 2**64 - 1))
        object.__setattr__(self, "scenario", check_integer(self.scenario, "scenario", 2**32 - 1))


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
    normal per replicate, and tabulate the decisions the design's own
    ``criteria`` give them.
    """
    import numpy as np

    # As the analytic OC: an infinite or NaN HR is refused, not simulated.
    check_positive(true_hr, "true_hr")
    s = design.sigma / math.sqrt(design.n_events)

    def decide(gen, size):
        significant, relevant = design.criteria(np.exp(math.log(true_hr) + s * gen.standard_normal(size)))
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
    """Draw responder counts and apply the design's own decision rule, the
    tag its ``decision_table`` gives each count: the posterior criteria of
    a dual-criterion design, the boundaries r_go and r_nogo of a
    three-outcome one. Neither reads the cut points the analytic operating
    characteristics use.
    """
    import numpy as np

    check_open_probability(true_orr, "true_orr")
    n_trials = design.n
    # One code per responder count, indexing the (GO, NO-GO, inconclusive) tally.
    codes = [_CODE.get(tag, 2) for tag in design.decision_table]
    # The edges of the table: each count k < n whose code differs from k + 1's.
    edges = [k for k in range(n_trials) if codes[k] != codes[k + 1]]
    # The CDF is read at the edges alone, so the pmf stops at the last one.
    cdf = np.cumsum([binomial_pmf(n_trials, true_orr, k) for k in range(edges[-1] + 1 if edges else 0)])
    bounds = [(cdf[k], codes[k]) for k in edges]

    def decide(gen, size):
        # A replicate draws at most k responders when u < cdf[k]; n takes
        # every u above the rounded CDF's last entry. The run of equal codes
        # that ends at an edge takes the uniforms below that edge's CDF not
        # taken by the runs before it: one pass per edge, not per count.
        u = gen.random(size)
        tally = [0, 0, 0]
        taken = 0
        for bound, code in bounds:
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
    for outcome, p, p_hat in zip(OUTCOMES, analytic.probs, simulated.oc.probs):
        limit = 3.0 * math.sqrt(p * (1.0 - p) / simulated.n_replicates)
        cells.append(GateCell(outcome, p, p_hat, limit, abs(p - p_hat) <= limit))
    return cells


def within_monte_carlo_error(analytic: OperatingCharacteristics, simulated: SimulatedOC) -> bool:
    """True when every cell of ``monte_carlo_cells`` passes."""
    return all(cell.passed for cell in monte_carlo_cells(analytic, simulated))
