"""Single-stage three-outcome comparator design for binary endpoints.

The design declares GO for r_go or more responders, NO-GO for r_nogo or
fewer, and an inconclusive outcome in between. Boundaries are constrained
by four probabilities evaluated at the hypothesized rates p0 < p1:

* alpha: at most this GO probability under p0;
* beta: at most this NO-GO probability under p1;
* eta: at least this NO-GO probability under p0;
* pi: at least this GO probability under p1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import binomial_cut_probs, binomial_pmf, check_open_probability
from .outcomes import InfeasibleDesignError, OperatingCharacteristics

DEFAULT_N_MAX = 100

# A three-outcome design keeps a nonempty inconclusive zone; boundary
# pairs with r_go = r_nogo + 1 degenerate to a two-outcome rule and are
# excluded from the search.
MIN_BOUNDARY_GAP = 2


@dataclass(frozen=True)
class ThreeOutcomeDesign:
    n: int
    r_go: int
    r_nogo: int
    p0: float
    p1: float
    alpha: float
    beta: float
    eta: float
    pi: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not 0 <= self.r_nogo < self.r_go <= self.n:
            raise ValueError(
                f"boundaries must satisfy 0 <= r_nogo < r_go <= n, got "
                f"r_nogo={self.r_nogo}, r_go={self.r_go}, n={self.n}"
            )
        check_open_probability(self.p0, "p0")
        check_open_probability(self.p1, "p1")
        if self.p0 >= self.p1:
            raise ValueError(f"p0 must be below p1, got {self.p0} >= {self.p1}")
        for name in ("alpha", "beta", "eta", "pi"):
            check_open_probability(getattr(self, name), name)

    def constraint_values(self) -> dict[str, float]:
        """Attained values of the four constrained probabilities."""
        go_p0, nogo_p0, _ = binomial_cut_probs(self.n, self.p0, self.r_nogo + 1, self.r_go)
        go_p1, nogo_p1, _ = binomial_cut_probs(self.n, self.p1, self.r_nogo + 1, self.r_go)
        return {
            "go_under_p0": go_p0,
            "nogo_under_p1": nogo_p1,
            "nogo_under_p0": nogo_p0,
            "go_under_p1": go_p1,
        }

    def is_feasible(self) -> bool:
        values = self.constraint_values()
        return (
            values["go_under_p0"] <= self.alpha
            and values["nogo_under_p1"] <= self.beta
            and values["nogo_under_p0"] >= self.eta
            and values["go_under_p1"] >= self.pi
        )


def three_outcome_oc(design: ThreeOutcomeDesign, true_orr: float) -> OperatingCharacteristics:
    """Exact GO / NO-GO / inconclusive probabilities at a true rate."""
    true_orr = check_open_probability(true_orr, "true_orr")
    probs = binomial_cut_probs(design.n, true_orr, design.r_nogo + 1, design.r_go)
    return OperatingCharacteristics(true_orr, *probs)


def feasible_pairs(
    n: int,
    p0: float,
    p1: float,
    alpha: float,
    beta: float,
    eta: float,
    pi: float,
    min_gap: int = MIN_BOUNDARY_GAP,
) -> list[tuple[int, int]]:
    """All (r_nogo, r_go) pairs at size n satisfying the four constraints.

    ``min_gap`` is the smallest admissible r_go - r_nogo; pass 1 to also
    see the degenerate pairs with an empty inconclusive zone.
    """
    if min_gap < 1:
        raise ValueError(f"min_gap must be at least 1, got {min_gap}")
    # Upper tails under both rates; tail[r] = P(R >= r).
    tail0 = _upper_tails(n, p0)
    tail1 = _upper_tails(n, p1)
    pairs = []
    for r_go in range(min_gap, n + 1):
        if tail0[r_go] > alpha or tail1[r_go] < pi:
            continue
        for r_nogo in range(0, r_go - min_gap + 1):
            if 1.0 - tail1[r_nogo + 1] <= beta and 1.0 - tail0[r_nogo + 1] >= eta:
                pairs.append((r_nogo, r_go))
    return pairs


def _upper_tails(n: int, p: float) -> list[float]:
    pmf = [binomial_pmf(n, p, k) for k in range(n + 1)]
    return [math.fsum(pmf[r:]) for r in range(n + 2)]


def find_three_outcome_design(
    p0: float,
    p1: float,
    alpha: float,
    beta: float,
    eta: float,
    pi: float,
    n_max: int = DEFAULT_N_MAX,
) -> ThreeOutcomeDesign:
    """Smallest-n design satisfying all four constraints.

    Sizes are scanned in ascending order; among feasible boundary pairs at
    the minimal n, the smallest r_go and then the largest r_nogo win (the
    narrowest inconclusive zone). Raises ``InfeasibleDesignError`` when no
    size up to ``n_max`` works.
    """
    check_open_probability(p0, "p0")
    check_open_probability(p1, "p1")
    if p0 >= p1:
        raise InfeasibleDesignError(
            f"hypothesized rates must satisfy p0 < p1, got p0={p0}, p1={p1}"
        )
    for name, value in (("alpha", alpha), ("beta", beta), ("eta", eta), ("pi", pi)):
        check_open_probability(value, name)
    if n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max}")
    for n in range(1, n_max + 1):
        pairs = feasible_pairs(n, p0, p1, alpha, beta, eta, pi)
        if pairs:
            r_nogo, r_go = min(pairs, key=lambda pair: (pair[1], -pair[0]))
            return ThreeOutcomeDesign(
                n=n, r_go=r_go, r_nogo=r_nogo,
                p0=p0, p1=p1, alpha=alpha, beta=beta, eta=eta, pi=pi,
            )
    raise InfeasibleDesignError(f"no feasible three-outcome design with n <= {n_max}")
