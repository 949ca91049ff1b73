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

from dataclasses import dataclass
from functools import cached_property

from .distributions import check_count, check_open_probability, check_trials
from .outcomes import CutRule, DecisionTag, InfeasibleDesignError, OperatingCharacteristics, first_true, responder_tails

DEFAULT_N_MAX = 100

# A three-outcome design keeps a nonempty inconclusive zone; boundary
# pairs with r_go = r_nogo + 1 degenerate to a two-outcome rule and are
# excluded from the search.
MIN_BOUNDARY_GAP = 2


def _check_constraints(
    p0: float, p1: float, alpha: float, beta: float, eta: float, pi: float
) -> None:
    check_open_probability(p0, "p0")
    check_open_probability(p1, "p1")
    if p0 >= p1:
        raise ValueError(f"p0 must be below p1, got {p0} >= {p1}")
    for name, value in (("alpha", alpha), ("beta", beta), ("eta", eta), ("pi", pi)):
        check_open_probability(value, name)


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
        check_trials(self.n, "n")
        check_count(self.r_nogo, "r_nogo", least=0)
        check_count(self.r_go, "r_go")
        if not self.r_nogo < self.r_go <= self.n:
            raise ValueError(
                f"boundaries must satisfy 0 <= r_nogo < r_go <= n, got "
                f"r_nogo={self.r_nogo}, r_go={self.r_go}, n={self.n}"
            )
        _check_constraints(self.p0, self.p1, self.alpha, self.beta, self.eta, self.pi)

    @cached_property
    def cut_rule(self) -> CutRule:
        """NO-GO at r <= r_nogo and GO at r >= r_go as cut points on the count."""
        return CutRule(self.r_nogo + 1, self.r_go, n=self.n)

    @cached_property
    def decision_table(self) -> tuple[DecisionTag, ...]:
        """The tag of each responder count 0..n, from the boundaries, not
        from ``cut_rule``: the rule the oracle and ``decide`` apply."""
        go, nogo, between = DecisionTag.GO, DecisionTag.NOGO, DecisionTag.INCONCLUSIVE
        return tuple(go if r >= self.r_go else nogo if r <= self.r_nogo else between for r in range(self.n + 1))

    def constraint_values(self) -> dict[str, float]:
        """Attained values of the four constrained probabilities."""
        under_p0, under_p1 = (self.cut_rule.oc(p) for p in (self.p0, self.p1))
        return {
            "go_under_p0": under_p0.p_go,
            "nogo_under_p1": under_p1.p_nogo,
            "nogo_under_p0": under_p0.p_nogo,
            "go_under_p1": under_p1.p_go,
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
    return design.cut_rule.oc(true_orr)


def feasible_pairs(
    n: int, p0: float, p1: float, alpha: float, beta: float, eta: float, pi: float
) -> list[tuple[int, int]]:
    """All (r_nogo, r_go) pairs at size n, at least ``MIN_BOUNDARY_GAP``
    apart, satisfying the four constraints."""
    check_trials(n, "n")
    _check_constraints(p0, p1, alpha, beta, eta, pi)
    return _feasible_pairs(n, p0, p1, alpha, beta, eta, pi)


def _feasible_pairs(n, p0, p1, alpha, beta, eta, pi) -> list[tuple[int, int]]:
    """``feasible_pairs`` on checked inputs, once per size of a search."""
    # Each constraint is monotone in its cut point, so the admissible cut
    # points are ranges, on the tails constraint_values reads. No GO tail
    # reaches pi at n + 1, so go_hi is at most n.
    go0, nogo0 = responder_tails(n, p0)
    go1, nogo1 = responder_tails(n, p1)
    go_lo = first_true(lambda r: go0(r) <= alpha, MIN_BOUNDARY_GAP, n + 1)
    go_hi = first_true(lambda r: go1(r) < pi, 0, n + 1) - 1
    if go_lo > go_hi:
        return []
    # Cut points c = r_nogo + 1 with NO-GO below them.
    nogo_lo = first_true(lambda c: nogo0(c) >= eta, 1, n + 1)
    nogo_hi = first_true(lambda c: nogo1(c) > beta, 0, n + 1) - 1
    return [
        (c - 1, r_go)
        for r_go in range(go_lo, go_hi + 1)
        for c in range(nogo_lo, min(nogo_hi, r_go - MIN_BOUNDARY_GAP + 1) + 1)
    ]


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
    _check_constraints(p0, p1, alpha, beta, eta, pi)
    check_count(n_max, "n_max")
    for n in range(1, n_max + 1):
        pairs = _feasible_pairs(n, p0, p1, alpha, beta, eta, pi)
        if pairs:
            r_nogo, r_go = min(pairs, key=lambda pair: (pair[1], -pair[0]))
            return ThreeOutcomeDesign(
                n=n, r_go=r_go, r_nogo=r_nogo,
                p0=p0, p1=p1, alpha=alpha, beta=beta, eta=eta, pi=pi,
            )
    raise InfeasibleDesignError(f"no feasible three-outcome design with n <= {n_max}")
