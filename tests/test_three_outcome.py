"""Three-outcome comparator: exact zone probabilities and the
constraint-driven design search.

Oracle: exact rational binomial sums via integer combinatorics.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualcrit.outcomes import InfeasibleDesignError
from dualcrit.three_outcome import (
    MIN_BOUNDARY_GAP,
    ThreeOutcomeDesign,
    feasible_pairs,
    find_three_outcome_design,
    three_outcome_oc,
)

CONSTRAINTS = dict(p0=0.075, p1=0.275, alpha=0.05, beta=0.1, eta=0.8, pi=0.9)

PUBLISHED_DESIGN = ThreeOutcomeDesign(n=27, r_go=5, r_nogo=3, **CONSTRAINTS)

# (true_orr, p_go, p_nogo, p_inconclusive) as published for n=27.
TABLE_N27 = [
    (0.075, 0.048, 0.860, 0.092),
    (0.125, 0.243, 0.558, 0.199),
    (0.175, 0.523, 0.280, 0.197),
    (0.225, 0.759, 0.113, 0.128),
    (0.275, 0.901, 0.038, 0.062),
]


def exact_tail(n: int, p: Fraction, r: int) -> Fraction:
    return sum(
        Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k) for k in range(r, n + 1)
    )


class TestOperatingCharacteristics:
    @pytest.mark.parametrize("true_orr,p_go,p_nogo,p_inc", TABLE_N27)
    def test_published_rows(self, true_orr, p_go, p_nogo, p_inc):
        oc = three_outcome_oc(PUBLISHED_DESIGN, true_orr)
        assert oc.p_go == pytest.approx(p_go, abs=1e-3)
        assert oc.p_nogo == pytest.approx(p_nogo, abs=1e-3)
        assert oc.p_inconclusive == pytest.approx(p_inc, abs=1e-3)

    def test_exact_against_rational_oracle(self):
        for num in (75, 175, 275):
            p = Fraction(num, 1000)
            oc = three_outcome_oc(PUBLISHED_DESIGN, num / 1000)
            go = exact_tail(27, p, 5)
            nogo = 1 - exact_tail(27, p, 4)
            assert oc.p_go == pytest.approx(float(go), abs=1e-12)
            assert oc.p_nogo == pytest.approx(float(nogo), abs=1e-12)
            assert oc.p_inconclusive == pytest.approx(float(1 - go - nogo), abs=1e-12)

    def test_partition_sums_to_one(self):
        for true_orr in (0.02, 0.075, 0.2, 0.5, 0.97):
            assert sum(three_outcome_oc(PUBLISHED_DESIGN, true_orr).probs) == pytest.approx(
                1.0, abs=1e-12
            )
        degenerate = ThreeOutcomeDesign(n=27, r_go=4, r_nogo=3, **CONSTRAINTS)
        oc = three_outcome_oc(degenerate, 0.2)
        assert oc.p_inconclusive == 0.0
        assert sum(oc.probs) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            ThreeOutcomeDesign(n=27, r_go=3, r_nogo=5, **CONSTRAINTS)
        with pytest.raises(ValueError):
            ThreeOutcomeDesign(n=27, r_go=28, r_nogo=3, **CONSTRAINTS)

    def test_rejects_non_integral_size(self):
        with pytest.raises(ValueError, match="n must be a positive integer, got 27.5"):
            ThreeOutcomeDesign(n=27.5, r_go=5, r_nogo=3, **CONSTRAINTS)

    @pytest.mark.parametrize(
        "r_go,r_nogo,message",
        [
            (4.5, 3, "r_go must be a positive integer, got 4.5"),
            (5, 2.5, "r_nogo must be a non-negative integer, got 2.5"),
        ],
    )
    def test_rejects_non_integral_boundaries(self, r_go, r_nogo, message):
        # a boundary of 4.5 used to build, and three_outcome_oc then raised
        # TypeError on a slice index
        with pytest.raises(ValueError, match=message):
            ThreeOutcomeDesign(n=27, r_go=r_go, r_nogo=r_nogo, **CONSTRAINTS)

    def test_design_rejects_p0_at_or_above_p1_as_the_search_does(self):
        constraints = {**CONSTRAINTS, "p0": 0.3}
        with pytest.raises(ValueError) as design_error:
            ThreeOutcomeDesign(n=27, r_go=5, r_nogo=3, **constraints)
        with pytest.raises(ValueError) as search_error:
            find_three_outcome_design(**constraints)
        assert str(search_error.value) == str(design_error.value) == "p0 must be below p1, got 0.3 >= 0.275"


class TestDesignSearch:
    def test_reproduces_published_design(self):
        design = find_three_outcome_design(n_max=100, **CONSTRAINTS)
        assert (design.n, design.r_nogo, design.r_go) == (27, 3, 5)

    def test_result_satisfies_all_constraints(self):
        design = find_three_outcome_design(n_max=100, **CONSTRAINTS)
        assert design.is_feasible()
        values = design.constraint_values()
        p0, p1 = Fraction(75, 1000), Fraction(275, 1000)
        assert values["go_under_p0"] == pytest.approx(
            float(exact_tail(27, p0, design.r_go)), abs=1e-12
        )
        assert values["go_under_p0"] <= CONSTRAINTS["alpha"]
        assert values["nogo_under_p1"] == pytest.approx(
            float(1 - exact_tail(27, p1, design.r_nogo + 1)), abs=1e-12
        )
        assert values["nogo_under_p1"] <= CONSTRAINTS["beta"]
        assert values["nogo_under_p0"] >= CONSTRAINTS["eta"]
        assert values["go_under_p1"] >= CONSTRAINTS["pi"]

    def test_no_smaller_size_is_feasible(self):
        for n in range(1, 27):
            assert feasible_pairs(n, **CONSTRAINTS) == []

    def test_degenerate_pair_documented_at_gap_one(self):
        # (4, 5) also satisfies the four constraints at n=27 but leaves
        # an empty inconclusive zone; the search keeps the three-outcome
        # shape, so the published (3, 5) wins.
        assert ThreeOutcomeDesign(n=27, r_go=5, r_nogo=4, **CONSTRAINTS).is_feasible()
        assert feasible_pairs(27, **CONSTRAINTS) == [(3, 5)]

    def test_identical_hypotheses_rejected(self):
        # An input error, as for the design itself, not an infeasible search.
        with pytest.raises(ValueError, match="p0 must be below p1, got 0.2 >= 0.2") as info:
            find_three_outcome_design(0.2, 0.2, 0.05, 0.1, 0.8, 0.9, n_max=50)
        assert not isinstance(info.value, InfeasibleDesignError)

    @pytest.mark.parametrize("n_max", [0, 2.5, 2**53 + 1, 10**400])
    def test_rejects_a_size_cap_that_is_not_a_count(self, n_max):
        with pytest.raises(ValueError, match="n_max must be"):
            find_three_outcome_design(**CONSTRAINTS, n_max=n_max)

    def test_unattainable_constraints_reported(self):
        with pytest.raises(InfeasibleDesignError, match="no feasible"):
            find_three_outcome_design(0.2, 0.21, 0.05, 0.1, 0.8, 0.9, n_max=30)

    def test_tightening_constraints_never_shrinks_the_trial(self):
        base = find_three_outcome_design(n_max=100, **CONSTRAINTS).n
        tighter_alpha = find_three_outcome_design(
            0.075, 0.275, 0.025, 0.1, 0.8, 0.9, n_max=100
        ).n
        tighter_beta = find_three_outcome_design(
            0.075, 0.275, 0.05, 0.05, 0.8, 0.9, n_max=100
        ).n
        higher_eta = find_three_outcome_design(
            0.075, 0.275, 0.05, 0.1, 0.9, 0.9, n_max=100
        ).n
        higher_pi = find_three_outcome_design(
            0.075, 0.275, 0.05, 0.1, 0.8, 0.95, n_max=100
        ).n
        assert min(tighter_alpha, tighter_beta, higher_eta, higher_pi) >= base

    def test_search_matches_exhaustive_oracle(self):
        # rational-arithmetic re-derivation of the minimal feasible size
        p0, p1 = Fraction(75, 1000), Fraction(275, 1000)
        expected = None
        for n in range(1, 40):
            found = []
            for r_go in range(2, n + 1):
                if exact_tail(n, p0, r_go) > Fraction(5, 100):
                    continue
                if exact_tail(n, p1, r_go) < Fraction(9, 10):
                    continue
                for r_nogo in range(0, r_go - 1):
                    if 1 - exact_tail(n, p1, r_nogo + 1) > Fraction(1, 10):
                        continue
                    if 1 - exact_tail(n, p0, r_nogo + 1) < Fraction(8, 10):
                        continue
                    found.append((r_nogo, r_go))
            if found:
                expected = (n, min(found, key=lambda pair: (pair[1], -pair[0])))
                break
        design = find_three_outcome_design(n_max=100, **CONSTRAINTS)
        assert expected == (design.n, (design.r_nogo, design.r_go))


PROPERTY = settings(derandomize=True, deadline=None)


def exact_cut_tails(n, p):
    """Numerators of P(R >= r) and P(R < r) for r in [0, n + 1], exactly,
    over the common denominator they share, for the float rate p."""
    num, den = p.as_integer_ratio()
    terms = [math.comb(n, k) * num**k * (den - num) ** (n - k) for k in range(n + 1)]
    total = den**n
    at_least = [0] * (n + 2)
    for r in range(n, -1, -1):
        at_least[r] = at_least[r + 1] + terms[r]
    return at_least, [total - a for a in at_least], total


NEAR_TIE = "near tie"


def exact_search(p0, p1, alpha, beta, eta, pi, n_max):
    """(n, r_nogo, r_go) of the smallest feasible design in exact
    arithmetic, None when there is none, or NEAR_TIE when a constraint lies
    within 1e-9 relative of a probability attained at a scanned size."""
    for n in range(1, n_max + 1):
        go0, nogo0, total0 = exact_cut_tails(n, p0)
        go1, nogo1, total1 = exact_cut_tails(n, p1)

        def compare(tails, total, bound):
            # Sign of tail - bound at every cut point, or None near a tie.
            b_num, b_den = bound.as_integer_ratio()
            signs = []
            for tail in tails:
                diff = tail * b_den - b_num * total
                if abs(diff) * 10**9 <= b_num * total:
                    return None
                signs.append(diff > 0)
            return signs

        above = [
            compare(go0, total0, alpha), compare(go1, total1, pi),
            compare(nogo1, total1, beta), compare(nogo0, total0, eta),
        ]
        if None in above:
            return NEAR_TIE
        go0_above, go1_above, nogo1_above, nogo0_above = above
        pairs = [
            (r_nogo, r_go)
            for r_go in range(2, n + 1)
            if not go0_above[r_go] and go1_above[r_go]
            for r_nogo in range(r_go - 1)
            if not nogo1_above[r_nogo + 1] and nogo0_above[r_nogo + 1]
        ]
        if pairs:
            r_nogo, r_go = min(pairs, key=lambda pair: (pair[1], -pair[0]))
            return n, r_nogo, r_go
    return None


@st.composite
def constraint_sets(draw):
    p0 = draw(st.floats(0.02, 0.5))
    return dict(
        p0=p0, p1=draw(st.floats(p0 + 0.1, min(0.95, p0 + 0.5))),
        alpha=draw(st.floats(0.01, 0.25)), beta=draw(st.floats(0.02, 0.3)),
        eta=draw(st.floats(0.4, 0.95)), pi=draw(st.floats(0.4, 0.95)),
    )


class TestSearchProperties:
    @PROPERTY
    @given(constraint_sets())
    def test_search_matches_exact_rational_search(self, constraints):
        n_max = 40
        expected = exact_search(n_max=n_max, **constraints)
        assume(expected != NEAR_TIE)
        try:
            design = find_three_outcome_design(n_max=n_max, **constraints)
        except InfeasibleDesignError:
            assert expected is None
        else:
            assert (design.n, design.r_nogo, design.r_go) == expected

    @PROPERTY
    @given(st.integers(2, 60), st.floats(0.02, 0.5), st.floats(0.1, 0.45), st.data())
    def test_listed_pairs_are_the_feasible_ones_at_attained_constraints(self, n, p0, gap, data):
        # Constraints set to the probabilities one design attains put every
        # comparison of that design on a tie.
        r_nogo = data.draw(st.integers(0, n - MIN_BOUNDARY_GAP))
        r_go = data.draw(st.integers(r_nogo + MIN_BOUNDARY_GAP, n))
        rates = dict(p0=p0, p1=p0 + gap)
        attained = ThreeOutcomeDesign(
            n=n, r_go=r_go, r_nogo=r_nogo, alpha=0.5, beta=0.5, eta=0.5, pi=0.5, **rates
        ).constraint_values()
        constraints = dict(
            alpha=attained["go_under_p0"], beta=attained["nogo_under_p1"],
            eta=attained["nogo_under_p0"], pi=attained["go_under_p1"], **rates,
        )
        assume(all(0.0 < value < 1.0 for value in constraints.values()))
        feasible = [
            (rn, rg)
            for rg in range(MIN_BOUNDARY_GAP, n + 1)
            for rn in range(rg - MIN_BOUNDARY_GAP + 1)
            if ThreeOutcomeDesign(n=n, r_go=rg, r_nogo=rn, **constraints).is_feasible()
        ]
        assert (r_nogo, r_go) in feasible
        assert feasible_pairs(n, **constraints) == feasible
