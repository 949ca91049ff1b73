"""Reference values computed apart from the program under test.

Nothing here imports dualcrit. Normal-model quantities use ``math.erfc``
and ``statistics.NormalDist``; Beta-binomial quantities use ``mpmath`` at
30 digits, or ``scipy.special.betainc`` (an implementation independent of
the program's continued fraction) for long scans, re-deciding with mpmath
any comparison that lies within ``TIE`` of its threshold.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

import mpmath
from scipy.special import betainc

mpmath.mp.dps = 30

# A posterior quantity or size this close to its threshold may be decided
# either way by float rounding; such cases are excused and counted.
TIE = 1e-9
# Absolute tolerance for probabilities: the program computes some NO-GO
# tails as 1 - Phi(x), which keeps absolute but not relative accuracy.
PROB_TOL = 1e-9

_NORMAL = NormalDist()


def monotone(values, increasing: bool) -> bool:
    """True when ``values`` never move against ``increasing`` by more than
    PROB_TOL. The property holds in exact arithmetic; the program's
    probabilities carry float rounding (P(GO) near 1 can dip by a few
    1e-15 between grid points), and each value is already held to PROB_TOL."""
    pairs = zip(values, values[1:])
    if increasing:
        return all(b >= a - PROB_TOL for a, b in pairs)
    return all(b <= a + PROB_TOL for a, b in pairs)


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_ppf(p: float) -> float:
    return _NORMAL.inv_cdf(p)


# ---------------------------------------------------------------- time to event

def tte_threshold(alpha, null_hr, sigma, n):
    return null_hr * math.exp(-norm_ppf(1.0 - alpha) * sigma / math.sqrt(n))


def tte_dual_oc(alpha, null_hr, decision_hr, sigma, n, true_hr):
    s = sigma / math.sqrt(n)
    t_sig = tte_threshold(alpha, null_hr, sigma, n)
    lo, hi = min(decision_hr, t_sig), max(decision_hr, t_sig)
    p_go = norm_cdf((math.log(lo) - math.log(true_hr)) / s)
    p_nogo = norm_cdf((math.log(true_hr) - math.log(hi)) / s)
    return (p_go, p_nogo, 1.0 - p_go - p_nogo)


def tte_standard_oc(alpha, null_hr, sigma, n, true_hr):
    s = sigma / math.sqrt(n)
    p_go = norm_cdf((math.log(tte_threshold(alpha, null_hr, sigma, n)) - math.log(true_hr)) / s)
    return (p_go, 1.0 - p_go, 0.0)


def _ceil_size(real_n: float):
    """Smallest integer at or above a real-valued size, and whether the size
    sits within ``TIE`` (relative) of an integer, where rounding may go
    either way."""
    nearest = round(real_n)
    return math.ceil(real_n), abs(real_n - nearest) <= TIE * max(1.0, real_n)


def tte_min_events(alpha, null_hr, decision_hr, sigma):
    z = norm_ppf(1.0 - alpha)
    return _ceil_size((sigma * z / (math.log(null_hr) - math.log(decision_hr))) ** 2)


def tte_standard_events(alpha, beta, null_hr, alt_hr, sigma):
    z = norm_ppf(1.0 - alpha) + norm_ppf(1.0 - beta)
    return _ceil_size((sigma * z / (math.log(null_hr) - math.log(alt_hr))) ** 2)


def tte_precision_events(factor, level, sigma):
    real_n = (norm_ppf(0.5 * (1.0 + level)) * sigma / math.log(factor)) ** 2
    half = math.floor(real_n) + 0.5
    return max(1, math.floor(real_n + 0.5)), abs(real_n - half) <= TIE * max(1.0, real_n)


def tte_decision(alpha, null_hr, decision_hr, sigma, n, estimate):
    """(significant, relevant, excused) for an observed HR estimate."""
    t_sig = tte_threshold(alpha, null_hr, sigma, n)
    return estimate <= t_sig, estimate <= decision_hr, abs(estimate - t_sig) <= TIE * t_sig


# ---------------------------------------------------------------- binary, exact

def beta_cdf_mp(a, b, x):
    return mpmath.betainc(a, b, 0, x, regularized=True)


def beta_pdf_mp(a, b, x):
    x = mpmath.mpf(x)
    return x ** (a - 1) * (1 - x) ** (b - 1) / mpmath.beta(a, b)


def binom_pmf_mp(n, p, k):
    p = mpmath.mpf(p)
    return mpmath.binomial(n, k) * p**k * (1 - p) ** (n - k)


@lru_cache(maxsize=None)
def binary_decisions(prior_a, prior_b, null_orr, sig_prob, decision_orr, n):
    """Per responder count r: (significant, relevant, excused), by mpmath."""
    out = []
    for r in range(n + 1):
        a, b = prior_a + r, prior_b + n - r
        prob_positive = 1 - beta_cdf_mp(a, b, null_orr)
        cdf_at_dv = beta_cdf_mp(a, b, decision_orr)
        out.append(
            (
                bool(prob_positive >= sig_prob),
                bool(cdf_at_dv <= 0.5),
                bool(abs(prob_positive - sig_prob) < TIE or abs(cdf_at_dv - 0.5) < TIE),
            )
        )
    return tuple(out)


def binary_min_responders(decisions):
    for r, (sig, rel, _) in enumerate(decisions):
        if sig and rel:
            return r
    return None


@lru_cache(maxsize=None)
def binary_oc(prior_a, prior_b, null_orr, sig_prob, decision_orr, n, true_orr):
    """Exact (p_go, p_nogo, p_inconclusive) by summing the binomial pmf over
    the counts each decision covers; None when a count was excused."""
    decisions = binary_decisions(prior_a, prior_b, null_orr, sig_prob, decision_orr, n)
    if any(excused for _, _, excused in decisions):
        return None
    go = nogo = mpmath.mpf(0)
    for r, (sig, rel, _) in enumerate(decisions):
        pmf = binom_pmf_mp(n, true_orr, r)
        if sig and rel:
            go += pmf
        elif not sig and not rel:
            nogo += pmf
    return (float(go), float(nogo), float(1 - go - nogo))


@lru_cache(maxsize=None)
def binary_min_sample_size(prior_a, prior_b, null_orr, sig_prob, decision_orr, n_max):
    """Smallest n from which relevance implies significance at every size up
    to n_max, and whether any comparison stayed within TIE of its threshold
    after mpmath re-decided it (excused). Raises ValueError when no
    conclusive size exists."""
    excused = False

    def relevant(n, r):
        a, b = prior_a + r, prior_b + n - r
        value = float(betainc(a, b, decision_orr))
        if abs(value - 0.5) <= 1e-8:
            exact = beta_cdf_mp(a, b, decision_orr)
            return bool(exact <= 0.5), abs(exact - 0.5) < TIE
        return value <= 0.5, False

    def significant(n, r):
        a, b = prior_a + r, prior_b + n - r
        value = 1.0 - float(betainc(a, b, null_orr))
        if abs(value - sig_prob) <= 1e-8:
            exact = 1 - beta_cdf_mp(a, b, null_orr)
            return bool(exact >= sig_prob), abs(exact - sig_prob) < TIE
        return value >= sig_prob, False

    last_failure = 0
    for n in range(1, n_max + 1):
        # The smallest relevant count; relevance is monotone in r, so bisect.
        lo, hi = 0, n + 1
        while lo < hi:
            mid = (lo + hi) // 2
            ok, tie = relevant(n, mid)
            excused |= tie
            if ok:
                hi = mid
            else:
                lo = mid + 1
        if lo == n + 1:
            last_failure = n
            continue
        ok, tie = significant(n, lo)
        excused |= tie
        if not ok:
            last_failure = n
    if last_failure == n_max:
        raise ValueError("no conclusive size")
    return last_failure + 1, excused


# ---------------------------------------------------------------- three outcome

def _pmf_float(n, p):
    return [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]


def three_outcome_probs_mp(n, r_nogo, r_go, p):
    pmf = [binom_pmf_mp(n, p, k) for k in range(n + 1)]
    go = mpmath.fsum(pmf[r_go:])
    nogo = mpmath.fsum(pmf[: r_nogo + 1])
    return go, nogo, 1 - go - nogo


def three_outcome_oc(n, r_nogo, r_go, p):
    return tuple(float(v) for v in three_outcome_probs_mp(n, r_nogo, r_go, p))


def three_outcome_constraints(n, r_nogo, r_go, p0, p1, alpha, beta, eta, pi):
    """The four constraints at one design, by mpmath: (all hold, any tie)."""
    go0, nogo0, _ = three_outcome_probs_mp(n, r_nogo, r_go, p0)
    go1, nogo1, _ = three_outcome_probs_mp(n, r_nogo, r_go, p1)
    values = ((go0, alpha, go0 <= alpha), (nogo1, beta, nogo1 <= beta),
              (nogo0, eta, nogo0 >= eta), (go1, pi, go1 >= pi))
    holds = all(ok for _, _, ok in values)
    tie = any(abs(v - t) < TIE for v, t, _ in values)
    return holds, tie


def three_outcome_pairs(n, p0, p1, alpha, beta, eta, pi, min_gap=2):
    """Every (r_nogo, r_go) at size n meeting the four constraints, with
    r_go - r_nogo >= min_gap, by float binomial sums over math.comb; and
    whether any constraint lay within 1e-8 of its bound."""
    pmf0, pmf1 = _pmf_float(n, p0), _pmf_float(n, p1)
    cdf0 = [math.fsum(pmf0[: k + 1]) for k in range(n + 1)]
    cdf1 = [math.fsum(pmf1[: k + 1]) for k in range(n + 1)]
    tail0 = [math.fsum(pmf0[k:]) for k in range(n + 1)]
    tail1 = [math.fsum(pmf1[k:]) for k in range(n + 1)]
    near = [abs(v - t) <= 1e-8 for vs, t in ((tail0, alpha), (tail1, pi), (cdf1, beta), (cdf0, eta))
            for v in vs]
    pairs = [
        (r_nogo, r_go)
        for r_go in range(min_gap, n + 1)
        if tail0[r_go] <= alpha and tail1[r_go] >= pi
        for r_nogo in range(r_go - min_gap + 1)
        if cdf1[r_nogo] <= beta and cdf0[r_nogo] >= eta
    ]
    return pairs, any(near)


@lru_cache(maxsize=None)
def three_outcome_search(p0, p1, alpha, beta, eta, pi, n_max):
    """Smallest n with a feasible pair; among its pairs the smallest r_go,
    then the largest r_nogo. Returns ((n, r_nogo, r_go) or None, tie)."""
    tie = False
    for n in range(1, n_max + 1):
        pairs, near = three_outcome_pairs(n, p0, p1, alpha, beta, eta, pi)
        tie |= near
        if pairs:
            r_nogo, r_go = min(pairs, key=lambda pair: (pair[1], -pair[0]))
            return (n, r_nogo, r_go), tie
    return None, tie


# ---------------------------------------------------------------- Monte Carlo

# Per-cell false-alarm probability of the simulated-count check.
MC_EPS = 1e-9


def mc_limit(n: int, p: float) -> float:
    """Largest |count - n p| that chance alone exceeds with probability at
    most MC_EPS, by Bernstein's inequality for a sum of n Bernoulli(p):
    P(|X - np| >= t) <= 2 exp(-t^2 / (2 (n p (1-p) + t/3))). About 6.5
    standard errors for large counts, wider for expected counts near 0."""
    log_term = math.log(2.0 / MC_EPS)
    var = n * p * (1.0 - p)
    return log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * log_term * var)


def within_mc(counts, n, probs) -> bool:
    return all(abs(c - n * p) <= mc_limit(n, min(max(p, 0.0), 1.0)) for c, p in zip(counts, probs))


def gate_3se(probs, sim_probs, n) -> bool:
    """The 3-standard-error rule the program's gate applies, recomputed."""
    return all(abs(p - q) <= 3.0 * math.sqrt(p * (1.0 - p) / n) for p, q in zip(probs, sim_probs))
