"""Probability primitives for design calculations.

Standard normal CDF (``math.erfc``) and quantile (``NormalDist.inv_cdf``,
Wichura's AS241), the parts of a binomial or normal statistic beyond two
cut points, and the regularized incomplete beta function with its inverse.
Only the three families the designs need; this is not a general
distribution library.

Everything here takes and returns scalars and runs on the standard
library, so no design calculation loads numpy; the simulation oracle is
the only code that works on arrays.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()

# Continued-fraction evaluation limits for the incomplete beta function;
# near the mean it needs about 0.4 * sqrt(max(a, b)) terms.
_CF_EPS = 1e-15
_CF_FPMIN = 1e-300
_CF_MIN_ITER = 500
# Beyond this the continued fraction's products of shapes overflow.
_MAX_SHAPE = 1e150
# Integers above this do not all convert to float exactly.
_MAX_COUNT = 2**53


@dataclass(frozen=True, slots=True)
class BetaParams:
    """Shape parameters (a, b) of a Beta distribution, both positive."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"beta shape a must be positive, got {self.a}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"beta shape b must be positive, got {self.b}")
        if max(self.a, self.b) > _MAX_SHAPE:
            raise ValueError(
                f"beta shapes must be at most {_MAX_SHAPE:g}, got ({self.a}, {self.b})"
            )

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` lies in [0, 1] and return it as a float."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_open_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` lies strictly inside (0, 1)."""
    value = float(value)
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie strictly in (0, 1), got {value}")
    return value


def check_count(value, name: str, least: int = 1) -> int:
    """Validate an integer count of at least ``least`` (0 or 1), at most
    2**53 so that it converts to float exactly, and return it as an int."""
    if not least <= value < math.inf or value != int(value):
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value}")
    if value > _MAX_COUNT:
        raise ValueError(f"{name} must be at most 2**53, got {value}")
    return int(value)


def _scalar(value, name: str) -> float:
    """``value`` as a float; a sequence or an array is a TypeError naming
    the function, since these functions take one number at a time."""
    try:
        return float(value)
    except TypeError:
        raise TypeError(f"{name} takes a single number, got {type(value).__name__}") from None


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF, built on erfc so both tails keep full relative
    accuracy."""
    x = _scalar(x, "std_normal_cdf")
    if not math.isfinite(x):
        raise ValueError("std_normal_cdf requires finite input")
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse of ``std_normal_cdf`` for 0 < p < 1.

    Wichura's AS241 rational approximations, with full relative accuracy in
    both tails, down to the smallest positive doubles. Take an upper
    quantile as minus the lower one, ``-std_normal_quantile(alpha)``: the
    argument ``1 - alpha`` would already be rounded.
    """
    p = _scalar(p, "std_normal_quantile")
    if not 0.0 < p < 1.0:
        raise ValueError("std_normal_quantile requires 0 < p < 1")
    return _STD_NORMAL.inv_cdf(p)


def _check_binomial_args(n: int, p: float) -> float:
    check_count(n, "number of trials")
    return check_probability(p, "success probability")


def binomial_pmf(n: int, p: float, k: int) -> float:
    """P(R = k) for R ~ Binomial(n, p), evaluated in log space."""
    p = _check_binomial_args(n, p)
    if not 0 <= k <= n or k != int(k):
        raise ValueError(f"k must be an integer in [0, {n}], got {k}")
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    log_choose = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )
    return math.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_tail(n: int, p: float, r: int) -> float:
    """Upper tail P(R >= r) for R ~ Binomial(n, p).

    Accepts r in [0, n+1]; r = 0 gives 1 and r = n+1 gives 0.
    """
    if not 0 <= r <= n + 1 or r != int(r):
        raise ValueError(f"r must be an integer in [0, {n + 1}], got {r}")
    tail = binomial_cut_probs(n, p, 0, r)[0]
    return 1.0 if r == 0 else tail


def _part(pmf: list[float]) -> float:
    # fsum keeps tail(r) - tail(r + 1) == pmf(r) to a couple of ulps even
    # for n ~ 1e4; a part holding nearly all the mass is capped at 1.
    return min(1.0, math.fsum(pmf))


def binomial_cut_probs(n: int, p: float, lo: int, hi: int) -> tuple[float, float, float]:
    """(P(R >= hi), P(R < lo), P(lo <= R < hi)) for R ~ Binomial(n, p).

    The three outcomes of a rule with cut points 0 <= lo <= hi <= n + 1 on
    the count: GO at or above hi, NO-GO below lo, inconclusive between.
    Each part is summed from the pmf, so a small part keeps its relative
    accuracy instead of flushing to zero as a difference from 1 would.
    """
    p = _check_binomial_args(n, p)
    if not 0 <= lo <= hi <= n + 1 or lo != int(lo) or hi != int(hi):
        raise ValueError(f"cut points must be whole numbers with 0 <= lo <= hi <= {n + 1}, got {lo}, {hi}")
    lo, hi = int(lo), int(hi)
    pmf = [binomial_pmf(n, p, k) for k in range(n + 1)]
    return _part(pmf[hi:]), _part(pmf[:lo]), _part(pmf[lo:hi])


def binomial_tails(n: int, p: float):
    """The GO and NO-GO parts of ``binomial_cut_probs`` as functions of one
    cut point r in [0, n + 1]: r -> P(R >= r) and r -> P(R < r), one pmf."""
    pmf = [binomial_pmf(n, p, k) for k in range(n + 1)]
    return (lambda r: _part(pmf[r:])), (lambda r: _part(pmf[:r]))


def normal_cut_probs(mean: float, se: float, lo: float, hi: float) -> tuple[float, float, float]:
    """(P(X >= hi), P(X < lo), P(lo <= X < hi)) for X ~ Normal(mean, se).

    Each tail is one CDF value and keeps its relative accuracy. The middle
    part is the difference of the two tails on the side of the mean where
    both are small, or 1 minus both where the cuts straddle the mean and
    neither exceeds 1/2. Equal cuts give exactly 0.
    """
    if not lo <= hi:
        raise ValueError(f"cut points must satisfy lo <= hi, got {lo}, {hi}")
    # The third tail lies past the cut nearer the mean.
    near = lo if mean <= lo else hi if hi <= mean else mean
    p_go = std_normal_cdf((mean - hi) / se)
    p_nogo = std_normal_cdf((lo - mean) / se)
    p_near = std_normal_cdf(-abs(near - mean) / se)
    between = p_near - p_go if mean <= lo else p_near - p_nogo if hi <= mean else 1.0 - p_go - p_nogo
    return p_go, p_nogo, between


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, max(_CF_MIN_ITER, 2 * math.ceil(math.sqrt(max(a, b)))) + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for "
        f"a={a}, b={b}, x={x}"
    )


def beta_cdf(shape: BetaParams, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"beta_cdf requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    a, b = shape.a, shape.b
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    # Symmetry switch keeps the continued fraction in its fast-converging
    # region; essential for small shapes such as a ~ 0.08.
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_continued_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_continued_fraction(b, a, 1.0 - x) / b


def beta_pdf(shape: BetaParams, x: float) -> float:
    """Beta density at x, evaluated in log space."""
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"beta_pdf requires x in (0, 1), got {x}")
    a, b = shape.a, shape.b
    return math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + (a - 1.0) * math.log(x)
        + (b - 1.0) * math.log1p(-x)
    )


def beta_quantile(shape: BetaParams, p: float) -> float:
    """Inverse of ``beta_cdf`` in x for 0 < p < 1.

    Bracketed bisection run down to float resolution, so the returned x
    satisfies |beta_cdf(shape, x) - p| at the level of the CDF's own
    evaluation error even for strongly skewed shapes.
    """
    p = check_open_probability(p, "p")
    lo, hi = 0.0, 1.0
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if beta_cdf(shape, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
