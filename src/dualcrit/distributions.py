"""Probability primitives for design calculations.

Standard normal CDF (``math.erfc``) and quantile (``NormalDist.inv_cdf``,
Wichura's AS241), the regularized incomplete beta function with its
inverse, and the binomial upper tail read from one incomplete beta. Only
the three families the designs need; this is not a general distribution
library. The binomial pmf is the simulation oracle's, and no analytic
probability reads it.

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
# near the mean it needs up to about 0.8 * sqrt(max(a, b)) terms, so at
# most about 250 within the shape cap.
_CF_EPS = 1e-15
_CF_FPMIN = 1e-300
_CF_MAX_ITER = 500
# The largest power of ten at which beta_cdf stays within 1e-9 of a 30-digit
# evaluation (worst seen 3.2e-10; 1.7e-9 at 1e6): the lgamma differences of
# its front factor lose about shape * log(shape) * 2**-53.
_MAX_SHAPE = 1e5
# Integers above this do not all convert to float exactly.
_MAX_COUNT = 2**53
# Text is not a number, though float() parses it; an int comparison fails
# on it without naming the input. Every check refuses it first.
_TEXT = (str, bytes, bytearray)


@dataclass(frozen=True, slots=True)
class BetaParams:
    """Shape parameters (a, b) of a Beta distribution, both positive."""

    a: float
    b: float

    def __post_init__(self):
        check_positive(self.a, "beta shape a")
        check_positive(self.b, "beta shape b")
        if max(self.a, self.b) > _MAX_SHAPE:
            raise ValueError(
                f"beta shapes must be at most {_MAX_SHAPE:g}, got ({self.a}, {self.b})"
            )

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)


def _not_one_number(value, name: str) -> TypeError:
    """The error of an input ``name`` that is not one number."""
    return TypeError(f"{name} takes a single number, got {type(value).__name__}")


def _scalar(value, name: str) -> float:
    """``value``, the input ``name``, as a float. An integer past the float
    range is an infinity of its sign, which the caller's range check then
    refuses by name, as it refuses 1e400; a sequence, an array or text
    (``'2'`` or ``b'2'``) is a TypeError naming ``name``, since each input
    is one number."""
    if isinstance(value, _TEXT):
        raise _not_one_number(value, name)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except TypeError:
        raise _not_one_number(value, name) from None


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` lies in [0, 1] and return it as a float."""
    value = _scalar(value, name)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_open_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` lies strictly inside (0, 1)."""
    value = _scalar(value, name)
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie strictly in (0, 1), got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is positive and finite and return it as a float."""
    value = _scalar(value, name)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_integer(value, name: str, most: int) -> int:
    """Validate an integer in [0, most] and return it as an int. The range
    is checked first: int() of an infinity or a NaN raises."""
    if isinstance(value, _TEXT):
        raise _not_one_number(value, name)
    if not 0 <= value <= most or value != int(value):
        raise ValueError(f"{name} must be an integer in [0, {most}], got {value}")
    return int(value)


def check_count(value, name: str, least: int = 1) -> int:
    """Validate an integer count of at least ``least`` (0 or 1), at most
    2**53 so that it converts to float exactly, and return it as an int."""
    if isinstance(value, _TEXT):
        raise _not_one_number(value, name)
    if not least <= value < math.inf or value != int(value):
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value}")
    if value > _MAX_COUNT:
        raise ValueError(f"{name} must be at most 2**53, got {value}")
    return int(value)


def check_trials(n, name: str, prior: BetaParams | None = None) -> int:
    """Validate a number of binomial trials whose tails, and posteriors
    under ``prior``, keep every Beta shape within the accurate range."""
    n = check_count(n, name)
    most = math.floor(_MAX_SHAPE - (max(prior.a, prior.b) if prior else 0.0))
    if n > most:
        raise ValueError(f"{name} must be at most {most} so that Beta shapes stay within {_MAX_SHAPE:g}, got {n}")
    return n


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


def binomial_pmf(n: int, p: float, k: int) -> float:
    """P(R = k) for R ~ Binomial(n, p), evaluated in log space."""
    check_count(n, "number of trials")
    p = check_probability(p, "success probability")
    check_integer(k, "k", n)
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    log_choose = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )
    return math.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_tail(n: int, p: float, r: int) -> float:
    """Upper tail P(R >= r) for R ~ Binomial(n, p), from one incomplete
    beta: P(R >= r) = I_p(r, n - r + 1) (Abramowitz & Stegun 26.5.24).

    Accepts r in [0, n+1]; r = 0 gives 1 and r = n+1 gives 0. The lower
    tail P(R < r) is ``binomial_tail(n, 1 - p, n + 1 - r)``.
    """
    check_trials(n, "number of trials")
    p = check_probability(p, "success probability")
    check_integer(r, "r", n + 1)
    if r == 0:
        return 1.0
    if r == n + 1:
        return 0.0
    return beta_cdf(BetaParams(r, n - r + 1), p)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny, eps = _CF_FPMIN, _CF_EPS
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -tiny < d < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if -tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if -tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -eps < delta - 1.0 < eps:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for "
        f"a={a}, b={b}, x={x}"
    )


def beta_cdf(shape: BetaParams, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    x = _scalar(x, "beta_cdf")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"beta_cdf requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    a, b = shape.a, shape.b
    if x == 0.5 and a == b:
        # I_{1/2}(a, a) = 1/2 by symmetry, exactly: the continued fraction
        # would miss by a few ulps either way and split exact median ties.
        return 0.5
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
    x = _scalar(x, "beta_pdf")
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
