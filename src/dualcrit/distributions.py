"""Probability primitives for design calculations.

Standard normal CDF (``erfc``) and quantile (``ndtri``), binomial tail
probabilities, and the regularized incomplete beta function with its
inverse. Only the three families the designs need; this is not a general
distribution library.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtri

_SQRT2 = math.sqrt(2.0)

# Continued-fraction evaluation limits for the incomplete beta function.
_CF_EPS = 1e-15
_CF_FPMIN = 1e-300
_CF_MAX_ITER = 500


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters (a, b) of a Beta distribution, both positive."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"beta shape a must be positive, got {self.a}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"beta shape b must be positive, got {self.b}")

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


def std_normal_cdf(x):
    """Standard normal CDF.

    Accepts a float or an ndarray and returns the same shape. Built on
    erfc so both tails keep full relative accuracy.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("std_normal_cdf requires finite input")
    out = 0.5 * erfc(-arr / _SQRT2)
    if np.ndim(x) == 0:
        return float(out)
    return out


def std_normal_quantile(p):
    """Inverse of ``std_normal_cdf`` for 0 < p < 1 (float or ndarray).

    Cephes ``ndtri``, a rational approximation with full relative
    accuracy in both tails, down to the smallest positive doubles.
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("std_normal_quantile requires 0 < p < 1")
    out = ndtri(arr)
    if np.ndim(p) == 0:
        return float(out)
    return out


def _check_binomial_args(n: int, p: float) -> float:
    if n < 1 or n != int(n):
        raise ValueError(f"number of trials must be a positive integer, got {n}")
    return check_probability(p, "success probability")


def binomial_pmf(n: int, p: float, k: int) -> float:
    """P(R = k) for R ~ Binomial(n, p), evaluated in log space."""
    p = _check_binomial_args(n, p)
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
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
    p = _check_binomial_args(n, p)
    if not 0 <= r <= n + 1:
        raise ValueError(f"r must lie in [0, {n + 1}], got {r}")
    if r == 0:
        return 1.0
    if r == n + 1:
        return 0.0
    # fsum keeps the partition identity tail(r) - tail(r+1) == pmf(r)
    # accurate to a couple of ulps even for n ~ 1e4.
    return min(1.0, math.fsum(binomial_pmf(n, p, k) for k in range(r, n + 1)))


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
    for m in range(1, _CF_MAX_ITER + 1):
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
