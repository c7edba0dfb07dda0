"""Shared numeric kernels: compensated summation, the arithmetic the
series loops run in, accurate log(1-w), geometric-dominance tail bounds,
and Euler-Maclaurin Dirichlet tails.

Everything here is stated once and reused by the series and product
evaluators, in every dimension.
"""
from __future__ import annotations

import cmath
import contextlib
import math
from fractions import Fraction

# Smallest positive bound reported instead of 0.0 when an underflowed
# tail is known to be far below representable magnitudes.
TINY_BOUND = 1e-300

# B_2, B_4, ..., B_14 as exact rationals.
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
)


class KahanSum:
    """Compensated accumulator for float, complex or mpmath terms.

    One Kahan update on whole values; complex arithmetic applies it to
    the real and imaginary parts separately, so long sums stay accurate
    to a few ulp of the running magnitude in each part.
    """

    __slots__ = ("value", "_comp")

    def __init__(self, start=0j) -> None:
        # start: the zero of the arithmetic the terms are summed in
        self.value = self._comp = start

    def add(self, term) -> None:
        y = term - self._comp
        t = self.value + y
        self._comp = (t - self.value) - y
        self.value = t


class _Double:
    """Double precision under the names of mpmath's mp context that the
    series loops use, so one loop serves both arithmetics."""

    mpf = float
    mpc = complex
    exp = cmath.exp
    log = math.log
    pi = math.pi

    @staticmethod
    def workdps(dps):
        return contextlib.nullcontext()


def arithmetic(dps):
    """_Double for dps None, else mpmath's mp context, imported on first
    use (callers enter ctx.workdps(dps) around the computation)."""
    if dps is None:
        return _Double
    from mpmath import mp

    return mp


def log1m(w: complex) -> complex:
    """log(1 - w) on the principal branch, accurate for small |w|.

    1 - w rounds once |w| nears machine epsilon, so below |w| = 1e-4 this
    sums -(w + w^2/2 + ... + w^d/d) to the first degree d whose dropped
    part, at most |w|^d/(d+1) relative, is under u/4 (u = 2^-53). Each
    tier ends at ((d+1) u/4)^(1/d), rounded down; degree 4 holds to 1.08e-4.
    """
    a = abs(w)
    if a < 9.1e-9:
        return -w if a < 5.5e-17 else -w * (1 + w * 0.5)
    if a < 4.8e-6:
        return -w * (1 + w * (1 / 2 + w * (1 / 3)))
    if a < 1e-4:
        return -w * (1 + w * (1 / 2 + w * (1 / 3 + w * (1 / 4))))
    return cmath.log(1 - w)


def power_geometric_tail(cap: int, p: float, r: float) -> float:
    """Upper bound on sum_{d > cap} d^p * r^d for 0 <= r < 1, p >= 0.

    Past the peak of d^p r^d the term ratio is at most
    q = ((cap + 2)/(cap + 1))^p * r, so the tail is dominated by the
    geometric series t0 * (1 + q + q^2 + ...) with t0 the first dropped
    term. Returns inf when q >= 1 (cap not yet past the peak) or when
    the bound is past the float range; the caller then increases cap.
    """
    if r < 0 or r >= 1:
        raise ValueError("r must lie in [0, 1)")
    if r == 0.0:
        return 0.0
    q = (1.0 + 1.0 / (cap + 1)) ** p * r
    if q >= 1.0:
        return math.inf
    # Log-space first term avoids overflow of (cap+1)^p at large p.
    log_t0 = p * math.log(cap + 1) + (cap + 1) * math.log(r)
    if log_t0 < -740.0:
        return TINY_BOUND
    # exp(log(...)) can land an ulp under the exact tail; inflate so the
    # result stays a true upper bound (|log_t0| <= 740 keeps the
    # round-trip relative error well under 1e-12).
    try:
        return math.exp(log_t0) / (1.0 - q) * (1.0 + 1e-12) + TINY_BOUND
    except OverflowError:
        return math.inf


def first_within(bound, tol: float, start: int, stop: int):
    """(k, bound(k)) for the first k >= start with bound(k) <= tol, or None
    when no k <= stop qualifies.

    bound must be inf before some index and nonincreasing after it, as
    power_geometric_tail and the bounds built on it are. A doubling
    search from start brackets the index and a bisection finds it, so
    the answer is the one a scan of every k would give, after about
    2 log2(k) evaluations.
    """
    lo, hi = start - 1, start
    while (value := bound(hi)) > tol:
        if hi >= stop:
            return None
        lo, hi = hi, min(2 * hi, stop)
    # bound(lo) > tol >= bound(hi) = value
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_value = bound(mid)
        if mid_value <= tol:
            hi, value = mid, mid_value
        else:
            lo = mid
    return hi, value


def dirichlet_tail(s, start: int):
    """(value, remainder_bound) for sum_{k >= start} k^-s with real s > 1,
    computed in the arithmetic of s (float or mpf).

    Euler-Maclaurin: integral term, half term, then Bernoulli correction
    terms through B_12. The remainder bound is the magnitude of the
    first omitted correction, the B_14 one (the classical
    alternating-remainder result for real s).
    """
    if start < 1:
        raise ValueError("start must be >= 1")
    if not s > 1:
        raise ValueError("dirichlet_tail requires s > 1")
    n = type(s)(start)
    val = n ** (1 - s) / (s - 1) + 0.5 * n ** -s
    poch = s
    *corrections, omitted = (type(s)(b.numerator) / b.denominator for b in _BERNOULLI)
    for j, b2j in enumerate(corrections, 1):
        val += b2j / math.factorial(2 * j) * poch * n ** (-s - 2 * j + 1)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    m = len(corrections)
    rem = abs(omitted) / math.factorial(2 * m + 2) * poch * n ** (-s - 2 * m - 1)
    return val, rem


def require_finite(value: complex, where: str) -> complex:
    """Raise ComputationError if a non-finite value is about to escape."""
    from .errors import ComputationError

    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ComputationError(f"non-finite value in {where}: {value!r}")
    return value
