"""Shared numeric kernels: compensated summation, accurate log(1-w),
geometric-dominance tail bounds, and Euler-Maclaurin Dirichlet tails.

Everything here is stated once and reused by the series and product
evaluators, in every dimension.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

# Smallest positive bound reported instead of 0.0 when an underflowed
# tail is known to be far below representable magnitudes.
TINY_BOUND = 1e-300

# B_2, B_4, ..., B_16 as exact rationals.
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
)


class KahanSum:
    """Compensated accumulator for complex terms.

    Keeps separate error terms for the real and imaginary components so
    that long sums stay accurate to a few ulp of the running magnitude.
    """

    __slots__ = ("_re", "_im", "_cre", "_cim")

    def __init__(self) -> None:
        self._re = 0.0
        self._im = 0.0
        self._cre = 0.0
        self._cim = 0.0

    def add(self, term: complex) -> None:
        y = term.real - self._cre
        t = self._re + y
        self._cre = (t - self._re) - y
        self._re = t
        y = term.imag - self._cim
        t = self._im + y
        self._cim = (t - self._im) - y
        self._im = t

    @property
    def value(self) -> complex:
        return complex(self._re, self._im)


def log1m(w: complex) -> complex:
    """log(1 - w) on the principal branch, accurate for small |w|.

    Direct evaluation of log(1 - w) loses absolute accuracy once |w|
    approaches machine epsilon because 1 - w rounds; with polynomial
    weights on the product terms that noise is amplified, so small
    arguments take a short series instead. The series length gives
    relative error below |w|^8, i.e. under 1e-32 at the cutoff.
    """
    if abs(w) < 1e-4:
        # -(w + w^2/2 + ... + w^8/8) in Horner form; 1/3 etc. fold to constants
        return -w * (1 + w * (1 / 2 + w * (1 / 3 + w * (1 / 4 + w * (
            1 / 5 + w * (1 / 6 + w * (1 / 7 + w * (1 / 8))))))))
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


def dirichlet_tail(s: float, start: int, corrections: int = 6):
    """(value, remainder_bound) for sum_{k >= start} k^-s with real s > 1.

    Euler-Maclaurin: integral term, half term, then `corrections`
    Bernoulli correction terms. The remainder bound is the magnitude of
    the first omitted correction (the classical alternating-remainder
    result for real s).
    """
    if start < 1:
        raise ValueError("start must be >= 1")
    sr = float(s)
    if sr <= 1.0:
        raise ValueError("dirichlet_tail requires s > 1")
    n = float(start)
    val = complex(n ** (1.0 - sr) / (sr - 1.0) + 0.5 * n ** (-sr))
    poch = sr
    for j in range(1, corrections + 1):
        b2j = float(_BERNOULLI[j - 1])
        val += complex(b2j / math.factorial(2 * j) * poch * n ** (-sr - 2 * j + 1))
        poch *= (sr + 2 * j - 1) * (sr + 2 * j)
    m = corrections
    rem = abs(float(_BERNOULLI[m])) / math.factorial(2 * m + 2) * poch * n ** (-sr - 2 * m - 1)
    return val, rem


def require_finite(value: complex, where: str) -> complex:
    """Raise ComputationError if a non-finite value is about to escape."""
    from .errors import ComputationError

    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ComputationError(f"non-finite value in {where}: {value!r}")
    return value
