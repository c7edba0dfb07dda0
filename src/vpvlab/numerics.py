"""Shared numeric kernels: exact block summation, the arithmetic the
series loops run in, the shared ln k table, the smallest-prime-factor
sieve, accurate log(1-w),
geometric-dominance tail bounds, and Euler-Maclaurin Dirichlet tails.

Everything here is stated once and reused by the series and product
evaluators, in every dimension.
"""
from __future__ import annotations

import cmath
import contextlib
import math
from array import array
from fractions import Fraction
from itertools import chain, count, islice
from operator import attrgetter

# Smallest positive bound reported instead of 0.0 when an underflowed
# tail is known to be far below representable magnitudes.
TINY_BOUND = 1e-300
# Hard ceiling on summed terms per series; the ln k table grows no further.
TERM_CAP = 10_000_000
# Terms that exact_sum holds at once; each block's sum is rounded once.
_BLOCK = 1 << 12
# log1m sums its series below this |w| and calls cmath.log from it up; the
# lattice kernel sums the rows' series tails below it (products.product_log_sum).
LOG1M_SERIES_MAX = 1e-4

# Entries of smallest_prime_factors sieved at once.
_SIEVE_SEGMENT = 1 << 14
# ln k at index k (index 0 holds 0.0), grown by log_table on first need.
_LN = array("d", (0.0,))
# B_0, B_2, B_4, ... as exact rationals, grown by _bernoulli on first need.
_BERNOULLI = [Fraction(1)]
_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


def log_table(n: int) -> array:
    """An array('d') holding ln k at index k for 0 <= k <= n (index 0
    holds 0.0), each entry math.log(k).

    Up to TERM_CAP this is one shared table (8 bytes per entry) that grows
    to the largest n asked for; past it the call gets a table of its own.
    """
    if n > TERM_CAP:
        return array("d", chain((0.0,), map(math.log, range(1, n + 1))))
    if len(_LN) <= n:
        _LN.extend(map(math.log, range(len(_LN), n + 1)))
    return _LN


def smallest_prime_factors(cap: int) -> list[int]:
    """The smallest prime factor of each k in 2 .. cap, at index k.

    The sieve runs one segment of _SIEVE_SEGMENT entries at a time, so
    only one segment of fresh int objects exists at once and the peak
    stays near the list's own size. In each segment every p with
    spf[p] == p, the largest first, writes its multiples from
    max(p^2, lo) on, so the last write to k is from the least such p
    dividing k with p^2 <= k, which is prime; a prime k keeps k. Past
    the first segment those p are the primes below lo; in the first
    every p qualifies, as no larger p writes at p. _squarefree_divisors
    reads the table as it grows the lattice kernel's divisor lists, and
    extended polylog's _weights for the weights k^-s it builds from
    prime weights.
    """
    spf = []
    for lo in range(0, cap + 1, _SIEVE_SEGMENT):
        hi = min(lo + _SIEVE_SEGMENT, cap + 1)
        spf += range(lo, hi)
        for p in range(math.isqrt(hi - 1), 1, -1):
            if spf[p] == p:
                # not max(): its call made a 100-entry sieve about 30% slower
                start = p * p if p * p >= lo else -(-lo // p) * p
                spf[start::p] = [p] * len(range(start, hi, p))
    return spf


def _bernoulli(j: int) -> Fraction:
    """B_2j, from sum_{i<=j} C(2j+1, 2i) B_2i = (2j + 1)/2 (the recurrence
    sum_{k<=m} C(m+1, k) B_k = 0 at m = 2j, with B_1 = -1/2)."""
    while len(_BERNOULLI) <= j:
        m = len(_BERNOULLI)
        head = sum(math.comb(2 * m + 1, 2 * i) * b for i, b in enumerate(_BERNOULLI))
        _BERNOULLI.append((Fraction(2 * m + 1, 2) - head) / (2 * m + 1))
    return _BERNOULLI[j]


def exact_sum(terms) -> complex:
    """Sum of complex terms, each part summed exactly by math.fsum over
    blocks of _BLOCK terms together with the running total, so a sum
    rounds once per block and holds one block at a time.

    The library sums every series this way in double: the polylog and
    zeta heads, the lattice kernel and zeta mode. In extended precision
    the polylog series is summed exactly in integers instead
    (polylog._extended_partial).
    """
    re = im = 0.0
    terms = iter(terms)
    while block := list(islice(terms, _BLOCK)):
        re = math.fsum(chain((re,), map(_REAL, block)))
        im = math.fsum(chain((im,), map(_IMAG, block)))
    return complex(re, im)


class _Double:
    """Double precision under the names of mpmath's mp context that the
    series loops use, so one loop serves both arithmetics."""

    mpf = float
    mpc = complex
    log = math.log
    pi = math.pi

    @staticmethod
    def workdps(dps):
        return contextlib.nullcontext()

    fsum = staticmethod(exact_sum)


def arithmetic(dps):
    """_Double for dps None, else mpmath's mp context, imported on first
    use (callers enter ctx.workdps(dps) around the computation)."""
    if dps is None:
        return _Double
    from mpmath import mp

    return mp


def log1m(w: complex) -> complex:
    """log(1 - w) on the principal branch, accurate for small |w|.

    1 - w rounds once |w| nears machine epsilon, so below
    |w| = LOG1M_SERIES_MAX (1e-4) this sums -(w + w^2/2 + ... + w^d/d) to
    the first degree d whose dropped part, at most |w|^d/(d+1) relative,
    is under u/4 (u = 2^-53), and from it up takes cmath.log(1 - w). Each
    tier ends at ((d+1) u/4)^(1/d), rounded down; degree 4 holds to 1.08e-4.
    """
    a = abs(w)
    if a < 9.1e-9:
        return -w if a < 5.5e-17 else -w * (1 + w * 0.5)
    if a < 4.8e-6:
        return -w * (1 + w * (1 / 2 + w * (1 / 3)))
    if a < LOG1M_SERIES_MAX:
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
    try:
        q = (1.0 + 1.0 / (cap + 1)) ** p * r
    except OverflowError:  # q is past the float range, so far above 1
        return math.inf
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


def power_geometric_guess(p: float, r: float, target: float) -> int:
    """A guess at the first cap where power_geometric_tail(cap, p, r) <=
    target, for 0 < r < 1 and p >= 0, for first_within to start from; 0
    when r or target is out of range.

    With x = cap + 1 and q = (1 + 1/x)^p r the bound is about
    x^p r^x / (1 - q). Newton steps from past the peak p / ln(1/r) first
    solve p ln x + x ln r = ln(target (1 - r)); the left side is concave,
    so from the second iterate on each lies at or past the root. With no
    root past the peak (or past 1), the peak is the guess. As q > r the
    bound's root lies further out, and two chord steps on its log, with
    the same slope, reach it. On 20,000 random draws with p <= 500, r in
    [0.01, 0.999] and target in [1e-30, 0.1] the guess was the first cap
    every time; it can miss by a few near the peak, and where target
    nears the TINY_BOUND that the bound adds.
    """
    if not (0.0 < r < 1.0 and target > 0.0):
        return 0
    lr, lt = math.log(r), math.log(target)
    lead = lt + math.log1p(-r)
    x = max(1.0, p / -lr)
    if p * math.log(x) + x * lr <= lead:
        return math.ceil(x) - 1
    x = max(2.0 * x, lead / lr)
    for _ in range(4):
        step = (p * math.log(x) + x * lr - lead) / (p / x + lr)
        x -= step
        if abs(step) <= 1e-9 * x:
            break
    low = x
    for _ in range(2):
        # q <= 1 past the peak, and this form of it cannot overflow
        q = math.exp(p * math.log1p(1.0 / x) + lr)
        if q >= 1.0:
            break
        step = (p * math.log(x) + x * lr - math.log1p(-q) - lt) / (p / x + lr)
        x = max(low, x - step)
        if abs(step) <= 1e-9 * x:
            break
    return math.ceil(x) - 1


def first_within(bound, tol: float, start: int, stop: int, guess: int):
    """(k, bound(k)) for the first k >= start with bound(k) <= tol, or None
    when no k <= stop qualifies.

    bound must be inf before some index and nonincreasing after it, as
    power_geometric_tail and the bounds built on it are, so bound(k) <=
    tol holds from the answer on and nowhere before it. The search
    evaluates bound at guess (moved into start .. stop), gallops away
    from it by steps 1, 2, 4, ... until the answer is bracketed, and
    bisects the bracket. The answer is the one a scan of every k would
    give, after 2 evaluations when the guess is right or one short, and
    about 2 log2(miss) more when it misses by more.
    """
    k = min(max(guess, start), stop)
    value = bound(k)
    step = 1
    if value <= tol:
        # the answer is at most k: move down until bound(lo) > tol, or
        # lo = start - 1, where no evaluation is needed
        lo, hi = k - 1, k
        while lo >= start and (lo_value := bound(lo)) <= tol:
            hi, value = lo, lo_value
            step *= 2
            lo = hi - step
        lo = max(lo, start - 1)
    else:
        # the answer is past k: move up until bound(hi) <= tol
        lo = k
        while True:
            if lo >= stop:
                return None
            hi = min(lo + step, stop)
            if (value := bound(hi)) <= tol:
                break
            lo = hi
            step *= 2
    # bound(lo) > tol >= bound(hi) = value
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_value = bound(mid)
        if mid_value <= tol:
            hi, value = mid, mid_value
        else:
            lo = mid
    return hi, value


def _em_heads(s):
    """B_2j/(2j)! (s)_(2j-1), j = 1, 2, ..., in the arithmetic of s: times
    n^(-s-2j+1), the j-th Euler-Maclaurin correction of sum_{k >= n} k^-s.
    In double precision they stop where (2j)! leaves the float range
    (j = 86)."""
    poch = s
    for j in count(1):
        b = _bernoulli(j)
        try:
            coefficient = type(s)(b.numerator) / b.denominator / math.factorial(2 * j)
        except OverflowError:
            return
        yield coefficient * poch
        poch *= (s + 2 * j - 1) * (s + 2 * j)


def dirichlet_tail(s, start: int, tol=math.inf):
    """(value, remainder_bound) for sum_{k >= start} k^-s with real s > 1,
    computed in the arithmetic of s (float or mpf).

    Euler-Maclaurin: integral term, half term, then the Bernoulli
    corrections through B_12, and one more for as long as the first
    omitted correction exceeds tol and the next one is smaller and not 0
    (an underflow, or the end of the corrections in double). The
    remainder bound is the magnitude of the first omitted correction:
    every even derivative of x^-s is positive, so the classical
    alternating-remainder result holds at any number of corrections.
    """
    if start < 1:
        raise ValueError("start must be >= 1")
    if not s > 1:
        raise ValueError("dirichlet_tail requires s > 1")
    n = type(s)(start)
    val = n ** (1 - s) / (s - 1) + 0.5 * n ** -s
    heads = _em_heads(s)
    for j, head in enumerate(islice(heads, 6), 1):
        val += head * n ** (-s - 2 * j + 1)
    m = 6  # with m corrections summed, the first omitted one carries n^(-s-2m-1)
    omitted = next(heads) * n ** (-s - 2 * m - 1)
    while not abs(omitted) <= tol:
        m += 1  # try one more: the omitted correction is summed if the next is smaller
        following = next(heads, 0) * n ** (-s - 2 * m - 1)
        if not 0 < abs(following) < abs(omitted):
            break
        val += omitted
        omitted = following
    return val, abs(omitted)


def require_finite(value: complex, where: str) -> complex:
    """Raise ComputationError if a non-finite value is about to escape."""
    from .errors import ComputationError

    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ComputationError(f"non-finite value in {where}: {value!r}")
    return value
