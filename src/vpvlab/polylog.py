"""Complex-order polylogarithm series, closed forms, and real zeta values.

The series evaluator Li_s(z) = sum_{k>=1} z^k k^-s uses the principal
real logarithm in k^-s := exp(-s ln k) and certifies its truncation with
a geometric-dominance tail bound. polylog_neg_int gives the exact
rational form at the non-positive integer orders; zeta_real covers the
x = 1 product mode.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain, islice, repeat
from operator import mul

from .errors import ComputationError, DomainError, NonConvergence
from .numerics import (
    TERM_CAP,
    arithmetic,
    dirichlet_tail,
    extended_sum,
    first_within,
    log_table,
    power_geometric_tail,
    require_finite,
    smallest_prime_factors,
)

# Arguments must stay this far inside the unit circle for the series.
EPS_DOMAIN = 1e-3
# Real zeta orders must exceed 1 by this margin.
EPS_ZETA = 1e-3
# A complex modulus past exp(710.5) > sqrt(2) * max float has a part that overflows.
_LOG_PAST_FLOAT_RANGE = 710.5


@dataclass(frozen=True)
class SeriesResult:
    """A certified series evaluation.

    value: the partial sum (complex; an mpmath mpc in extended mode).
    terms_used: number of series terms summed.
    tail_bound: certified upper bound on |true value - value| from
        truncation alone; rounding is separate and of order ulp.
    """

    value: complex
    terms_used: int
    tail_bound: float


def polylog(s: complex, z: complex, tol: float = 1e-12, *, dps: int | None = None) -> SeriesResult:
    """Evaluate Li_s(z) by direct series with a certified tail bound.

    Args:
        s: complex order; k^-s = exp(-s ln k) with the real principal log.
        z: argument with |z| <= 1 - EPS_DOMAIN.
        tol: positive truncation target; summation stops once the
            certified tail bound falls below it.
        dps: when set, run the same loop in mpmath arithmetic with this
            many significant digits (extended-precision mode).

    Raises:
        DomainError: |z| too large.
        NonConvergence: tolerance unreachable within TERM_CAP terms.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    ctx = arithmetic(dps)
    with ctx.workdps(dps):
        # an mpmath order keeps its digits in extended mode
        s, zc = ctx.mpc(s), ctx.mpc(z)
        r = float(abs(zc))
        if r > 1.0 - EPS_DOMAIN:
            raise DomainError(f"|z| = {r!r} exceeds 1 - eps_domain = {1.0 - EPS_DOMAIN!r}")
        if zc == 0:
            return SeriesResult(ctx.mpc(0), 1, 0.0)
        # |z^j j^-s| <= j^sigma r^j for j > k with sigma = max(0, -Re s): the
        # bound is inf before the peak of k^sigma r^k and strictly decreasing
        # after it, so first_within finds the first k that meets tol
        sigma_minus = max(0.0, -float(s.real))
        found = first_within(lambda k: power_geometric_tail(k, sigma_minus, r), tol, 1, TERM_CAP)
        if found is None:
            raise NonConvergence(f"polylog(s={complex(s)!r}, z={complex(z)!r}) did not reach "
                                 f"tol={tol!r} within {TERM_CAP} terms")
        n, bound = found
        value = polylog_partial(s, zc, n, dps=dps)
    if dps is None:  # an mpc has no float range to leave
        value = require_finite(value, "polylog")
    return SeriesResult(value, n, bound)


def polylog_partial(s: complex, z: complex, n_terms: int, *, dps: int | None = None) -> complex:
    """Plain partial sum of the Li_s(z) series over exactly n_terms terms,
    in double precision or, with dps, in mpmath at dps digits.

    No domain or tolerance logic; polylog returns this sum at its
    stopping index. The terms run through C-level iterators: z^k by
    repeated products, term 1 is z itself, and k^-s = exp(-s ln k) with
    ln k from the shared table in double. In extended precision
    _prime_weights builds k^-s from the weights at primes, and the terms
    and their sum run with _guard_bits extra bits. The sum is exact per
    part within blocks in double (exact_sum) and exact within blocks at
    the guarded precision in extended (extended_sum), which rounds to dps
    once at the end.

    Raises:
        ComputationError: a double term k^-s overflows (-Re s ln k past ~709).
    """
    ctx = arithmetic(dps)
    with ctx.workdps(dps):
        s, z = ctx.mpc(s), ctx.mpc(z)
        if dps is None:
            logs = islice(log_table(n_terms), 2, n_terms + 1)
            weights = map(ctx.exp, map((-s).__mul__, logs))
            guard, fsum = 0, ctx.fsum
        else:
            if not (s.imag or z.imag):
                # the same real parts from mpf arithmetic, at a fraction of the cost
                s, z = s.real, z.real
            weights = _prime_weights(ctx, s, n_terms)
            guard, fsum = _guard_bits(s, n_terms), partial(extended_sum, ctx)
        with ctx.extraprec(guard):
            powers = accumulate(repeat(z, n_terms), mul)
            terms = chain(islice(powers, 1), map(mul, powers, weights))
            try:
                value = fsum(terms)
            except OverflowError:
                raise ComputationError(
                    f"Li_s(z) series term k^-s leaves the float range for some k <= {n_terms} at s = {s!r}"
                ) from None
        return ctx.mpc(+value)


def _guard_bits(s, n: int) -> int:
    """Extra bits for the extended terms of a series over n terms at order s.

    exp(-s ln p) loses about log2((1 + |s|) ln n) bits to the error of
    s ln p; each k^-s is a product of at most log2 n prime weights, and
    z^k of k - 1 rounded products, which log2 n more bits cover.
    """
    return math.ceil(math.log2((1 + float(abs(s))) * math.log(n + 2))) + n.bit_length() + 4


def _prime_weights(ctx, s, n: int):
    """k^-s for k = 2 .. n in the arithmetic of ctx: exp(-s ln p) at each
    prime p, and w(p) w(k/p) at each composite k with p its smallest
    prime factor. One mpc product replaces a log and an exp per
    composite; only the weights of k <= n/2 are held, since the factors
    of a composite k <= n are at most n/2."""
    spf = smallest_prime_factors(n)
    held = [None] * (n // 2 + 1)
    minus_s, exp, log = -s, ctx.exp, ctx.log
    for k in range(2, n + 1):
        p = spf[k]
        w = exp(minus_s * log(k)) if p == k else held[p] * held[k // p]
        if k < len(held):
            held[k] = w
        yield w


@lru_cache(maxsize=None)
def _neg_order_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of P_n with Li_{-n}(z) = P_n(z)/(1-z)^{n+1}.

    P_0 = z and P_{k+1}(z) = z * ((1 - z) P_k'(z) + (k + 1) P_k(z)),
    which is the z d/dz recurrence applied to the rational form. It runs
    as a loop, so orders in the hundreds do not exhaust the stack.
    """
    p = [0, 1]
    for k in range(1, n + 1):
        # q = z * ((1 - z) P' + k P) for P = P_(k-1); the factor z shifts each index by one
        q = [0] * (len(p) + 1)
        for i in range(1, len(p)):
            dc = i * p[i]
            q[i] += dc
            q[i + 1] -= dc
        for i, c in enumerate(p):
            q[i + 1] += k * c
        while q[-1] == 0:
            q.pop()
        p = q
    return tuple(p)


def _gaussian_power(re: int, im: int, e: int) -> tuple[int, int]:
    """(re + im i)^e for e >= 0 by square-and-multiply, most significant
    bit first: about log2(e) squarings of Gaussian integers in place of
    e products."""
    w_re, w_im = 1, 0
    for bit in bin(e)[2:]:
        w_re, w_im = w_re * w_re - w_im * w_im, 2 * w_re * w_im
        if bit == "1":
            w_re, w_im = w_re * re - w_im * im, w_re * im + w_im * re
    return w_re, w_im


def _neg_order_log_floor(n: int, z: complex) -> float:
    """A lower bound on ln |Li_{-n}(z)|, or -inf where none is derived.

    With L = ln z principal, Li_{-n}(e^L) = n! sum_k (2 pi i k - L)^-(n+1)
    over all integers k. The poles k = 0, +-1 are summed as
    m^-(n+1) S, with m the least |2 pi i k - L| among them, so each term
    of S has modulus at most 1. For |k| >= 2, |2 pi i k - L| >= (2|k| - 1) pi
    since |Im L| <= pi, and for n >= 2 those terms sum to at most
    2 (3 pi)^-(n+1) (1 + 27 (7 zeta(3)/8 - 1 - 1/27)) < 2.8 (3 pi)^-(n+1).
    So |Li_{-n}(z)| >= n! m^-(n+1) (|S| - 2.8 (m/(3 pi))^(n+1) - e), where
    e bounds the rounding of S: each term's exponent carries about
    (n+1) |log| ulps. Where the nearest poles cancel (Li_{-n}(-1) = 0 for
    even n) nothing is left and the floor is -inf. The bound costs O(1),
    where P_n costs about n^3.
    """
    if n < 2 or z == 0:
        return -math.inf
    ell = cmath.log(z)
    logs = [cmath.log(complex(-ell.real, 2 * math.pi * k - ell.imag)) for k in (-1, 0, 1)]
    log_m = min(lg.real for lg in logs)
    if log_m >= math.log(3 * math.pi):  # needs |ln |z|| >= 2 sqrt(2) pi; the rest may outweigh S
        return -math.inf
    near = abs(sum(cmath.exp(-(n + 1) * (lg - log_m)) for lg in logs))
    rounding = 1e-14 * (n + 1) * (1 + max(map(abs, logs)))
    rest = 2.8 * math.exp((n + 1) * (log_m - math.log(3 * math.pi)))
    if near <= rest + rounding:
        return -math.inf
    return math.lgamma(n + 1) - (n + 1) * log_m + math.log(near - rest - rounding)


def polylog_neg_int(n: int, z: complex) -> complex:
    """Li_{-n}(z) for integer n >= 0 via exact rational closed form.

    The numerator polynomial is built once per order from the
    z d/dz recurrence and cached with exact integer coefficients. A
    float is a dyadic rational, so z = (A + Bi) / D with D a power of
    two; P_n(z) and (1 - z)^(n+1) are evaluated in Gaussian integers
    and the quotient is rounded once, so each part of the value is the
    correctly rounded real or imaginary part of Li_{-n}(z).

    Raises:
        DomainError: n negative or non-integer, or z = 1 (the pole).
        ComputationError: z is not finite, or the value leaves the float
            range (from n = 160 at z = 1/2). Where _neg_order_log_floor
            shows that already, before P_n is built.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"polylog_neg_int expects an integer n >= 0, got {n!r}")
    z = complex(z)
    if z == 1:
        raise DomainError("z = 1 is the pole of Li_{-n}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ComputationError(f"non-finite argument in Li_{{-{n}}}({z!r})")
    if _neg_order_log_floor(n, z) > _LOG_PAST_FLOAT_RANGE:
        raise ComputationError(f"Li_{{-{n}}}(z) leaves the float range at z = {z!r}")
    (a, a_den), (b, b_den) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(a_den, b_den)  # D = 2^e: the larger is a multiple of the other
    e = d.bit_length() - 1
    a, b = a * (d // a_den), b * (d // b_den)
    coeffs = _neg_order_poly(n)
    # Horner on D^j times each partial value, so every step stays integral
    re, im = 0, 0
    for j, c in enumerate(reversed(coeffs)):
        re, im = re * a - im * b + (c << (e * j)), re * b + im * a
    # P_n(z) = (re + im i) / D^m for degree m = len(coeffs) - 1, and
    # (1 - z)^(n+1) = (D - A - Bi)^(n+1) / D^(n+1)
    lift = e * (n + 2 - len(coeffs))
    num_re, num_im = re << lift, im << lift
    w_re, w_im = _gaussian_power(d - a, -b, n + 1)
    # (num_re + num_im i) / (w_re + w_im i), with the conjugate of w on top
    den = w_re * w_re + w_im * w_im
    try:
        return complex((num_re * w_re + num_im * w_im) / den, (num_im * w_re - num_re * w_im) / den)
    except OverflowError:
        raise ComputationError(
            f"Li_{{-{n}}}(z) leaves the float range at z = {z!r}"
        ) from None


def zeta_real(s: float, tol: float = 1e-12, *, dps: int | None = None) -> SeriesResult:
    """zeta(s) for real s >= 1 + EPS_ZETA with a certified remainder.

    The head sum_{k < N} k^-s is summed by ctx.fsum, as the polylog
    series is, and the tail from N is evaluated by Euler-Maclaurin
    corrections; the reported tail_bound is the classical
    first-omitted-correction remainder bound. From N = 16 and six
    corrections, dirichlet_tail adds corrections while they still
    shrink, and N doubles only when they stop shrinking before the bound
    meets tol. Direct summation alone cannot reach 1e-12 for s = 2
    within any sane term budget, which is why the corrected tail is used.

    Raises:
        DomainError: s too close to (or below) 1.
        NonConvergence: no admissible N within TERM_CAP meets tol.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if isinstance(s, complex):
        raise DomainError("zeta_real takes a real order")
    s = float(s)
    if s < 1.0 + EPS_ZETA:
        raise DomainError(f"zeta_real requires s >= 1 + {EPS_ZETA!r}, got {s!r}")
    ctx = arithmetic(dps)
    with ctx.workdps(dps):
        sc = ctx.mpf(s)
        n = 16
        while True:
            tail_val, rem = dirichlet_tail(sc, n, tol)
            if rem <= tol:
                break
            n *= 2
            if n > TERM_CAP:
                raise NonConvergence(f"zeta_real(s={s!r}) cannot meet tol={tol!r}")
        # in double ctx.fsum is exact_sum, whose value is complex
        value = ctx.fsum(ctx.mpf(k) ** -sc for k in range(1, n)).real + tail_val
    return SeriesResult(require_finite(value, "zeta_real"), n - 1, float(rem))
