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
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from operator import mul

from .errors import ComputationError, DomainError, NonConvergence
from .numerics import (
    TERM_CAP,
    arithmetic,
    dirichlet_tail,
    exact_sum,
    first_within,
    log_table,
    power_geometric_guess,
    power_geometric_tail,
    require_finite,
    smallest_prime_factors,
)

# Arguments must stay this far inside the unit circle for the series.
EPS_DOMAIN = 1e-3
# Real zeta orders must exceed 1 by this margin.
EPS_ZETA = 1e-3
# Double polylog takes Li_{-n} from polylog_neg_int up to this n. Past it
# the series refuses at once (3^n leaves the float range from n = 647),
# and polylog_neg_int refuses wherever no magnitude floor decides, as
# P_n costs about n^3 work (1 s at n = 1000).
_ROUTED_NEG_ORDER_MAX = 1000
# A complex modulus past exp(710.5) > sqrt(2) * max float has a part that overflows.
_LOG_PAST_FLOAT_RANGE = 710.5


@dataclass(frozen=True)
class SeriesResult:
    """A certified series evaluation.

    value: the partial sum: in double a complex from polylog and a
        float from zeta_real, in extended mode an mpmath mpc from
        polylog and an mpf from zeta_real.
    terms_used: number of series terms summed.
    tail_bound: certified upper bound on |true value - value| from
        truncation alone. Rounding is not bounded yet, and it can be far
        larger: polylog(-8.5, -0.5, 1e-12) is 3.2e-9 off with a
        tail_bound of 5.8e-13 (ROADMAP item 3).
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
        dps: when set, return the partial sum at the same stopping
            index to this many significant digits, as an mpc
            (extended-precision mode; see polylog_partial).

    In double an integer order -n with 0 <= n <= _ROUTED_NEG_ORDER_MAX
    returns polylog_neg_int's exact closed form, with terms_used 0 and
    tail_bound 0.0.

    Raises:
        DomainError: |z| too large, or dps not a positive int.
        NonConvergence: tolerance unreachable within TERM_CAP terms.
        ComputationError: the value leaves the float range.
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
        n = -s.real
        if dps is None and s.imag == 0 and n == round(n) and 0 <= n <= _ROUTED_NEG_ORDER_MAX:
            # the series of Li_{-n} can cancel to nothing in double (ROADMAP
            # item 7); the closed form is exact and needs no terms
            return SeriesResult(polylog_neg_int(int(n), zc), 0, 0.0)
        # |z^j j^-s| <= j^sigma r^j for j > k with sigma = max(0, -Re s): the
        # bound is inf before the peak of k^sigma r^k and strictly decreasing
        # after it, so first_within finds the first k that meets tol
        sigma_minus = max(0.0, -float(s.real))
        guess = power_geometric_guess(sigma_minus, r, tol)
        found = first_within(lambda k: power_geometric_tail(k, sigma_minus, r), tol, 1, TERM_CAP, guess)
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
    in double precision or, with dps, to dps digits.

    No domain or tolerance logic; polylog returns this sum at its
    stopping index. In double the terms run through C-level iterators:
    z^k by repeated products, term 1 is z itself, and k^-s = exp(-s ln k)
    with ln k from the shared table; the sum is exact per part within
    blocks (exact_sum). With dps, _extended_partial sums the same terms
    in integer mantissas and rounds to dps digits once.

    Raises:
        DomainError: dps not a positive int.
        ComputationError: a double term k^-s overflows (-Re s ln k past ~709),
            or its phase Im s ln k passes the float range.
    """
    if dps is not None:
        mp = arithmetic(dps)
        with mp.workdps(dps):
            return _extended_partial(mp.mpc(s), mp.mpc(z), n_terms)
    s, z = complex(s), complex(z)
    logs = islice(log_table(n_terms), 2, n_terms + 1)
    weights = map(cmath.exp, map((-s).__mul__, logs))
    powers = accumulate(repeat(z, n_terms), mul)
    try:
        return exact_sum(chain(islice(powers, 1), map(mul, powers, weights)))
    except (OverflowError, ValueError):  # cmath.exp raises ValueError at an infinite phase
        raise ComputationError(
            f"Li_s(z) series term k^-s leaves the float range for some k <= {n_terms} at s = {s!r}"
        ) from None


def _extended_partial(s, z, n: int):
    """The partial sum over n terms for mpc s and z, rounded once to
    mpmath's working precision.

    A value is (e, re, im): integer mantissas times 2^e, truncated
    after each product so that the larger has _width bits. A zero
    imaginary mantissa stays exactly zero, so a real s and z give a
    real sum. Each term z^k k^-s is truncated to a multiple of 2^scale,
    fixed from the largest |z|^k k^-Re s over k <= n, and added to an
    integer accumulator, so the sum is exact.
    """
    from mpmath import libmp, mp

    prec = mp.prec
    width = _width(s, n, prec)
    z = _mantissas(z._mpc_, width)
    if n < 1 or not any(z[1:]):
        return mp.mpc(0)
    # k log2|z| - Re s log2 k is concave in k when Re s < 0 and convex
    # otherwise, so over [1, n] it peaks at an end or next to its
    # stationary point
    drop = max(width - 53, 0)
    log2_r = math.log2(math.hypot(*(m >> drop for m in z[1:]))) + z[0] + drop
    sigma, ks = -float(s.real), {1, n}
    if sigma > 0 > log2_r:
        peak = sigma / (-log2_r * math.log(2))
        ks |= {min(n, max(1, k)) for k in (math.floor(peak), math.ceil(peak))}
    scale = math.floor(max(k * log2_r + sigma * math.log2(k) for k in ks)) - width - 2
    # each term is below 2^(scale + width + 3) and its product has at
    # least 2 width - 3 bits, so every cut below is positive
    re = im = 0
    power = _fit(0, (1, 0), width)
    for we, wr, wi in _weights(s, n, width):
        e, c, d = power = _complex_product(power, z, width)
        cut = scale - e - we
        re += (c * wr - d * wi) >> cut
        im += (c * wi + d * wr) >> cut
    return mp.make_mpc(tuple(libmp.from_man_exp(m, scale, prec, libmp.round_nearest) for m in (re, im)))


def _width(s, n: int, prec: int) -> int:
    """Mantissa bits for a sum over n terms at order s that rounds to prec
    bits. The guard covers the error of s ln p in exp(-s ln p), about
    log2((1 + |s|) ln n) bits; the log2 n truncated products in k^-s and
    the k - 1 in z^k, which log2 n bits cover; the n truncated terms,
    log2 n more; and 8 bits leave their sum a small part of an ulp."""
    try:
        guard = math.ceil(math.log2((1 + float(abs(s))) * math.log(n + 2)))
    except OverflowError:  # (1 + |s|) ln(n + 2) is inf
        raise ComputationError(f"|s| ln n leaves the float range at |s| = {float(abs(s))!r}") from None
    return prec + guard + 2 * n.bit_length() + 8


def _fit(e: int, parts, width: int) -> tuple:
    """The value (e, *parts) with its largest |mantissa| cut to width bits."""
    cut = max(m.bit_length() for m in parts) - width
    return (e + cut, *[m >> cut if cut >= 0 else m << -cut for m in parts])


def _mantissas(mpfs, width: int) -> tuple:
    """mpmath's raw (sign, man, exp, bc) parts as one _fit value; a zero
    part does not set the exponent."""
    e = min((exp for _, man, exp, _ in mpfs if man), default=0)
    return _fit(e, [(-man if sign else man) << (exp - e) if man else 0 for sign, man, exp, _ in mpfs], width)


def _complex_product(a: tuple, b: tuple, width: int) -> tuple:
    (ae, ar, ai), (be, br, bi) = a, b
    re, im = ar * br - ai * bi, ar * bi + ai * br
    # the larger bit length of the two, without a call of max()
    cut = (abs(re) | abs(im)).bit_length() - width
    return ae + be + cut, re >> cut, im >> cut


def _weights(s, n: int, width: int):
    """k^-s for k = 1 .. n as _fit values, for an mpc s. At a prime p
    this is exp(-s ln p) from mpmath.libmp at width + 10 bits, or p^-s by
    exact integer division at an integer order while p^|s| has at most
    4 width bits; at a composite k it is w(p) w(k/p), with p the smallest
    prime factor of k. Only the weights of k <= n/2 are held, since the
    factors of a composite k <= n are at most n/2."""
    from mpmath import libmp

    wp, minus_s = width + 10, (-s)._mpc_
    exact = not s.imag and abs(s.real) * n.bit_length() <= 4 * width and s.real == int(s.real)
    order = int(s.real) if exact else None
    spf, held = smallest_prime_factors(n), [None] * (n // 2 + 1)
    for k in range(1, n + 1):
        p = spf[k]  # spf[1] = 1, so w(1) = 1^-s = 1
        if p < k:
            w = _complex_product(held[p], held[k // p], width)
        elif order is not None:
            q = k ** abs(order)
            e, m = (0, q) if order <= 0 else (-width - q.bit_length(), (1 << width + q.bit_length()) // q)
            w = _fit(e, (m, 0), width)
        else:
            ln_p = libmp.mpf_log(libmp.from_int(k), wp)
            w = _mantissas(libmp.mpc_exp(libmp.mpc_mul_mpf(minus_s, ln_p, wp), wp), width)
        if k < len(held):
            held[k] = w
        yield w


@lru_cache(maxsize=16)
def _neg_order_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of P_n with Li_{-n}(z) = P_n(z)/(1-z)^{n+1}.

    P_0 = z and P_{k+1}(z) = z * ((1 - z) P_k'(z) + (k + 1) P_k(z)),
    which is the z d/dz recurrence applied to the rational form. It runs
    as a loop, so orders in the hundreds do not exhaust the stack. The
    cache keeps the 16 latest orders: P_1000 alone holds about 1 MB.
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
    rounding = 1e-14 * (n + 1) * (1 + max(map(abs, logs)))
    if rounding >= 4:
        # |S| <= 3 leaves no floor; and from n near 1e308 the phases
        # (n+1) Im(lg) below would pass the float range
        return -math.inf
    near = abs(sum(cmath.exp(-(n + 1) * (lg - log_m)) for lg in logs))
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
            shows that already, before P_n is built. Past
            n = _ROUTED_NEG_ORDER_MAX also wherever that floor finds no
            bound, rather than build P_n.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"polylog_neg_int expects an integer n >= 0, got {n!r}")
    z = complex(z)
    if z == 1:
        raise DomainError("z = 1 is the pole of Li_{-n}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ComputationError(f"non-finite argument in Li_{{-{n}}}({z!r})")
    if z == 0:
        return 0j
    floor = _neg_order_log_floor(n, z)
    if floor > _LOG_PAST_FLOAT_RANGE:
        raise ComputationError(f"Li_{{-{n}}}(z) leaves the float range at z = {z!r}")
    if floor == -math.inf and n > _ROUTED_NEG_ORDER_MAX:
        raise ComputationError(
            f"Li_{{-{n}}}(z) at z = {z!r} has no magnitude floor, and building P_n "
            f"past n = {_ROUTED_NEG_ORDER_MAX} costs about n^3 work"
        )
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
        DomainError: s too close to (or below) 1, or dps not a positive int.
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
