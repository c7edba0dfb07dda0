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
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from operator import mul
from typing import NamedTuple

from .errors import ComputationError, DomainError, NonConvergence
from .numerics import (
    TERM_CAP,
    em_bracket,
    exact_sum,
    first_within,
    log_table,
    power_geometric_guess,
    power_geometric_tail,
    require_finite,
)

# Arguments must stay this far inside the unit circle for the series.
EPS_DOMAIN = 1e-3
# Real zeta orders must be at least 1 + EPS_ZETA (in_zeta_domain).
EPS_ZETA = 1e-3
# Double polylog takes Li_{-n} from polylog_neg_int up to this n. Past it
# the series refuses at once (3^n leaves the float range from n = 647),
# and polylog_neg_int refuses wherever no magnitude floor decides, as
# P_n costs about n^3 work (1 s at n = 1000).
_ROUTED_NEG_ORDER_MAX = 1000
# A complex modulus past exp(710.5) > sqrt(2) * max float has a part that overflows.
_LOG_PAST_FLOAT_RANGE = 710.5


def finite_complex(name: str, x) -> complex:
    """complex(x), or DomainError where x is not finite, checked as
    converted. Where complex() refuses x, a string (unparsable) keeps its
    ValueError, and any other value (a Decimal sNaN) is a DomainError."""
    try:
        value = complex(x)
    except ValueError:
        if isinstance(x, str):
            raise
        raise DomainError(f"{name} = {x!r} is not finite")
    if not cmath.isfinite(value):
        raise DomainError(f"{name} = {value!r} is not finite")
    return value


class SeriesResult(NamedTuple):
    """A certified series evaluation.

    value: the partial sum: in double a complex from polylog and a
        float from zeta_real; in extended mode (dps set) a DecimalComplex
        from polylog and a Decimal from zeta_real, each the binary value
        rounded to working_bits(dps) bits (see extended.DecimalComplex).
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
            index to this many significant digits, as a DecimalComplex
            (extended-precision mode; see extended.partial_sum). The
            order and argument are taken exactly, mpmath numbers included
            (see extended.exact_parts), and rounded to working_bits(dps)
            bits.

    In double an integer order -n with 0 <= n <= _ROUTED_NEG_ORDER_MAX
    returns polylog_neg_int's exact closed form, with terms_used 0 and
    tail_bound 0.0.

    Raises:
        DomainError: |z| too large, s or z not a finite double, or dps not a
            positive int.
        NonConvergence: tolerance unreachable within TERM_CAP terms.
        ComputationError: the value leaves the float range.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    given = s, z
    s, z = finite_complex("s", s), finite_complex("z", z)
    if dps is not None:
        from . import extended

        bits = extended.working_bits(dps)
        exact = [extended.exact_parts(x, bits) for x in given]
        s, z = (complex(*map(float, parts)) for parts in exact)
    r = abs(z)
    if r > 1.0 - EPS_DOMAIN:
        raise DomainError(f"|z| = {r!r} exceeds 1 - eps_domain = {1.0 - EPS_DOMAIN!r}")
    if z == 0:
        return SeriesResult(0j if dps is None else extended.partial_sum(*exact, 0, bits), 0, 0.0)
    n = -s.real
    if dps is None and s.imag == 0 and n == round(n) and 0 <= n <= _ROUTED_NEG_ORDER_MAX:
        # the series of Li_{-n} can cancel to nothing in double (ROADMAP
        # item 7); the closed form is exact and needs no terms
        return SeriesResult(polylog_neg_int(int(n), z), 0, 0.0)
    # |z^j j^-s| <= j^sigma r^j for j > k with sigma = max(0, -Re s): the
    # bound is inf before the peak of k^sigma r^k and strictly decreasing
    # after it, so first_within finds the first k that meets tol
    sigma_minus = max(0.0, -s.real)
    guess = power_geometric_guess(sigma_minus, r, tol)
    found = first_within(lambda k: power_geometric_tail(k, sigma_minus, r), tol, 1, TERM_CAP, guess)
    if found is None:
        raise NonConvergence(f"polylog(s={s!r}, z={z!r}) did not reach "
                             f"tol={tol!r} within {TERM_CAP} terms")
    n, bound = found
    if dps is None:
        return SeriesResult(require_finite(polylog_partial(s, z, n), "polylog"), n, bound)
    return SeriesResult(extended.partial_sum(*exact, n, bits), n, bound)


def polylog_partial(s: complex, z: complex, n_terms: int) -> complex:
    """Plain partial sum of the Li_s(z) series over exactly n_terms terms,
    in double precision.

    No domain or tolerance logic; polylog returns this sum at its
    stopping index. The terms run through C-level iterators: z^k by
    repeated products, and k^-s = exp(-s ln k) with ln k from the shared
    table, from k = 1; the sum is exact per part within blocks
    (exact_sum). Extended precision sums the same terms in
    extended.partial_sum.

    Raises:
        ComputationError: a term k^-s overflows (-Re s ln k past ~709),
            or its phase Im s ln k passes the float range.
    """
    s, z = complex(s), complex(z)
    logs = islice(log_table(n_terms), 1, n_terms + 1)
    weights = map(cmath.exp, map(mul, repeat(-s), logs))
    powers = accumulate(repeat(z, n_terms), mul)
    try:
        return exact_sum(map(mul, powers, weights))
    except (OverflowError, ValueError):  # cmath.exp raises ValueError at an infinite phase
        raise ComputationError(
            f"Li_s(z) series term k^-s leaves the float range for some k <= {n_terms} at s = {s!r}"
        ) from None


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
        DomainError: n negative or non-integer, z or complex(z) not
            finite, or z = 1 (the pole).
        ComputationError: the value leaves the float range (from n = 160
            at z = 1/2). Where _neg_order_log_floor shows that already,
            before P_n is built. Past
            n = _ROUTED_NEG_ORDER_MAX also wherever that floor finds no
            bound, rather than build P_n.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"polylog_neg_int expects an integer n >= 0, got {n!r}")
    z = finite_complex("z", z)
    if z == 1:
        raise DomainError("z = 1 is the pole of Li_{-n}")
    if z == 0:
        return 0j
    floor = _neg_order_log_floor(n, z)
    if floor > _LOG_PAST_FLOAT_RANGE:
        raise ComputationError(f"Li_{{-{n:g}}}(z) leaves the float range at z = {z!r}")
    if floor == -math.inf and n > _ROUTED_NEG_ORDER_MAX:
        raise ComputationError(
            f"Li_{{-{n:g}}}(z) at z = {z!r} has no magnitude floor, and building P_n "
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
            f"Li_{{-{n:g}}}(z) leaves the float range at z = {z!r}"
        ) from None


def in_zeta_domain(s: float) -> bool:
    """Whether zeta_real and zeta mode take the finite real order s."""
    return s >= 1.0 + EPS_ZETA


def zeta_bound(s: float) -> float:
    """1 + 1/(s - 1) >= zeta(s) for real s > 1 (the integral test), so it
    bounds every |sum_k c_k k^-s'| with |c_k| <= 1 at Re s' = s."""
    return 1.0 + 1.0 / (s - 1.0)


def zeta_real(s: float, tol: float = 1e-12, *, dps: int | None = None) -> SeriesResult:
    """zeta(s) for real s >= 1 + EPS_ZETA with a certified remainder.

    The head sum_{k < N} k^-s is summed as the polylog series is
    (exact_sum in double; in extended mode exactly in integers, as the
    polylog sum at z = 1), and the tail from N is N^-s times em_bracket's
    Euler-Maclaurin bracket, a float in double and exact in extended mode;
    the reported tail_bound is the classical first-omitted-correction
    remainder bound, or the integral test's once N^-s underflows, and
    never 0.0 or nan (numerics.certified_tail). From N = 16 and six corrections, em_bracket adds
    corrections while they still shrink, and N doubles only when they stop
    shrinking before the bound meets tol. Direct summation alone cannot
    reach 1e-12 for s = 2 within any sane term budget, which is why the
    corrected tail is used. With dps the value is a Decimal, the sum
    rounded once to working_bits(dps) bits.

    Raises:
        DomainError: s not a finite double, too close to (or below) 1, or dps not
            a positive int.
        NonConvergence: no admissible N within TERM_CAP meets tol.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    value = finite_complex("s", s)
    if isinstance(s, complex) or value.imag:
        raise DomainError("zeta_real takes a real order")
    s = value.real
    if not in_zeta_domain(s):
        raise DomainError(f"zeta_real requires s >= 1 + {EPS_ZETA!r}, got {s!r}")
    order = s
    if dps is not None:
        from . import extended

        bits, order = extended.working_bits(dps), Fraction(s)
    n = 16
    while True:
        bracket, rem = em_bracket(order, n, tol)
        if rem <= tol:
            break
        n *= 2
        if n > TERM_CAP:
            raise NonConvergence(f"zeta_real(s={s!r}) cannot meet tol={tol!r}")
    if dps is None:
        value = exact_sum(map(pow, map(float, range(1, n)), repeat(-s))).real + n ** -s * bracket
        return SeriesResult(require_finite(value, "zeta_real"), n - 1, rem)
    return SeriesResult(extended.zeta_sum(s, n, bracket, bits), n - 1, rem)
