"""Extended precision: one fixed-point engine on Python ints, and the
extended polylog and zeta sums built on it.

A fixed-point number at width w is an int m standing for m / 2^w. The
engine gives pi, ln 2, ln k, exp and cis at any width. The library
imports this module on the first extended-precision call, and nothing
here imports mpmath, which stays the tests' independent oracle.
"""
from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import NamedTuple

from .errors import ComputationError, DomainError
from .numerics import smallest_prime_factors


# ---------------------------------------------------------------------------
# the engine: working precision, rounding, pi, ln 2, ln k, exp and cis
# ---------------------------------------------------------------------------

def working_bits(dps) -> int:
    """The binary precision of dps significant digits, round((dps + 1)
    log2 10) bits, as mpmath counts it (libmp.dps_to_prec), so extended
    values have the bits mpmath gives them.

    Raises DomainError for a dps that is not a positive int; a bool is
    refused although it is an int.
    """
    if not isinstance(dps, int) or isinstance(dps, bool) or dps < 1:
        raise DomainError(f"dps must be a positive integer, got {dps!r}")
    return round((dps + 1) * 3.3219280948873626)


def round_bits(x: Fraction, prec: int) -> Fraction:
    """x rounded to prec significant bits, ties to even."""
    n, d = x.numerator, x.denominator
    if not n:
        return Fraction(0)
    a = abs(n)
    e = a.bit_length() - d.bit_length() - prec  # a / (d 2^e) has prec or prec + 1 bits
    for e in (e, e + 1):
        q, r = divmod(a << -e, d) if e < 0 else divmod(a, d << e)
        if q.bit_length() <= prec:
            break
    half = 2 * r - (d << max(e, 0))
    q += half > 0 or half == 0 and q & 1
    q = -q if n < 0 else q
    return Fraction(q << e) if e >= 0 else Fraction(q, 1 << -e)


def _arc_inverse(q: int, w: int, sign: int) -> int:
    """atanh(1/q) (sign 1) or atan(1/q) (sign -1) at width w, for an int
    q >= 2: sum_j sign^j q^-(2j+1)/(2j+1), each of its w / (2 log2 q) + 1
    terms cut down at 8 guard bits, so the sum is within a unit."""
    power, q2 = (1 << w + 8) // q, q * q
    total = power
    for j in count(1):
        power //= q2
        if not power:
            return total >> 8
        total += sign ** j * (power // (2 * j + 1))


@lru_cache(maxsize=8)
def _constants(w: int) -> tuple[int, int]:
    """pi (Machin: 16 atan(1/5) - 4 atan(1/239)) and ln 2 (2 atanh(1/3)) at
    width w, each within 2 units, summed with 16 guard bits."""
    g = w + 16
    pi = 16 * _arc_inverse(5, g, -1) - 4 * _arc_inverse(239, g, -1)
    return pi >> 16, 2 * _arc_inverse(3, g, 1) >> 16


def pi_fixed(w: int) -> int:
    """pi at width w, within 2 units. Built on first use at the next
    multiple of 64 bits and cut down, so nearby widths share one build."""
    top = -(-w // 64) * 64
    return _constants(top)[0] >> top - w


def ln2_fixed(w: int) -> int:
    """ln 2 at width w, within 2 units (see pi_fixed)."""
    top = -(-w // 64) * 64
    return _constants(top)[1] >> top - w


def ln_fixed(k: int, w: int, spf) -> int:
    """ln k at width w for 1 <= k < len(spf), with spf the smallest prime
    factors (smallest_prime_factors): the sum of ln p over the prime
    factors p of k.

    Each ln p is ln(p - 1) + 2 atanh(1/(2p - 1)), since p/(p - 1) =
    (1 + t)/(1 - t) at t = 1/(2p - 1), so a table of primes in increasing
    order adds one short series each: w / (2 log2(2p - 1)) terms, where
    reduction to [1, 2) leaves t up to 1/3 and w / 3.2 terms. Each series
    is within a unit, so ln k is within the number of series met in the
    descent k -> p - 1 -> ..., counted with multiplicity; on primes below
    10^6 that was at most 44 units. So the logs are summed at w + 8 bits
    or more, rounded up to a multiple of 64, and cut down to w, which
    leaves ln k within 2 units; each prime's log is kept for the process
    (_prime_logs), and a value depends on k and w alone.
    """
    top = -(-(w + 8) // 64) * 64
    return _ln_at(k, top, spf, _prime_logs(top)) >> top - w


@lru_cache(maxsize=4)
def _prime_logs(w: int) -> dict:
    """ln p at width w for the primes met so far, filled by ln_fixed and
    kept, like log_table's ln k, for later sums (at most four widths)."""
    return {}


def _ln_at(k: int, w: int, spf, logs: dict) -> int:
    total = 0
    while k > 1:
        p = spf[k]
        if p not in logs:
            logs[p] = _ln_at(p - 1, w, spf, logs) + 2 * _arc_inverse(2 * p - 1, w, 1)
        total += logs[p]
        k //= p
    return total


def exp_cis(x: int, y: int, w: int) -> tuple[int, int, int]:
    """exp(x + iy) for x and y at width w, as (e, re, im) with value
    (re + i im) 2^e, accurate to a few units of 2^-w relative.

    Cody-Waite reduction: x = q ln 2 + a and y = m pi/2 + b with q, m the
    nearest integers, |a| <= ln(2)/2 and |b| <= pi/4, with the constants
    taken wide enough (w + 8 guard bits plus the bits of q and m) that
    a and b lose nothing. Then exp(a) and cis(b) are Taylor series at
    a 2^-8 and b 2^-8, one product per term, and their product is
    squared 8 times; i^m and 2^q are exact. A zero y keeps the imaginary
    part exactly zero.
    """
    g = w + 8
    wide = g + max(max(abs(x), abs(y)).bit_length() - w + 2, 0)
    ln2, half_pi = ln2_fixed(wide), pi_fixed(wide + 1) >> 2
    x, y = x << wide - w, y << wide - w
    q, m = (2 * x + ln2) // (2 * ln2), (2 * y + half_pi) // (2 * half_pi)
    t = g + 8  # the series run on a / 2^t and b / 2^t
    a, b = (x - q * ln2) >> wide - g, (y - m * half_pi) >> wide - g
    re = sum(_taylor_by_residue(a, t))
    im = 0
    if b:
        c0, c1, c2, c3 = _taylor_by_residue(b, t)  # i^k b^k / k! by k mod 4
        re, im = (re * (c0 - c2)) >> t, (re * (c1 - c3)) >> t
    for _ in range(8):
        re, im = ((re + im) * (re - im)) >> t, (re * im) >> t - 1
    re, im = ((re, im), (-im, re), (-re, -im), (im, -re))[m % 4]
    return q - t, re, im


def _taylor_by_residue(v: int, t: int) -> list:
    """The terms v^k / k! of exp(v), for v at width t with |v| < 2^(t-8),
    summed by k mod 4, each term cut down; terms stop once below a unit,
    as each is under 2^-(8 + log2 k) of the one before."""
    parts, term = [1 << t, 0, 0, 0], 1 << t
    for k in range(1, _taylor_terms(t) + 1):
        term = ((term * v) >> t) // k
        parts[k & 3] += term
    return parts


@lru_cache(maxsize=64)
def _taylor_terms(t: int) -> int:
    k, bits = 0, t
    while bits > 0:
        k += 1
        bits -= 7 + k.bit_length()
    return k


# ---------------------------------------------------------------------------
# extended polylog and zeta sums
# ---------------------------------------------------------------------------

class DecimalComplex(NamedTuple):
    """An extended-precision complex value: its real and imaginary parts
    as Decimals. Each holds a binary number rounded to the working
    precision (working_bits(dps) bits, ties to even), to 40 digits more
    than those bits carry, so it has more digits than dps and rounds as
    the binary number does. complex() rounds each part to the nearest
    double."""

    real: Decimal
    imag: Decimal

    def __complex__(self) -> complex:
        return complex(float(self.real), float(self.imag))


def exact_parts(x, bits: int) -> tuple[Fraction, Fraction]:
    """The real and imaginary parts of a finite x, each rounded to bits
    significant bits, ties to even. x is a Python number, a Decimal, a
    Fraction, a DecimalComplex or a string, which is read as complex()
    parses it; an mpmath mpf or mpc is read exactly from its raw (sign,
    mantissa, exponent, bit count) parts, without importing mpmath, so an
    mpmath order keeps its digits."""
    x = complex(x) if isinstance(x, str) else x
    raw = getattr(x, "_mpc_", None) or ((x._mpf_, (0, 0, 0, 0)) if hasattr(x, "_mpf_") else None)
    if raw is None:
        parts = Fraction(x.real), Fraction(x.imag)
    else:
        parts = [Fraction(-man if sign else man) * Fraction(2) ** exp for sign, man, exp, _ in raw]
    return round_bits(parts[0], bits), round_bits(parts[1], bits)


def _decimal(x: Fraction, bits: int) -> Decimal:
    """A dyadic rational m 2^e of at most bits bits as a Decimal of 40
    digits more than bits carry, so within 10^-40 relative of it:
    round_bits takes it back to x, and it prints and converts to float as
    x does but within 10^-40 of a tie. (An exact Decimal of m 2^e has
    about 0.7 |e| digits, millions at the largest values.)"""
    n, d = x.numerator, x.denominator
    zeros = (n & -n).bit_length() - 1 if n else 0
    m, e = n >> zeros, zeros - d.bit_length() + 1
    context = Context(prec=math.ceil(bits * math.log10(2)) + 40, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return context.multiply(Decimal(m), context.power(Decimal(2), e))


def partial_sum(s, z, n: int, bits: int) -> DecimalComplex:
    """The partial sum over n terms for exact s and z (pairs of dyadic
    Fractions, see exact_parts), rounded once to bits bits."""
    parts = _extended_sum(s, z, n, _width(s, n, bits))
    return DecimalComplex(*(_decimal(round_bits(part, bits), bits) for part in parts))


def _extended_sum(s, z, n: int, width: int) -> tuple[Fraction, Fraction]:
    """The partial sum over n terms for exact s and z, exact in the terms
    as they are truncated.

    A value is (e, re, im): integer mantissas times 2^e, truncated
    after each product so that the larger has width bits. A zero
    imaginary mantissa stays exactly zero, so a real s and z give a
    real sum. Each term z^k k^-s is truncated to a multiple of 2^scale,
    fixed from the largest |z|^k k^-Re s over k <= n, and added to an
    integer accumulator, so the sum is exact.
    """
    e = -max(part.denominator.bit_length() - 1 for part in z)
    z = _fit(e, [part.numerator * (1 << -e) // part.denominator for part in z], width)
    if n < 1 or not any(z[1:]):
        return Fraction(0), Fraction(0)
    # k log2|z| - Re s log2 k is concave in k when Re s < 0 and convex
    # otherwise, so over [1, n] it peaks at an end or next to its
    # stationary point
    drop = max(width - 53, 0)
    log2_r = math.log2(math.hypot(*(m >> drop for m in z[1:]))) + z[0] + drop
    sigma, ks = -float(s[0]), {1, n}
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
    unit = Fraction(2) ** scale
    return re * unit, im * unit


def _width(s, n: int, prec: int) -> int:
    """Mantissa bits for a sum over n terms at order s (a pair of parts)
    that rounds to prec bits. The guard covers the error of s ln p in
    exp(-s ln p), about log2((1 + |s|) ln n) bits; the log2 n truncated
    products in k^-s and the k - 1 in z^k, which log2 n bits cover; the
    n truncated terms, log2 n more; and 8 bits leave their sum a small
    part of an ulp."""
    size = math.hypot(*map(float, s))
    try:
        guard = math.ceil(math.log2((1 + size) * math.log(n + 2)))
    except OverflowError:  # (1 + |s|) ln(n + 2) is inf
        raise ComputationError(f"|s| ln n leaves the float range at |s| = {size!r}") from None
    return prec + guard + 2 * n.bit_length() + 8


def _fit(e: int, parts, width: int) -> tuple:
    """The value (e, *parts) with its largest |mantissa| cut to width bits."""
    cut = max(m.bit_length() for m in parts) - width
    return (e + cut, *[m >> cut if cut >= 0 else m << -cut for m in parts])


def _complex_product(a: tuple, b: tuple, width: int) -> tuple:
    (ae, ar, ai), (be, br, bi) = a, b
    re, im = ar * br - ai * bi, ar * bi + ai * br
    # the larger bit length of the two, without a call of max()
    cut = (abs(re) | abs(im)).bit_length() - width
    return ae + be + cut, re >> cut, im >> cut


# Guard bits of the fixed-point ln p and exp(-s ln p) over a weight's width.
_WEIGHT_GUARD = 16


def _weights(s, n: int, width: int):
    """k^-s for k = 1 .. n as _fit values, for s a pair of dyadic
    Fractions. At a prime p this is exp(-s ln p) from the fixed-point
    engine (ln_fixed, exp_cis) at width + 16 bits, or
    p^-s by exact integer division at an integer order while p^|s| has
    at most 4 width bits; at a composite k it is w(p) w(k/p), with p the
    smallest prime factor of k. Only the weights of k <= n/2 are held,
    since the factors of a composite k <= n are at most n/2."""
    (sr, si), wp = s, width + _WEIGHT_GUARD
    exact = not si and sr.denominator == 1 and abs(sr) * n.bit_length() <= 4 * width
    order = int(sr) if exact else None
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
            ln_p = ln_fixed(k, wp, spf)
            e, re, im = exp_cis(-sr.numerator * ln_p // sr.denominator,
                                -si.numerator * ln_p // si.denominator, wp)
            w = _fit(e, (re, im), width)
        if k < len(held):
            held[k] = w
        yield w


def zeta_sum(s: float, n: int, bracket: Fraction, bits: int) -> Decimal:
    """zeta(s) from the head k < n and the tail n^-s bracket (em_bracket at
    Fraction(s)), rounded once to bits bits. The head is the polylog sum at z = 1; n^-s
    is exp(-s log2(n) ln 2), as n is 16 times a power of two, and the
    tail is left out where it is far below the head's truncation."""
    sf = Fraction(s)
    width = _width((sf, 0), n - 1, bits)
    head, _ = _extended_sum((sf, 0), (1, 0), n - 1, width)
    wp = width + _WEIGHT_GUARD
    e, m, _ = exp_cis(-sf.numerator * (n.bit_length() - 1) * ln2_fixed(wp) // sf.denominator, 0, wp)
    if e + m.bit_length() > -2 * width:
        head += m * bracket * Fraction(2) ** e
    return _decimal(round_bits(head, bits), bits)

