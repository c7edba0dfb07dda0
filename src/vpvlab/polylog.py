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

from .errors import ComputationError, DomainError, NonConvergence
from .numerics import KahanSum, dirichlet_tail, power_geometric_tail, require_finite

# Arguments must stay this far inside the unit circle for the series.
EPS_DOMAIN = 1e-3
# Real zeta orders must exceed 1 by this margin.
EPS_ZETA = 1e-3
# Hard ceiling on summed terms per series; exceeding it is an error.
TERM_CAP = 10_000_000


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


def _series_tail(k: int, sigma_minus: float, r: float) -> float:
    # |z^j j^-s| <= j^sigma_minus r^j for j > k, sigma_minus = max(0, -Re s)
    return power_geometric_tail(k, sigma_minus, r)


def polylog(
    s: complex,
    z: complex,
    tol: float = 1e-12,
    *,
    term_cap: int = TERM_CAP,
    dps: int | None = None,
) -> SeriesResult:
    """Evaluate Li_s(z) by direct series with a certified tail bound.

    Args:
        s: complex order; k^-s = exp(-s ln k) with the real principal log.
        z: argument with |z| <= 1 - EPS_DOMAIN.
        tol: positive truncation target; summation stops once the
            certified tail bound falls below it.
        term_cap: raise NonConvergence past this many terms.
        dps: when set, run the same loop in mpmath arithmetic with this
            many significant digits (extended-precision mode).

    Raises:
        DomainError: |z| too large.
        NonConvergence: tolerance unreachable within term_cap.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    s = complex(s)
    z = complex(z) if dps is None else z
    r = abs(z)
    if r > 1.0 - EPS_DOMAIN:
        raise DomainError(f"|z| = {r!r} exceeds 1 - eps_domain = {1.0 - EPS_DOMAIN!r}")
    if dps is not None:
        return _polylog_mp(s, z, tol, term_cap, dps)
    if z == 0:
        return SeriesResult(0j, 1, 0.0)
    n, bound = _stopping_index(s, z, r, tol, term_cap)
    return SeriesResult(require_finite(polylog_partial(s, z, n), "polylog"), n, bound)


def _stopping_index(s: complex, z, r: float, tol: float, term_cap: int) -> tuple[int, float]:
    """(k, bound): the first k >= 1 with _series_tail(k, ...) = bound <= tol.

    The bound is inf before the peak of k^sigma r^k and strictly
    decreasing after it, so a doubling search followed by a bisection
    finds the same k as testing every k in turn.

    Raises:
        NonConvergence: no k <= term_cap meets tol.
    """
    sigma_minus = max(0.0, -s.real)
    lo, hi = 0, 1
    while (bound := _series_tail(hi, sigma_minus, r)) > tol:
        if hi >= term_cap:
            raise NonConvergence(
                f"polylog(s={s!r}, z={z!r}) did not reach tol={tol!r} within {term_cap} terms"
            )
        lo, hi = hi, min(2 * hi, term_cap)
    # _series_tail(lo) > tol >= _series_tail(hi) = bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_bound = _series_tail(mid, sigma_minus, r)
        if mid_bound <= tol:
            hi, bound = mid, mid_bound
        else:
            lo = mid
    return hi, bound


def _polylog_mp(s: complex, z, tol: float, term_cap: int, dps: int) -> SeriesResult:
    from mpmath import mp, mpc

    with mp.workdps(dps):
        zc = mpc(z)
        sc = mpc(s)
        if zc == 0:
            return SeriesResult(mpc(0), 1, 0.0)
        n, bound = _stopping_index(s, z, float(abs(zc)), tol, term_cap)
        total = mpc(0)
        zk = mpc(1)
        for k in range(1, n + 1):
            zk *= zc
            total += zk if k == 1 else zk * mp.exp(-sc * mp.log(k))
        return SeriesResult(total, n, bound)


def polylog_partial(s: complex, z: complex, n_terms: int) -> complex:
    """Plain partial sum of the Li_s(z) series over exactly n_terms terms.

    No domain or tolerance logic; polylog returns this sum at its
    stopping index. Kahan-compensated, as KahanSum.add, inlined.

    Raises:
        ComputationError: a term k^-s overflows (-Re s ln k past ~709).
    """
    s = complex(s)
    z = complex(z)
    re = im = cre = cim = 0.0
    zk = 1 + 0j
    try:
        for k in range(1, n_terms + 1):
            zk *= z
            term = zk if k == 1 else zk * cmath.exp(-s * math.log(k))
            y = term.real - cre
            t = re + y
            cre = (t - re) - y
            re = t
            y = term.imag - cim
            t = im + y
            cim = (t - im) - y
            im = t
    except OverflowError:
        raise ComputationError(
            f"Li_s(z) series term overflows at k = {k} for s = {s!r}"
        ) from None
    return complex(re, im)


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


def polylog_neg_int(n: int, z: complex) -> complex:
    """Li_{-n}(z) for integer n >= 0 via exact rational closed form.

    The numerator polynomial is built once per order from the
    z d/dz recurrence and cached with exact integer coefficients.

    Raises:
        DomainError: n negative or non-integer, or z = 1 (the pole).
        ComputationError: the value, or a step of its evaluation, leaves
            the float range (from n = 170 at z = 1/2).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"polylog_neg_int expects an integer n >= 0, got {n!r}")
    z = complex(z)
    if z == 1:
        raise DomainError("z = 1 is the pole of Li_{-n}")
    coeffs = _neg_order_poly(n)
    num = 0j
    try:
        for c in reversed(coeffs):
            num = num * z + c
        value = num / (1 - z) ** (n + 1)
    except (OverflowError, ZeroDivisionError):
        raise ComputationError(
            f"Li_{{-{n}}}(z) leaves the float range at z = {z!r}"
        ) from None
    return require_finite(value, f"Li_{{-{n}}}({z!r})")


def zeta_real(
    s: float,
    tol: float = 1e-12,
    *,
    term_cap: int = TERM_CAP,
    dps: int | None = None,
) -> SeriesResult:
    """zeta(s) for real s >= 1 + EPS_ZETA with a certified remainder.

    The head sum_{k < N} k^-s is summed directly and the tail from N is
    evaluated by Euler-Maclaurin corrections; the reported tail_bound is
    the classical first-omitted-correction remainder bound. N adapts
    upward until the bound meets tol. Direct summation alone cannot
    reach 1e-12 for s = 2 within any sane term budget, which is why the
    corrected tail is used.

    Raises:
        DomainError: s too close to (or below) 1.
        NonConvergence: no admissible N within term_cap meets tol.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if isinstance(s, complex):
        raise DomainError("zeta_real takes a real order")
    s = float(s)
    if s < 1.0 + EPS_ZETA:
        raise DomainError(f"zeta_real requires s >= 1 + {EPS_ZETA!r}, got {s!r}")
    if dps is not None:
        return _zeta_real_mp(s, tol, term_cap, dps)
    n = 16
    while True:
        tail_val, rem = dirichlet_tail(s, n)
        if rem <= tol:
            break
        n *= 2
        if n > term_cap:
            raise NonConvergence(f"zeta_real(s={s!r}) cannot meet tol={tol!r}")
    acc = KahanSum()
    for k in range(1, n):
        acc.add(complex(k ** -s))
    value = acc.value + tail_val
    return SeriesResult(require_finite(value, "zeta_real").real, n - 1, rem)


def _zeta_real_mp(s: float, tol: float, term_cap: int, dps: int) -> SeriesResult:
    from mpmath import mp, mpf

    from .numerics import _BERNOULLI

    with mp.workdps(dps):
        sm = mpf(s)
        corrections = 7  # first omitted correction is B_16, the last one wired
        n = 16
        while True:
            nm = mpf(n)
            # Euler-Maclaurin in working precision, mirroring dirichlet_tail
            val = nm ** (1 - sm) / (sm - 1) + nm ** (-sm) / 2
            poch = sm
            for j in range(1, corrections + 1):
                b2j = mpf(_BERNOULLI[j - 1].numerator) / _BERNOULLI[j - 1].denominator
                val += b2j / mp.factorial(2 * j) * poch * nm ** (-sm - 2 * j + 1)
                poch *= (sm + 2 * j - 1) * (sm + 2 * j)
            m = corrections
            rem = (
                abs(mpf(_BERNOULLI[m].numerator) / _BERNOULLI[m].denominator)
                / mp.factorial(2 * m + 2) * poch * nm ** (-sm - 2 * m - 1)
            )
            if rem <= tol:
                break
            n *= 2
            if n > term_cap:
                raise NonConvergence(f"zeta_real(s={s!r}, dps={dps}) cannot meet tol={tol!r}")
        head = mpf(0)
        for k in range(1, n):
            head += mpf(k) ** (-sm)
        return SeriesResult(head + val, n - 1, float(rem))
