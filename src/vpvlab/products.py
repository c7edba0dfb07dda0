"""Truncated visible-point product logs, their certified tail bounds,
the independent full-lattice oracle, and identity verification.

Conventions: the left side of every identity is compared through its
log, the term-wise sum of principal logs

    lhs_log = sum over visible points of -a^-s b^-t log(1 - x^a y^b)

so no winding correction is ever needed. The right side is the product
of polylogarithm factors (series, closed form, or zeta for x = 1). The
order constraint (orders summing to 1) is enforced by construction on
IdentityCase; the low-level sums below take explicit orders so that
tests can demonstrate the identity fails without the constraint.
"""
from __future__ import annotations

import cmath
import itertools
import math
from bisect import bisect_right
from functools import partial
from operator import add, mul, neg, sub
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import ComputationError, DomainError, TailBoundExceedsTol
from .forms import _PRINTED_FORMS, _evaluate, _term_values
from .numerics import (_BLOCK, LOG1M_SERIES_MAX, TERM_CAP, exact_sum, first_within,
                       log1m, log_table, power_geometric_guess, power_geometric_tail,
                       require_finite, smallest_prime_factors)
from .polylog import (EPS_DOMAIN, EPS_ZETA, finite_complex, in_zeta_domain, polylog,
                      polylog_neg_int, zeta_bound, zeta_real)

# The most lattice points a case's level may enclose (_level_limit). At
# equal moduli that is level 6324 in 2D and 493 in 3D.
_WORK_BUDGET = 2 * 10**7
# Zeta mode sums one term per b, so its level is its term count.
_ZETA_MODE_LEVEL_MAX = 4000
# Relative error denominators are floored here to avoid division blowups.
REL_ERR_FLOOR = 1e-300
# (d, mu(d)) for the squarefree d that divide g, at index g >= 1, grown by
# _squarefree_divisors to the longest row of the axes before the last. The
# work budget keeps those below about 6,325 in verify's kernel calls, so the
# table stays within a few MB; a direct product_log_sum call grows it further.
_DIVISORS: list[list[tuple[int, int]]] = [[], [(1, 1)]]


def _printed_half_value(row: int) -> complex:
    """A printed form of Li_k(1/2) that the audit confirms, in double."""
    terms = _PRINTED_FORMS[row][1]
    return complex(_evaluate(terms, _term_values(terms, {"pi": math.pi}, math.log(2.0))))


# Named constants usable as the leading right-side factor: the
# (order, argument) of the Li_s(x) each stands for, and its value at a
# tolerance. Both evaluate printed forms of the audit's table that the
# audit confirms; Li_3(1/2) and Li_4(1/2) have none, as their printed
# forms fail the audit (see the explorer module), so a case at those
# orders takes the series.
_CLOSED_FORM_CONSTANTS: dict[str, tuple[int, float, Callable[[float], complex]]] = {
    "ln2": (1, 0.5, lambda tol: _printed_half_value(0)),
    "dilog-half": (2, 0.5, lambda tol: _printed_half_value(1)),
}


class _CaseFields(NamedTuple):
    dimension: int
    s: complex
    x: complex
    y: complex
    t: Optional[complex]
    z: Optional[complex]
    closed_form_id: Optional[str]
    label: str


class IdentityCase(_CaseFields):
    """One verifiable product identity instance.

    Operations read the orders and arguments as the `orders` and `args`
    tuples. 2D: orders (s, 1 - s) pair with arguments (x, y); x = 1
    switches the first factor to zeta (requires real s >= 1 + EPS_ZETA).
    3D: orders (s, t, 1 - s - t) with arguments (x, y, z). Every order
    and argument must be finite.
    closed_form_id names a _CLOSED_FORM_CONSTANTS entry that replaces
    the leading factor Li_s(x); it must stand for that same s and x.
    The 2D/3D constructor stays because bench/run.py builds cases with
    it; ROADMAP item 1 frees it. _replace and _make skip __new__'s checks.
    """

    __slots__ = ()

    def __new__(cls, dimension, s, x, y, t=None, z=None, closed_form_id=None, label=""):
        # a bool is an int, but neither True nor False is 2 or 3
        if not isinstance(dimension, int) or dimension not in (2, 3):
            raise DomainError(f"dimension must be 2 or 3, got {dimension!r}")
        if dimension == 2 and (t is not None or z is not None):
            raise DomainError("2D cases derive t = 1 - s and take no z")
        if dimension == 3 and (t is None or z is None):
            raise DomainError("3D cases need explicit t and z")
        given = zip("stxyz", (s, t, x, y, z))
        s, t, x, y, z = [None if v is None else finite_complex(name, v) for name, v in given]
        self = super().__new__(cls, dimension, s, x, y, t, z, closed_form_id, label)
        cid = closed_form_id
        if cid is not None:
            if cid not in _CLOSED_FORM_CONSTANTS:
                raise DomainError(f"unknown closed_form_id {cid!r}")
            if self.is_zeta_mode:
                raise DomainError(f"closed_form_id {cid!r} does not apply in zeta mode (x = 1)")
            order, arg, _ = _CLOSED_FORM_CONSTANTS[cid]
            if (s, x) != (order, arg):
                raise DomainError(
                    f"closed_form_id {cid!r} stands for Li_{order}({arg}), "
                    f"not Li_s(x) at s={s!r}, x={x!r}"
                )
        if x == 1:
            if dimension != 2:
                raise DomainError("x = 1 is only supported in the 2D zeta mode")
            if s.imag != 0.0 or not in_zeta_domain(s.real):
                raise DomainError(
                    f"x = 1 needs real s >= 1 + {EPS_ZETA!r} so the first factor is zeta(s)"
                )
        for name, arg in zip("xyz", self.args):
            if abs(arg) > 1.0 - EPS_DOMAIN and not (name == "x" and self.is_zeta_mode):
                raise DomainError(f"|{name}| = {abs(arg)!r} too close to the unit circle")
        return self

    @property
    def orders(self) -> tuple[complex, ...]:
        """(s, 1 - s) or (s, t, 1 - s - t): the orders sum to 1."""
        if self.dimension == 2:
            return (self.s, 1 - self.s)
        return (self.s, self.t, 1 - self.s - self.t)

    @property
    def args(self) -> tuple[complex, ...]:
        """(x, y) or (x, y, z), paired with orders."""
        return (self.x, self.y) if self.dimension == 2 else (self.x, self.y, self.z)

    @property
    def is_zeta_mode(self) -> bool:
        return self.dimension == 2 and self.x == 1


class _TruncationFields(NamedTuple):
    degree_cap: int
    tol: float
    tail_bound: Optional[float]


class TruncationSpec(_TruncationFields):
    """The argument and result of lhs_log_product, and nothing else: the
    level and tolerance to sum at, and the certified tail_bound that
    lhs_log_product fills in. As in IdentityCase, __new__ checks them."""

    __slots__ = ()

    def __new__(cls, degree_cap, tol, tail_bound=None):
        if not isinstance(degree_cap, int) or degree_cap < 1:
            raise DomainError(f"degree_cap must be a positive integer, got {degree_cap!r}")
        if not tol > 0:
            raise DomainError("tol must be positive")
        if tail_bound is not None and tail_bound < 0:
            raise DomainError("tail_bound cannot be negative")
        return super().__new__(cls, degree_cap, tol, tail_bound)


class IdentityReport(NamedTuple):
    """The outcome of verify(case, tol).

    degree_cap is the level the left side was summed to (the smallest
    whose certified tail bound meets tol/2), tol the tolerance asked
    for, tail_bound that level's certified bound on the dropped
    left-side terms, and terms the number of terms summed. passed is
    the success criterion abs_err <= 3 * tol.
    """

    case: IdentityCase
    lhs_log: complex
    rhs_log: complex
    abs_err: float
    rel_err: float
    degree_cap: int
    tol: float
    tail_bound: float
    terms: int
    # the right-side factors Li_s_i(x_i) (or their constants), in case.orders order
    rhs_factors: tuple[complex, ...]

    @property
    def passed(self) -> bool:
        """The success criterion: abs_err <= 3 * tol."""
        return self.abs_err <= 3 * self.tol

    def require_passed(self) -> IdentityReport:
        """The report itself if it passed, else ComputationError, which
        the CLI reports with exit 2."""
        if not self.passed:
            raise ComputationError(
                f"abs_err {self.abs_err!r} exceeds 3*tol = {3 * self.tol!r} "
                f"(tail_bound {self.tail_bound!r}); the identity is not verified"
            )
        return self


# ---------------------------------------------------------------------------
# tail bounds of the weighted region sum a_i mu_i <= level (see product_log_sum)
# ---------------------------------------------------------------------------

def _decay_ratios(args: Sequence[complex]) -> list[float]:
    """mu_i = ln(1/|x_i|) / min_j ln(1/|x_j|): how fast each axis decays, in
    units of the slowest, so every mu_i >= 1 and the slowest is 1.0.

    All 1.0 (the diagonal region) when an argument is 0, where every term
    vanishes, or lies off the open unit disk, where nothing decays.
    """
    moduli = [abs(complex(x)) for x in args]
    if not all(0.0 < m < 1.0 for m in moduli):
        return [1.0] * len(moduli)
    rates = [-math.log(m) for m in moduli]
    slowest = min(rates)
    return [rate / slowest for rate in rates]


def _shell_envelope(orders: Sequence[complex], args: Sequence[complex]) -> tuple[float, float, float]:
    """(n - 1 + P, r, (n-1)! prod mu_i): _shell_tail's power, ratio and point-count divisor."""
    n = len(args)
    r = max(abs(complex(x)) for x in args)
    power = n - 1 + sum(max(0.0, -complex(o).real) for o in orders)
    return power, r, math.factorial(n - 1) * math.prod(_decay_ratios(args))


def _shell_tail(orders: Sequence[complex], args: Sequence[complex], level: int) -> float:
    """Certified bound on the terms past sum a_i mu_i = level.

    Shell m <= sum a_i mu_i < m + 1 holds at most (m+1)^(n-1) / ((n-1)!
    prod mu_i) points: each head of fast-axis coordinates leaves room for
    one slow coordinate. Each point has |w| = prod |x_i|^a_i <= r^m with
    r = max |x_i|, weight |prod a_i^-s_i| <= (m+1)^P with P = sum max(0,
    -Re s_i), and |log(1 - w)| <= |w| / (1 - r^level). Summed over the
    shells m >= level this is power_geometric_tail(level, n-1+P, r) /
    (r (1 - r^level) (n-1)! prod mu_i), the divisor passed by its log, with
    ln r apart, as a subnormal r times the rest rounds to a few bits. The
    same envelope without the log factor covers the full-lattice sum past
    the diagonal a_1 + ... + a_n = level, whose dropped points all lie
    past the weighted level too. The float mu_i are within a few ulp of
    the exact ratios, which moves r^m by under 1e-12 relative above the
    float range's floor; the point count overshoots by far more.
    """
    # Every term carries prod x_i^a_i with all a_i >= 1, so a zero
    # argument kills the whole sum and the zero bound is exact.
    if any(x == 0 for x in args):
        return 0.0
    power, r, spread = _shell_envelope(orders, args)
    return power_geometric_tail(level, power, r, math.log(r) + math.log(spread) + math.log1p(-r ** level))


# the names _tail_bound calls _shell_tail by, for the bench (ROADMAP item 1)
tail_bound_2d = tail_bound_3d = _shell_tail


def _zeta_mode_b_tail(s: complex, t: complex, y: complex, b_cap: int) -> float:
    # dropped b > b_cap: |S_b| <= zeta_bound(Re s), per-b factor b^max(0,-Re t) r^b / (1 - r^(b_cap+1))
    r = abs(y)
    log_divisor = math.log1p(-r ** (b_cap + 1)) - math.log(zeta_bound(complex(s).real))
    return power_geometric_tail(b_cap, max(0.0, -complex(t).real), r, log_divisor)


# ---------------------------------------------------------------------------
# low-level sums (explicit orders; no constraint enforcement)
# ---------------------------------------------------------------------------

def _pow_table(base: complex, cap: int) -> list[complex]:
    return list(map(pow, itertools.repeat(base), range(cap + 1)))


def _weight_table(order: complex, top: int) -> list[complex]:
    """k^-s = exp(-s ln k) at index k for 0 <= k <= top, ln k from
    log_table. A weight past the float range (-Re s ln k past ~709.8), or
    an infinite phase Im s ln k, is a ComputationError naming s and top."""
    s = complex(order)
    try:
        return list(map(cmath.exp, map(mul, itertools.repeat(-s), log_table(top)[:top + 1])))
    except (OverflowError, ValueError):  # cmath.exp raises ValueError at an infinite phase
        raise ComputationError(
            f"a lattice weight k^-s leaves the float range for some k <= {top} at s = {s!r}"
        ) from None


def _squarefree_divisors(top: int) -> list[list[tuple[int, int]]]:
    """_DIVISORS, grown to index top: entry g lists (d, mu(d)) for the
    squarefree d | g, those of g with its smallest prime p taken out
    first, then each of them times p with the sign flipped."""
    if len(_DIVISORS) <= top:
        spf = smallest_prime_factors(top)
        for g in range(len(_DIVISORS), top + 1):
            p = spf[g]
            rest = g // p
            while rest % p == 0:
                rest //= p
            smaller = _DIVISORS[rest]
            _DIVISORS.append(smaller + [(d * p, -m) for d, m in smaller])
    return _DIVISORS


def _suffix_tables(q: Sequence[list[complex]], d: int, sign: int) -> list:
    """[S_1, ..., S_4] for the multiples of d in q = (Q_1, ..., Q_4).

    S_j[i] is sign times the sum of Q_j[kd] over i < k <= (len(Q_j) - 1) // d,
    accumulated from the largest k down, so sign times the sum over
    lo < k <= hi is S_j[lo] - S_j[hi].
    """
    k = (len(q[0]) - 1) // d
    step = None if sign > 0 else sub  # None: accumulate's own addition
    return [list(itertools.accumulate(qj[k * d:0:-d], step, initial=0j))[::-1] for qj in q]


def product_log_sum(
    orders: Sequence[complex], args: Sequence[complex], degree_cap: int
) -> tuple[complex, int]:
    """Sum of -prod a_i^-s_i log(1 - prod x_i^a_i) over visible points
    (a_1, ..., a_n) with a_1 mu_1 + ... + a_n mu_n <= degree_cap, for n >= 2.
    Every |x_i| must be below 1 (DomainError otherwise); 0 is allowed. A
    weight a^-s_i that a point needs past the float range is a
    ComputationError naming that axis's order s_i and longest row.

    Returns (value, number of product factors summed). Orders are taken
    as given; the product equals exp(prod Li_s_i(x_i)) only when the
    orders sum to 1.

    degree_cap is the level: mu_i = ln(1/|x_i|) / min_j ln(1/|x_j|)
    (_decay_ratios), so the level counts in units of the slowest axis's
    decay and every dropped point has |prod x_i^a_i| < max |x_i|^level.
    At equal moduli every mu_i is 1.0 and the region is the diagonal
    a_1 + ... + a_n <= degree_cap that lattice.visible_points enumerates.

    The walk fixes the other coordinates (the head, with weight w, power
    p and gcd g) and runs along one row b = 1 .. top of the slowest axis
    (weight c_b = b^-t, power y^b), whose rows are the longest. A point
    is visible exactly when gcd(g, b) = 1. As |y| < 1, |p y^b| falls
    along the row, and from the first b0 where it is below
    LOG1M_SERIES_MAX on, log1m is the series -(w + w^2/2 + w^3/3 + w^4/4).
    So the row's tail b0 .. top is -sum_j p^j/j T_j with
    T_j = sum of Q_j[b] = c_b y^(jb) over its b coprime to g, which by
    Moebius inversion is the sum over the squarefree d | g, d <= top, of
    mu(d) times the sum of Q_j over the multiples of d in b0 .. top; the
    (d, mu(d)) lists come from the process-wide _DIVISORS.
    With at most 3 such multiples and no table for d yet, that sum is
    taken straight from Q_j; otherwise it is a difference of two suffix
    sums (_suffix_tables), built once per call and per d when a row first
    needs more. Short rows come first, so a table is built only for the
    d that some longer row needs. A row with g = 1 has only d = 1.
    The head b < b0 is summed term by term, with no gcd test when g = 1.
    Every head term and every row's tail is multiplied once by w, and
    exact_sum sums the products, rounding once per _BLOCK of them.

    The walk keeps the coordinates before the last head axis on a stack
    and runs the rows of that axis in a loop, from its largest coordinate
    down, the order in which a stack of rows would pop them. The tables run
    to each axis's longest row (every other coordinate at 1): an empty
    region builds tables of one entry, a nearly empty one its short rows.
    """
    n = len(orders)
    if n < 2 or len(args) != n:
        raise DomainError(f"need n >= 2 orders and as many arguments, got {n} and {len(args)}")
    if any(abs(complex(x)) >= 1.0 for x in args):
        raise DomainError(f"product_log_sum needs every |x_i| < 1, got {list(args)!r}")
    mu = _decay_ratios(args)
    # fastest axis first and the slowest (mu = 1.0) last; the sum is the
    # same under any order of the axes, and equal mu keep their order
    axes = sorted(range(n), key=mu.__getitem__, reverse=True)
    mu = [mu[i] for i in axes]
    # least share of the level that the coordinates after axis i take up
    later = [math.fsum(mu[i + 1:]) for i in range(n)]
    # covers the rounding of the running budget, so no point of the region
    # is lost; at equal moduli every budget is an exact integer
    slack = 1e-9 * degree_cap
    # each axis's longest row, reached with every other coordinate at 1; a
    # second slack keeps the walk's rounded budgets inside every table
    tops = [max(0, int((degree_cap - (later[0] + mu[0] - m) + 2 * slack) / m)) for m in mu]
    weights = [_weight_table(orders[i], top) for i, top in zip(axes, tops)]
    powers = [_pow_table(complex(args[i]), top) for i, top in zip(axes, tops)]
    gcd = math.gcd
    log = cmath.log
    wb, pb = weights[-1], powers[-1]
    # -|y^b| ascends, so a bisection finds each row's b0
    descent = list(map(neg, map(abs, pb)))
    q = [list(map(mul, wb, pb))]
    for _ in range(3):
        q.append(list(map(mul, q[-1], pb)))
    q1, q2, q3, q4 = q
    # every row gcd divides a coordinate of an axis before the last
    divisors = _squarefree_divisors(max(tops[:-1]))
    cut = -LOG1M_SERIES_MAX
    tables = {}  # d -> _suffix_tables(q, d, mu(d))
    parts = []
    count = 0
    # a stack, not a recursive closure: a closure that calls itself is a
    # reference cycle, which would keep every table alive until the
    # cyclic collector runs
    stack = [(0, 0, float(degree_cap), 1.0, 1.0)]
    while stack:
        # coordinates before axis i are fixed: g is their gcd, budget what
        # is left of the level, w and p their weight and power products
        i, g, budget, w, p = stack.pop()
        m, wi, pi = mu[i], weights[i], powers[i]
        last = int((budget - later[i] + slack) / m)
        if i < n - 2:
            stack.extend((i + 1, gcd(g, a), budget - a * m, w * wi[a], p * pi[a])
                         for a in range(1, last + 1))
            continue
        # the rows of axis n - 2, last first, as a stack would pop them
        for a in range(last, 0, -1):
            ga, wa, pa = gcd(g, a), w * wi[a], p * pi[a]
            top = int(budget - a * m + slack)
            ap = abs(pa)
            b0 = bisect_right(descent, cut / ap, 1, top + 1) if ap else 1
            if b0 > 1:
                # |p y^b| >= LOG1M_SERIES_MAX here, where log1m is cmath.log
                head = [wa * (wb[b] * log(1 - pa * pb[b]))
                        for b in range(1, b0) if ga == 1 or gcd(ga, b) == 1]
                count += len(head)
                parts += head
            if b0 <= top:
                bm = b0 - 1
                t1 = t2 = t3 = t4 = 0j
                for d, sign in divisors[ga]:
                    # the multiples kd of d in b0 .. top have lo < k <= hi
                    lo, hi = bm // d, top // d
                    if lo == hi:
                        continue
                    count += sign * (hi - lo)
                    table = tables.get(d)
                    if table is None:
                        if hi - lo <= 3:
                            # too few to pay for a table: sum them from Q_j
                            # add or sub, not sign * q: that product costs
                            # more than the addition it signs
                            step = add if sign > 0 else sub
                            for b in range(hi * d, bm, -d):
                                t1 = step(t1, q1[b])
                                t2 = step(t2, q2[b])
                                t3 = step(t3, q3[b])
                                t4 = step(t4, q4[b])
                            continue
                        table = tables[d] = _suffix_tables(q, d, sign)
                    r1, r2, r3, r4 = table
                    t1 += r1[lo] - r1[hi]
                    t2 += r2[lo] - r2[hi]
                    t3 += r3[lo] - r3[hi]
                    t4 += r4[lo] - r4[hi]
                parts.append(-wa * pa * (t1 + pa * (t2 * 0.5 + pa * (t3 * (1 / 3) + pa * (t4 * 0.25)))))
            if len(parts) > _BLOCK:
                # fold the list into its sum, so it holds one block of products
                parts = [exact_sum(parts)]
    # 0j - total, not -total: a zero part stays +0.0, as in a running sum
    value = 0j - exact_sum(parts)
    return require_finite(value, "product_log_sum"), count


def lattice_sum(orders: Sequence[complex], args: Sequence[complex], degree_cap: int) -> complex:
    """Full-lattice oracle: sum of prod k_i^-s_i x_i^k_i over all positive
    (k_1, ..., k_n) with k_1 + ... + k_n <= degree_cap, for n >= 2.

    Deliberately independent of the visible-point path: no gcd
    filtering, no log factors, its own tables, and its own walk. The
    points of each diagonal d are the (n - 1)-subsets of the cut points
    1 .. d - 1, which itertools yields in ascending lexicographic order.
    """
    n = len(orders)
    if n < 2 or len(args) != n:
        raise DomainError(f"need n >= 2 orders and as many arguments, got {n} and {len(args)}")
    orders = [complex(o) for o in orders]
    lg = [0.0] + [math.log(k) for k in range(1, degree_cap + 1)]
    powers = [[complex(x) ** k for k in range(degree_cap + 1)] for x in args]
    total = comp = 0j  # Kahan sum of the terms and its compensation
    for d in range(n, degree_cap + 1):
        for cuts in itertools.combinations(range(1, d), n - 1):
            point = [hi - lo for lo, hi in zip((0,) + cuts, cuts + (d,))]
            exponent = -orders[0] * lg[point[0]]
            for order, k in zip(orders[1:], point[1:]):
                exponent -= order * lg[k]
            term = cmath.exp(exponent)
            for table, k in zip(powers, point):
                term *= table[k]
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
    return require_finite(total, "lattice_sum")


# ---------------------------------------------------------------------------
# x = 1 zeta mode: sum over gcd(a, b) = 1 of a^-s = zeta(s) prod_{p | b} (1 - p^-s)
# ---------------------------------------------------------------------------

def _coprime_factors(s: float, cap: int) -> list[float]:
    """c_b = prod over the distinct primes p | b of (1 - p^-s), for b <= cap.

    Euler product: the Dirichlet series over a coprime to b is zeta(s)
    with the factors of the primes dividing b removed (Apostol,
    Introduction to Analytic Number Theory, ch. 11). The primes are those
    of smallest_prime_factors, and each one, the smallest first, scales
    every c_b at its multiples.
    """
    spf = smallest_prime_factors(cap)
    c = [1.0] * (cap + 1)
    for p in range(2, cap + 1):
        if spf[p] == p:
            f = 1.0 - p ** -s
            c[p::p] = [v * f for v in c[p::p]]
    return c


def _zeta_mode_log_sum(
    s: complex, t: complex, y: complex, b_cap: int
) -> tuple[complex, float, int]:
    """Zeta-mode left side: zeta(s) * sum_b (-b^-t log(1 - y^b)) c_b.

    Returns (value, certified bound, product factors summed = b_cap).
    exact_sum sums the terms f_b c_b. zeta(s) is evaluated once; its
    remainder times sum_b |f_b| c_b is added to the bound, and its
    tolerance keeps that share <= 1e-15. The weights b^-t come from
    _weight_table, which refuses one past the float range.
    """
    sr = complex(s).real
    yp = _pow_table(complex(y), b_cap)
    c = _coprime_factors(sr, b_cap)
    bt = _weight_table(t, b_cap)
    terms = []
    weight = 0.0
    for b in range(1, b_cap + 1):
        f = -bt[b] * log1m(yp[b])
        terms.append(f * c[b])
        weight += abs(f) * c[b]
    zeta = zeta_real(sr, 1e-15 / max(1.0, weight))
    bound = _zeta_mode_b_tail(s, t, y, b_cap) + zeta.tail_bound * weight
    return require_finite(zeta.value * exact_sum(terms), "zeta_mode_log_sum"), bound, b_cap


# ---------------------------------------------------------------------------
# case-level operations
# ---------------------------------------------------------------------------

def _tail_bound(case: IdentityCase, degree_cap: int) -> float:
    if case.is_zeta_mode:
        return _zeta_mode_b_tail(*case.orders, case.y, degree_cap)
    # Called through the module globals: bench/run.py counts the cap
    # search's evaluations by patching these names (ROADMAP item 1).
    bound = tail_bound_2d if case.dimension == 2 else tail_bound_3d
    return bound(case.orders, case.args, degree_cap)


def _eval_lhs(case: IdentityCase, degree_cap: int) -> tuple[complex, float, int]:
    if case.is_zeta_mode:
        return _zeta_mode_log_sum(*case.orders, case.y, degree_cap)
    value, count = product_log_sum(case.orders, case.args, degree_cap)
    return value, _tail_bound(case, degree_cap), count


def lhs_log_product(case: IdentityCase, trunc: TruncationSpec) -> tuple[complex, TruncationSpec]:
    """Left-side log at the given truncation, with the certified bound filled in."""
    value, bound, _ = _eval_lhs(case, trunc.degree_cap)
    return value, TruncationSpec(trunc.degree_cap, trunc.tol, bound)


# bench/run.py calls the left side by these names; ROADMAP item 1 frees them.
lhs_log_product_2d = lhs_log_product_3d = lhs_log_product


def _series_magnitude_bound(order: complex, arg: complex) -> float:
    r = abs(arg)
    sigma_minus = max(0.0, -complex(order).real)
    bound = power_geometric_tail(0, sigma_minus, r)
    if bound == math.inf:
        # 2^sigma r >= 1: the terms k^sigma r^k still rise at k = 1, so sum
        # them directly to twice their peak at sigma / ln(1/r), where the
        # geometric tail bound applies. A peak past TERM_CAP (sigma > 5,000
        # at |arg| <= 1 - EPS_DOMAIN) or past the float range keeps inf.
        peak = 2.0 * sigma_minus / -math.log(r)
        if peak > TERM_CAP:
            return math.inf
        cap = int(peak) + 1
        try:
            head = math.fsum(k ** sigma_minus * r ** k for k in range(1, cap + 1))
        except OverflowError:
            return math.inf
        bound = head + power_geometric_tail(cap, sigma_minus, r)
    return bound


def _factor(
    case: IdentityCase, order: complex, arg: complex, leading: bool
) -> tuple[float, Callable[[float], complex]]:
    """(magnitude estimate, evaluator at a tolerance) of one right-side factor.

    The leading factor is zeta(s) in zeta mode, or the case's closed-form
    constant. Li_1 and Li_{-n} have closed forms that need no tolerance;
    Li_{-n} is evaluated here once and its magnitude is its estimate.
    Every other factor is the series.
    """
    if leading and case.is_zeta_mode:
        sr = case.s.real
        return zeta_bound(sr), lambda tol: complex(zeta_real(sr, tol).value)
    if leading and case.closed_form_id is not None:
        # Each constant stands for a Li_k(x) with k >= 1, so its magnitude
        # is at most Li_1(|x|) = -ln(1 - |x|); no evaluation is needed.
        constant = _CLOSED_FORM_CONSTANTS[case.closed_form_id][2]
        return -math.log1p(-abs(arg)), constant
    order = complex(order)
    if arg == 0:
        return 0.0, lambda tol: 0j
    if order.imag == 0.0 and order.real == round(order.real):
        n = int(order.real)
        if n == 1:
            value = -log1m(complex(arg))
            return _series_magnitude_bound(order, arg), lambda tol: value
        if n <= 0:
            value = polylog_neg_int(-n, complex(arg))
            return abs(value), lambda tol: value
    return _series_magnitude_bound(order, arg), lambda tol: complex(polylog(order, arg, tol).value)


def rhs_factors(case: IdentityCase, tol: float = 1e-12) -> tuple[complex, ...]:
    """The right-side polylog factors, each to a tolerance scaled by the
    magnitudes of its cofactors so the product meets tol.

    Raises ComputationError before any factor is evaluated when one
    factor's magnitude estimate is past the float range, which would
    leave its cofactors no tolerance, and when a factor's share of tol
    underflows to 0.0.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    factors = [_factor(case, o, a, i == 0) for i, (o, a) in enumerate(zip(case.orders, case.args))]
    if math.inf in [est for est, _ in factors]:
        raise ComputationError("a right-side factor's magnitude estimate is past the float range")
    ests = [max(1.0, est) for est, _ in factors]
    # each cofactor, a product of estimates >= 1, is at least 1
    return tuple(evaluate(_tol_share(tol, 2 * len(factors) * math.prod(ests[:i] + ests[i + 1:])))
                 for i, (_, evaluate) in enumerate(factors))


def _tol_share(tol: float, parts: float) -> float:
    """tol / parts; ComputationError (exit 2) where a positive tol's share underflows to 0.0."""
    share = tol / parts
    if share == 0.0 < tol:
        raise ComputationError(f"the tolerance share {tol!r}/{parts!r} underflows to 0.0")
    return share


def _rhs_product(factors: Sequence[complex]) -> complex:
    return require_finite(math.prod(factors, start=1 + 0j), "rhs_log")


def rhs_log(case: IdentityCase, tol: float = 1e-12) -> complex:
    """Right-side log: the product of the polylog factors."""
    return _rhs_product(rhs_factors(case, tol))


def _level_limit(case: IdentityCase) -> int:
    """The largest level choose_degree_cap considers: _ZETA_MODE_LEVEL_MAX
    in zeta mode, else _budget_level at the case's decay ratios. A faster
    axis so buys a higher level."""
    if case.is_zeta_mode:
        return _ZETA_MODE_LEVEL_MAX
    return _budget_level(case.dimension, math.prod(_decay_ratios(case.args)))


def _budget_level(n: int, mu_product: float = 1.0) -> int:
    """The largest L whose simplex volume L^n / (n! prod mu_i), the point
    count of the region sum a_i mu_i <= L, fits _WORK_BUDGET; prod mu_i is
    1.0 for the diagonal region a_1 + ... + a_n <= L."""
    return int((_WORK_BUDGET * math.factorial(n) * mu_product) ** (1 / n))


def _cap_guess(case: IdentityCase, tol: float) -> int:
    """Where the cap search starts: power_geometric_guess for _tail_bound's
    power_geometric_tail, at tol times its divisor less 1 - r^(cap+1), near 1."""
    if case.is_zeta_mode:
        sigma_t = max(0.0, -case.orders[1].real)
        return power_geometric_guess(sigma_t, abs(case.y), tol / zeta_bound(case.s.real))
    power, r, spread = _shell_envelope(case.orders, case.args)
    return power_geometric_guess(power, r, tol * (r * spread))


def choose_degree_cap(case: IdentityCase, tol: float) -> int:
    """Smallest degree cap (the level of product_log_sum) whose certified
    tail bound meets tol.

    The bound is inf before its peak and decreasing after it, so
    first_within, started at _cap_guess, finds the level a scan from n
    upward would find.
    Raises TailBoundExceedsTol (carrying the achievable bound) when no
    level up to _level_limit(case) suffices.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    limit = _level_limit(case)
    # the first level holding a point is n
    found = first_within(partial(_tail_bound, case), tol, case.dimension, limit, _cap_guess(case, tol))
    if found is not None:
        return found[0]
    best = _tail_bound(case, limit)
    budget = "" if case.is_zeta_mode else f" (the work budget of {_WORK_BUDGET:.0e} lattice points)"
    raise TailBoundExceedsTol(
        f"no degree cap <= {limit}{budget} meets tol={tol!r}; achievable bound is {best!r}",
        achievable_bound=best,
        degree_cap=limit,
    )


def verify(case: IdentityCase, tol: float) -> IdentityReport:
    """Verify one identity: evaluate both sides and report the errors.

    The degree cap is chosen from the tail-bound formula so the
    left-side truncation error is certified <= tol/2; the right-side
    factors get the other half of the budget. The success criterion,
    abs_err <= 3 * tol, is the report's `passed`; the report comes back
    either way, so callers must check it.
    """
    half = _tol_share(tol, 2)
    factors = rhs_factors(case, half)
    rhs = _rhs_product(factors)
    cap = choose_degree_cap(case, half)
    lhs, bound, terms = _eval_lhs(case, cap)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(rhs), REL_ERR_FLOOR)
    if not math.isfinite(abs_err):
        raise ComputationError(f"non-finite error for case {case.label or case!r}")
    return IdentityReport(
        case=case,
        lhs_log=lhs,
        rhs_log=rhs,
        abs_err=abs_err,
        rel_err=rel_err,
        degree_cap=cap,
        tol=tol,
        tail_bound=bound,
        terms=terms,
        rhs_factors=factors,
    )
