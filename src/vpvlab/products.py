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
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional, Sequence

from .errors import ComputationError, DomainError, TailBoundExceedsTol
from .numerics import KahanSum, log1m, power_geometric_tail, require_finite
from .polylog import EPS_DOMAIN, EPS_ZETA, polylog, polylog_neg_int, zeta_real

# Largest degree cap verify() will consider.
DEFAULT_DEGREE_CAP_MAX = 4000
# Relative error denominators are floored here to avoid division blowups.
REL_ERR_FLOOR = 1e-300


class RhsForm(Enum):
    POLYLOG_PRODUCT = "polylog_product"
    CLOSED_FORM = "closed_form"


# Named constants usable as the leading right-side factor. The two
# series-backed entries exist because the printed closed forms they
# replace fail the special-value audit; see the explorer module.
_CLOSED_FORM_CONSTANTS: dict[str, Callable[[float], complex]] = {
    "ln2": lambda tol: complex(math.log(2.0)),
    "dilog-half": lambda tol: complex(math.pi ** 2 / 12 - math.log(2.0) ** 2 / 2),
    "trilog-half-series": lambda tol: complex(polylog(3, 0.5, tol).value),
    "quadlog-half-series": lambda tol: complex(polylog(4, 0.5, tol).value),
}


@dataclass(frozen=True)
class IdentityCase:
    """One verifiable product identity instance.

    2D: orders (s, 1 - s) pair with arguments (x, y); x = 1 switches the
    first factor to zeta (requires real s > 1 + EPS_ZETA).
    3D: orders (s, t, 1 - s - t) with arguments (x, y, z).
    """

    dimension: int
    s: complex
    x: complex
    y: complex
    t: Optional[complex] = None
    z: Optional[complex] = None
    rhs_form: RhsForm = RhsForm.POLYLOG_PRODUCT
    closed_form_id: Optional[str] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise DomainError(f"dimension must be 2 or 3, got {self.dimension!r}")
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "x", complex(self.x))
        object.__setattr__(self, "y", complex(self.y))
        if self.dimension == 2:
            if self.t is not None or self.z is not None:
                raise DomainError("2D cases derive t = 1 - s and take no z")
        else:
            if self.t is None or self.z is None:
                raise DomainError("3D cases need explicit t and z")
            object.__setattr__(self, "t", complex(self.t))
            object.__setattr__(self, "z", complex(self.z))
        if self.rhs_form is RhsForm.CLOSED_FORM:
            if self.closed_form_id not in _CLOSED_FORM_CONSTANTS:
                raise DomainError(f"unknown closed_form_id {self.closed_form_id!r}")
        elif self.closed_form_id is not None:
            raise DomainError("closed_form_id only applies to CLOSED_FORM cases")
        self._check_args()

    def _check_args(self) -> None:
        if self.x == 1:
            if self.dimension != 2:
                raise DomainError("x = 1 is only supported in the 2D zeta mode")
            if self.s.imag != 0.0 or self.s.real <= 1.0 + EPS_ZETA:
                raise DomainError(
                    f"x = 1 needs real s > 1 + {EPS_ZETA!r} so the first factor is zeta(s)"
                )
        elif abs(self.x) > 1.0 - EPS_DOMAIN:
            raise DomainError(f"|x| = {abs(self.x)!r} too close to the unit circle")
        if abs(self.y) > 1.0 - EPS_DOMAIN:
            raise DomainError(f"|y| = {abs(self.y)!r} too close to the unit circle")
        if self.dimension == 3 and abs(self.z) > 1.0 - EPS_DOMAIN:
            raise DomainError(f"|z| = {abs(self.z)!r} too close to the unit circle")

    @property
    def order_t(self) -> complex:
        return self.t if self.dimension == 3 else 1 - self.s

    @property
    def order_u(self) -> complex:
        if self.dimension != 3:
            raise DomainError("order_u only exists for 3D cases")
        return 1 - self.s - self.t

    @property
    def is_zeta_mode(self) -> bool:
        return self.dimension == 2 and self.x == 1


@dataclass(frozen=True)
class TruncationSpec:
    """Degree cap plus tolerance; tail_bound is filled by the evaluators."""

    degree_cap: int
    tol: float
    tail_bound: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.degree_cap, int) or self.degree_cap < 1:
            raise DomainError(f"degree_cap must be a positive integer, got {self.degree_cap!r}")
        if self.tol <= 0:
            raise DomainError("tol must be positive")
        if self.tail_bound is not None and self.tail_bound < 0:
            raise DomainError("tail_bound cannot be negative")


@dataclass(frozen=True)
class IdentityReport:
    case: IdentityCase
    lhs_log: complex
    rhs_log: complex
    abs_err: float
    rel_err: float
    truncation: TruncationSpec
    terms: int

    @property
    def degree_cap(self) -> int:
        return self.truncation.degree_cap

    @property
    def tail_bound(self) -> float:
        bound = self.truncation.tail_bound
        return 0.0 if bound is None else bound

    @property
    def passed(self) -> bool:
        """The success criterion: abs_err <= 3 * tol."""
        return self.abs_err <= 3 * self.truncation.tol


# ---------------------------------------------------------------------------
# tail bounds (shared envelope: |a^-s b^-t| <= d^sigma with d the diagonal,
# |log(1 - w)| <= |w| / (1 - |w|), |w| <= r^d)
# ---------------------------------------------------------------------------

def tail_bound_2d(s: complex, t: complex, x: complex, y: complex, degree_cap: int) -> float:
    """Certified bound on the dropped 2D terms past a + b = degree_cap.

    Valid both for the visible-point product log (per-diagonal count
    <= d, log factor bounded by |w|/(1-|w|)) and for the full-lattice
    double sum (same count, no log factor, so the bound only overshoots).
    """
    # Every term carries x^a y^b with a, b >= 1, so a zero argument
    # kills the whole sum and the zero bound is exact.
    if x == 0 or y == 0:
        return 0.0
    r = max(abs(x), abs(y))
    sigma = max(0.0, -complex(s).real) + max(0.0, -complex(t).real)
    crowd = 1.0 / (1.0 - r ** (degree_cap + 1))
    return crowd * power_geometric_tail(degree_cap, sigma + 1.0, r)


def tail_bound_3d(
    s: complex, t: complex, u: complex, x: complex, y: complex, z: complex, degree_cap: int
) -> float:
    """3D analog of tail_bound_2d; per-diagonal count <= d^2 / 2."""
    if x == 0 or y == 0 or z == 0:
        return 0.0
    r = max(abs(x), abs(y), abs(z))
    sigma = (
        max(0.0, -complex(s).real)
        + max(0.0, -complex(t).real)
        + max(0.0, -complex(u).real)
    )
    crowd = 1.0 / (1.0 - r ** (degree_cap + 1))
    return 0.5 * crowd * power_geometric_tail(degree_cap, sigma + 2.0, r)


def _zeta_mode_b_tail(s: complex, t: complex, y: complex, b_cap: int) -> float:
    # dropped b > b_cap: |S_b| <= 1 + 1/(Re s - 1), per-b factor b^max(0,-Re t) r^b
    r = abs(y)
    if r == 0.0:
        return 0.0
    z_bound = 1.0 + 1.0 / (complex(s).real - 1.0)
    sigma_t = max(0.0, -complex(t).real)
    crowd = 1.0 / (1.0 - r ** (b_cap + 1))
    return z_bound * crowd * power_geometric_tail(b_cap, sigma_t, r)


# ---------------------------------------------------------------------------
# low-level sums (explicit orders; no constraint enforcement)
# ---------------------------------------------------------------------------

def _pow_table(base: complex, cap: int) -> list[complex]:
    return [base ** k for k in range(cap + 1)]


def _log_table(cap: int) -> list[float]:
    return [0.0] + [math.log(k) for k in range(1, cap + 1)]


def product_log_sum(
    orders: Sequence[complex], args: Sequence[complex], degree_cap: int
) -> tuple[complex, int]:
    """Sum of -prod a_i^-s_i log(1 - prod x_i^a_i) over visible points
    (a_1, ..., a_n) with a_1 + ... + a_n <= degree_cap, for n >= 2.

    Returns (value, number of product factors summed). Orders are taken
    as given; the product equals exp(prod Li_s_i(x_i)) only when the
    orders sum to 1.

    The point set is the one visible_points_2d/3d enumerate, walked one
    diagonal d = a_1 + ... + a_n at a time. A point is visible exactly
    when gcd(d, a_1, ..., a_(n-1)) = 1, so the gcd of d with the leading
    coordinates is carried down and the last coordinate never enters
    it. Each diagonal is summed exactly with fsum, and so are the
    diagonal partials.
    """
    n = len(orders)
    if n < 2 or len(args) != n:
        raise DomainError(f"need n >= 2 orders and as many arguments, got {n} and {len(args)}")
    ln = _log_table(degree_cap)
    weights = [[cmath.exp(-complex(s) * lk) for lk in ln] for s in orders]
    powers = [_pow_table(complex(x), degree_cap) for x in args]
    gcd = math.gcd
    wb, wc = weights[-2:]
    pb, pc = powers[-2:]

    def points(i, g, r, w, p, out):
        # coordinates before i are fixed: g is their gcd with d, r what is
        # left of d, w and p their weight and power products
        if i == n - 2:
            out += [w * wb[b] * wc[r - b] * log1m(p * pb[b] * pc[r - b])
                    for b in range(1, r) if gcd(g, b) == 1]
            return
        wi = weights[i]
        pi = powers[i]
        # each of the n - 1 - i later coordinates needs at least 1
        for a in range(1, r - (n - 2 - i)):
            points(i + 1, gcd(g, a), r - a, w * wi[a], p * pi[a], out)

    re_parts = []
    im_parts = []
    count = 0
    for d in range(n, degree_cap + 1):
        terms = []
        points(0, d, d, 1.0, 1.0, terms)
        count += len(terms)
        re_parts.append(math.fsum([z.real for z in terms]))
        im_parts.append(math.fsum([z.imag for z in terms]))
    # 0j - total, not -total: a zero part stays +0.0, as in a running sum
    value = 0j - complex(math.fsum(re_parts), math.fsum(im_parts))
    return require_finite(value, "product_log_sum"), count


def lattice_double_sum_2d(
    s: complex, t: complex, x: complex, y: complex, degree_cap: int
) -> complex:
    """Full-lattice oracle: sum of m^-s n^-t x^m y^n over m + n <= cap.

    Deliberately independent of the visible-point path: a plain double
    loop with no gcd filtering, no log factors, and its own power
    tables.
    """
    s = complex(s)
    t = complex(t)
    x = complex(x)
    y = complex(y)
    lg = [0.0] + [math.log(k) for k in range(1, degree_cap + 1)]
    xq = [x ** k for k in range(degree_cap + 1)]
    yq = [y ** k for k in range(degree_cap + 1)]
    acc = KahanSum()
    for d in range(2, degree_cap + 1):
        for m in range(1, d):
            n = d - m
            acc.add(cmath.exp(-s * lg[m] - t * lg[n]) * xq[m] * yq[n])
    return require_finite(acc.value, "lattice_double_sum_2d")


def lattice_triple_sum_3d(
    s: complex, t: complex, u: complex, x: complex, y: complex, z: complex, degree_cap: int
) -> complex:
    """Full-lattice oracle in 3D: sum over m + n + p <= cap, no filtering."""
    s = complex(s)
    t = complex(t)
    u = complex(u)
    lg = [0.0] + [math.log(k) for k in range(1, degree_cap + 1)]
    xq = [complex(x) ** k for k in range(degree_cap + 1)]
    yq = [complex(y) ** k for k in range(degree_cap + 1)]
    zq = [complex(z) ** k for k in range(degree_cap + 1)]
    acc = KahanSum()
    for d in range(3, degree_cap + 1):
        for m in range(1, d - 1):
            for n in range(1, d - m):
                p = d - m - n
                acc.add(cmath.exp(-s * lg[m] - t * lg[n] - u * lg[p]) * xq[m] * yq[n] * zq[p])
    return require_finite(acc.value, "lattice_triple_sum_3d")


# ---------------------------------------------------------------------------
# x = 1 zeta mode: sum over gcd(a, b) = 1 of a^-s = zeta(s) prod_{p | b} (1 - p^-s)
# ---------------------------------------------------------------------------

def _coprime_factors(s: float, cap: int) -> list[float]:
    """c_b = prod over the distinct primes p | b of (1 - p^-s), for b <= cap.

    Euler product: the Dirichlet series over a coprime to b is zeta(s)
    with the factors of the primes dividing b removed (Apostol,
    Introduction to Analytic Number Theory, ch. 11).
    """
    c = [1.0] * (cap + 1)
    sieved = bytearray(cap + 1)
    for p in range(2, cap + 1):
        if not sieved[p]:
            f = 1.0 - p ** -s
            for m in range(p, cap + 1, p):
                c[m] *= f
                sieved[m] = 1
    return c


def _zeta_mode_log_sum(
    s: complex, t: complex, y: complex, b_cap: int
) -> tuple[complex, float, int]:
    """Zeta-mode left side: zeta(s) * sum_b (-b^-t log(1 - y^b)) c_b.

    Returns (value, certified bound, product factors summed = b_cap).
    zeta(s) is evaluated once; its remainder times sum_b |f_b| c_b is
    added to the bound, and its tolerance keeps that share <= 1e-15.
    """
    sr = complex(s).real
    yp = _pow_table(complex(y), b_cap)
    c = _coprime_factors(sr, b_cap)
    acc = KahanSum()
    weight = 0.0
    for b in range(1, b_cap + 1):
        f = -cmath.exp(-t * math.log(b)) * log1m(yp[b]) if b > 1 else -log1m(yp[1])
        acc.add(f * c[b])
        weight += abs(f) * c[b]
    zeta = zeta_real(sr, 1e-15 / max(1.0, weight))
    bound = _zeta_mode_b_tail(s, t, y, b_cap) + zeta.tail_bound * weight
    return require_finite(zeta.value * acc.value, "zeta_mode_log_sum"), bound, b_cap


# ---------------------------------------------------------------------------
# case-level operations
# ---------------------------------------------------------------------------

def _eval_lhs(case: IdentityCase, degree_cap: int) -> tuple[complex, float, int]:
    if case.dimension == 2:
        if case.is_zeta_mode:
            return _zeta_mode_log_sum(case.s, case.order_t, case.y, degree_cap)
        value, count = product_log_sum((case.s, case.order_t), (case.x, case.y), degree_cap)
        bound = tail_bound_2d(case.s, case.order_t, case.x, case.y, degree_cap)
        return value, bound, count
    value, count = product_log_sum(
        (case.s, case.t, case.order_u), (case.x, case.y, case.z), degree_cap
    )
    bound = tail_bound_3d(case.s, case.t, case.order_u, case.x, case.y, case.z, degree_cap)
    return value, bound, count


def lhs_log_product_2d(case: IdentityCase, trunc: TruncationSpec) -> tuple[complex, TruncationSpec]:
    """Left-side log at the given truncation, with the certified bound filled in."""
    if case.dimension != 2:
        raise DomainError("lhs_log_product_2d takes a 2D case")
    value, bound, _ = _eval_lhs(case, trunc.degree_cap)
    return value, replace(trunc, tail_bound=bound)


def lhs_log_product_3d(case: IdentityCase, trunc: TruncationSpec) -> tuple[complex, TruncationSpec]:
    """3D analog of lhs_log_product_2d."""
    if case.dimension != 3:
        raise DomainError("lhs_log_product_3d takes a 3D case")
    value, bound, _ = _eval_lhs(case, trunc.degree_cap)
    return value, replace(trunc, tail_bound=bound)


def brute_force_log_2d(case: IdentityCase, degree_cap: int) -> complex:
    """Independent full-lattice oracle for the 2D right-side log."""
    if case.dimension != 2:
        raise DomainError("brute_force_log_2d takes a 2D case")
    if case.is_zeta_mode:
        raise DomainError("the lattice oracle requires |x| < 1")
    return lattice_double_sum_2d(case.s, case.order_t, case.x, case.y, degree_cap)


def brute_force_log_3d(case: IdentityCase, degree_cap: int) -> complex:
    """Independent full-lattice oracle for the 3D right-side log."""
    if case.dimension != 3:
        raise DomainError("brute_force_log_3d takes a 3D case")
    return lattice_triple_sum_3d(
        case.s, case.t, case.order_u, case.x, case.y, case.z, degree_cap
    )


def _series_magnitude_bound(order: complex, arg: complex) -> float:
    r = abs(arg)
    if r == 0.0:
        return 0.0
    sigma_minus = max(0.0, -complex(order).real)
    bound = power_geometric_tail(0, sigma_minus, r)
    if bound == math.inf:
        # 2^sigma r >= 1: the terms k^sigma r^k still rise at k = 1, so sum
        # them directly to twice their peak at sigma / ln(1/r), where the
        # geometric tail bound applies. A peak past the float range keeps inf.
        cap = int(2.0 * sigma_minus / -math.log(r)) + 1
        try:
            head = math.fsum(k ** sigma_minus * r ** k for k in range(1, cap + 1))
        except OverflowError:
            return math.inf
        bound = head + power_geometric_tail(cap, sigma_minus, r)
    return bound


def _factor_estimate(case: IdentityCase, order: complex, arg: complex, leading: bool) -> float:
    if leading and case.is_zeta_mode:
        return 1.0 + 1.0 / (case.s.real - 1.0)
    if leading and case.rhs_form is RhsForm.CLOSED_FORM:
        return abs(_CLOSED_FORM_CONSTANTS[case.closed_form_id](1e-6))
    order = complex(order)
    if order.imag == 0.0 and order.real == round(order.real) and order.real <= 0:
        return abs(polylog_neg_int(int(-order.real), arg))
    return _series_magnitude_bound(order, arg)


def _eval_factor(
    case: IdentityCase, order: complex, arg: complex, tol_f: float, leading: bool
) -> complex:
    if leading and case.is_zeta_mode:
        return complex(zeta_real(case.s.real, tol_f).value)
    if leading and case.rhs_form is RhsForm.CLOSED_FORM:
        return _CLOSED_FORM_CONSTANTS[case.closed_form_id](tol_f)
    order = complex(order)
    if arg == 0:
        return 0j
    if order.imag == 0.0 and order.real == round(order.real):
        n = int(order.real)
        if n == 1:
            return -log1m(complex(arg))
        if n <= 0:
            return polylog_neg_int(-n, complex(arg))
    return complex(polylog(order, arg, tol_f).value)


def rhs_factors(case: IdentityCase, tol: float = 1e-12) -> tuple[complex, ...]:
    """The right-side polylog factors, each to a tolerance scaled by the
    magnitudes of its cofactors so the product meets tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if case.dimension == 2:
        specs = [(case.s, case.x, True), (case.order_t, case.y, False)]
    else:
        specs = [(case.s, case.x, True), (case.t, case.y, False), (case.order_u, case.z, False)]
    ests = [max(1.0, _factor_estimate(case, o, a, lead)) for o, a, lead in specs]
    values = []
    for i, (order, arg, leading) in enumerate(specs):
        cofactor = 1.0
        for j, e in enumerate(ests):
            if j != i:
                cofactor *= e
        tol_f = tol / (2 * len(specs) * max(1.0, cofactor))
        values.append(_eval_factor(case, order, arg, tol_f, leading))
    return tuple(values)


def rhs_log(case: IdentityCase, tol: float = 1e-12) -> complex:
    """Right-side log: the product of the polylog factors."""
    value = 1 + 0j
    for f in rhs_factors(case, tol):
        value *= f
    return require_finite(value, "rhs_log")


def choose_degree_cap(case: IdentityCase, tol: float, degree_cap_max: int = DEFAULT_DEGREE_CAP_MAX) -> int:
    """Smallest degree cap whose certified tail bound meets tol.

    Raises TailBoundExceedsTol (carrying the achievable bound) when no
    cap up to degree_cap_max suffices.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    start = 2 if case.dimension == 2 else 3
    if case.is_zeta_mode:
        bound_at = lambda cap: _zeta_mode_b_tail(case.s, case.order_t, case.y, cap)
    elif case.dimension == 2:
        bound_at = lambda cap: tail_bound_2d(case.s, case.order_t, case.x, case.y, cap)
    else:
        bound_at = lambda cap: tail_bound_3d(
            case.s, case.t, case.order_u, case.x, case.y, case.z, cap
        )
    for cap in range(start, degree_cap_max + 1):
        if bound_at(cap) <= tol:
            return cap
    raise TailBoundExceedsTol(
        f"no degree cap <= {degree_cap_max} meets tol={tol!r}; "
        f"achievable bound is {bound_at(degree_cap_max)!r}",
        achievable_bound=bound_at(degree_cap_max),
        degree_cap=degree_cap_max,
    )


def verify(
    case: IdentityCase, tol: float, *, degree_cap_max: int = DEFAULT_DEGREE_CAP_MAX
) -> IdentityReport:
    """Verify one identity: evaluate both sides and report the errors.

    The degree cap is chosen from the tail-bound formula so the
    left-side truncation error is certified <= tol/2; the right-side
    factors get the other half of the budget. The success criterion,
    abs_err <= 3 * tol, is the report's `passed`; the report comes back
    either way, so callers must check it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rhs = rhs_log(case, tol / 2)
    cap = choose_degree_cap(case, tol / 2, degree_cap_max)
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
        truncation=TruncationSpec(degree_cap=cap, tol=tol, tail_bound=bound),
        terms=terms,
    )


def report_to_dict(report: IdentityReport) -> dict:
    """JSON-ready view of a report; complex values become {re, im} pairs."""
    return {
        "lhs_log": {"re": report.lhs_log.real, "im": report.lhs_log.imag},
        "rhs_log": {"re": report.rhs_log.real, "im": report.rhs_log.imag},
        "abs_err": report.abs_err,
        "rel_err": report.rel_err,
        "degree_cap": report.degree_cap,
        "tail_bound": report.tail_bound,
        "terms": report.terms,
    }
