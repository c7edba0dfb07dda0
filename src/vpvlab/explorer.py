"""Numerical studies built on the core identities: an audit of printed
half-argument polylog constants, the alternating double-zeta sum, a
catalog of named identity instances, a near-boundary probe at negative
integer orders, and a critical-line scan over complex orders.
"""
from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ComputationError, DomainError, NonConvergence, VpvError
from .numerics import arithmetic
from .polylog import TERM_CAP, SeriesResult, polylog, zeta_real
from .products import DEFAULT_DEGREE_CAP_MAX, IdentityCase, IdentityReport, verify

# Ordinates of the first three nontrivial zeta zeros; natural default
# probe heights for complex-order cases on the critical line.
DEFAULT_T_VALUES = (14.134725, 21.022040, 25.010858)
# Tolerance for the split-exponent self-check along Re s = 1/2, per unit
# of max(1, |T|): the roundoff in the phase T ln(b/a) grows with |T|.
EXPONENT_TOL = 1e-14
_EXPONENT_PAIRS = (
    (1, 2), (2, 3), (3, 5), (7, 10), (25, 4),
    (50, 99), (100, 1), (99, 98), (7, 100), (64, 27),
)
# A corrected-variant verdict requires a unique candidate this close.
CANDIDATE_TOL = 1e-10

MATCHES_PRINTED = "MATCHES_PRINTED"
MATCHES_CORRECTED = "MATCHES_CORRECTED"
UNRESOLVED = "UNRESOLVED"


@dataclass(frozen=True)
class SpecialValueRecord:
    """Outcome of auditing one printed closed form against the series.

    verdict is MATCHES_PRINTED when the printed form agrees with the
    series value within the audit tolerance; MATCHES_CORRECTED when it
    does not but exactly one sign/exponent variant does (within
    CANDIDATE_TOL); UNRESOLVED otherwise.
    """

    name: str
    verdict: str
    printed_form_value: complex
    series_value: complex
    discrepancy: float
    candidate_corrected_value: Optional[complex] = None
    corrected_formula: Optional[str] = None
    note: str = ""


@dataclass(frozen=True)
class ProbeRow:
    """One y = 1 - delta verification row of the near-boundary probe."""

    delta: float
    y: float
    lhs_log: Optional[complex] = None
    rhs_log: Optional[complex] = None
    abs_err: Optional[float] = None
    rhs_exponent_magnitude: Optional[float] = None
    closed_factor: Optional[complex] = None
    degree_cap: Optional[int] = None
    tail_bound: Optional[float] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class ScanRow:
    """One verified critical-line row at s = 1/2 + iT."""

    t_value: float
    lhs_log: complex
    rhs_log: complex
    abs_err: float
    li_s_x: complex
    li_t_y: complex
    exponent_dev: float
    degree_cap: int
    tail_bound: float


# ---------------------------------------------------------------------------
# alternating double zeta: sum over m > n >= 1 of (-1)^(m+n) m^-3 n^-1
# ---------------------------------------------------------------------------

def _averaged_estimate(window: Sequence[float]) -> float:
    w = list(window)
    while len(w) > 1:
        w = [(w[i] + w[i + 1]) / 2 for i in range(len(w) - 1)]
    return w[0]


def euler_zagier_31(tol: float = 1e-10) -> SeriesResult:
    """Evaluate sum_{m>n>=1} (-1)^(m+n) m^-3 n^-1 with a certified bound.

    Grouped by m the series is alternating with decreasing magnitude
    from m = 2 on, so consecutive partial sums bracket the limit and the
    first omitted term is a rigorous error bound. The returned value is
    an iterated-averaging (Euler transform) estimate of the limit,
    clamped into that bracket so the bound applies to it unchanged.
    """
    if not tol >= 1e-14:
        raise ValueError(f"tol must be >= 1e-14, got {tol!r}")
    total = comp = 0.0  # Kahan sum of the m-groups and its compensation
    window: deque[float] = deque(maxlen=64)
    s_inner = 0.0  # alternating harmonic partial sum S(m-1)
    sign = -1.0  # (-1)^m
    cube = 1.0  # m^-3
    m = 1
    while True:
        y = sign * cube * s_inner - comp
        t = total + y
        comp = (t - total) - y
        total = t
        window.append(total)
        s_inner += sign / m
        next_cube = (m + 1) ** -3.0
        omitted = abs(s_inner) * next_cube
        if m >= 2 and omitted <= tol:
            break
        if m >= TERM_CAP:
            raise NonConvergence(
                f"alternating double zeta did not reach tol={tol!r} within {TERM_CAP} terms"
            )
        m += 1
        sign = -sign
        cube = next_cube
    p_last = total
    p_next = p_last - sign * next_cube * s_inner
    lo, hi = min(p_last, p_next), max(p_last, p_next)
    value = min(max(_averaged_estimate(window), lo), hi)
    return SeriesResult(value=value, terms_used=m, tail_bound=omitted + 1e-15)


# ---------------------------------------------------------------------------
# special-value audit
# ---------------------------------------------------------------------------

class _Term(NamedTuple):
    """One signed term of a printed form, with its ln 2 power or None.
    text has a `{}` slot for that power; value(c, lp) is the unsigned value
    from the audit constants c and lp = ln(2)^power. A term that is not
    free is the same in every variant."""

    sign: int
    power: Optional[int]
    text: str
    value: Callable
    free: bool = True


# The printed closed forms of Li_k(1/2), k = 1..4, in audit order.
_PRINTED_FORMS = (
    ("LI1_HALF", (_Term(1, 1, "{}", lambda c, lp: lp, free=False),)),
    ("LI2_HALF", (
        _Term(1, None, "pi^2/12", lambda c, lp: c["pi"] ** 2 / 12, free=False),
        _Term(-1, 2, "{}/2", lambda c, lp: lp / 2, free=False),
    )),
    ("LI3_HALF", (
        _Term(1, 3, "{}/6", lambda c, lp: lp / 6),
        _Term(-1, 2, "(pi^2/12) {}", lambda c, lp: c["pi"] ** 2 / 12 * lp),
        _Term(-1, None, "(7/8) zeta(3)", lambda c, lp: 7 * c["zeta3"] / 8),
    )),
    ("LI4_HALF", (
        _Term(1, None, "pi^4/360", lambda c, lp: c["pi"] ** 4 / 360, free=False),
        _Term(-1, 4, "{}/24", lambda c, lp: lp / 24),
        _Term(-1, 4, "(pi^2/24) {}", lambda c, lp: c["pi"] ** 2 / 24 * lp),
        _Term(-1, None, "zeta_alt(3,1)/2", lambda c, lp: c["ez31"] / 2),
    )),
)


def _evaluate(terms: Sequence[_Term], constants: dict, ln2_powers: dict):
    # Left to right on purpose: sum() compensates float sums from 3.12 on.
    total = 0
    for term in terms:
        value = term.value(constants, ln2_powers.get(term.power))
        total = total + value if term.sign > 0 else total - value
    return total


def _format(terms: Sequence[_Term]) -> str:
    out = []
    for i, term in enumerate(terms):
        text = term.text.format("ln(2)" if term.power == 1 else f"ln(2)^{term.power}")
        if i == 0:
            out.append(text if term.sign > 0 else f"-{text}")
        else:
            out.append(f"{'+' if term.sign > 0 else '-'} {text}")
    return " ".join(out)


def _variants(terms: Sequence[_Term]) -> Iterator[tuple[_Term, ...]]:
    """Each sign and ln 2 power (1..4) of the free terms, but the printed one."""
    choices = [
        [term._replace(sign=sign, power=power)
         for power in ((1, 2, 3, 4) if term.power else (None,)) for sign in (1, -1)]
        if term.free else [term]
        for term in terms
    ]
    for variant in _iproduct(*choices):
        if variant != tuple(terms):
            yield variant


def audit_special_values(tol: float = 1e-12, *, dps: Optional[int] = None) -> list[SpecialValueRecord]:
    """Check the four half-argument polylog constants against their
    printed closed forms.

    Each Li_k(1/2) is computed from the defining series (at working
    precision dps when given) and compared with the printed formula at
    tolerance tol. On disagreement, the sign/exponent variants of the
    printed form are searched; a unique variant within CANDIDATE_TOL
    yields MATCHES_CORRECTED, otherwise UNRESOLVED. The audit only
    reports; no other module substitutes corrected forms.

    Raises DomainError when the working precision cannot certify the
    series values to min(tol, CANDIDATE_TOL): below that floor the
    verdicts would compare rounding noise.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    series_tol = 1e-15 if dps is None else max(10.0 ** (2 - dps), 1e-45)
    if series_tol > min(tol, CANDIDATE_TOL):
        precision = "double" if dps is None else f"extended:{dps}"
        raise DomainError(
            f"{precision} precision certifies the series only to {series_tol!r}; the audit "
            f"needs that floor <= min(tol, {CANDIDATE_TOL!r}), got tol={tol!r}"
        )
    ctx = arithmetic(dps)
    # candidate evaluation and comparisons run at working precision
    with ctx.workdps(dps):
        z3 = zeta_real(3.0, series_tol, dps=dps).value
        li = {k: polylog(k, 0.5, series_tol, dps=dps).value.real for k in (1, 2, 3, 4)}
        return _build_audit_records(li, +ctx.pi, ctx.log(2), z3, euler_zagier_31(1e-13).value, tol)


def _build_audit_records(li, pi, ln2, z3, ez, tol) -> list[SpecialValueRecord]:
    constants = {"pi": pi, "zeta3": z3, "ez31": ez}
    ln2_powers = {p: ln2 ** p for p in (1, 2, 3, 4)}
    records = []
    for k, (name, terms) in enumerate(_PRINTED_FORMS, 1):
        printed = _evaluate(terms, constants, ln2_powers)
        diff = abs(li[k] - printed)
        formula = value = None
        if diff <= tol:
            verdict = MATCHES_PRINTED
            note = f"printed form {_format(terms)} confirmed by the series"
        else:
            candidates = ((v, _evaluate(v, constants, ln2_powers)) for v in _variants(terms))
            hits = [(v, c) for v, c in candidates if abs(c - li[k]) <= CANDIDATE_TOL]
            off = f"printed form {_format(terms)} is off by {float(diff):.3e}"
            if len(hits) == 1:
                verdict = MATCHES_CORRECTED
                formula, value = _format(hits[0][0]), hits[0][1]
                note = f"{off}; the unique matching variant is {formula}"
            else:
                verdict = UNRESOLVED
                note = f"{off} and no unique sign/exponent variant matches the series value"
        records.append(SpecialValueRecord(
            name=name,
            verdict=verdict,
            printed_form_value=complex(printed),
            series_value=complex(li[k]),
            discrepancy=float(diff),
            candidate_corrected_value=None if value is None else complex(value),
            corrected_formula=formula,
            note=note,
        ))
    return records


# ---------------------------------------------------------------------------
# identity catalog
# ---------------------------------------------------------------------------

def catalog() -> list[IdentityCase]:
    """The named identity instances at default arguments.

    Two half-argument entries take their leading constant from the
    series-backed registry ids because the printed closed forms fail the
    audit; the identities themselves are unaffected.
    """
    cases: list[IdentityCase] = []
    for s in (1, 2, 3, 4, 5):
        cases.append(IdentityCase(2, s, 0.3, 0.3, label=f"vpv2-s{s}"))
    for s in (2, 3, 4, 5):
        cases.append(IdentityCase(2, s, 1.0, 0.3, label=f"zeta-s{s}"))
    for s, cf in ((1, "ln2"), (2, "dilog-half"),
                  (3, "trilog-half-series"), (4, "quadlog-half-series")):
        cases.append(IdentityCase(2, s, 0.5, 0.3, closed_form_id=cf, label=f"half-s{s}"))
    cases.append(IdentityCase(
        2, complex(0.5, DEFAULT_T_VALUES[0]), 0.3, 0.3, label="critical-line",
    ))
    return cases


def run_catalog(
    tol: float = 1e-8,
    *,
    degree_cap_max: int = DEFAULT_DEGREE_CAP_MAX,
) -> list[IdentityReport]:
    """Verify every catalog case; reports come back in catalog order."""
    return [verify(c, tol, degree_cap_max=degree_cap_max) for c in catalog()]


# ---------------------------------------------------------------------------
# near-boundary probe at negative integer orders
# ---------------------------------------------------------------------------

def trivial_zero_probe(
    order: int = 3,
    x: complex = 0.5,
    deltas: Iterable[float] = (0.5, 0.4, 0.3, 0.2),
    *,
    tol: float = 1e-8,
    degree_cap_max: int = DEFAULT_DEGREE_CAP_MAX,
) -> tuple[list[ProbeRow], str]:
    """Verify the 2D identity with orders (order, 1 - order) at y = 1 - delta.

    The second factor is Li_{-(order-1)}(y), a rational function whose
    closed form stays exact as y -> 1 even though its magnitude blows
    up. Rows record both sides, the error, and the growing exponent
    magnitude; rows whose tolerance is unachievable (or whose y lands in
    the excluded band near the unit circle) record the error message
    instead of failing the whole table. Returns (rows, note) where the
    note summarizes the observed boundary behavior.
    """
    if order not in (2, 3, 4):
        raise DomainError(f"order must be 2, 3, or 4, got {order!r}")
    deltas = [float(d) for d in deltas]
    for d in deltas:
        if not 0.0 < d < 1.0:
            raise DomainError(f"each delta must lie in (0, 1), got {d!r}")
    rows: list[ProbeRow] = []
    for delta in deltas:
        y = 1.0 - delta
        try:
            case = IdentityCase(2, order, x, y, label=f"probe-{order}-{delta}")
            report = verify(case, tol, degree_cap_max=degree_cap_max)
            rows.append(ProbeRow(
                delta=delta,
                y=y,
                lhs_log=report.lhs_log,
                rhs_log=report.rhs_log,
                abs_err=report.abs_err,
                rhs_exponent_magnitude=abs(report.rhs_log),
                closed_factor=report.rhs_factors[1],
                degree_cap=report.degree_cap,
                tail_bound=report.tail_bound,
            ))
        except VpvError as exc:
            rows.append(ProbeRow(delta=delta, y=y, error=f"{type(exc).__name__}: {exc}"))
    note = (
        f"The order-({1 - order}) factor is a rational function with (1-y)^{order} "
        "in the denominator, so the right-side exponent grows like "
        f"delta^-{order} as y = 1 - delta approaches 1, and the measured "
        "left-side logs grow to match. An approach of the product to 1 would "
        "instead require these logs to tend to 0, which the data do not show. "
        "Truncation cost also climbs as y -> 1, and y inside the excluded band "
        "near the unit circle is rejected, so rows there report errors rather "
        "than values; the boundary itself is outside this probe's reach."
    )
    return rows, note


# ---------------------------------------------------------------------------
# critical-line scan
# ---------------------------------------------------------------------------

def exponent_pair_deviation(t_value: float, pairs: Sequence[tuple[int, int]] = _EXPONENT_PAIRS) -> float:
    """Max deviation between a^-s b^-(1-s) and (ab)^-1/2 e^(iT ln(b/a))
    at s = 1/2 + iT over the sample pairs.

    The two expressions agree exactly on the critical line; the measured
    deviation is floating-point roundoff and grows with |T| (about
    9e-17 |T|), so the check compares it with EXPONENT_TOL * max(1, |T|).
    """
    s = complex(0.5, t_value)
    t = 1 - s
    worst = 0.0
    for a, b in pairs:
        direct = cmath.exp(-s * math.log(a) - t * math.log(b))
        split = math.exp(-0.5 * math.log(a * b)) * cmath.exp(1j * t_value * math.log(b / a))
        worst = max(worst, abs(direct - split))
    return worst


def critical_line_scan(
    t_values: Sequence[float] = DEFAULT_T_VALUES,
    x: complex = 0.2,
    y: complex = 0.2,
    tol: float = 1e-8,
    *,
    degree_cap_max: int = DEFAULT_DEGREE_CAP_MAX,
) -> list[ScanRow]:
    """Verify the 2D identity at s = 1/2 + iT for each T.

    Each row records the two polylog factors alongside the verified
    logs, and the split-exponent self-check must hold at
    EXPONENT_TOL * max(1, |T|) or the row raises ComputationError. Rows
    come back in input order.
    """

    def one(t_value: float) -> ScanRow:
        t_value = float(t_value)
        dev = exponent_pair_deviation(t_value)
        limit = EXPONENT_TOL * max(1.0, abs(t_value))
        if dev > limit:
            raise ComputationError(
                f"split-exponent identity off by {dev!r} at T={t_value!r} "
                f"(tolerance {limit!r})"
            )
        case = IdentityCase(2, complex(0.5, t_value), x, y, label=f"critical-T={t_value}")
        report = verify(case, tol, degree_cap_max=degree_cap_max)
        li_s_x, li_t_y = report.rhs_factors
        return ScanRow(
            t_value=t_value,
            lhs_log=report.lhs_log,
            rhs_log=report.rhs_log,
            abs_err=report.abs_err,
            li_s_x=li_s_x,
            li_t_y=li_t_y,
            exponent_dev=dev,
            degree_cap=report.degree_cap,
            tail_bound=report.tail_bound,
        )

    return [one(t) for t in t_values]
