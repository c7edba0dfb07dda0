"""Catalog, special-value audit, alternating double sum, probe, scan tests."""

import math
import sys

import pytest

from vpvlab.explorer import (
    CANDIDATE_TOL, EXPONENT_TOL, _PRINTED_FORMS, _audit_ez31, _averaged_estimate,
    _build_audit_records, _evaluate, _format, _matching_variants, _variants, _working_numbers,
    exponent_pair_deviation,
)
from vpvlab.forms import _term_values
from vpvlab import (
    TERM_CAP,
    DomainError,
    NonConvergence,
    audit_special_values,
    catalog,
    critical_line_scan,
    euler_zagier_31,
    polylog,
    run_catalog,
    trivial_zero_probe,
    verify,
    zeta_real,
)

# The module, for patching its own TERM_CAP binding.
EXPLORER_MODULE = sys.modules["vpvlab.explorer"]

# Frozen from a 5000-term bracketed partial sum of the alternating
# double series sum_{m>n>0} (-1)^{m+n} m^-3 n^-1.
EZ31 = -0.1178759996505093


def _brute_ez31(m_max):
    # Independent direct evaluation; alternating outer series, so the
    # first omitted term bounds the truncation error.
    total = 0.0
    inner = 0.0
    sign_n = 1.0
    for m in range(2, m_max + 1):
        sign_n = -sign_n  # (-1)^(m-1) applied to the new inner term
        inner += sign_n / (m - 1)
        total += (-1.0) ** m * inner / m**3
    return total


def test_alternating_double_sum_smallest_partial():
    # Only (m, n) = (2, 1) survives m <= 2: (-1)^3 / 8 = -1/8.
    assert _brute_ez31(2) == pytest.approx(-0.125, abs=1e-15)


def test_alternating_double_sum_value_and_bound():
    res = euler_zagier_31(1e-10)
    assert res.tail_bound <= 1e-10
    assert abs(res.value - EZ31) <= res.tail_bound + 1e-12
    # Independent brute partial: omitted mass below 1e-11 at 5000 terms.
    brute = _brute_ez31(5000)
    assert abs(res.value - brute) <= res.tail_bound + 1e-11


def test_alternating_double_sum_matches_corrected_quadlog_relation():
    # 2*(pi^4/360 - ln^4(2)/24 + (pi^2/24) ln^2(2) - Li_4(1/2)).
    ln2 = math.log(2)
    li4 = polylog(4, 0.5, 1e-14).value.real
    want = 2 * (math.pi**4 / 360 - ln2**4 / 24 + (math.pi**2 / 24) * ln2**2 - li4)
    res = euler_zagier_31(1e-11)
    assert abs(res.value - want) <= 1e-10


def test_alternating_double_sum_stability():
    runs = [euler_zagier_31(tol) for tol in (1e-7, 1e-9, 1e-11)]
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            gap = abs(runs[i].value - runs[j].value)
            assert gap <= runs[i].tail_bound + runs[j].tail_bound


def test_alternating_double_sum_rejects_tiny_tol():
    with pytest.raises(ValueError):
        euler_zagier_31(1e-16)


def _ez31_reference(tol, term_cap=TERM_CAP):
    # The loop euler_zagier_31 had before its rewrite: a complex Kahan
    # accumulator, (-1) ** m signs and a list window. The rewrite must
    # agree with it bit for bit.
    total = comp = 0j
    window = []
    s_inner = 0.0
    m = 1
    while True:
        y = ((-1) ** m) * m ** -3.0 * s_inner - comp
        t = total + y
        comp = (t - total) - y
        total = t
        window.append(total.real)
        if len(window) > 64:
            window.pop(0)
        s_inner += ((-1) ** m) / m
        omitted = abs(s_inner) * (m + 1) ** -3.0
        if m >= 2 and omitted <= tol:
            break
        if m >= term_cap:
            raise NonConvergence(
                f"alternating double zeta did not reach tol={tol!r} within {term_cap} terms"
            )
        m += 1
    p_last = window[-1]
    p_next = p_last + ((-1) ** (m + 1)) * (m + 1) ** -3.0 * s_inner
    lo, hi = min(p_last, p_next), max(p_last, p_next)
    value = min(max(_averaged_estimate(window), lo), hi)
    return value, m, omitted + 1e-15


@pytest.mark.parametrize(
    "tol", [1e-14, 3e-14, 1e-13, 1e-12, 7e-12, 1e-10, 1e-8, 1e-6, 1e-3, 0.05, 0.5, 10.0]
)
def test_alternating_double_sum_matches_reference_loop(tol):
    res = euler_zagier_31(tol)
    assert (res.value, res.terms_used, res.tail_bound) == _ez31_reference(tol)


@pytest.mark.parametrize("term_cap", [1, 2, 3, 64, 65, 1000])
def test_alternating_double_sum_term_cap_matches_reference_loop(term_cap, monkeypatch):
    with pytest.raises(NonConvergence) as want:
        _ez31_reference(1e-13, term_cap)
    monkeypatch.setattr(EXPLORER_MODULE, "TERM_CAP", term_cap)
    with pytest.raises(NonConvergence) as got:
        euler_zagier_31(1e-13)
    assert str(got.value) == str(want.value)


def test_audit_verdict_sequence():
    records = audit_special_values(1e-12)
    by_name = {r.name: r for r in records}
    assert list(by_name) == ["LI1_HALF", "LI2_HALF", "LI3_HALF", "LI4_HALF"]
    assert by_name["LI1_HALF"].verdict == "MATCHES_PRINTED"
    assert by_name["LI2_HALF"].verdict == "MATCHES_PRINTED"
    assert by_name["LI1_HALF"].discrepancy <= 1e-12
    assert by_name["LI2_HALF"].discrepancy <= 1e-12
    # The cubic and quartic printed forms disagree with the series; a
    # unique small correction matches it instead.
    for name in ("LI3_HALF", "LI4_HALF"):
        rec = by_name[name]
        assert rec.verdict == "MATCHES_CORRECTED"
        assert rec.discrepancy > 1e-6
        assert rec.candidate_corrected_value is not None
        assert abs(rec.candidate_corrected_value - rec.series_value) <= 1e-10
        assert rec.corrected_formula


PRINTED_LI3 = "ln(2)^3/6 - (pi^2/12) ln(2)^2 - (7/8) zeta(3)"
CORRECTED_LI3 = "ln(2)^3/6 - (pi^2/12) ln(2) + (7/8) zeta(3)"
PRINTED_LI4 = "pi^4/360 - ln(2)^4/24 - (pi^2/24) ln(2)^4 - zeta_alt(3,1)/2"
CORRECTED_LI4 = "pi^4/360 - ln(2)^4/24 + (pi^2/24) ln(2)^2 - zeta_alt(3,1)/2"


def test_audit_records_are_pinned():
    # Formula texts, notes and values in double mode, exactly: a change
    # to how a printed form is written, evaluated or searched shows here.
    got = [
        (r.name, r.verdict, r.corrected_formula, r.note, repr(r.printed_form_value),
         repr(r.series_value), repr(r.discrepancy), repr(r.candidate_corrected_value))
        for r in audit_special_values(1e-12)
    ]
    assert got == [
        ("LI1_HALF", "MATCHES_PRINTED", None, "printed form ln(2) confirmed by the series",
         "(0.6931471805599453+0j)", "(0.6931471805599453+0j)", "0.0", "None"),
        ("LI2_HALF", "MATCHES_PRINTED", None,
         "printed form pi^2/12 - ln(2)^2/2 confirmed by the series",
         "(0.5822405264650126+0j)", "(0.5822405264650125+0j)", "1.1102230246251565e-16", "None"),
        ("LI3_HALF", "MATCHES_CORRECTED", CORRECTED_LI3,
         f"printed form {PRINTED_LI3} is off by 1.929e+00; "
         f"the unique matching variant is {CORRECTED_LI3}",
         "(-1.3914524466568006+0j)", "(0.5372131936080402+0j)", "1.9286656402648408",
         "(0.5372131936080402+0j)"),
        ("LI4_HALF", "MATCHES_CORRECTED", CORRECTED_LI4,
         f"printed form {PRINTED_LI4} is off by 2.925e-01; "
         f"the unique matching variant is {CORRECTED_LI4}",
         "(0.2249735497745029+0j)", "(0.5174790616738993+0j)", "0.29250551189939644",
         "(0.5174790616738872+0j)"),
    ]


def test_audit_wide_tolerance_confirms_printed_forms():
    notes = {r.name: r.note for r in audit_special_values(2.0)}
    assert notes["LI3_HALF"] == f"printed form {PRINTED_LI3} confirmed by the series"
    assert notes["LI4_HALF"] == f"printed form {PRINTED_LI4} confirmed by the series"


def test_audit_without_a_unique_variant_is_unresolved():
    # Li_3(1/2) moved by 1e-3 is matched by no variant within CANDIDATE_TOL.
    li = {k: polylog(k, 0.5, 1e-15).value.real for k in (1, 2, 3, 4)}
    li[3] += 1e-3
    records = _build_audit_records(
        li, math.pi, math.log(2.0), zeta_real(3.0, 1e-15).value,
        euler_zagier_31(1e-13).value, 1e-12,
    )
    rec = records[2]
    assert (rec.name, rec.verdict) == ("LI3_HALF", "UNRESOLVED")
    assert rec.corrected_formula is None and rec.candidate_corrected_value is None
    assert rec.note == (
        f"printed form {PRINTED_LI3} is off by 1.930e+00 and no unique "
        "sign/exponent variant matches the series value"
    )
    assert [r.verdict for r in records] == [
        "MATCHES_PRINTED", "MATCHES_PRINTED", "UNRESOLVED", "MATCHES_CORRECTED"]


def test_audit_searches_the_sign_and_power_variants():
    # Li_3 and Li_4: both signs and ln 2 powers 1..4 of every term but the
    # pi^4/360 lead, less the printed form. Li_1 and Li_2 have no variants.
    counts = {}
    for name, terms in _PRINTED_FORMS:
        texts = {_format(v) for v in _variants(terms)}
        assert _format(terms) not in texts
        counts[name] = len(texts)
    assert counts == {"LI1_HALF": 0, "LI2_HALF": 0, "LI3_HALF": 127, "LI4_HALF": 127}
    assert all(v[0].text == "pi^4/360" and v[0].sign == 1 for v in _variants(_PRINTED_FORMS[3][1]))


def test_audit_extended_precision_agrees():
    double = audit_special_values(1e-12)
    wide = audit_special_values(1e-12, dps=30)
    assert [r.verdict for r in double] == [r.verdict for r in wide]
    for d, w in zip(double, wide):
        assert abs(d.series_value - w.series_value) <= 1e-12


def test_audit_sums_its_constant_once_per_process(monkeypatch):
    calls = []

    def counted(tol):
        calls.append(tol)
        return euler_zagier_31(tol)

    _audit_ez31.cache_clear()
    monkeypatch.setattr(EXPLORER_MODULE, "euler_zagier_31", counted)
    for dps in (None, 30):
        assert audit_special_values(1e-12, dps=dps) == audit_special_values(1e-12, dps=dps)
    assert calls == [1e-13]


def test_euler_zagier_31_stays_uncached(monkeypatch):
    # A cached public function would return the 1e-13 value here, past a
    # TERM_CAP that no longer reaches it.
    audit_special_values(1e-12)
    monkeypatch.setattr(EXPLORER_MODULE, "TERM_CAP", 1000)
    with pytest.raises(NonConvergence):
        euler_zagier_31(1e-13)


@pytest.mark.parametrize("dps", [None, 30])
@pytest.mark.parametrize("row", [2, 3], ids=["LI3_HALF", "LI4_HALF"])
def test_screened_variant_search_finds_the_full_search_hits(row, dps):
    # The double screen may only drop variants that working precision
    # would also reject: targets at and just inside or outside
    # CANDIDATE_TOL of the series value, and of the one matching variant.
    number, pi, ln2 = _working_numbers(dps)
    series_tol = 1e-15 if dps is None else 10.0 ** (2 - dps)
    constants = {"pi": pi, "zeta3": number(zeta_real(3.0, series_tol, dps=dps).value),
                 "ez31": number(euler_zagier_31(1e-13).value)}
    terms = _PRINTED_FORMS[row][1]
    value_of = _term_values(terms, constants, ln2)
    li = number(polylog(row + 1, 0.5, series_tol, dps=dps).value.real)
    (_, match), = _matching_variants(terms, value_of, li)
    # number() keeps the targets exact with dps: a Fraction less a float is a float
    targets = [li + number(f * CANDIDATE_TOL) for f in (0, 0.999, -0.999, 1.001, -1.001)]
    targets += [li + number(1e-3), match + number(CANDIDATE_TOL), match - number(CANDIDATE_TOL)]
    found = []
    for target in targets:
        full = [(v, c) for v in _variants(terms)
                if abs((c := _evaluate(v, value_of)) - target) <= CANDIDATE_TOL]
        assert _matching_variants(terms, value_of, target) == full
        found.append(len(full))
    assert found[:6] == [1, 1, 1, 0, 0, 0]


def test_audit_refuses_tol_below_working_precision():
    # Where the series is certified to min(tol, CANDIDATE_TOL), every
    # precision gives the double-mode verdicts and corrected formulas.
    want = [(r.verdict, r.corrected_formula) for r in audit_special_values(1e-12)]
    allowed = 0
    for tol in (1e-6, 1e-12, 1e-15, 1e-26):
        for dps in (None, 14, 20, 30):
            series_tol = 1e-15 if dps is None else 10.0 ** (2 - dps)
            if series_tol > min(tol, CANDIDATE_TOL):
                with pytest.raises(DomainError, match=repr(series_tol)):
                    audit_special_values(tol, dps=dps)
                continue
            got = audit_special_values(tol, dps=dps)
            assert [(r.verdict, r.corrected_formula) for r in got] == want, (tol, dps)
            allowed += 1
    assert allowed == 12


def test_catalog_shape():
    cases = catalog()
    assert len(cases) == 14
    labels = [c.label for c in cases]
    assert len(set(labels)) == 14
    assert sum(1 for c in cases if c.x == 1.0) == 4  # the zeta family
    assert sum(1 for c in cases if c.s.imag != 0) == 1  # the scan template


def test_catalog_all_cases_verify():
    reports = run_catalog(1e-8)
    assert len(reports) == 14
    for report in reports:
        assert report.rel_err <= 1e-6, report.case.label


def test_catalog_zeta_quadratic_instance():
    cases = {c.label: c for c in catalog()}
    report = verify(cases["zeta-s2"], 1e-8)
    want = (math.pi**2 / 6) * 0.3 / 0.49
    assert abs(report.rhs_log - want) <= 1e-9
    assert report.rel_err <= 1e-7


def test_catalog_reports_follow_catalog_order():
    reports = run_catalog(1e-8)
    assert [r.case.label for r in reports] == [c.label for c in catalog()]


def test_probe_rows_and_growth():
    rows, note = trivial_zero_probe(order=3, x=0.5, deltas=(0.5, 0.4, 0.3, 0.2))
    assert [r.delta for r in rows] == [0.5, 0.4, 0.3, 0.2]
    for row in rows:
        assert row.error is None
        assert row.abs_err <= 1e-6
    # delta=0.5: factor (1-d)(2-d)/d^3 = 0.75/0.125 = 6, so the RHS
    # exponent is 6*Li_3(1/2).
    li3 = polylog(3, 0.5, 1e-14).value.real
    assert rows[0].closed_factor == pytest.approx(6.0, rel=1e-12)
    assert abs(rows[0].rhs_log - 6 * li3) <= 1e-12
    mags = [r.rhs_exponent_magnitude for r in rows]
    assert all(b > a for a, b in zip(mags, mags[1:]))
    assert "approach" in note and "1" in note


def test_probe_zero_argument():
    rows, _ = trivial_zero_probe(order=3, x=0.0, deltas=(0.5,))
    assert rows[0].lhs_log == 0
    assert rows[0].rhs_log == 0


def test_probe_reports_per_row_failures():
    # A delta small enough that no level within the work budget meets tol
    # (y = .998 next to x = .99), and one inside the excluded band, each
    # fail in their own row without sinking the table.
    rows, _ = trivial_zero_probe(order=3, x=0.99, deltas=(0.5, 0.002, 0.0005), tol=1e-8)
    assert rows[0].error is None
    assert rows[1].error.startswith("TailBoundExceedsTol: no degree cap <= 14170 ")
    assert rows[2].error.startswith("DomainError")
    assert rows[1].lhs_log is None and rows[2].lhs_log is None


def test_probe_validates_order_and_deltas():
    with pytest.raises(DomainError):
        trivial_zero_probe(order=5, x=0.5, deltas=(0.5,))
    with pytest.raises(DomainError):
        trivial_zero_probe(order=3, x=0.5, deltas=(1.5,))


def test_scan_rows():
    rows = critical_line_scan([0.0, 5.0, 14.134725], x=0.2, y=0.2, tol=1e-8)
    assert [r.t_value for r in rows] == [0.0, 5.0, 14.134725]
    for row in rows:
        assert row.abs_err <= 1e-6
        assert row.exponent_dev <= 1e-14


def test_scan_at_large_height():
    # The split-exponent roundoff grows with |T|; at T = 500 it is past
    # the unscaled 1e-14 yet well within EXPONENT_TOL * |T|.
    (row,) = critical_line_scan([500.0], x=0.2, y=0.2, tol=1e-8)
    assert row.t_value == 500.0
    assert row.abs_err <= 3e-8
    assert row.exponent_dev <= 500 * EXPONENT_TOL


def test_scan_at_zero_is_real_and_positive():
    row = critical_line_scan([0.0], x=0.2, y=0.2, tol=1e-10)[0]
    assert row.li_s_x == row.li_t_y
    assert abs(row.li_s_x.imag) <= 1e-15
    assert row.rhs_log.real > 0
    assert abs(row.rhs_log.imag) <= 1e-14
    want = polylog(0.5, 0.2, 1e-14).value ** 2
    assert abs(row.rhs_log - want) <= 1e-12


def test_scan_hermitian_symmetry():
    up, down = critical_line_scan([14.134725, -14.134725], x=0.2, y=0.2, tol=1e-9)
    assert abs(up.rhs_log - down.rhs_log.conjugate()) <= 1e-12
    assert abs(up.lhs_log - down.lhs_log.conjugate()) <= 1e-12


def test_scan_rows_follow_input_order():
    ts = [5.0, 0.0, 1.0]
    rows = critical_line_scan(ts, x=0.2, y=0.2, tol=1e-8)
    assert [r.t_value for r in rows] == ts
    assert rows == [critical_line_scan([t], x=0.2, y=0.2, tol=1e-8)[0] for t in ts]


def test_exponent_rewriting_deviation_is_roundoff():
    for t_val in (0.0, 1.0, 14.134725, 50.0):
        assert exponent_pair_deviation(t_val) <= 1e-14
