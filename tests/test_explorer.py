"""Catalog, special-value audit, alternating double sum, probe, scan tests."""

import math

import pytest

from vpvlab.explorer import EXPONENT_TOL, _averaged_estimate
from vpvlab.numerics import KahanSum
from vpvlab import (
    TERM_CAP,
    DomainError,
    NonConvergence,
    audit_special_values,
    catalog,
    critical_line_scan,
    euler_zagier_31,
    exponent_pair_deviation,
    polylog,
    run_catalog,
    trivial_zero_probe,
    verify,
)

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
    # The loop euler_zagier_31 had before its rewrite: a KahanSum
    # accumulator, (-1) ** m signs and a list window. The rewrite must
    # agree with it bit for bit.
    acc = KahanSum()
    window = []
    s_inner = 0.0
    m = 1
    while True:
        acc.add(((-1) ** m) * m ** -3.0 * s_inner)
        window.append(acc.value.real)
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
def test_alternating_double_sum_term_cap_matches_reference_loop(term_cap):
    with pytest.raises(NonConvergence) as want:
        _ez31_reference(1e-13, term_cap)
    with pytest.raises(NonConvergence) as got:
        euler_zagier_31(1e-13, term_cap=term_cap)
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


def test_audit_extended_precision_agrees():
    double = audit_special_values(1e-12)
    wide = audit_special_values(1e-12, dps=30)
    assert [r.verdict for r in double] == [r.verdict for r in wide]
    for d, w in zip(double, wide):
        assert abs(d.series_value - w.series_value) <= 1e-12


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
    # A delta small enough that no cap under the max meets tol fails in
    # its own row without sinking the table.
    rows, _ = trivial_zero_probe(
        order=3, x=0.5, deltas=(0.5, 0.0005), tol=1e-8, degree_cap_max=400
    )
    assert rows[0].error is None
    assert rows[1].error is not None
    assert rows[1].lhs_log is None


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
