"""Product-log evaluator, RHS assembly, oracle, and report tests."""

import cmath
import itertools
import math
import random

import mpmath
import pytest

from vpvlab import (
    DomainError,
    IdentityCase,
    RhsForm,
    TailBoundExceedsTol,
    TruncationSpec,
    brute_force_log_2d,
    brute_force_log_3d,
    choose_degree_cap,
    lattice_double_sum_2d,
    lattice_triple_sum_3d,
    lhs_log_product_2d,
    lhs_log_product_3d,
    polylog,
    product_log_sum,
    report_to_dict,
    rhs_log,
    tail_bound_2d,
    tail_bound_3d,
    verify,
    visible_points_2d,
    visible_points_3d,
    zeta_real,
)


def _rand_disk(rng, radius):
    r = radius * math.sqrt(rng.random())
    return r * cmath.exp(2j * math.pi * rng.random())


def test_case_validation():
    IdentityCase(2, 1.0, 0.3, 0.4)
    IdentityCase(3, 1.0, 0.2, 0.2, t=1.0, z=0.2)
    with pytest.raises(DomainError):
        IdentityCase(4, 1.0, 0.3, 0.4)
    with pytest.raises(DomainError):
        IdentityCase(2, 1.0, 0.3, 0.4, t=2.0)  # 2D never takes t
    with pytest.raises(DomainError):
        IdentityCase(3, 1.0, 0.2, 0.2)  # 3D needs t and z
    with pytest.raises(DomainError):
        IdentityCase(2, 1.0, 0.9999, 0.4)  # too close to the unit circle
    with pytest.raises(DomainError):
        IdentityCase(2, 2.0, 0.3, 0.4, rhs_form=RhsForm.CLOSED_FORM)
    with pytest.raises(DomainError):
        IdentityCase(
            2, 2.0, 0.3, 0.4, rhs_form=RhsForm.CLOSED_FORM, closed_form_id="nope"
        )


def test_order_constraint_holds_by_construction():
    case = IdentityCase(2, 2.5 - 3j, 0.3, 0.4)
    assert case.order_t == 1 - (2.5 - 3j)
    case3 = IdentityCase(3, 1.0, 0.2, 0.2, t=2.0, z=0.2)
    assert case3.order_u == 1 - 1.0 - 2.0


def test_zeta_mode_gating():
    IdentityCase(2, 3.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        IdentityCase(2, 1.0005, 1.0, 0.5)  # Re s too close to 1
    with pytest.raises(DomainError):
        IdentityCase(2, 3 + 1j, 1.0, 0.5)  # zeta mode is real-order only
    with pytest.raises(DomainError):
        IdentityCase(3, 3.0, 1.0, 0.5, t=-1.0, z=0.2)  # 2D only


def test_zero_argument_gives_zero_logs():
    case = IdentityCase(2, 2.0, 0.0, 0.4)
    val, trunc = lhs_log_product_2d(case, TruncationSpec(40, 1e-10))
    assert val == 0
    assert trunc.tail_bound == 0.0
    assert rhs_log(case) == 0


def test_log_identity_order_one():
    # s=1 (t=0): log-LHS equals (y/(1-y)) * ln(1/(1-x)).
    want = (0.4 / 0.6) * math.log(1 / 0.7)
    case = IdentityCase(2, 1.0, 0.3, 0.4)
    val, trunc = lhs_log_product_2d(case, TruncationSpec(80, 1e-10))
    assert abs(val - want) <= trunc.tail_bound + 1e-12
    assert abs(rhs_log(case) - want) <= 1e-12


def test_order_two_quarter_arguments():
    # s=2 (t=-1): RHS is Li_2(0.25) * 0.25/0.75^2.
    case = IdentityCase(2, 2.0, 0.25, 0.25)
    want = polylog(2, 0.25, 1e-14).value * (0.25 / 0.75**2)
    report = verify(case, 1e-9)
    assert abs(report.rhs_log - want) <= 1e-12
    assert report.rel_err <= 1e-8


def test_brute_force_matches_closed_form():
    case = IdentityCase(2, 1.0, 0.3, 0.4)
    val = brute_force_log_2d(case, 80)
    want = (-math.log(0.7)) * (2 / 3)
    assert abs(val - want) <= 1e-10


def test_three_dimensional_examples():
    # s=t=1, u=-1 and arguments all 0.2.
    case = IdentityCase(3, 1.0, 0.2, 0.2, t=1.0, z=0.2)
    li1 = -math.log(0.8)
    lim1 = 0.2 / 0.8**2
    want = li1 * li1 * lim1
    report = verify(case, 1e-9)
    assert abs(report.rhs_log - want) <= 1e-12
    assert report.rel_err <= 1e-8
    # s=t=u=1/3 with arguments all 0.3.
    third = 1.0 / 3.0
    case = IdentityCase(3, third, 0.3, 0.3, t=third, z=0.3)
    li_third = polylog(third, 0.3, 1e-15).value
    assert abs(rhs_log(case, 1e-14) - li_third**3) <= 1e-12
    report = verify(case, 1e-9)
    assert report.rel_err <= 1e-8


def test_zeta_mode_rhs_value():
    # x=1 mode at s=3, y=0.5: zeta(3) * y(1+y)/(1-y)^3 = zeta(3) * 6.
    case = IdentityCase(2, 3.0, 1.0, 0.5)
    want = zeta_real(3.0, 1e-14).value * 6.0
    assert abs(rhs_log(case) - want) <= 1e-10
    report = verify(case, 1e-8)
    assert report.rel_err <= 1e-7
    with pytest.raises(DomainError):
        brute_force_log_2d(case, 60)  # no finite-lattice oracle at x=1


@pytest.mark.parametrize("s", [1.01, 1.3, 2.0, 2.5, 3.0, 4.0])
def test_zeta_mode_matches_mpmath(s):
    # The coprime sum over a is zeta(s) prod_{p | b} (1 - p^-s), so the left
    # side is zeta(s) Li_{1-s}(y) up to its certified bound, one term per b.
    for y in (0.1, 0.3, 0.6, 0.85, 0.92, -0.8, 0.5 + 0.5j):
        report = verify(IdentityCase(2, s, 1.0, y), 1e-8)
        with mpmath.workdps(30):
            ref = complex(mpmath.zeta(s) * mpmath.polylog(1 - s, y))
        assert abs(report.lhs_log - ref) <= report.tail_bound, (s, y)
        assert report.terms == report.degree_cap


def test_critical_line_rhs_factorization():
    s = 0.5 + 5j
    case = IdentityCase(2, s, 0.2, 0.2)
    want = polylog(s, 0.2, 1e-14).value * polylog(1 - s, 0.2, 1e-14).value
    assert abs(rhs_log(case) - want) <= 1e-13


def test_verify_quartic_order():
    # s=4 (t=-3) against Li_4(0.5) * y(1+4y+y^2)/(1-y)^4.
    y = 0.3
    case = IdentityCase(2, 4.0, 0.5, y)
    want = polylog(4, 0.5, 1e-14).value * (y * (1 + 4 * y + y * y) / (1 - y) ** 4)
    report = verify(case, 1e-8)
    assert abs(report.rhs_log - want) <= 1e-12
    assert report.rel_err <= 1e-7


def test_verify_closed_form_half_argument():
    # x=1/2 at s=1: product equals 2^{y/(1-y)}, so log-LHS = (y/(1-y)) ln 2.
    case = IdentityCase(
        2, 1.0, 0.5, 0.4, rhs_form=RhsForm.CLOSED_FORM, closed_form_id="ln2"
    )
    report = verify(case, 1e-8)
    want = (0.4 / 0.6) * math.log(2)
    assert abs(report.rhs_log - want) <= 1e-14
    assert report.rel_err <= 1e-7


def test_oracle_equivalence_random_2d():
    # Caps chosen so the tail allowance (~1e-9) dominates roundoff.
    rng = random.Random(4111)
    for _ in range(12):
        s = complex(rng.uniform(-3, 4), rng.uniform(-20, 20))
        x = _rand_disk(rng, 0.5)
        y = _rand_disk(rng, 0.5)
        cap = choose_degree_cap(IdentityCase(2, s, x, y), 1e-9)
        lhs, _ = product_log_sum((s, 1 - s), (x, y), cap)
        oracle = lattice_double_sum_2d(s, 1 - s, x, y, cap)
        allowance = 2 * tail_bound_2d(s, 1 - s, x, y, cap)
        assert abs(lhs - oracle) <= allowance, (s, x, y)


def test_oracle_equivalence_random_3d():
    rng = random.Random(4113)
    for _ in range(4):
        s = complex(rng.uniform(-2, 3), rng.uniform(-10, 10))
        t = complex(rng.uniform(-2, 3), rng.uniform(-10, 10))
        u = 1 - s - t
        x = _rand_disk(rng, 0.4)
        y = _rand_disk(rng, 0.4)
        z = _rand_disk(rng, 0.4)
        cap = choose_degree_cap(IdentityCase(3, s, x, y, t=t, z=z), 1e-8)
        lhs, _ = product_log_sum((s, t, u), (x, y, z), cap)
        oracle = lattice_triple_sum_3d(s, t, u, x, y, z, cap)
        allowance = 2 * tail_bound_3d(s, t, u, x, y, z, cap)
        assert abs(lhs - oracle) <= allowance, (s, t, x, y, z)


def test_constraint_perturbation_is_detected():
    # With t = 1 - s + 0.1 the resummation fails loudly.
    rng = random.Random(4115)
    for _ in range(5):
        s = complex(rng.uniform(-3, 4), rng.uniform(-20, 20))
        t = 1 - s + 0.1
        cap = 70
        lhs, _ = product_log_sum((s, t), (0.4, 0.4), cap)
        oracle = lattice_double_sum_2d(s, t, 0.4, 0.4, cap)
        allowance = 2 * tail_bound_2d(s, t, 0.4, 0.4, cap)
        assert abs(lhs - oracle) > 100 * allowance, s


def test_tail_bound_monotone_and_valid():
    case = IdentityCase(2, 0.5 + 14.134725j, 0.3, 0.3)
    bounds = []
    for cap in range(10, 120, 10):
        _, trunc = lhs_log_product_2d(case, TruncationSpec(cap, 1.0))
        bounds.append(trunc.tail_bound)
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
    # Doubling the cap moves the value by less than the reported bound.
    v1, t1 = lhs_log_product_2d(case, TruncationSpec(40, 1.0))
    v2, _ = lhs_log_product_2d(case, TruncationSpec(80, 1.0))
    assert abs(v2 - v1) < t1.tail_bound


def test_conjugate_symmetry():
    for t_val in (5.0, 14.134725):
        up = verify(IdentityCase(2, 0.5 + 1j * t_val, 0.3, 0.3), 1e-9)
        dn = verify(IdentityCase(2, 0.5 - 1j * t_val, 0.3, 0.3), 1e-9)
        assert abs(up.lhs_log - dn.lhs_log.conjugate()) <= 1e-13
        assert abs(up.rhs_log - dn.rhs_log.conjugate()) <= 1e-13


def test_choose_degree_cap_meets_tol():
    case = IdentityCase(2, 2.0, 0.5, 0.3)
    cap = choose_degree_cap(case, 1e-8)
    assert tail_bound_2d(2.0, -1.0, 0.5, 0.3, cap) <= 1e-8
    assert cap >= 2


def test_unachievable_tolerance_raises_with_details():
    case = IdentityCase(2, 1.0, 0.9, 0.995)
    with pytest.raises(TailBoundExceedsTol) as info:
        verify(case, 1e-10, degree_cap_max=60)
    err = info.value
    assert err.degree_cap == 60
    assert err.achievable_bound > 1e-10


def test_verify_rejects_bad_tolerance():
    case = IdentityCase(2, 1.0, 0.3, 0.4)
    with pytest.raises(ValueError):
        verify(case, 0.0)


def test_report_serialization_keys():
    report = verify(IdentityCase(2, 1.0, 0.3, 0.4), 1e-8)
    payload = report_to_dict(report)
    assert set(payload) == {
        "lhs_log",
        "rhs_log",
        "abs_err",
        "rel_err",
        "degree_cap",
        "tail_bound",
        "terms",
    }
    assert set(payload["lhs_log"]) == {"re", "im"}
    assert set(payload["rhs_log"]) == {"re", "im"}
    back = complex(payload["lhs_log"]["re"], payload["lhs_log"]["im"])
    rhs = complex(payload["rhs_log"]["re"], payload["rhs_log"]["im"])
    assert abs(abs(back - rhs) - payload["abs_err"]) <= 1e-15 * max(1.0, abs(back))
    assert payload["tail_bound"] >= 0.0


def test_report_error_definitions():
    report = verify(IdentityCase(2, 2.0, 0.5, 0.3), 1e-8)
    assert report.abs_err == abs(report.lhs_log - report.rhs_log)
    assert report.rel_err == report.abs_err / max(abs(report.rhs_log), 1e-300)


def test_brute_force_3d_zero_argument():
    case = IdentityCase(3, 1.0, 0.2, 0.0, t=1.0, z=0.2)
    assert brute_force_log_3d(case, 40) == 0


def test_product_log_sum_counts_every_visible_point():
    # The kernel tests visibility against the diagonal d, not the last
    # coordinate; the enumerators test the coordinates themselves.
    for cap in range(2, 41):
        _, count = product_log_sum((0.5, 0.5), (0.3, 0.3), cap)
        assert count == sum(1 for _ in visible_points_2d(cap)), cap
    for cap in range(3, 21):
        _, count = product_log_sum((0.3, 0.3, 0.4), (0.3, 0.3, 0.3), cap)
        assert count == sum(1 for _ in visible_points_3d(cap)), cap
    # n = 4 has no enumerator: count the coprime quadruples directly.
    cap = 12
    quads = itertools.product(range(1, cap), repeat=4)
    want = sum(1 for p in quads if sum(p) <= cap and math.gcd(*p) == 1)
    _, count = product_log_sum((0.25,) * 4, (0.3,) * 4, cap)
    assert count == want


_CRITICAL = complex(0.5, 14.134725)
_STRIP = complex(0.3, 2.5)


@pytest.mark.parametrize(
    "orders, args, cap",
    [
        ((_CRITICAL, 1 - _CRITICAL), (0.6 + 0.2j, -0.5j), 14),
        ((_STRIP, 1 - _STRIP), (0.7, 0.4 - 0.3j), 14),
        ((_CRITICAL, 0.2 - 3j, 0.3 - 11.134725j), (0.5j, 0.6, -0.4 + 0.3j), 9),
        ((_STRIP, 0.6 - 1j, 0.1 - 1.5j), (0.6, 0.5 + 0.2j, 0.4j), 9),
    ],
)
def test_product_log_sum_matches_mpmath(orders, args, cap):
    points = visible_points_2d(cap) if len(orders) == 2 else visible_points_3d(cap)
    with mpmath.workdps(30):
        ref = mpmath.mpf(0)
        magnitude = mpmath.mpf(0)
        for p in points:
            coords = [p.a, p.b] if len(orders) == 2 else [p.a, p.b, p.c]
            weight = mpmath.mpf(1)
            w = mpmath.mpf(1)
            for k, s, x in zip(coords, orders, args):
                weight *= mpmath.power(k, -mpmath.mpc(s))
                w *= mpmath.power(mpmath.mpc(x), k)
            term = -weight * mpmath.log(1 - w)
            ref += term
            magnitude += abs(term)
        ref = complex(ref)
    value, _ = product_log_sum(orders, args, cap)
    # Relative to the sum of |terms|: each term carries a few ulp of its
    # own size, and the last case cancels to a tenth of that sum.
    assert abs(value - ref) <= 1e-14 * float(magnitude)


def test_product_log_sum_rejects_mismatched_shapes():
    with pytest.raises(DomainError):
        product_log_sum((0.5,), (0.3,), 10)
    with pytest.raises(DomainError):
        product_log_sum((0.5, 0.5), (0.3, 0.3, 0.3), 10)


def test_report_passed_is_the_three_tol_criterion():
    good = verify(IdentityCase(2, 2.0, 0.5, 0.3), 1e-8)
    assert good.passed
    # |Li_-30(0.5)| ~ 2e37: double rounding of either side swamps 3*tol.
    huge = verify(IdentityCase(2, -30.0, 0.5, 0.5), 1e-8)
    assert huge.abs_err > 3e-8
    assert not huge.passed
    zeta = verify(IdentityCase(2, 6.0, 1.0, 0.9), 1e-8)
    assert zeta.abs_err > 3e-8
    assert not zeta.passed


@pytest.mark.parametrize("s, x, y", [(2.5, 0.5, 0.6), (3.7, 1.0, 0.9)])
def test_verify_with_rising_leading_terms(s, x, y):
    # 2^(s-1) |y| >= 1, so the plain geometric bound on |Li_{1-s}(y)| is
    # infinite and the factor estimate must sum the rising terms.
    report = verify(IdentityCase(2, s, x, y), 1e-8)
    assert report.passed
    with mpmath.workdps(30):
        first = mpmath.zeta(s) if x == 1 else mpmath.polylog(s, x)
        ref = complex(first * mpmath.polylog(1 - s, y))
    assert abs(report.rhs_log - ref) <= 1e-8
    assert abs(report.lhs_log - ref) <= 2e-8
