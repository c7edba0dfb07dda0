"""Product-log evaluator, RHS assembly, oracle, and report tests."""

import cmath
import gc
import itertools
import math
import random
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpvlab import (
    EPS_ZETA,
    ComputationError,
    DomainError,
    IdentityCase,
    TailBoundExceedsTol,
    audit_special_values,
    critical_line_scan,
    lattice_sum,
    polylog,
    polylog_neg_int,
    product_log_sum,
    rhs_factors,
    verify,
    visible_points,
    zeta_real,
)
from vpvlab.numerics import log1m, log_table
from vpvlab.products import (
    _CLOSED_FORM_CONSTANTS, _coprime_factors, _decay_ratios, _eval_lhs, _level_limit, _pow_table,
    _rhs_product, _shell_tail, _squarefree_divisors, choose_degree_cap,
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
        IdentityCase(2, 2.0, 0.3, 0.4, closed_form_id="nope")


@pytest.mark.parametrize("dimension", [2.0, 3.0, True, "2", None, 2 + 0j])
def test_dimension_must_be_an_int(dimension):
    # 2.0 and 2 + 0j equal 2, so a membership test alone lets them through,
    # and verify would meet them as a bare TypeError from math.factorial.
    with pytest.raises(DomainError, match="^dimension must be 2 or 3"):
        IdentityCase(dimension, 2, 0.5, 0.3)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("name, build", [
    ("s", lambda v=_NAN: IdentityCase(2, v, 0.3, 0.3)),
    ("t", lambda v=_NAN: IdentityCase(3, 1.0, 0.2, 0.2, t=v, z=0.2)),
    ("s", lambda v=_INF: IdentityCase(2, v, 0.3, 0.3)),
    ("s", lambda v=-_INF: IdentityCase(2, v, 0.3, 0.3)),
    ("x", lambda v=_NAN: IdentityCase(2, 2.0, v, 0.3)),
    ("y", lambda v=_NAN: IdentityCase(2, 2.0, 0.3, v)),
    ("s", lambda v=complex(2.0, _INF): IdentityCase(2, v, 0.3, 0.3)),
    ("z", lambda v=_NAN: IdentityCase(3, 1.0, 0.2, 0.2, t=1.0, z=v)),
])
def test_non_finite_order_or_argument_is_a_domain_error(name, build):
    # Refused at construction, so verify never meets them deep inside (as a
    # bare ValueError or OverflowError, or a ComputationError naming no input).
    # A Decimal NaN or sNaN in the same place is refused alike: complex()
    # raised a bare ValueError on the sNaN.
    for value in ((), (Decimal("NaN"),), (Decimal("sNaN"),)):
        with pytest.raises(DomainError, match=f"^{name} = .* is not finite$"):
            build(*value)


def test_printed_closed_form_constants_keep_their_values():
    # Evaluated from the audit's LI1_HALF and LI2_HALF rows, bit for bit
    # the expressions the registry wrote out before.
    got = {cid: repr(_CLOSED_FORM_CONSTANTS[cid][2](1e-8)) for cid in ("ln2", "dilog-half")}
    assert got == {
        "ln2": repr(complex(math.log(2.0))),
        "dilog-half": repr(complex(math.pi ** 2 / 12 - math.log(2.0) ** 2 / 2)),
    }


def test_closed_form_id_must_match_its_case():
    # Each constant replaces one Li_s(x); on any other case it would give
    # a wrong right side, and in zeta mode the leading factor is zeta(s).
    IdentityCase(2, 2.0, 0.5, 0.4, closed_form_id="dilog-half")
    IdentityCase(3, 1.0, 0.5, 0.2, t=1.0, z=0.2, closed_form_id="ln2")
    with pytest.raises(DomainError, match="stands for Li_1"):
        IdentityCase(2, 2.0, 0.3, 0.4, closed_form_id="ln2")
    with pytest.raises(DomainError, match="stands for Li_2"):
        IdentityCase(2, 2.0, 0.3, 0.4, closed_form_id="dilog-half")
    with pytest.raises(DomainError, match="stands for Li_2"):
        IdentityCase(2, 3.0, 0.5, 0.4, closed_form_id="dilog-half")
    with pytest.raises(DomainError, match="zeta mode"):
        IdentityCase(2, 2.0, 1.0, 0.3, closed_form_id="dilog-half")


def test_order_constraint_holds_by_construction():
    case = IdentityCase(2, 2.5 - 3j, 0.3, 0.4)
    assert case.orders == (2.5 - 3j, 1 - (2.5 - 3j))
    assert case.args == (0.3, 0.4)
    case3 = IdentityCase(3, 1.0, 0.2, 0.2, t=2.0, z=0.2)
    assert case3.orders == (1.0, 2.0, 1 - 1.0 - 2.0)
    assert case3.args == (0.2, 0.2, 0.2)


def test_zeta_mode_gating():
    IdentityCase(2, 3.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        IdentityCase(2, 1.0005, 1.0, 0.5)  # Re s too close to 1
    with pytest.raises(DomainError):
        IdentityCase(2, 3 + 1j, 1.0, 0.5)  # zeta mode is real-order only
    with pytest.raises(DomainError):
        IdentityCase(3, 3.0, 1.0, 0.5, t=-1.0, z=0.2)  # 2D only


def test_zeta_domain_is_one_inclusive_rule():
    # s = 1 + EPS_ZETA is in zeta_real's domain and zeta mode's (zeta mode
    # once refused it), and the double just below it is in neither
    s = 1.0 + EPS_ZETA
    assert zeta_real(s).terms_used == 15
    assert verify(IdentityCase(2, s, 1.0, 0.3), 1e-8).passed
    below = math.nextafter(s, 0.0)
    with pytest.raises(DomainError):
        zeta_real(below)
    with pytest.raises(DomainError):
        IdentityCase(2, below, 1.0, 0.3)


def test_zero_argument_gives_zero_logs():
    case = IdentityCase(2, 2.0, 0.0, 0.4)
    val, bound, _ = _eval_lhs(case, 40)
    assert val == 0
    assert bound == 0.0
    assert _rhs_product(rhs_factors(case)) == 0
    # Li_-200(0) = 0 without the rational form, whose Horner loop over
    # coefficients near 200! leaves the float range.
    report = verify(IdentityCase(2, 201.0, 0.5, 0.0), 1e-8)
    assert report.rhs_factors[1] == 0 and report.rhs_log == 0 and report.passed


def test_log_identity_order_one():
    # s=1 (t=0): log-LHS equals (y/(1-y)) * ln(1/(1-x)).
    want = (0.4 / 0.6) * math.log(1 / 0.7)
    case = IdentityCase(2, 1.0, 0.3, 0.4)
    val, bound, _ = _eval_lhs(case, 80)
    assert abs(val - want) <= bound + 1e-12
    assert abs(_rhs_product(rhs_factors(case)) - want) <= 1e-12


def test_order_two_quarter_arguments():
    # s=2 (t=-1): RHS is Li_2(0.25) * 0.25/0.75^2.
    case = IdentityCase(2, 2.0, 0.25, 0.25)
    want = polylog(2, 0.25, 1e-14).value * (0.25 / 0.75**2)
    report = verify(case, 1e-9)
    assert abs(report.rhs_log - want) <= 1e-12
    assert report.rel_err <= 1e-8


def test_brute_force_matches_closed_form():
    case = IdentityCase(2, 1.0, 0.3, 0.4)
    val = lattice_sum(case.orders, case.args, 80)
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
    assert abs(_rhs_product(rhs_factors(case, 1e-14)) - li_third**3) <= 1e-12
    report = verify(case, 1e-9)
    assert report.rel_err <= 1e-8


def test_zeta_mode_rhs_value():
    # x=1 mode at s=3, y=0.5: zeta(3) * y(1+y)/(1-y)^3 = zeta(3) * 6.
    case = IdentityCase(2, 3.0, 1.0, 0.5)
    want = zeta_real(3.0, 1e-14).value * 6.0
    assert abs(_rhs_product(rhs_factors(case)) - want) <= 1e-10
    report = verify(case, 1e-8)
    assert report.rel_err <= 1e-7


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


@pytest.mark.parametrize("s, y, cap", [
    (6.0, -0.936 - 0.012j, 978),
    (6.0, -0.9, 400),
    (5.0, -0.88 + 0.05j, 600),
    (4.0, cmath.rect(0.9, 2.9), 300),
    (3.0, -0.8, 150),
    (2.5, cmath.rect(0.85, -3.0), 250),
])
def test_zeta_mode_sums_its_terms_exactly(s, y, cap):
    # zeta(s) times the sum of the terms f_b c_b, each part rounded once:
    # bit for bit, where the terms cancel (y near -1, so Li_{1-s}(y) is
    # far smaller than the sum of its terms' sizes)
    t, y = 1 - s, complex(y)  # the case holds y as complex, and so y^b
    ln = log_table(cap)
    c = _coprime_factors(s, cap)
    terms, weight = [], 0.0
    for b in range(1, cap + 1):
        f = -cmath.exp(-t * ln[b]) * log1m(y ** b) if b > 1 else -log1m(y)
        terms.append(f * c[b])
        weight += abs(f) * c[b]
    head = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
    want = zeta_real(s, 1e-15 / max(1.0, weight)).value * head
    value, _, _ = _eval_lhs(IdentityCase(2, s, 1.0, y), cap)
    assert value == want


def test_critical_line_rhs_factorization():
    s = 0.5 + 5j
    case = IdentityCase(2, s, 0.2, 0.2)
    want = polylog(s, 0.2, 1e-14).value * polylog(1 - s, 0.2, 1e-14).value
    assert abs(_rhs_product(rhs_factors(case)) - want) <= 1e-13


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
    case = IdentityCase(2, 1.0, 0.5, 0.4, closed_form_id="ln2")
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
        oracle = lattice_sum((s, 1 - s), (x, y), cap)
        allowance = 2 * _shell_tail((s, 1 - s), (x, y), cap)
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
        oracle = lattice_sum((s, t, u), (x, y, z), cap)
        allowance = 2 * _shell_tail((s, t, u), (x, y, z), cap)
        assert abs(lhs - oracle) <= allowance, (s, t, x, y, z)


def test_constraint_perturbation_is_detected():
    # With t = 1 - s + 0.1 the resummation fails loudly.
    rng = random.Random(4115)
    for _ in range(5):
        s = complex(rng.uniform(-3, 4), rng.uniform(-20, 20))
        t = 1 - s + 0.1
        cap = 70
        lhs, _ = product_log_sum((s, t), (0.4, 0.4), cap)
        oracle = lattice_sum((s, t), (0.4, 0.4), cap)
        allowance = 2 * _shell_tail((s, t), (0.4, 0.4), cap)
        assert abs(lhs - oracle) > 100 * allowance, s


def test_tail_bound_monotone_and_valid():
    case = IdentityCase(2, 0.5 + 14.134725j, 0.3, 0.3)
    bounds = []
    for cap in range(10, 120, 10):
        bounds.append(_eval_lhs(case, cap)[1])
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
    # Doubling the cap moves the value by less than the reported bound.
    v1, t1, _ = _eval_lhs(case, 40)
    v2, _, _ = _eval_lhs(case, 80)
    assert abs(v2 - v1) < t1


def test_conjugate_symmetry():
    for t_val in (5.0, 14.134725):
        up = verify(IdentityCase(2, 0.5 + 1j * t_val, 0.3, 0.3), 1e-9)
        dn = verify(IdentityCase(2, 0.5 - 1j * t_val, 0.3, 0.3), 1e-9)
        assert abs(up.lhs_log - dn.lhs_log.conjugate()) <= 1e-13
        assert abs(up.rhs_log - dn.rhs_log.conjugate()) <= 1e-13


def test_choose_degree_cap_meets_tol():
    case = IdentityCase(2, 2.0, 0.5, 0.3)
    cap = choose_degree_cap(case, 1e-8)
    assert _shell_tail((2.0, -1.0), (0.5, 0.3), cap) <= 1e-8
    assert cap >= 2


def test_unachievable_tolerance_raises_with_details():
    # Level 6324 holds the 2D work budget at equal moduli; |x| = |y| = .999
    # needs a level past 20,000 for 1e-10.
    case = IdentityCase(2, 1.0, 0.999, 0.999)
    with pytest.raises(TailBoundExceedsTol) as info:
        verify(case, 1e-10)
    err = info.value
    assert err.degree_cap == _level_limit(case) == 6324
    assert err.achievable_bound > 1e-10
    assert "work budget" in str(err)


def test_level_limit_follows_the_work_budget():
    # The limit is least at equal moduli, where every mu_i is 1, and there it
    # stays at or above 4000, so no 2D case that meets tol by level 4000 is refused.
    for x in (0.3, 0.99, -0.5j):
        assert _level_limit(IdentityCase(2, 0.5, x, abs(x))) >= 4000
    assert _level_limit(IdentityCase(3, 0.3, 0.99, 0.99, t=0.3, z=0.99)) == 493
    # A faster axis buys a higher level for the same count of points.
    assert _level_limit(IdentityCase(2, 3.0, 0.5, 0.99)) > 50_000
    # zeta mode's level is its term count
    assert _level_limit(IdentityCase(2, 3.0, 1.0, 0.99)) == 4000


def test_verify_rejects_bad_tolerance():
    case = IdentityCase(2, 1.0, 0.3, 0.4)
    with pytest.raises(ValueError):
        verify(case, 0.0)


@pytest.mark.parametrize("call", [
    lambda tol: polylog(2, 0.5, tol),
    lambda tol: zeta_real(2.0, tol),
    lambda tol: rhs_factors(IdentityCase(2, 2.0, 0.5, 0.3), tol),
    lambda tol: choose_degree_cap(IdentityCase(2, 2.0, 0.5, 0.3), tol),
    lambda tol: verify(IdentityCase(2, 2.0, 0.5, 0.3), tol),
    lambda tol: audit_special_values(tol),
], ids=["polylog", "zeta_real", "rhs_factors", "choose_degree_cap", "verify",
        "audit_special_values"])
def test_nan_tolerance_is_rejected(call):
    # tol <= 0 is False for nan: polylog stopped after one term, and
    # the other entry points ran on to a wrong value or a misleading error.
    with pytest.raises(ValueError, match="tol must be positive"):
        call(math.nan)


def test_verify_carries_each_factor_evaluated_once(monkeypatch):
    from vpvlab import products

    calls = {"neg": 0, "series": 0}

    def counted(name, fn):
        def inner(*args):
            calls[name] += 1
            return fn(*args)
        return inner

    monkeypatch.setattr(products, "polylog_neg_int", counted("neg", products.polylog_neg_int))
    monkeypatch.setattr(products, "polylog", counted("series", products.polylog))
    case = IdentityCase(2, 3.0, 0.5, 0.3)
    report = verify(case, 1e-8)
    assert calls == {"neg": 1, "series": 1}
    assert report.rhs_factors == rhs_factors(case, 0.5e-8)
    assert report.rhs_log == report.rhs_factors[0] * report.rhs_factors[1]
    calls.update(neg=0, series=0)
    rows = critical_line_scan([14.134725, 21.02204], x=0.2, y=0.2, tol=1e-8)
    assert calls == {"neg": 0, "series": 4}
    assert [(r.li_s_x, r.li_t_y) for r in rows] == [
        rhs_factors(IdentityCase(2, complex(0.5, t), 0.2, 0.2), 0.5e-8)
        for t in (14.134725, 21.02204)
    ]


def test_infinite_factor_estimate_is_refused_before_any_evaluation(monkeypatch):
    # At s = 2335.33 the second order is t = 1 - s, and |Li_t(y)|'s
    # estimate is past the float range: the first factor's tolerance
    # was tol / inf = 0, which polylog refused as "tol must be positive".
    from vpvlab import products

    def unexpected(*args):
        raise AssertionError("a factor was evaluated")

    monkeypatch.setattr(products, "polylog", unexpected)
    case = IdentityCase(2, 2335.33, -0.962435, -0.153746)
    for call in (rhs_factors, verify):
        with pytest.raises(ComputationError, match="past the float range"):
            call(case, 1e-8)


def test_report_error_definitions():
    report = verify(IdentityCase(2, 2.0, 0.5, 0.3), 1e-8)
    assert report.abs_err == abs(report.lhs_log - report.rhs_log)
    assert report.rel_err == report.abs_err / max(abs(report.rhs_log), 1e-300)


def test_brute_force_3d_zero_argument():
    case = IdentityCase(3, 1.0, 0.2, 0.0, t=1.0, z=0.2)
    assert lattice_sum(case.orders, case.args, 40) == 0


def test_product_log_sum_counts_every_visible_point():
    # At equal moduli every mu_i is 1.0 and the kernel's region is the
    # enumerator's diagonal one, whatever the phases.
    for n, top in ((2, 40), (3, 20), (4, 12)):
        for cap in range(n, top + 1):
            for args in ((0.3,) * n, (0.3, -0.3j, 0.3j, -0.3)[:n]):
                _, count = product_log_sum((1 / n,) * n, args, cap)
                assert count == sum(1 for _ in visible_points(n, cap)), (n, cap, args)


def test_product_log_sum_walks_the_weighted_region():
    # Unequal moduli: the kernel sums exactly the visible points with
    # sum a_i mu_i <= level, filtered here in exact arithmetic, so no
    # point inside is dropped and none outside is added.
    rng = random.Random(8101)
    for n, top in ((2, 60), (3, 30), (4, 16)):
        for _ in range(6):
            args = [_rand_disk(rng, 0.9) for _ in range(n)]
            level = rng.randint(n, top)
            _, count = product_log_sum((1 / n,) * n, args, level)
            assert count == len(_weighted_region(args, level)), (args, level)


def _mpmath_identity(orders, args):
    with mpmath.workdps(30):
        ref = mpmath.mpf(1)
        for s, x in zip(orders, args):
            ref *= mpmath.polylog(mpmath.mpc(s), mpmath.mpc(x))
        return complex(ref)


def test_product_log_sum_is_within_the_shell_bound():
    # The level truncation is certified against mpmath prod Li_s_i(x_i),
    # and doubling the level moves the value by less than the bound.
    rng = random.Random(8111)
    draws = []
    for _ in range(16):
        s = complex(rng.uniform(-3, 4), rng.uniform(-10, 10))
        draws.append(((s, 1 - s), [_rand_disk(rng, 0.85) for _ in range(2)]))
    for _ in range(6):
        s = complex(rng.uniform(-1, 2), rng.uniform(-5, 5))
        t = complex(rng.uniform(-1, 2), rng.uniform(-5, 5))
        draws.append(((s, t, 1 - s - t), [_rand_disk(rng, 0.6) for _ in range(3)]))
    for orders, args in draws:
        tol = 10 ** rng.uniform(-10, -5)
        case = (IdentityCase(2, orders[0], *args) if len(args) == 2 else
                IdentityCase(3, orders[0], args[0], args[1], t=orders[1], z=args[2]))
        level = choose_degree_cap(case, tol)
        bound = _shell_tail(orders, args, level)
        assert bound <= tol
        value, _ = product_log_sum(orders, args, level)
        doubled, _ = product_log_sum(orders, args, 2 * level)
        assert abs(value - _mpmath_identity(orders, args)) <= bound, (orders, args, level)
        assert abs(doubled - value) < bound, (orders, args, level)


def test_choose_degree_cap_matches_per_level_scan():
    # The search starts at _cap_guess, gallops and bisects; the bound is
    # inf before its peak and decreasing after, so it finds what a scan would.
    from vpvlab.products import _tail_bound

    rng = random.Random(8117)
    cases = [IdentityCase(2, complex(rng.uniform(-3, 4), rng.uniform(-20, 20)),
                          _rand_disk(rng, 0.95), _rand_disk(rng, 0.95)) for _ in range(40)]
    cases += [IdentityCase(3, complex(rng.uniform(-2, 3)), _rand_disk(rng, 0.7), _rand_disk(rng, 0.7),
                           t=complex(rng.uniform(-2, 3)), z=_rand_disk(rng, 0.7)) for _ in range(20)]
    cases += [IdentityCase(2, rng.uniform(1.01, 7), 1.0, rng.uniform(-0.99, 0.99)) for _ in range(20)]
    # past the work budget: refused at the level limit
    cases += [IdentityCase(2, 0.5, 0.999, -0.999), IdentityCase(2, 3.0, 1.0, 0.999),
              IdentityCase(3, 0.3, 0.99, 0.99, t=0.3, z=0.99j)]
    refused = 0
    for case in cases:
        tol = 10 ** rng.uniform(-12, -4)
        top = _level_limit(case)
        scan = next((c for c in range(case.dimension, top + 1) if _tail_bound(case, c) <= tol), None)
        if scan is None:
            refused += 1
            with pytest.raises(TailBoundExceedsTol) as info:
                choose_degree_cap(case, tol)
            assert info.value.degree_cap == top
        else:
            assert choose_degree_cap(case, tol) == scan, (case, tol, top)
    assert refused >= 3


def test_weighted_level_cuts_the_terms_near_the_trivial_zeros():
    # y -> 1 with x = 1/2: the x axis decays 13.5x faster than the y axis
    # at y = .95, so the diagonal region (207,097 terms) wasted most of them.
    assert verify(IdentityCase(2, 3.0, 0.5, 0.95), 1e-8).terms <= 207_097 // 5
    # Level 4454 with 87,429 terms, far inside this case's limit of 52,523.
    report = verify(IdentityCase(2, 3.0, 0.5, 0.99), 1e-8)
    assert report.passed and report.tail_bound <= 0.5e-8
    assert (report.degree_cap, report.terms) == (4454, 87_429)


def test_series_constant_is_evaluated_once(monkeypatch):
    # A named constant needs no series, for its value or its magnitude
    # estimate (|Li_k(1/2)| <= ln 2 < 1, under the estimate floor of 1.0).
    # A series factor's estimate needs none either, so Li_3(1/2) is summed
    # once.
    from vpvlab import products

    calls = []

    def counted(*args):
        calls.append(args)
        return polylog(*args)

    monkeypatch.setattr(products, "polylog", counted)
    verify(IdentityCase(2, 2.0, 0.5, 0.3, closed_form_id="dilog-half"), 1e-8)
    assert calls == []
    verify(IdentityCase(2, 3.0, 0.5, 0.3), 1e-8)
    # its share of tol/2 is scaled only by the cofactor |Li_-2(0.3)|
    assert calls == [(3, 0.5, 0.5e-8 / (4 * abs(polylog_neg_int(2, 0.3))))]


def _weighted_region(args, level):
    """Visible points with sum a_i mu_i <= level, mu_i = ln(1/|x_i|) over
    the least such rate, by a filter over the whole box. The sum is taken
    exactly on the float mu_i."""
    rates = [-math.log(abs(x)) for x in args]
    mu = [Fraction(rate / min(rates)) for rate in rates]
    box = [range(1, int(level / m) + 1) for m in mu]
    return [p for p in itertools.product(*box)
            if math.gcd(*p) == 1 and sum(a * m for a, m in zip(p, mu)) <= level]


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
    points = _weighted_region(args, cap)
    with mpmath.workdps(30):
        ref = mpmath.mpf(0)
        magnitude = mpmath.mpf(0)
        for p in points:
            weight = mpmath.mpf(1)
            w = mpmath.mpf(1)
            for k, s, x in zip(p, orders, args):
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


@pytest.mark.parametrize(
    "orders, args, cap",
    [
        ((0.25,) * 4, (0.3,) * 4, 28),
        ((_CRITICAL, 0.2 - 3j, 0.1 - 5j, 0.2 - 6.134725j), (0.3, 0.2j, -0.25, 0.1 + 0.2j), 26),
        ((-1.0, -0.5, 1.5, 1.0), (0.2, -0.2, 0.15j, 0.25), 26),
    ],
)
def test_four_dimensional_identity_matches_mpmath(orders, args, cap):
    # Orders summing to 1 make both the visible-point kernel and the
    # full-lattice oracle equal prod Li_s_i(x_i) up to the dropped
    # points. With |x_i| <= 0.3 the oracle's envelope sum_{d > cap} d^3/6
    # 0.3^d is under 1e-11; the kernel's errors were 6.2e-13, 1.4e-13 and
    # 2.6e-15, under shell bounds of 1.4e-11 to 7.9e-11.
    ref = _mpmath_identity(orders, args)
    value, _ = product_log_sum(orders, args, cap)
    assert abs(value - ref) <= 1e-11
    assert abs(lattice_sum(orders, args, cap) - ref) <= 1e-11


def _log1m_degree8(w):
    # log1m before its degree tiers: the series through w^8/8 below 1e-4
    if abs(w) < 1e-4:
        return -w * (1 + w * (1 / 2 + w * (1 / 3 + w * (1 / 4 + w * (
            1 / 5 + w * (1 / 6 + w * (1 / 7 + w * (1 / 8))))))))
    return cmath.log(1 - w)


def _product_log_sum_reference(orders, args, degree_cap):
    # The kernel before the row weight was hoisted: the head weight w is
    # applied to every term, and log1m is the degree-8 series. Returns
    # (value, count, sum of |terms|); the last sets the rounding scale.
    # Each weight and power is formed where a point needs it, so no table
    # bounds the walk.
    n = len(orders)
    mu = _decay_ratios(args)
    axes = sorted(range(n), key=mu.__getitem__, reverse=True)
    mu = [mu[i] for i in axes]
    later = [math.fsum(mu[i + 1:]) for i in range(n)]
    slack = 1e-9 * degree_cap
    weights = [lambda a, s=-complex(orders[i]): cmath.exp(s * math.log(a)) for i in axes]
    powers = [lambda a, x=complex(args[i]): x ** a for i in axes]
    wb, pb = weights[-1], powers[-1]
    re_parts, im_parts = [], []
    count, magnitude = 0, 0.0

    def rows(i, g, budget, w, p):
        nonlocal count, magnitude
        if i == n - 1:
            row = [w * wb(b) * _log1m_degree8(p * pb(b))
                   for b in range(1, int(budget + slack) + 1) if math.gcd(g, b) == 1]
            count += len(row)
            magnitude += math.fsum(abs(z) for z in row)
            re_parts.append(math.fsum([z.real for z in row]))
            im_parts.append(math.fsum([z.imag for z in row]))
            return
        for a in range(1, int((budget - later[i] + slack) / mu[i]) + 1):
            rows(i + 1, math.gcd(g, a), budget - a * mu[i], w * weights[i](a), p * powers[i](a))

    rows(0, 0, float(degree_cap), 1.0, 1.0)
    return 0j - complex(math.fsum(re_parts), math.fsum(im_parts)), count, magnitude


def test_product_log_sum_matches_the_per_term_weight_kernel():
    # Hoisting the row weight and cutting log1m's series at the degree |w|
    # needs move each value by a few u of its terms' sizes and no more.
    u = 2.0 ** -53
    rng = random.Random(8123)
    draws = []
    for n, radius, top, count in ((2, 0.9, 120, 24), (3, 0.7, 40, 10), (4, 0.5, 20, 6)):
        for _ in range(count):
            free = [complex(rng.uniform(-1, 2), rng.uniform(-20, 20)) for _ in range(n - 1)]
            orders = free + [1 - sum(free)]
            args = [_rand_disk(rng, radius) for _ in range(n)]
            draws.append((orders, args, rng.randint(n, top)))
    for orders, args, level in draws:
        value, count = product_log_sum(orders, args, level)
        ref, ref_count, magnitude = _product_log_sum_reference(orders, args, level)
        assert count == ref_count, (orders, args, level)
        assert abs(value - ref) <= 8 * u * magnitude, (orders, args, level)


def test_pow_table_matches_the_per_power_list():
    # map(pow, repeat(b), ...) runs the same b ** k for each k, so every
    # entry keeps its bits, past the exponent (100) where complex ** int
    # stops multiplying out and takes exp/log.
    rng = random.Random(2290)
    for _ in range(60):
        base, cap = _rand_disk(rng, 0.999), rng.randrange(0, 300)
        assert _pow_table(base, cap) == [base ** k for k in range(cap + 1)], (base, cap)


def _assert_matches_reference(orders, args, level):
    # The count is exact; the value may move by a few u of the sum of
    # |terms| (u = 2^-53), the scale of the rounding of any one term.
    value, count = product_log_sum(orders, args, level)
    ref, ref_count, magnitude = _product_log_sum_reference(orders, args, level)
    assert count == ref_count, (orders, args, level)
    assert abs(value - ref) <= 8 * 2.0 ** -53 * magnitude, (orders, args, level)
    return value, count


@pytest.mark.parametrize("orders, args, level", [
    # the slow axis (the last of equal decay ratios) is 0: every term is 0
    ((2.0, -1.0), (0.5, 0.0), 30),
    ((2.0, 1.5, -2.5), (0.4, 0.6j, 0.0), 12),
    # a fast axis is 0, so every row has p = 0 and lies wholly in the tail
    ((2.0, -1.0), (0.0, 0.5), 30),
    ((2.0, 1.5, -2.5), (0.4, 0.0, 0.6j), 12),
])
def test_product_log_sum_with_a_zero_argument(orders, args, level):
    value, count = _assert_matches_reference(orders, args, level)
    assert value == 0 and count > 0


@pytest.mark.parametrize("orders, args", [
    ((-800.5, 801.5), (0.0, 0.3)),
    ((1500.5, -1499.5), (0.3, 0.0)),
    ((-900.5, 1.0, 900.5), (0.0, 0.3, 0.3)),
])
def test_weight_past_the_float_range_is_a_computation_error(orders, args):
    # a^-s overflows once -Re s ln a passes 709.8, here at a = 3: a typed
    # error, not a bare OverflowError (exit 3 in the CLI). A zero argument
    # still walks the region, so the weights are built there too, as far
    # as the longest row: at level n + 2 every axis reaches a = 3.
    with pytest.raises(ComputationError, match="lattice weight"):
        product_log_sum(orders, args, len(orders) + 2)


@pytest.mark.parametrize("call, named", [
    # Im s ln k passes the float range from k = 7, an infinite phase; at
    # level 12 each axis's rows reach k = 11 (at level 4 no weight
    # overflows). It was a bare ValueError.
    (lambda: product_log_sum((0.5 + 1e308j, 0.5 - 1e308j), (0.3, 0.3), 12), "k <= 11 at s = (0.5+1e+308j)"),
    # zeta mode's b^-t at t = -399.5 passes the float range from b = 6. It
    # was a bare OverflowError.
    (lambda: _eval_lhs(IdentityCase(2, 400.5, 1, 0.5), 10), "k <= 10 at s = (-399.5+0j)"),
], ids=["infinite-phase", "zeta-mode"])
def test_a_weight_refusal_names_its_order_and_row(call, named):
    with pytest.raises(ComputationError, match="lattice weight") as info:
        call()
    assert named in str(info.value)


@pytest.mark.parametrize("orders, args, level", [
    # |y| >= 1 on the slow axis, where |w| = |x|^a |y|^b would rise along
    # each row (in row a = 1 from 3e-9 to 0.13, and from 0.15 past 1e4 at
    # |x| = 0.1): the kernel refuses these, and the oracle still sums them
    ((2.0, -1.0), (1e-9, 3.0), 18),
    ((2.0 + 1j, -1.0 - 1j), (1e-9j, cmath.rect(3.0, 0.7)), 18),
    ((2.0, -1.0), (0.1, 1.5), 30),
    ((2.0 + 1j, -1.0 - 1j), (0.1j, cmath.rect(1.0, 0.7)), 40),
    # a head gcd with four distinct primes: row a = 210 at |x| = |y| = 0.96
    # has |w| >= 1e-4 for b < 16 and a tail 16 .. 50 over 13 divisors of 210
    ((2.0 - 3j, -1.0 + 3j), (cmath.rect(0.96, 0.4), cmath.rect(0.96, -1.1)), 260),
    # rising weights b^4 along the slow axis, peaking near b = 18
    ((5.0, -4.0), (cmath.rect(0.5, 2.0), cmath.rect(0.8, 0.3)), 300),
    ((5.0 + 7j, -4.0 - 7j), (cmath.rect(0.8, 1.0), cmath.rect(0.8, -2.5)), 300),
    # every row wholly in the head: |w| >= 0.99^300 > 1e-4 throughout
    ((2.0 + 4j, -1.0 - 4j), (cmath.rect(0.99, 0.5), cmath.rect(0.99, 2.0)), 300),
    # every row from a = 2 on wholly in the tail: |p| <= 1e-6
    ((3.0, -2.0 + 5j), (1e-3j, cmath.rect(0.5, 1.0)), 60),
    # 4D, with two rising weights
    ((-1.0, -0.5 + 2j, 1.5, 1.0 - 2j), (0.4, cmath.rect(0.5, 1.0), -0.45, 0.5j), 24),
    # Short rows come first (the last head axis runs from its largest
    # coordinate down), so a divisor is first summed directly and a later
    # row builds its table: d = 2 directly in rows a = 36 and 34 (top 4
    # and 6), its table in row 32; d = 7 in rows 21 and 14, its table in
    # row 7, whose head is b < 7.
    ((2.0, -1.0), (0.5, 0.5), 40),
    ((2.0 - 1j, -1.0 + 1j), (cmath.rect(0.5, 1.0), cmath.rect(0.6, -2.0)), 40),
    # coprime heads wholly in the tail: row a = 1 (|p y| = 5e-6, top 43),
    # and in 3D two rows with g = 1 and tops 2 and 14, where d = 1 is
    # first summed directly and then from its table
    ((2.0, -1.0), (1e-5, 0.5), 60),
    ((1.5, 0.5 + 2j, -1.0 - 2j), (1e-3, 2e-3j, cmath.rect(0.6, 0.5)), 40),
    # 4D with distinct decay rates and heads on every axis, so the rows of
    # the last head axis come from many stack entries
    ((1.5 + 1j, -0.5, 0.5 - 2j, -0.5 + 1j), (0.3, 0.5j, cmath.rect(0.6, 1.0), 0.7), 30),
])
def test_product_log_sum_matches_the_reference_at_the_edges(orders, args, level):
    if max(map(abs, args)) >= 1:
        with pytest.raises(DomainError):
            product_log_sum(orders, args, level)
        assert cmath.isfinite(lattice_sum(orders, args, level))
        return
    _assert_matches_reference(orders, args, level)


def test_product_log_sum_refuses_arguments_off_the_open_disk():
    # any axis, fast or slow, on or past the unit circle (a zero argument
    # stays allowed: test_product_log_sum_with_a_zero_argument)
    for args in ((1.0, 0.5), (0.5, -1.0), (cmath.rect(1.0, 0.7), 0.0), (0.3, 0.2, 1.2j)):
        orders = (2.0,) + (-1.0 / (len(args) - 1),) * (len(args) - 1)
        with pytest.raises(DomainError):
            product_log_sum(orders, args, 12)
        assert cmath.isfinite(lattice_sum(orders, args, 12))


_DISK_POINT = st.builds(cmath.rect, st.floats(0.0, 0.95), st.floats(-math.pi, math.pi))
_ORDER = st.builds(complex, st.floats(-6.0, 8.0), st.floats(-20.0, 20.0))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(_ORDER, min_size=n - 1, max_size=n - 1),
    st.lists(_DISK_POINT, min_size=n, max_size=n),
    st.integers(n, {2: 90, 3: 24, 4: 16}[n]),
)))
def test_product_log_sum_matches_the_reference_property(draw):
    free, args, level = draw
    _assert_matches_reference(free + [1 - sum(free)], args, level)


@st.composite
def _extreme_ratio_draws(draw):
    # one or two moduli far below the rest, so the decay ratios reach
    # thousands; levels from just below sum mu_i (an empty region) to
    # about 30 rows past it
    n = draw(st.integers(2, 4))
    tiny = draw(st.integers(1, min(2, n - 1)))
    moduli = draw(st.permutations(
        [10.0 ** draw(st.floats(-300.0, -3.0)) for _ in range(tiny)]
        + [draw(st.floats(0.3, 0.9)) for _ in range(n - tiny)]))
    args = [cmath.rect(m, draw(st.floats(-math.pi, math.pi))) for m in moduli]
    free = draw(st.lists(_ORDER, min_size=n - 1, max_size=n - 1))
    level = int(math.fsum(_decay_ratios(args))) + draw(st.integers(-1, 30))
    return free + [1 - sum(free)], args, level


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(_extreme_ratio_draws())
def test_product_log_sum_at_extreme_decay_ratios(draw):
    # Each table ends at its axis's longest row; the walk's rounded
    # budgets must stay inside it (an index past it is an IndexError).
    _assert_matches_reference(*draw)


def test_product_log_sum_leaves_no_reference_cycle():
    # Every table of a call is freed when it returns, without waiting for
    # the cyclic collector.
    calls = [((2.0, -1.0), (0.5, 0.9), 200), ((1.5, 0.5, -1.0), (0.4, 0.5j, 0.8), 30)]
    gc.collect()
    gc.disable()
    try:
        for orders, args, level in calls:
            product_log_sum(orders, args, level)
            assert gc.collect() == 0, (orders, args, level)
    finally:
        gc.enable()


def test_product_log_sum_holds_one_block_of_products():
    # 48,677 points, all in row heads (|w| >= 0.99^400): the products are
    # folded into their sum every 4,096, so the call peaks at 470 kB, not
    # at one complex per point (3.6 MB measured unfolded).
    orders, args = (2.0 + 4j, -1.0 - 4j), (cmath.rect(0.99, 0.5), cmath.rect(0.99, 2.0))
    log_table(401)
    tracemalloc.start()
    try:
        product_log_sum(orders, args, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_divisor_table_lists_the_squarefree_divisors_in_the_kernel_order():
    # The kernel adds each row's Moebius terms in this order, so the order
    # is part of its bit-identical values: the divisors of g with its
    # smallest prime p taken out, then each of them times p.
    table = _squarefree_divisors(2000)
    for g in range(1, 2001):
        primes = [p for p in range(2, g + 1) if g % p == 0 and all(p % f for f in range(2, math.isqrt(p) + 1))]
        want = {math.prod(c): (-1) ** len(c) for k in range(len(primes) + 1)
                for c in itertools.combinations(primes, k)}
        assert len(table[g]) == len(want) and dict(table[g]) == want, g
        if g > 1:
            p, rest = primes[0], g
            while rest % p == 0:
                rest //= p
            assert table[g] == table[rest] + [(d * p, -m) for d, m in table[rest]], g
    assert table[30] == [(1, 1), (5, -1), (3, -1), (15, 1), (2, -1), (10, 1), (6, 1), (30, -1)]


def test_empty_region_returns_before_building_tables():
    # mu_x is about 690,000, so no point of the level-74,428 region has
    # a coordinate on the fast axis: the kernel sums nothing, and it
    # returns before it builds level-sized tables (0.105 s for verify and
    # a 20.5 MB kernel peak when it built them; 0.023 s and 1.3 kB now).
    case = IdentityCase(2, 0.5, 1e-300, 0.999)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        report = verify(case, 1e-30)
        times.append(time.perf_counter() - start)
    assert (report.degree_cap, report.terms, report.lhs_log, report.passed) == (74428, 0, 0j, True)
    assert min(times) < 0.1
    tracemalloc.start()
    try:
        assert product_log_sum(case.orders, case.args, report.degree_cap) == (0j, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_nearly_empty_region_builds_only_its_short_rows():
    # mu_x is about 690,000, so the level-698,040 region holds only the
    # row a = 1, with b up to 7,609: each table runs to its axis's longest
    # row, not to the level (a 310 MB kernel peak when it did).
    orders, args, level = (0.5, 0.5), (1e-300, 0.999), 698040
    log_table(level + 1)
    tracemalloc.start()
    try:
        product_log_sum(orders, args, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    _, count = _assert_matches_reference(orders, args, level)
    assert count == 7609


def test_product_log_sum_rejects_mismatched_shapes():
    for kernel in (product_log_sum, lattice_sum):
        with pytest.raises(DomainError):
            kernel((0.5,), (0.3,), 10)
        with pytest.raises(DomainError):
            kernel((0.5, 0.5), (0.3, 0.3, 0.3), 10)


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
