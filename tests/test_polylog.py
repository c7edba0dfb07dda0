"""Series evaluator, closed forms, and zeta tests.

Reference decimals below were frozen from independent brute-force
oracles (plain high-cap partial sums and textbook constants) before
the library was wired up.
"""

import cmath
import math
import random

import pytest

from vpvlab import (
    TERM_CAP,
    ComputationError,
    DomainError,
    IdentityCase,
    NonConvergence,
    polylog,
    polylog_neg_int,
    polylog_partial,
    rhs_factors,
    zeta_real,
)
from vpvlab.numerics import dirichlet_tail, log1m, power_geometric_tail
from vpvlab.polylog import _neg_order_poly

# Frozen oracle values (1e7-term partial sums, double precision).
LI2_HALF = 0.5822405264650125
LI3_HALF = 0.5372131936080402
LI4_HALF = 0.5174790616738993
ZETA3 = 1.2020569031595943


def test_zero_argument_is_exactly_zero():
    for s in (1, 2, -3, 0.5 + 14.1j, -2.5 - 30j):
        res = polylog(s, 0.0, 1e-12)
        assert res.value == 0
        assert res.tail_bound == 0.0


def test_log_two_at_order_one():
    res = polylog(1, 0.5, 1e-13)
    assert abs(res.value - math.log(2)) <= 1e-13
    assert res.tail_bound <= 1e-13


def test_dilog_half_closed_constant():
    # pi^2/12 - (ln 2)^2/2, the classical dilogarithm value at 1/2.
    closed = math.pi**2 / 12 - math.log(2) ** 2 / 2
    assert abs(closed - LI2_HALF) <= 1e-15
    res = polylog(2, 0.5, 1e-13)
    assert abs(res.value - LI2_HALF) <= 1e-13


def test_frozen_half_values_orders_three_four():
    assert abs(polylog(3, 0.5, 1e-13).value - LI3_HALF) <= 1e-13
    assert abs(polylog(4, 0.5, 1e-13).value - LI4_HALF) <= 1e-13


def test_negative_order_example():
    # Li_{-2}(0.3) = 0.3(1.3)/0.7^3 from the rational closed form.
    want = 0.3 * 1.3 / 0.7**3
    res = polylog(-2, 0.3, 1e-12)
    assert abs(res.value - want) <= 1e-11


def _second_factor(order, z):
    # Li_order(z) as the second right-side factor of a 2D case
    return rhs_factors(IdentityCase(2, 1 - order, 0.3, z))[1]


def test_closed_form_small_orders():
    assert _second_factor(0, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert _second_factor(-1, 0.5) == pytest.approx(2.0, abs=1e-15)
    want = 0.4 * (1 + 1.6 + 0.16) / 0.6**4
    assert _second_factor(-3, 0.4) == pytest.approx(want, rel=1e-14)
    assert _second_factor(1, 0.5) == pytest.approx(math.log(2), rel=1e-15)


def test_closed_form_unsupported_order():
    # Li_{-n} has a rational form for every n >= 0, and a positive order
    # has none.
    with pytest.raises(DomainError):
        polylog_neg_int(-2, 0.5)
    assert _second_factor(-5, 0.5) == polylog_neg_int(5, 0.5)


def test_closed_form_poles_are_rejected():
    with pytest.raises(DomainError):
        polylog_neg_int(0, 1.0)
    with pytest.raises(DomainError):
        IdentityCase(2, 0.0, 0.3, 1.0)  # Li_1(y) at its pole y = 1


def test_neg_int_quartic_at_half():
    # z(1+z)(1+10z+z^2)/(1-z)^5 at z = 1/2:
    # (1/2)(3/2)(25/4) * 32 = 150.
    assert polylog_neg_int(4, 0.5) == pytest.approx(150.0, rel=1e-13)
    assert polylog_neg_int(0, 0.9) == pytest.approx(9.0, rel=1e-13)


def test_neg_int_against_series_order_five():
    want = polylog(-5, 0.1, 1e-12)
    got = polylog_neg_int(5, 0.1)
    assert abs(got - want.value) <= 1e-11


def test_neg_int_rejects_bad_inputs():
    with pytest.raises(DomainError):
        polylog_neg_int(-1, 0.5)
    with pytest.raises(DomainError):
        polylog_neg_int(2, 1.0)


@pytest.mark.parametrize("n, z", [(170, 0.5), (171, 0.5), (172, 0.5), (120, 0.999)])
def test_neg_int_out_of_float_range_raises_computation_error(n, z):
    # Li_{-170}(1/2) overflows to inf, n = 171 gives nan, n = 172 overflows
    # the Horner step, and (1 - z)^121 underflows to 0 at z = 0.999.
    with pytest.raises(ComputationError):
        polylog_neg_int(n, z)


def test_neg_order_poly_builds_high_orders_without_recursion():
    # From a cold cache: the recursive build raised RecursionError near
    # n = 500. The Eulerian coefficients of P_n sum to n! and are
    # symmetric.
    _neg_order_poly.cache_clear()
    coeffs = _neg_order_poly(600)
    assert len(coeffs) == 601 and coeffs[0] == 0 and coeffs[1] == coeffs[-1] == 1
    assert coeffs[1:] == coeffs[:0:-1]
    assert sum(coeffs) == math.factorial(600)


def test_series_closed_form_agreement_grid():
    # |series - closed form| <= 10 * tol over a grid with |z| <= 0.9.
    # tol sits above the closed forms' own roundoff (values reach ~2e6
    # at z = 0.9 for order -4, so ~2e-10 of float noise is inherent).
    tol = 1e-9
    zs = [0.9, -0.9, 0.5, 0.45 + 0.45j, -0.3 + 0.6j, 0.1j]
    for n in range(0, 5):
        for z in zs:
            series = polylog(-n, z, tol).value
            closed = polylog_neg_int(n, z)
            assert abs(series - closed) <= 10 * tol, (n, z)


def test_recurrence_matches_numerical_derivative():
    # Li_{-(n+1)}(z) = z * d/dz Li_{-n}(z); central difference h = 1e-6.
    h = 1e-6
    for n in range(0, 7):
        for z in (0.2, 0.5j, -0.4):
            z = complex(z)
            deriv = (polylog_neg_int(n, z + h) - polylog_neg_int(n, z - h)) / (2 * h)
            want = z * deriv
            got = polylog_neg_int(n + 1, z)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (n, z)


def test_tail_bound_covers_doubled_terms():
    # Recomputing with 2x terms moves the value by less than the
    # reported bound, for random orders with growing-then-decaying terms.
    rng = random.Random(1139)
    for _ in range(100):
        s = complex(rng.uniform(-5, 5), rng.uniform(-30, 30))
        r = 0.8 * math.sqrt(rng.random())
        phi = rng.uniform(0, 2 * math.pi)
        z = r * cmath.exp(1j * phi)
        res = polylog(s, z, 1e-9)
        again = polylog_partial(s, z, 2 * res.terms_used)
        assert abs(again - res.value) < max(res.tail_bound, 1e-15), (s, z)


def test_tail_bound_reported_at_or_under_tol():
    rng = random.Random(7320)
    for _ in range(40):
        s = complex(rng.uniform(-3, 4), rng.uniform(-20, 20))
        z = 0.5 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        res = polylog(s, z, 1e-10)
        assert 0.0 <= res.tail_bound <= 1e-10


def test_domain_and_convergence_errors():
    with pytest.raises(DomainError):
        polylog(2, 0.9995, 1e-8)
    with pytest.raises(DomainError):
        polylog(2, 1.0, 1e-8)
    with pytest.raises(ValueError):
        polylog(2, 0.5, 0.0)
    with pytest.raises(NonConvergence):
        polylog(2, 0.5, 1e-12, term_cap=5)


def _scan_stop(s, z, tol, term_cap):
    """(k, bound) for the first k whose tail bound meets tol, testing every
    k in turn; None when no k <= term_cap does."""
    sigma_minus = max(0.0, -complex(s).real)
    for k in range(1, term_cap + 1):
        bound = power_geometric_tail(k, sigma_minus, abs(z))
        if bound <= tol:
            return k, bound
    return None


def test_stopping_index_matches_per_term_scan():
    rng = random.Random(2246)
    for i in range(150):
        s = complex(rng.uniform(-4, 4), rng.uniform(-30, 30))
        r = 0.999 * rng.random() if i % 3 else 0.999 - 0.05 * rng.random()
        z = r * cmath.exp(2j * math.pi * rng.random())
        tol = 10 ** rng.uniform(-15, -3)
        k, bound = _scan_stop(s, z, tol, TERM_CAP)
        res = polylog(s, z, tol)
        assert (res.terms_used, res.tail_bound) == (k, bound), (s, z, tol)
        assert res.value == polylog_partial(s, z, k)
        # NonConvergence exactly when the scan passes term_cap.
        cap = rng.randrange(1, 2 * k + 1)
        if _scan_stop(s, z, tol, cap) is None:
            with pytest.raises(NonConvergence):
                polylog(s, z, tol, term_cap=cap)
        else:
            assert polylog(s, z, tol, term_cap=cap).terms_used == k


def test_stopping_index_same_in_extended_precision():
    s, z, tol = -1.5 + 4j, 0.9 * cmath.exp(1j), 1e-12
    assert polylog(s, z, tol, dps=30).terms_used == polylog(s, z, tol).terms_used
    with pytest.raises(NonConvergence):
        polylog(s, z, tol, term_cap=10, dps=30)


def test_overflowing_terms_raise_computation_error():
    # k^200.5 passes the float range at k = 35; the bound is met far later.
    with pytest.raises(ComputationError):
        polylog(-200.5, 0.5, 1e-12)
    res = polylog(-200.5, 0.5, 1e-12, dps=30)
    assert res.terms_used > 35


def test_zeta_special_values():
    assert abs(zeta_real(2.0, 1e-13).value - math.pi**2 / 6) <= 1e-13
    assert abs(zeta_real(4.0, 1e-13).value - math.pi**4 / 90) <= 1e-13
    assert abs(zeta_real(3.0, 1e-13).value - ZETA3) <= 1e-13


def test_zeta_domain_checks():
    with pytest.raises(DomainError):
        zeta_real(1.0005, 1e-8)
    with pytest.raises(DomainError):
        zeta_real(2 + 1j, 1e-8)
    with pytest.raises(ValueError):
        zeta_real(2.0, -1.0)


def test_extended_precision_paths():
    import mpmath

    res = polylog(3, 0.5, 1e-25, dps=35)
    with mpmath.workdps(35):
        assert abs(complex(res.value) - LI3_HALF) <= 1e-14
        # 34-digit reference for Li_3(1/2), cross-checked against an
        # independent arbitrary-precision evaluation.
        ref = mpmath.mpf("0.5372131936080402009406232255949658")
        assert abs(res.value.real - ref) <= mpmath.mpf("1e-25")
    zres = zeta_real(3.0, 1e-25, dps=35)
    with mpmath.workdps(35):
        ref3 = mpmath.mpf("1.20205690315959428539973816151")
        assert abs(zres.value - ref3) <= mpmath.mpf("1e-25")


def test_log1m_accuracy_small_and_moderate():
    assert log1m(1e-9) == pytest.approx(-1e-9 - 0.5e-18, rel=1e-12)
    for w in (0.3, -0.7, 0.2 + 0.4j):
        assert abs(log1m(w) - cmath.log(1 - w)) <= 1e-15 * max(1.0, abs(cmath.log(1 - w)))


def test_power_geometric_tail_monotone_in_cap():
    for p, r in ((0.0, 0.5), (3.0, 0.8), (6.0, 0.3)):
        bounds = [power_geometric_tail(cap, p, r) for cap in range(5, 200, 10)]
        for lo, hi in zip(bounds[1:], bounds):
            assert lo <= hi


def test_power_geometric_tail_is_a_true_bound():
    # Compare against the directly summed tail.
    for p, r in ((0.0, 0.5), (2.0, 0.6), (4.0, 0.25)):
        for cap in (10, 30, 60):
            direct = sum(k**p * r**k for k in range(cap + 1, cap + 4000))
            assert power_geometric_tail(cap, p, r) >= direct


def test_dirichlet_tail_bound():
    # Tail sum of k^{-3} from 50 against the exact difference.
    val, rem = dirichlet_tail(3.0, 50)
    direct = ZETA3 - sum(k**-3.0 for k in range(1, 50))
    assert abs(val - direct) <= rem + 1e-15
    assert rem <= 1e-12
