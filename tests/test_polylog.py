"""Series evaluator, closed forms, and zeta tests.

Reference decimals below were frozen from independent brute-force
oracles (plain high-cap partial sums and textbook constants) before
the library was wired up.
"""

import cmath
import math
import random
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, islice, product, repeat
from operator import attrgetter, mul

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vpvlab import (
    TERM_CAP,
    ComputationError,
    DomainError,
    IdentityCase,
    NonConvergence,
    SeriesResult,
    audit_special_values,
    polylog,
    polylog_neg_int,
    rhs_factors,
    verify,
    zeta_real,
)
from vpvlab import numerics
from vpvlab.extended import (
    _complex_product, _weights, _width, exact_parts, partial_sum, round_bits, working_bits,
)
from vpvlab.numerics import (
    LOG1M_SERIES_MAX, em_bracket, exact_sum, first_within, log1m, power_geometric_guess,
    power_geometric_tail, smallest_prime_factors,
)
from vpvlab.polylog import _gaussian_power, _neg_order_log_floor, _neg_order_poly, polylog_partial

# The module, for patching its TERM_CAP: the package's name "polylog" is
# the function it re-exports, so the dotted string would resolve to that.
POLYLOG_MODULE = sys.modules["vpvlab.polylog"]

# Frozen oracle values (1e7-term partial sums, double precision).
LI2_HALF = 0.5822405264650125
LI3_HALF = 0.5372131936080402
LI4_HALF = 0.5174790616738993
ZETA3 = 1.2020569031595943


def _extended_partial(s, z, n, dps):
    """The extended partial sum over n terms at dps digits, as polylog
    sums it at its stopping index."""
    bits = working_bits(dps)
    return partial_sum(exact_parts(s, bits), exact_parts(z, bits), n, bits)


def _mp(value):
    """An extended value (a DecimalComplex or a Decimal) as an mpmath
    number, read from its digits at the caller's working precision."""
    if hasattr(value, "imag") and not isinstance(value, Decimal):
        return mpmath.mpc(str(value.real), str(value.imag))
    return mpmath.mpf(str(value))


def test_zero_argument_is_exactly_zero():
    # no term is summed, in either precision
    for s in (1, 2, -3, 0.5 + 14.1j, -2.5 - 30j):
        for dps in (None, 30):
            res = polylog(s, 0.0, 1e-12, dps=dps)
            assert complex(res.value) == 0
            assert (res.terms_used, res.tail_bound) == (0, 0.0), (s, dps)


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
    # The plain series, not polylog, which now returns polylog_neg_int
    # itself at this order: 40 terms leave a tail below 40^5 / 10^40.
    want = polylog_partial(-5, 0.1, 40)
    got = polylog_neg_int(5, 0.1)
    assert abs(got - want) <= 1e-11


@pytest.mark.parametrize("n, z", [(0, 0.5), (1, -0.3 + 0.4j), (5, 0.1), (20, -0.95), (26, -0.768936)])
def test_polylog_takes_non_positive_integer_orders_from_the_closed_form(n, z):
    # The series cancels here in double: at (20, -0.95) it returned -5.31e28
    # for a true 5.92e7. The closed form needs no terms and has no tail.
    res = polylog(-n, z, 1e-14)
    assert res == SeriesResult(polylog_neg_int(n, z), 0, 0.0)
    # extended precision still sums the series
    assert polylog(-n, z, 1e-14, dps=30).terms_used > 0


def test_polylog_keeps_its_refusals_at_non_positive_integer_orders():
    with pytest.raises(ComputationError):
        polylog(-1000, 0.3)  # past the float range: refused by the magnitude floor
    with pytest.raises(ComputationError):
        polylog(-3000, 0.3)  # past the routed orders: the series refuses its terms
    with pytest.raises(DomainError):
        polylog(-2, 0.9995)


def test_neg_int_rejects_bad_inputs():
    with pytest.raises(DomainError):
        polylog_neg_int(-1, 0.5)
    with pytest.raises(DomainError):
        polylog_neg_int(2, 1.0)


@pytest.mark.parametrize("n, z", [(170, 0.5), (171, 0.5), (172, 0.5), (120, 0.999)])
def test_neg_int_out_of_float_range_raises_computation_error(n, z):
    # Each value is past the float range: Li_-n(1/2) ~ n! / ln(2)^(n+1)
    # passes 1.8e308 before n = 170, and Li_-120(0.999) ~ 120! * 1000^121.
    with pytest.raises(ComputationError):
        polylog_neg_int(n, z)


@pytest.mark.parametrize("n, z", [(10**15, 0.3), (10**15, -0.3), (10**300, 0.3), (1001, 1e-5)])
def test_neg_int_without_a_floor_past_the_routed_orders_is_refused_at_once(n, z):
    # _neg_order_log_floor finds no bound here: its rounding allowance
    # outgrows the value from n near 1e13, and it takes none at
    # |ln z| >= 2 sqrt(2) pi. P_n would cost about n^3.
    t0 = time.perf_counter()
    with pytest.raises(ComputationError, match="no magnitude floor"):
        polylog_neg_int(n, z)
    assert time.perf_counter() - t0 < 0.1


def test_neg_int_at_zero_is_zero_at_any_order():
    t0 = time.perf_counter()
    assert [polylog_neg_int(n, z) for n in (0, 5, 10**15) for z in (0.0, -0j)] == [0j] * 6
    assert time.perf_counter() - t0 < 0.1


def test_neg_int_is_exact_past_the_float_horner_range():
    # The Eulerian coefficients of P_200 pass the float range, but
    # Li_-200(-0.9) itself is finite; mpmath 50-digit reference.
    with mpmath.workdps(50):
        ref = mpmath.polylog(-200, mpmath.mpf(-0.9))
    got = polylog_neg_int(200, -0.9)
    assert got.imag == 0.0
    assert abs(got.real - ref) <= 1e-16 * abs(ref)


def _neg_int_exact(n, z):
    """Li_-n(z) as an exact pair of Fractions, from the cached P_n."""
    re, im = Fraction(0), Fraction(0)
    zr, zi = Fraction(z.real), Fraction(z.imag)
    for c in reversed(_neg_order_poly(n)):
        re, im = re * zr - im * zi + c, re * zi + im * zr
    wr, wi = Fraction(1), Fraction(0)
    for _ in range(n + 1):
        wr, wi = wr * (1 - zr) + wi * zi, wi * (1 - zr) - wr * zi
    den = wr * wr + wi * wi
    return (re * wr + im * wi) / den, (im * wr - re * wi) / den


def test_neg_int_is_correctly_rounded():
    rng = random.Random(2203)
    for _ in range(150):
        n = rng.randrange(0, 40)
        z = complex(rng.uniform(-0.95, 0.95), rng.choice((0.0, rng.uniform(-0.95, 0.95))))
        re, im = _neg_int_exact(n, z)
        assert polylog_neg_int(n, z) == complex(float(re), float(im)), (n, z)


def test_neg_order_floor_refuses_only_values_past_the_float_range(monkeypatch):
    # With the floor switched off, polylog_neg_int takes the exact path
    # for every input. On a grid of n <= 400 and z with |ln z| < pi/2
    # (and -0.5 outside it, where the poles k = 0, 1 carry the floor), the public call
    # returns what the exact path returns, and refuses only where the
    # exact path leaves the float range too. The floor is below
    # ln |value| wherever the value is finite.
    zs = (0.3, 0.5, 0.9, 0.999, 0.01, -0.2 + 0.1j, 0.4 + 0.5j, 0.2 - 0.3j, 0.05 + 0.99j, -0.5)
    # Li_-159(1/2) = 8.65e307 is the last finite value at z = 1/2
    grid = [(n, z) for n in range(2, 401, 9) for z in zs] + [(159, 0.5), (160, 0.5)]
    public = {}
    for n, z in grid:
        try:
            public[n, z] = polylog_neg_int(n, z)
        except ComputationError:
            public[n, z] = None
    monkeypatch.setattr(sys.modules["vpvlab.polylog"], "_neg_order_log_floor", lambda n, z: -math.inf)
    refused = 0
    for n, z in grid:
        try:
            exact = polylog_neg_int(n, z)
        except ComputationError:
            exact = None
        assert public[n, z] == exact, (n, z)
        if exact is not None:
            log_value = math.log(abs(exact))
            assert _neg_order_log_floor(n, z) <= log_value + 1e-14 * abs(log_value), (n, z)
        elif _neg_order_log_floor(n, z) > 710.5:
            refused += 1
    assert refused >= 150  # the grid reaches well past the float range


def test_neg_order_floor_bounds_mpmath():
    # The floor against 60-digit mpmath, near where each value leaves the
    # float range, and at the highest order of the grid above.
    for n, z in ((168, 0.5), (169, 0.5), (41, 0.999), (83, 0.05 + 0.9j), (119, 0.4 + 0.5j), (398, 0.3)):
        with mpmath.workdps(60 + n // 2):
            ref = float(mpmath.log(abs(mpmath.polylog(-n, mpmath.mpc(z)))))
        assert _neg_order_log_floor(n, z) <= ref + 1e-14 * abs(ref), (n, z)
    assert _neg_order_log_floor(1, 0.5) == _neg_order_log_floor(5, 0.0) == -math.inf
    assert _neg_order_log_floor(6, -1.0) == -math.inf  # the poles at k = 0 and 1 cancel
    # far from the unit circle the rest is not bounded below the nearest poles
    assert _neg_order_log_floor(1000, 1e-300) == _neg_order_log_floor(1000, 1e5) == -math.inf


def test_neg_order_floor_bounds_mpmath_off_the_real_half_line():
    # Where |ln z| >= pi/2 the nearest poles k = 0, +-1 carry the floor.
    # At z = -1 and even n they cancel (Li_{-n}(-1) = 0), and the floor
    # is -inf. Everywhere on the grid it is below 60-digit mpmath, and
    # where it is finite it is within a unit of it.
    zs = (-0.5, -0.9, -0.99, -0.3, -1.0, 0.3 + 0.8j, -0.6 - 0.6j, -0.2 + 0.05j, 0.05 - 0.9j, 0.7j)
    finite = 0
    for n in (2, 3, 4, 7, 10, 11, 25, 26, 60, 61, 120, 121):
        for z in zs:
            floor = _neg_order_log_floor(n, z)
            with mpmath.workdps(40 + n // 2):
                value = mpmath.polylog(-n, mpmath.mpc(z))
                ref = float(mpmath.log(abs(value))) if value else -math.inf
            if z == -1.0 and n % 2 == 0:
                assert floor == ref == -math.inf, n
            elif floor > -math.inf:
                assert floor <= ref + 1e-14 * abs(ref) and ref - floor < 1.0, (n, z)
                finite += 1
    assert finite >= 110  # of 120; -inf at z = -1 for even n, and at n = 2, z = -0.99


def test_neg_order_refuses_at_once_where_ln_z_passes_half_pi():
    # Li_{-1000}(-0.5) is about e^4742: the floor refuses it before P_1000
    # (0.8 s from a cold cache) is built.
    _neg_order_poly.cache_clear()
    start = time.perf_counter()
    with pytest.raises(ComputationError):
        verify(IdentityCase(2, 1001, 0.3, -0.5), 1e-8)
    assert time.perf_counter() - start < 0.05


def test_neg_order_poly_builds_high_orders_without_recursion():
    # From a cold cache: the recursive build raised RecursionError near
    # n = 500. The Eulerian coefficients of P_n sum to n! and are
    # symmetric.
    _neg_order_poly.cache_clear()
    coeffs = _neg_order_poly(600)
    assert len(coeffs) == 601 and coeffs[0] == 0 and coeffs[1] == coeffs[-1] == 1
    assert coeffs[1:] == coeffs[:0:-1]
    assert sum(coeffs) == math.factorial(600)


def test_neg_order_poly_cache_is_bounded():
    # Unbounded, a process visiting every order up to 1000 held about
    # 0.3 GB of coefficients.
    _neg_order_poly.cache_clear()
    maxsize = _neg_order_poly.cache_info().maxsize
    for n in range(2 * maxsize):
        _neg_order_poly(n)
    assert _neg_order_poly.cache_info().currsize <= maxsize


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


def test_domain_and_convergence_errors(monkeypatch):
    with pytest.raises(DomainError):
        polylog(2, 0.9995, 1e-8)
    with pytest.raises(DomainError):
        polylog(2, 1.0, 1e-8)
    with pytest.raises(ValueError):
        polylog(2, 0.5, 0.0)
    monkeypatch.setattr(POLYLOG_MODULE, "TERM_CAP", 5)
    with pytest.raises(NonConvergence):
        polylog(2, 0.5, 1e-12)


def _scan_stop(s, z, tol, term_cap):
    """(k, bound) for the first k whose tail bound meets tol, testing every
    k in turn; None when no k <= term_cap does."""
    sigma_minus = max(0.0, -complex(s).real)
    for k in range(1, term_cap + 1):
        bound = power_geometric_tail(k, sigma_minus, abs(z))
        if bound <= tol:
            return k, bound
    return None


def test_stopping_index_matches_per_term_scan(monkeypatch):
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
        # NonConvergence exactly when the scan passes TERM_CAP.
        cap = rng.randrange(1, 2 * k + 1)
        with monkeypatch.context() as patch:
            patch.setattr(POLYLOG_MODULE, "TERM_CAP", cap)
            if _scan_stop(s, z, tol, cap) is None:
                with pytest.raises(NonConvergence):
                    polylog(s, z, tol)
            else:
                assert polylog(s, z, tol).terms_used == k


def _gamma(n):
    # Higham's gamma_n = n u / (1 - n u) with u = 2^-53
    u = 2.0 ** -53
    return n * u / (1 - n * u)


def test_stopping_index_same_in_extended_precision(monkeypatch):
    # One loop in two arithmetics: the same index and bound in both, and
    # the double value within rounding of the 30-digit one.
    rng = random.Random(4417)
    for _ in range(40):
        s = complex(rng.uniform(-3, 4), rng.uniform(-20, 20))
        z = 0.95 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        tol = 10 ** rng.uniform(-14, -6)
        double, wide = polylog(s, z, tol), polylog(s, z, tol, dps=30)
        n = double.terms_used
        assert (wide.terms_used, wide.tail_bound) == (n, double.tail_bound), (s, z, tol)
        total = sum(abs(z) ** k * k ** -s.real for k in range(1, n + 1))
        assert abs(complex(wide.value) - double.value) <= double.tail_bound + _gamma(n) * total
    for _ in range(20):
        s = rng.uniform(1.01, 12)
        tol = 10 ** rng.uniform(-15, -6)
        double, wide = zeta_real(s, tol), zeta_real(s, tol, dps=30)
        n = double.terms_used
        # the remainder bound is computed in each arithmetic, so it may
        # differ in the last bits; a different index would show here
        assert wide.terms_used == n, (s, tol)
        assert abs(float(wide.value) - double.value) <= double.tail_bound + _gamma(n) * double.value
    s, z = -1.5 + 4j, 0.9 * cmath.exp(1j)
    monkeypatch.setattr(POLYLOG_MODULE, "TERM_CAP", 10)
    with pytest.raises(NonConvergence):
        polylog(s, z, 1e-12, dps=30)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    st.floats(-2, 3),
    st.floats(-100, 100),
    st.floats(0.9, 0.999),
    st.floats(-math.pi, math.pi),
)
def test_polylog_within_the_bench_allowance_of_mpmath(sigma, height, modulus, phase):
    # The benchmark's criterion near the unit circle, where the series is
    # longest: |value - Li_s(z)| <= tail_bound + gamma_n S_n against
    # 30-digit mpmath, with S_n = sum_{k<=n} |z|^k k^-Re s, in double
    # precision and at dps = 30. mpmath's polylog loses every digit within
    # about 1e-25 of an integer order (at s = 1e-30 i, z = .95 it is off
    # by 1.9e-7), so such orders are left out, and integers stay in.
    s, z = complex(sigma, height), cmath.rect(modulus, phase)
    assume(s == round(sigma) or abs(s - round(sigma)) > 1e-15)
    with mpmath.workdps(30):
        ref = complex(mpmath.polylog(mpmath.mpc(s), mpmath.mpc(z)))
    for dps in (None, 30):
        res = polylog(s, z, 1e-12, dps=dps)
        n = res.terms_used
        total = math.fsum(modulus ** k * k ** -sigma for k in range(1, n + 1))
        assert abs(complex(res.value) - ref) <= res.tail_bound + _gamma(n) * total, (s, z, dps)


def _polylog_partial_terms(s, z, n_terms):
    # The terms of the per-term loop polylog_partial had before its
    # iterator pipeline: z^k by repeated products from 1, and k^-s from
    # math.log(k) for every k > 1.
    s, z = complex(s), complex(z)
    zk = 1 + 0j
    terms = []
    for k in range(1, n_terms + 1):
        zk *= z
        terms.append(zk if k == 1 else zk * cmath.exp(-s * math.log(k)))
    return terms


def _exact_sum(terms):
    # each part summed exactly and rounded once
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def test_polylog_partial_matches_the_per_part_loop():
    # Below one block, the pipeline's value is the exact per-part sum of
    # the per-term loop's terms, rounded once, with every term the same.
    rng = random.Random(6150)
    for i in range(240):
        s = complex(rng.uniform(-4, 4), rng.uniform(-30, 30))
        if i % 8 == 0:
            s = complex(round(s.real))  # integer orders, real terms on the real axis
        z = 0.999 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        n = rng.randrange(1, 600)
        assert polylog_partial(s, z, n) == _exact_sum(_polylog_partial_terms(s, z, n)), (s, z, n)
    # Term 1 is z times 1^-s = exp(0) in the pipeline and z itself in the
    # loop: one and two terms, at signed-zero parts of s and z.
    zeros = (0.0, -0.0)
    orders = [complex(re, im) for re in zeros + (2.5, -3.0) for im in zeros + (-7.25,)]
    args = [complex(re, im) for re in zeros + (0.6, -0.6) for im in zeros + (0.3, -0.3)]
    for s, z, n in product(orders, args, (1, 2)):
        assert polylog_partial(s, z, n) == _exact_sum(_polylog_partial_terms(s, z, n)), (s, z, n)


def test_polylog_partial_rounds_once_per_block():
    # Past three blocks the running total of each part is rounded once
    # per block, and the reference rounds the exact per-part sum once:
    # they differ by at most u times the totals after each block and
    # the total once more (u = 2^-53).
    s, z = complex(0.5, 37.0), 0.9999 * cmath.exp(0.3j)
    n = 3 * numerics._BLOCK + 1234
    terms = _polylog_partial_terms(s, z, n)
    got, want = polylog_partial(s, z, n), _exact_sum(terms)
    ends = range(numerics._BLOCK, n + numerics._BLOCK, numerics._BLOCK)
    for part in (attrgetter("real"), attrgetter("imag")):
        values = [part(t) for t in terms]
        totals = [abs(math.fsum(values[:end])) for end in ends]
        allowed = 2.0 ** -53 * (sum(totals) + totals[-1])
        assert abs(part(got) - part(want)) <= allowed


def test_polylog_partial_holds_one_block_of_terms(monkeypatch):
    # The sum streams through blocks: its peak allocation is a small
    # multiple of one block's complex terms (a complex object and its
    # list slot), at the default block and at a 4 times smaller one,
    # while the series has 200,000 terms. The shared ln k table is grown
    # before tracing.
    n = 200_000
    s, z = complex(0.5, 14.1), 0.99995 * cmath.exp(2.0j)
    numerics.log_table(n)
    for block in (numerics._BLOCK, numerics._BLOCK // 4):
        monkeypatch.setattr(numerics, "_BLOCK", block)
        tracemalloc.start()
        try:
            polylog_partial(s, z, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * block * (32 + 8), block


def test_exact_sum_drops_each_block_before_the_next_fills():
    # One block of terms (a complex object and its list slot) at the
    # peak, not two: the last block is freed before the next is read.
    block = numerics._BLOCK
    terms = accumulate(repeat(0.99999 + 0.001j, 25 * block), mul)
    tracemalloc.start()
    try:
        exact_sum(terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * block * (32 + 8)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    st.floats(-210, 3),
    st.floats(-100, 100),
    st.floats(0, 0.9),
    st.floats(-math.pi, math.pi),
    st.sampled_from((20, 30, 40)),
)
def test_extended_polylog_is_within_one_unit_of_its_terms(sigma, height, modulus, phase, dps):
    # Rounding only: the extended value is within 10^-dps times the sum
    # of |terms| of the same terms_used terms summed at dps + 30 digits.
    # Weights from exp(-s ln k) at dps digits missed this by 7.5 units at
    # s = -200.5, z = 0.5, dps = 30.
    s, z = complex(sigma, height), cmath.rect(modulus, phase)
    res = polylog(s, z, 1e-12, dps=dps)
    with mpmath.workdps(dps + 30):
        s_, z_ = mpmath.mpc(s), mpmath.mpc(z)
        terms = [z_ ** k * mpmath.mpf(k) ** -s_ for k in range(1, res.terms_used + 1)]
        unit = mpmath.mpf(10) ** -dps * mpmath.fsum(terms, absolute=True)
        assert abs(_mp(res.value) - mpmath.fsum(terms)) <= unit, (s, z, dps)


def test_extended_value_at_a_large_height_is_within_one_unit_of_its_terms():
    # The phase T ln p of s = 1/2 + iT is carried by the guard bits: the
    # value is within 10^-dps times the sum of |terms| of the same terms
    # summed at dps + 30 digits.
    s, z, dps = complex(0.5, 1e6), 0.5, 30
    res = polylog(s, z, 1e-12, dps=dps)
    with mpmath.workdps(dps + 30):
        s_, z_ = mpmath.mpc(s), mpmath.mpc(z)
        terms = [z_ ** k * mpmath.mpf(k) ** -s_ for k in range(1, res.terms_used + 1)]
        unit = mpmath.mpf(10) ** -dps * mpmath.fsum(terms, absolute=True)
        assert abs(_mp(res.value) - mpmath.fsum(terms)) <= unit


def test_extended_polylog_at_low_precision_is_within_one_unit_of_its_terms():
    # Below 53 bits the mantissas are narrower than a double; the
    # estimate of |z| once shifted them by a negative count.
    for dps in range(1, 13):
        for s, z in ((2, 0.5), (2.5, -0.9), (-3, 0.25 + 0.5j), (0.5 + 14j, 0.7j)):
            res = polylog(s, z, 1e-12, dps=dps)
            with mpmath.workdps(dps + 30):
                s_, z_ = mpmath.mpc(s), mpmath.mpc(z)
                terms = [z_ ** k * mpmath.mpf(k) ** -s_ for k in range(1, res.terms_used + 1)]
                unit = mpmath.mpf(10) ** -dps * mpmath.fsum(terms, absolute=True)
                assert abs(_mp(res.value) - mpmath.fsum(terms)) <= unit, (s, z, dps)
                assert abs(_mp(_extended_partial(s, z, 7, dps)) - mpmath.fsum(terms[:7])) <= unit, (s, z, dps)


def test_extended_weights_at_a_huge_integer_order_stay_at_working_precision():
    # p^-s at an integer order is powered at the working precision: an
    # exact p^|s| at s = 1e9 has billions of bits.
    start = time.perf_counter()
    for s in (1e9, 1e12):
        res = polylog(s, 0.5, 1e-12, dps=30)
        assert abs(Fraction(res.value.real) - Fraction(1, 2)) <= 1e-30 * 0.5, s
    value = _extended_partial(-10 ** 6, 0.5, 50, 30)
    assert time.perf_counter() - start < 1.0
    with mpmath.workdps(60):
        terms = [mpmath.mpf(0.5) ** k * mpmath.mpf(k) ** 10 ** 6 for k in range(1, 51)]
        assert abs(_mp(value) - mpmath.fsum(terms)) <= mpmath.mpf(10) ** -30 * mpmath.fsum(terms)


def test_extended_real_series_has_an_exactly_zero_imaginary_part():
    # A real order and argument give real weights and powers: each zero
    # imaginary mantissa stays exactly zero through every product.
    for s in (3, 2.5, -1.5, mpmath.mpf(2) / 3):
        for z in (0.5, -0.9):
            value = polylog(s, z, 1e-20, dps=30).value
            assert value.imag == 0 and value.real != 0, (s, z)


def test_extended_partial_sum_of_one_term_is_z():
    # The first term is z itself, exact at every precision of 53 bits or
    # more: each Decimal part rounds back to it at the working precision.
    for dps in (15, 30, 50):
        bits = working_bits(dps)
        for s in (2, -3.5, 0.5 + 14j, -200.5):
            for z in (0.5, -0.25 + 0.75j, 1e-300j, 0.999 * cmath.exp(1j)):
                z = complex(z)
                value = _extended_partial(s, z, 1, dps)
                got = tuple(round_bits(Fraction(part), bits) for part in value)
                assert got == (Fraction(z.real), Fraction(z.imag)), (dps, s, z)


def test_prime_weights_match_direct_powers():
    # At 53 bits with the guard bits on, each weight built from the prime
    # weights rounds to mpmath's own k^-s within an ulp or so, for orders
    # far off the real axis and far below it. A real order's weights have
    # an imaginary mantissa of exactly zero.
    n = 1500
    with mpmath.workprec(53):
        for s in (0.5 + 100j, -200.5 + 0j, 2 - 30j, 3 + 0j):
            parts = Fraction(s.real), Fraction(s.imag)
            weights = list(_weights(parts, n, _width(parts, n, 53)))
            assert len(weights) == n
            for k, (e, re, im) in enumerate(weights, 1):
                w = mpmath.mpc(mpmath.mpf((re, e)), mpmath.mpf((im, e)))
                ref = mpmath.mpf(k) ** -mpmath.mpc(s)
                assert abs(w - ref) <= 2.0 ** -51 * abs(ref), (s, k)
                assert s.imag or im == 0, (s, k)


def test_extended_polylog_holds_at_most_half_its_weights():
    # The weights of k <= n/2 are held, for the composites past them; the
    # rest stream, and so does the sum, into one integer accumulator. So
    # the peak is under n/2 weights and the sieve (a list of ints), well
    # short of n weights. A weight's size is measured on products at the
    # same width, as the held composites are. The call is the one that
    # took 61 us per term, cut from 56,428 terms to 4,000.
    n, s, z = 4000, complex(-2, 100), 0.999 * cmath.exp(1j)
    _extended_partial(s, z, n, 30)  # pi and ln 2 are cached per width
    s_ = Fraction(s.real), Fraction(s.imag)
    width = _width(s_, n, working_bits(30))
    factors = list(islice(_weights(s_, 1001, width), 1, 1001))
    tracemalloc.start()
    try:
        products = [_complex_product(factors[0], w, width) for w in factors]
        weight = tracemalloc.get_traced_memory()[0] / len(products)
        del products
        tracemalloc.reset_peak()
        _extended_partial(s, z, n, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n / 2 * weight + 40 * n
    assert peak < 0.75 * n * weight


def test_exact_sum_rounds_each_part_once_per_block(monkeypatch):
    # Each part is the correctly rounded sum of a block and the running
    # total, block after block; terms spanning 40 orders of magnitude
    # cancel, so any other rounding shows.
    monkeypatch.setattr(numerics, "_BLOCK", 16)
    rng = random.Random(8812)
    for n in (0, 1, 15, 16, 17, 100):
        terms = [complex(rng.uniform(-1, 1) * 10 ** rng.uniform(-20, 20),
                         rng.uniform(-1, 1) * 10 ** rng.uniform(-20, 20)) for _ in range(n)]
        re = im = 0.0
        for i in range(0, n, 16):
            re = math.fsum([re] + [z.real for z in terms[i:i + 16]])
            im = math.fsum([im] + [z.imag for z in terms[i:i + 16]])
        assert exact_sum(iter(terms)) == complex(re, im), n
    # The running total leads its block: the second block's real parts
    # reach fsum as -1e308, 1e308, 1e308 and sum to 1e308; with the total
    # last, 1e308 + 1e308 would come first and raise "intermediate overflow".
    monkeypatch.setattr(numerics, "_BLOCK", 2)
    assert exact_sum([-1e308, 0.0, 1e308, 1e308]) == 1e308 + 0j


def test_zeta_real_head_matches_the_per_term_sum(monkeypatch):
    # The head streams k^-s as float(k) ** -s, over blocks of 4 here so
    # every draw spans several; the value is the same bits as exact_sum
    # over the per-term generator plus n^-s times the bracket at the same N.
    monkeypatch.setattr(numerics, "_BLOCK", 4)
    rng = random.Random(4417)
    for _ in range(200):
        s, tol = rng.uniform(1.001, 12), 10 ** rng.uniform(-60, -4)
        res = zeta_real(s, tol)
        n = res.terms_used + 1
        head = exact_sum(float(k) ** -s for k in range(1, n)).real
        assert res.value == head + n ** -s * em_bracket(s, n, tol)[0], (s, tol)


def test_gaussian_power_matches_the_repeated_product():
    # Bases as polylog_neg_int forms them, D - A - Bi with D = 2^E, from
    # small E up to the subnormal range (E = 1074); exponents past a few
    # powers of two, where square-and-multiply takes every branch.
    rng = random.Random(3391)
    bases = [(1, 0), (0, 1), (-1, 0), (1, -1), (3, 7), (-5, 2)]
    for e in (1, 2, 52, 300, 1074):
        d = 1 << e
        bases.append((d - rng.randrange(d), -rng.randrange(-d, d)))
    checked = set(range(18)) | {63, 64, 65, 255, 256, 301}
    for re, im in bases:
        w_re, w_im = 1, 0  # (re + im i)^e by repeated products
        for e in range(max(checked) + 1):
            if e in checked:
                assert _gaussian_power(re, im, e) == (w_re, w_im), (re, im, e)
            w_re, w_im = w_re * re - w_im * im, w_re * im + w_im * re


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


def test_bernoulli_numbers_are_exact():
    # B_2 .. B_14 as every table prints them, then mpmath's exact
    # rationals up to B_120
    table = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
             Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6)]
    assert [numerics._bernoulli(j) for j in range(1, 8)] == table
    for j in range(8, 61):
        assert numerics._bernoulli(j) == Fraction(*mpmath.bernfrac(2 * j)), j


def test_double_zeta_keeps_six_corrections_where_they_meet_tol():
    # Where N = 16 with B_2 .. B_12 already meets tol, zeta_real returns
    # the head k < 16 plus that six-correction tail, and its bound.
    rng = random.Random(5521)
    for _ in range(100):
        s, tol = rng.uniform(1.01, 12), 10 ** rng.uniform(-15, -6)
        bracket, rem = em_bracket(s, 16, math.inf)
        assert rem <= tol
        head = math.fsum(float(k) ** -s for k in range(1, 16))
        res = zeta_real(s, tol)
        assert (res.value, res.terms_used, res.tail_bound) == (head + 16 ** -s * bracket, 15, rem), (s, tol)


def test_zeta_adds_corrections_before_doubling_the_head():
    # Six corrections at N = 16 leave 1.0e-18 at s = 2. Further ones keep
    # the head at 15 terms down to 1e-40 (the corrections shrink until
    # j is about 2 pi N), and the value stays within its bound plus
    # rounding (a few u of zeta(2)).
    for tol in (1e-22, 1e-30, 1e-40):
        res = zeta_real(2.0, tol)
        assert res.terms_used == 15 and res.tail_bound <= tol
        assert abs(res.value - math.pi ** 2 / 6) <= res.tail_bound + 4 * _U * res.value
    # In units of N^-s the corrections stay in the float range (in absolute
    # terms they underflowed, and 1e-300 was refused): 1e-300 is certified
    # at N = 2^20. A tol below the normal float range is still refused.
    res = zeta_real(2.0, 1e-300)
    assert res.terms_used == 1_048_575 and res.tail_bound <= 1e-300
    assert abs(res.value - math.pi ** 2 / 6) <= res.tail_bound + 4 * _U * res.value
    with pytest.raises(NonConvergence):
        zeta_real(2.0, 1e-310)
    # The extended audit's setting: 15 head terms where six corrections
    # took 127. At dps = 100 six corrections took 2,097,151 terms (41 s).
    assert zeta_real(3.0, 1e-28, dps=30).terms_used == 15
    t0 = time.perf_counter()
    res = zeta_real(3.0, 1e-98, dps=100)
    assert time.perf_counter() - t0 < 1.0
    with mpmath.workdps(110):
        assert abs(_mp(res.value) - mpmath.zeta(3)) <= res.tail_bound <= 1e-98
    # em_bracket's bound against the exact tail from 16 at 60 digits
    with mpmath.workdps(60):
        s = mpmath.mpf(3)
        bracket, rem = em_bracket(s, 16, mpmath.mpf("1e-40"))
        exact = mpmath.zeta(s) - mpmath.fsum(mpmath.mpf(k) ** -s for k in range(1, 16))
        assert abs(16 ** -s * bracket - exact) <= rem <= mpmath.mpf("1e-40")


# zeta_real(s, tol, dps=dps) as (str(value), terms_used, tail_bound),
# recorded when extended precision had an Euler-Maclaurin bracket of its
# own; the bracket moved to numerics.em_bracket with every bit kept.
_EXTENDED_ZETA = {
    (3.0, 1e-28, 30): (
        "1.20205690315959428539973816148667165084867514547114702381505266237660123",
        15, 2.7402253104776426e-29),
    (3.0, 1e-68, 70): (
        "1.202056903159594285399738161511449990764986292340498881792271555341845907661882141574525902784411989250223264583",
        31, 9.115821663657293e-69),
    (3.0, 1e-98, 100): (
        "1.202056903159594285399738161511449990764986292340498881792271555341838205786313090186455873609335258814685277621112823116398543829092007911523",
        63, 7.075913493361796e-100),
    (2.5, 1e-18, 20): (
        "1.3414872572509171790436160402043563877327869704458862543106079",
        15, 7.309337861972214e-19),
    (7.25, 1e-40, 40): (
        "1.00697220902574669939937371325853571595791492037893531674754523495768430703738702",
        15, 8.999017168098884e-41),
}


def test_extended_zeta_keeps_its_digits():
    for (s, tol, dps), want in _EXTENDED_ZETA.items():
        res = zeta_real(s, tol, dps=dps)
        assert (str(res.value), res.terms_used, res.tail_bound) == want, (s, tol, dps)


# log2((N + 1) / 16) for the head of N terms that double zeta_real takes at
# each draw of test_double_zeta_heads_are_pinned, recorded when double
# precision had an Euler-Maclaurin tail of its own, in absolute terms.
_DOUBLE_ZETA_HEADS = (
    "01022021100001101100110000111110101111112111201200021001111210100111110021102111"
    "10201001200011121112120000121100120120111111202002021110110000012112120011001201"
    "10011210021110102021212111001100020101101110111200110120020202110111111010011110"
    "11010111100000102222011111220110111111011210002101021010210201122102011101000101"
    "12000100010100121012010201211201102001110121122011200012100010001010020001001100"
    "00021010111111000011021110201100110102022121012100000010001110212000201121010011"
    "01000111022010211001210111010001011000011111021102010020011111011101111210110101"
    "01110101021011010201102111110111100022010011101112101000210100112111112121111111"
    "12111012001100120202001110020002110101021001211011021011210110200111111112110101"
    "00210021110001122001011101110121011111210001110000001000000201120101210001101011"
    "11021011212000101110121221001000101100001011000201000021000011100000010111011121"
    "01211001011000001101012101002111210200102101101011111200101221201010100022201011"
    "11120000100011011000221010022101211112101101201001211201001211100101101011210001"
    "12010100010120012101020101010111020222121001011001211101100010000111221210111021"
    "12111112001211111001001200021000111000211011010202011112011120201110001100100102"
    "22001102101011122010110101012011000210200111011101000111002012111012111122120100"
    "11010021200000110112100220110100122101201100001011201200100212111201112110120211"
    "00120101100120110012100010122000011002021110021101111012010101011100120100201112"
    "01211121112010021210101011000210001100010101010001011012110010111121212002020001"
    "02100120112111122122110021110111010111121101011010121000000100211221110001000202"
    "10110100200022011011110200121200101011021000110012010121110121112000110111120000"
    "00001210000010011011210100010111012020201112022202020111111020002112201121000102"
    "10010000100101012010101012111100200120021011121002111001001222021121000101210101"
    "11012000011011010210112110101111120002111000021111000221110102100200201110220221"
    "01110001000010100210121011100000001001121101100122102201201002011221012100112101"
)


def test_double_zeta_heads_are_pinned():
    rng = random.Random(2025)
    heads = []
    for _ in range(2000):
        s, tol = rng.uniform(1.001, 12), 10 ** rng.uniform(-100, -4)
        heads.append(str((zeta_real(s, tol).terms_used + 1).bit_length() - 5))
    moved = [i for i, (a, b) in enumerate(zip(heads, "".join(_DOUBLE_ZETA_HEADS))) if a != b]
    assert len(heads) == len("".join(_DOUBLE_ZETA_HEADS)) and not moved, moved[:10]


def test_zeta_domain_checks():
    with pytest.raises(DomainError):
        zeta_real(1.0005, 1e-8)
    with pytest.raises(DomainError):
        zeta_real(2 + 1j, 1e-8)
    with pytest.raises(ValueError):
        zeta_real(2.0, -1.0)


def test_extended_polylog_keeps_an_mpmath_order():
    # The order was rounded to double before the extended loop, which put
    # 5.5e-18 of error into this value.
    with mpmath.workdps(40):
        s = mpmath.mpf(2) + mpmath.mpf(1) / 10
        ref = mpmath.polylog(s, 0.5)
    res = polylog(s, 0.5, 1e-38, dps=40)
    with mpmath.workdps(40):
        assert abs(_mp(res.value) - ref) <= mpmath.mpf("1e-36")


@pytest.mark.parametrize("dps", [0, -3, 2.5, 30.0, True, False, "30"])
@pytest.mark.parametrize("call", [
    lambda dps: polylog(2, 0.5, dps=dps),
    lambda dps: zeta_real(3.0, dps=dps),
    lambda dps: audit_special_values(dps=dps),
], ids=["polylog", "zeta_real", "audit_special_values"])
def test_dps_must_be_a_positive_int(call, dps):
    # unchecked, dps=0 gives Li_2(1/2) = 0.625 and zeta(3) = 1.25
    with pytest.raises(DomainError, match="dps must be a positive integer"):
        call(dps)


@pytest.mark.parametrize("dps", [None, 30], ids=["double", "dps30"])
@pytest.mark.parametrize("where", ["order", "argument"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, Decimal("1e400")],
                         ids=["inf", "-inf", "nan", "1e400"])
def test_non_finite_input_is_a_domain_error(value, where, dps):
    # Refused as a double, before extended precision reads its digits, in
    # either part, an mpmath order too. Unchecked, polylog(inf, .5) raised
    # OverflowError, polylog(2, nan) searched to TERM_CAP, and with dps
    # Fraction raised ValueError or OverflowError; Decimal('1e400') raised
    # OverflowError with dps, and double zeta_real returned 1.0 for it.
    calls = ([lambda: polylog(value, 0.5, dps=dps), lambda: polylog(complex(2, value), 0.5, dps=dps),
              lambda: polylog(mpmath.mpf(str(value)), 0.5, dps=dps), lambda: zeta_real(value, dps=dps)]
             if where == "order" else
             [lambda: polylog(2, value, dps=dps), lambda: polylog(2, complex(0.25, value), dps=dps)])
    for call in calls:
        with pytest.raises(DomainError, match="is not finite"):
            call()


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "nan+1j"])
def test_a_non_finite_string_is_a_domain_error_in_double(text):
    # Checked as complex() parses it. Unchecked, 'nan' as the order raised
    # a bare ValueError, and as the argument searched to TERM_CAP.
    for call in (lambda: polylog(text, 0.5), lambda: polylog(2, text)):
        with pytest.raises(DomainError, match="is not finite"):
            call()


def test_an_unparsable_string_is_a_plain_value_error():
    # complex() cannot parse it; that is not a non-finite number.
    for call in (lambda: polylog("abc", 0.5), lambda: polylog(2, "abc", dps=30),
                 lambda: zeta_real("abc"), lambda: polylog_neg_int(2, "abc")):
        with pytest.raises(ValueError) as info:
            call()
        assert not isinstance(info.value, DomainError)


def test_a_string_is_read_as_in_double_with_dps():
    # A string is parsed by complex() in both precisions: a non-finite one
    # is refused, and a finite one gives the parsed number's result. With
    # dps each polylog call raised AttributeError from extended.exact_parts.
    for text in ("nan", "inf", "-inf", "nan+1j"):
        for call in (lambda: polylog(text, 0.5, dps=30), lambda: polylog(2, text, dps=30),
                     lambda: zeta_real(text, dps=30)):
            with pytest.raises(DomainError, match="is not finite"):
                call()
    assert polylog("2", "0.5", dps=30) == polylog(2, 0.5, dps=30)
    assert polylog("0.5+1j", "0.25j", dps=30) == polylog(0.5 + 1j, 0.25j, dps=30)
    assert zeta_real("3", dps=30) == zeta_real(3.0, dps=30)


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(0, math.inf), complex(math.nan, 0),
                               "nan", Decimal("-Infinity")])
def test_neg_int_non_finite_argument_is_a_domain_error(z):
    # As polylog(-n, z) refuses it; it was a ComputationError. The check
    # is on complex(z), so a string is refused too.
    with pytest.raises(DomainError, match="is not finite"):
        polylog_neg_int(2, z)


@pytest.mark.parametrize("call", [
    lambda v: polylog(v, 0.5), lambda v: polylog(2, v), lambda v: zeta_real(v),
    lambda v: polylog(v, 0.5, dps=30),
    lambda v: polylog_neg_int(2, v),
], ids=["polylog-order", "polylog-argument", "zeta_real", "polylog-order-dps30",
        "polylog_neg_int-argument"])
def test_decimal_signalling_nan_is_a_domain_error(call):
    # Comparing an sNaN raises decimal.InvalidOperation; it escaped the check.
    with pytest.raises(DomainError, match=r"= Decimal\('sNaN'\) is not finite"):
        call(Decimal("sNaN"))


def test_extended_precision_paths():
    import mpmath

    res = polylog(3, 0.5, 1e-25, dps=35)
    with mpmath.workdps(35):
        assert abs(complex(res.value) - LI3_HALF) <= 1e-14
        # 34-digit reference for Li_3(1/2), cross-checked against an
        # independent arbitrary-precision evaluation.
        ref = mpmath.mpf("0.5372131936080402009406232255949658")
        assert abs(_mp(res.value.real) - ref) <= mpmath.mpf("1e-25")
    zres = zeta_real(3.0, 1e-25, dps=35)
    with mpmath.workdps(35):
        ref3 = mpmath.mpf("1.20205690315959428539973816151")
        assert abs(_mp(zres.value) - ref3) <= mpmath.mpf("1e-25")


def test_log1m_accuracy_small_and_moderate():
    assert log1m(1e-9) == pytest.approx(-1e-9 - 0.5e-18, rel=1e-12)
    for w in (0.3, -0.7, 0.2 + 0.4j):
        assert abs(log1m(w) - cmath.log(1 - w)) <= 1e-15 * max(1.0, abs(cmath.log(1 - w)))


_U = 2.0 ** -53
# log1m's tier ends: the series degree steps from 1 to 4, then cmath.log
_LOG1M_EDGES = (5.5e-17, 9.1e-9, 4.8e-6, LOG1M_SERIES_MAX)


@settings(derandomize=True, database=None, max_examples=800)
@given(
    st.one_of(
        st.floats(-300, -4, exclude_max=True).map(lambda e: 10.0 ** e),
        # a decade either side of a tier's end
        st.tuples(st.sampled_from(_LOG1M_EDGES), st.floats(-1, 1)).map(lambda p: p[0] * 10.0 ** p[1]),
    ),
    st.floats(-math.pi, math.pi),
)
def test_log1m_series_is_within_3u_of_mpmath(modulus, phase):
    # Each series tier keeps the relative error within 3u, u = 2^-53: its
    # dropped part is under u/4, and the rest is the rounding of one
    # complex product and one addition.
    w = cmath.rect(modulus, phase)
    assume(1e-300 <= abs(w) < LOG1M_SERIES_MAX)
    with mpmath.workdps(40):
        ref = mpmath.log1p(-mpmath.mpc(w))
        err = abs(mpmath.mpc(log1m(w)) - ref) / abs(ref)
    assert err <= 3 * _U, (w, float(err) / _U)


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


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.floats(0.0, 30.0),
    st.floats(0.05, 0.99),
    st.floats(-14.0, 0.0),
    st.integers(1, 50),
    st.integers(0, 2000),
    st.booleans(),
    st.sampled_from(["below start", "past stop", "before the peak", "exact", "any"]),
    st.integers(-1000, 3000),
)
def test_first_within_matches_a_scan_from_any_guess(p, r, log_tol, start, span, shell, kind, offset):
    # Shaped like power_geometric_tail, or like products._shell_tail (the
    # same over r (1 - r^k) times a constant): inf before the peak and
    # nonincreasing after it. Whatever the guess, the search returns what
    # a scan of every k returns, and evaluates no k outside start .. stop.
    tol, stop = 10.0 ** log_tol, start + span
    if shell:
        def bound(k):
            return power_geometric_tail(k, p, r) / (r * (1.0 - r ** k) * 0.5)
    else:
        def bound(k):
            return power_geometric_tail(k, p, r)
    scan = next(((k, bound(k)) for k in range(start, stop + 1) if bound(k) <= tol), None)
    guess = {
        "below start": start - 1 - abs(offset),
        "past stop": stop + 1 + abs(offset),
        "before the peak": int(p / -math.log(r)) // 2,
        "exact": scan[0] if scan else stop,
        "any": offset,
    }[kind]
    seen = []

    def counted(k):
        seen.append(k)
        return bound(k)

    assert first_within(counted, tol, start, stop, guess) == scan
    assert all(start <= k <= stop for k in seen)


@pytest.mark.parametrize("s, z, tol", [
    (2, 0.5, 1e-12), (0.5 + 14.134725j, 0.99, 1e-10), (-2.5, -0.97, 1e-8),
    (3 - 40j, 0.3 + 0.6j, 1e-15), (-7.3, 0.999, 1e-12),
])
def test_polylog_search_starts_at_its_guess(monkeypatch, s, z, tol):
    # power_geometric_guess puts the search within a step or two of the
    # stopping index, where a search from k = 1 took about 2 log2(k)
    # evaluations.
    calls = []
    monkeypatch.setattr(POLYLOG_MODULE, "power_geometric_tail",
                        lambda *args: calls.append(args) or power_geometric_tail(*args))
    result = polylog(s, z, tol)
    assert 1 <= len(calls) <= 4
    assert result.terms_used == _scan_stop(s, z, tol, 10**6)[0]


def test_power_geometric_guess_at_the_edges():
    # out of range: 0, which first_within moves up to its start
    assert power_geometric_guess(2.0, 0.0, 1e-10) == 0
    assert power_geometric_guess(2.0, 0.5, 0.0) == 0
    # p = 0: the bound is r^(cap+1) / (1 - r), here 2^-cap
    target = 1.5 * 2.0 ** -40
    assert power_geometric_guess(0.0, 0.5, target) == 40
    assert power_geometric_tail(40, 0.0, 0.5) <= target < power_geometric_tail(39, 0.0, 0.5)
    # a target above the peak of x^p r^x gives the peak, less one
    assert power_geometric_guess(10.0, 0.5, 1e300) == math.ceil(10 / math.log(2)) - 1


@pytest.mark.parametrize("p", [1e300, 1.5e305, 6.6e307, 1e308, 1.7e308])
def test_power_geometric_guess_is_an_int_up_to_the_float_range(p):
    # p ln x and x ln r can leave the float range; the guess must still
    # give a start, not take ceil(nan) or the log of a negative iterate.
    for r, target in product([1e-19, 0.18, 0.5, 0.998], [1e-300, 1e-12, 1e90]):
        assert isinstance(power_geometric_guess(p, r, target), int), (r, target)


def test_tolerances_down_to_the_least_positive_float_certify():
    # No floor is added to a tail bound, so a tol below 1e-300 is met
    # where the tail is: Li_2(1/2) at 1e-301 after about 1,000 terms, as at
    # 1e-299 after 994, and at the least positive float after 1,075.
    for tol, terms in ((1e-299, 994), (1e-301, 1000), (5e-324, 1075)):
        res = polylog(2, 0.5, tol)
        assert res.terms_used == terms and 0 < res.tail_bound <= tol, (tol, res)
        assert res.value == polylog(2, 0.5, 1e-299).value
    # Where n^-s underflows zeta(s) is 1.0 to double precision, and the
    # bound is the integral test's, rounded up to the least positive float:
    # never 0.0 (from an underflowed n^-s) or nan (from an overflowed
    # Pochhammer factor times it), so large orders certify.
    for s in (800.0, 1e24, 1e300):
        for tol in (1e-12, 5e-324):
            res = zeta_real(s, tol)
            assert (res.value, res.terms_used, res.tail_bound) == (1.0, 15, 5e-324), (s, tol)
    res = zeta_real(800.0, dps=30)
    assert res.value == 1 and 0 < res.tail_bound <= 1e-12
    assert em_bracket(Fraction(800), 16, 1e-12) == (0, 5e-324)


def test_em_bracket_bound():
    # Tail sum of k^{-3} from 50 against the exact difference.
    bracket, rem = em_bracket(3.0, 50, math.inf)
    val = 50 ** -3.0 * bracket
    direct = ZETA3 - sum(k**-3.0 for k in range(1, 50))
    assert abs(val - direct) <= rem + 1e-15
    assert rem <= 1e-12


def test_smallest_prime_factors_peaks_near_what_it_holds():
    # Sieved one segment at a time, so the ints of only one segment are
    # fresh at once: at the n of a 529,045-term extended sum the list holds
    # 5.7 MB and peaks at 6.5 MB (21.2 MB when it made an int per k at once).
    n = 529_045
    tracemalloc.start()
    try:
        spf = smallest_prime_factors(n)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * held
    # every entry is the least prime factor, across the segment seams
    for k in [2, 3, 4, 16383, 16384, 16385, 16387, 32768, 32771, 257 ** 2, 727 ** 2, 2 * 727, n - 1, n]:
        p = next(d for d in range(2, k + 1) if k % d == 0)
        assert spf[k] == p, k
    assert len(spf) == n + 1
