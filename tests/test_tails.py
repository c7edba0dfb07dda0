"""Every certified tail bounds its remainder at both ends of the float range.

Each bound is checked against its exact remainder from mpmath: it must
be at least the remainder, and never 0.0 or nan where the remainder is
positive. The draws reach tails from the overflow side (about 1e200,
where d^p r^d peaks for p <= 50) down past the least positive float.
"""

import math
from fractions import Fraction

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vpvlab.numerics import em_bracket, power_geometric_tail
from vpvlab.products import _decay_ratios, _shell_tail

_PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def _cap_for(p, r, log_target):
    """A cap whose first dropped term d^p r^d (d = cap + 1) is about
    exp(log_target), or the least cap 1.1 times past the peak p / ln(1/r)
    where no term there is that large. From 1.1 times the peak on the
    term ratio stays below r^(1/11), so the tail is a short sum."""
    def log_term(x):
        return p * math.log(x) + x * math.log(r)

    lo = max(1.0, 1.1 * p / -math.log(r))
    if log_term(lo) <= log_target:
        return math.ceil(lo)
    hi = 2.0 * lo
    while log_term(hi) > log_target:
        hi *= 2.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if log_term(mid) > log_target else (lo, mid)
    return math.ceil(hi) - 1


def _exact_power_tail(cap, p, r):
    """sum_{d > cap} d^p r^d as an mpf, for a cap past the peak: the first
    term a^p r^a (a = cap + 1) at 50 digits, as it can lie outside the
    float range, times the sum of the falling ratios ((a + j)/a)^p r^j,
    summed by math.fsum to about 1e-15 relative until they drop below
    e^-45 of the first."""
    a, lr = cap + 1, math.log(r)
    count = math.ceil(45.0 / -(p * math.log1p(1.0 / a) + lr)) + 1
    ratios = math.fsum(math.exp(p * math.log1p(j / a) + j * lr) for j in range(count))
    with mpmath.workdps(50):
        return mpmath.mpf(a) ** p * mpmath.mpf(r) ** a * mpmath.mpf(ratios)


def _assert_bounds(bound, reference, context):
    assert not math.isnan(bound) and bound > 0.0, (bound, context)
    assert mpmath.mpf(bound) >= reference, (bound, mpmath.nstr(reference, 8), context)


@_PROPERTY
@given(st.floats(0.0, 50.0), st.floats(0.01, 0.999),
       st.integers(-330, 300), st.integers(0, 3))
def test_power_geometric_tail_bounds_its_tail_from_1e300_to_1e_330(p, r, decade, offset):
    # It also adds no floor: past the least positive float it stays within
    # 1e-10 of the geometric envelope t0 / (1 - q) it is defined as. A
    # floor of 1e-300 (added to every bound, and reported for every tail
    # under exp(-740)) kept polylog(2, 0.5, 1e-301) from finding a cap.
    cap = _cap_for(p, r, decade * math.log(10)) + offset
    bound = power_geometric_tail(cap, p, r)
    _assert_bounds(bound, _exact_power_tail(cap, p, r), (cap, p, r))
    with mpmath.workdps(50):
        a = mpmath.mpf(cap + 1)
        envelope = a ** p * mpmath.mpf(r) ** a / (1 - (1 + 1 / a) ** p * r)
        assert bound <= envelope * (1 + mpmath.mpf("1e-10")) + math.ulp(0.0), (bound, cap, p, r)


@_PROPERTY
@given(st.floats(-3.0, 30.0), st.integers(4, 20), st.integers(-320, -1))
def test_em_bracket_bounds_the_hurwitz_remainder(log_s1, log_n, log_tol):
    # s = 1 + 10^log_s1 spans [1.001, 1e30] and n = 2^log_n spans 16 to
    # 2^20. A Fraction order gives an exact bracket, so the difference
    # from zeta(s, n) is truncation alone; a float bracket also carries a
    # few dozen ulps of rounding, which the bound leaves out. Reported as
    # a plain float the bound was 0.0 once n^-s underflowed, and nan once
    # the Pochhammer factor overflowed as well.
    s, n, tol = 1.0 + 10.0 ** log_s1, 2 ** log_n, 10.0 ** log_tol
    for order in (Fraction(s), s):
        bracket, bound = em_bracket(order, n, tol)
        # digits enough to resolve the remainder next to the tail itself
        log10_unit = -s * math.log10(n)
        head = log10_unit + math.log10(1.0 + n / (s - 1.0))
        dps = 30 + max(20, math.ceil(head - math.log10(max(bound, 5e-324))))
        with mpmath.workdps(dps):
            b = mpmath.mpf(bracket.numerator) / bracket.denominator if isinstance(
                order, Fraction) else mpmath.mpf(bracket)
            unit = mpmath.mpf(n) ** -mpmath.mpf(s)
            rounding = 0 if isinstance(order, Fraction) else unit * abs(b) * mpmath.mpf(2) ** -44
            remainder = abs(mpmath.zeta(mpmath.mpf(s), n) - unit * b) - rounding
            _assert_bounds(bound, remainder, (s, n, tol, type(order).__name__))


@_PROPERTY
@given(st.lists(st.floats(1e-320, 0.999), min_size=2, max_size=3),
       st.lists(st.floats(-6.0, 3.0), min_size=3, max_size=3),
       st.integers(-330, 100), st.integers(0, 3))
# subnormal moduli: the quotient by the subnormal r once reported 4.9e-4
# at 1e-320, and a subnormal r times the point-count divisor rounds to a
# few bits, so ln r is added apart
@example([1e-320, 1e-320], [2.0, -1.0, 0.0], -330, 0)
@example([1e-320, 1e-320, 1e-320], [2.0, 1.0, -2.0], -330, 0)
@example([2.110164e-318, 5.1773e-320], [-4.0, 5.0, 0.0], -330, 0)
def test_shell_tail_bounds_its_envelope_in_2d_and_3d(moduli, real_orders, decade, offset):
    # The envelope the docstring derives: the power-geometric tail past the
    # level over r (1 - r^level) (n-1)! prod mu_i, evaluated exactly. A
    # quotient below the float range must round up, not to 0.0, and by
    # no floor: exp rounds a subnormal bound to the nearest float, up to
    # half an ulp of 0 above the envelope, and certified_tail adds one.
    n = len(moduli)
    orders = [complex(o) for o in real_orders[:n]]
    args = [complex(m) for m in moduli]
    r = max(moduli)
    power = n - 1 + sum(max(0.0, -o.real) for o in orders)
    level = _cap_for(power, r, decade * math.log(10)) + offset
    bound = _shell_tail(orders, args, level)
    with mpmath.workdps(50):
        scale = (mpmath.mpf(r) * (1 - mpmath.mpf(r) ** level) * math.factorial(n - 1)
                 * mpmath.fprod(map(mpmath.mpf, _decay_ratios(args))))
        _assert_bounds(bound, _exact_power_tail(level, power, r) / scale, (moduli, orders, level))
        a = mpmath.mpf(level + 1)
        envelope = a ** power * mpmath.mpf(r) ** a / (1 - (1 + 1 / a) ** power * r) / scale
        assert bound <= envelope * (1 + mpmath.mpf("1e-10")) + 2 * math.ulp(0.0), (
            bound, moduli, orders, level)
