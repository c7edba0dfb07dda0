"""The fixed-point engine of extended precision, checked against mpmath.

mpmath is the oracle only: vpvlab computes pi, ln 2, ln p, exp and cis
on Python ints, rounds the audit's arithmetic in `Rounded`, and renders
extended values with `decimal`, none of it through mpmath.
"""

import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpvlab import audit_special_values, polylog
from vpvlab.cli import _fmt_digits
from vpvlab.explorer import _PRINTED_FORMS, _audit_ez31, _evaluate
from vpvlab.forms import _term_values
from vpvlab.extended import (
    Rounded, _decimal, exp_cis, ln2_fixed, ln_fixed, pi_fixed, round_bits, working_bits,
)
from vpvlab.numerics import smallest_prime_factors

PACKAGE = Path(__file__).resolve().parents[1] / "src"
_SPF = smallest_prime_factors(200_000)
_PRIMES = [p for p in range(2, len(_SPF)) if _SPF[p] == p]


def _floor_at(x, w):
    """floor(x 2^w) for an mpmath number x; the caller sets the precision."""
    return int(mpmath.floor(x * mpmath.mpf(2) ** w))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(64, 400))
def test_pi_and_ln2_are_within_a_unit(w):
    with mpmath.workprec(w + 40):
        assert abs(pi_fixed(w) - _floor_at(mpmath.pi, w)) <= 1, w
        assert abs(ln2_fixed(w) - _floor_at(mpmath.ln2, w)) <= 1, w


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.sampled_from(_PRIMES), st.integers(64, 400))
def test_ln_of_a_prime_is_within_two_units(p, w):
    with mpmath.workprec(w + 40):
        assert abs(ln_fixed(p, w, _SPF) - _floor_at(mpmath.log(p), w)) <= 2, (p, w)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.floats(-2000, 2000), st.floats(-1e6, 1e6), st.booleans(), st.integers(64, 400))
def test_exp_and_cis_are_within_a_unit_relative(x, y, real, w):
    # exp(x + iy) for fixed-point x and y: Cody-Waite reduction by ln 2 and
    # pi/2, then the 2^-8-scaled series and 8 squarings. A real argument
    # keeps the imaginary part exactly zero.
    y = 0.0 if real else y
    fx, fy = int(Fraction(x) * 2 ** w), int(Fraction(y) * 2 ** w)
    e, re, im = exp_cis(fx, fy, w)
    with mpmath.workprec(w + 40):
        ref = mpmath.exp(mpmath.mpc(mpmath.mpf(fx) / 2 ** w, mpmath.mpf(fy) / 2 ** w))
        got = mpmath.mpc(re, im) * mpmath.mpf(2) ** e
        assert abs(got - ref) <= abs(ref) * mpmath.mpf(2) ** -w, (x, y, w)
    assert im == 0 or not real


_dyadic = st.builds(lambda m, e: m * 2.0 ** e, st.integers(-2 ** 60, 2 ** 60), st.integers(-80, 20))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_dyadic, _dyadic.filter(bool), st.integers(1, 4), st.integers(2, 400), st.integers(2, 360))
def test_rounded_arithmetic_rounds_as_mpmath_does(a, b, n, prec, k):
    # Every operation the audit's closed forms use, at the same bits:
    # Rounded must give mpmath's bits exactly, since the audit's csv and
    # json print the rounding noise of the matching rows in full.
    x, y = Rounded(a, prec), Rounded(b, prec)
    with mpmath.workprec(prec):
        mx, my = mpmath.mpf(a), mpmath.mpf(b)
        pairs = [
            (x + y, mx + my), (x - y, mx - my), (x * y, mx * my), (x / y, mx / my),
            (x ** n, mx ** n), (x / k, mx / k), (k * x, k * mx), (0 - x, 0 - mx),
            (x + b, mx + b), (x - b, mx - b), (abs(x - y), abs(mx - my)),
        ]
    with mpmath.workprec(prec + 8):  # room for the exact mantissas
        for got, want in pairs:
            assert mpmath.mpf((got.m, got.e)) == want, (a, b, n, prec, k)
            assert float(got) == float(want)
    assert (x <= y) == (mx <= my) and (x == y) == (mx == my)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 200), st.booleans(), st.integers(-3000, 3000))
def test_extended_digits_print_as_mpmath_nstr(digits, m, negative, e):
    # A value of the working precision of `digits` digits, held as a
    # Decimal, prints byte for byte as mpmath.nstr prints the same mpf.
    bits = working_bits(digits)
    m = (-1) ** negative * (m >> max(m.bit_length() - bits, 0))
    x = Fraction(m) * Fraction(2) ** e
    assert _fmt_digits(_decimal(x, bits), digits) == mpmath.nstr(mpmath.mpf((m, e)), digits), (m, e, digits)


@pytest.mark.parametrize("value, digits, shown", [
    (0.125, 2, "0.13"), (0.375, 1, "0.4"), (9.5, 1, "1.0e+1"), (99.875, 3, "99.9"),
    (2.0 ** -20, 5, "9.5367e-7"), (123456.0, 3, "1.23e+5"), (-0.5, 1, "-0.5"), (0.0, 5, "0.0"),
])
def test_extended_digits_at_ties_and_format_edges(value, digits, shown):
    # exact ties round half up; the positional range ends where mpmath's does
    assert _fmt_digits(Decimal(value), digits) == shown == mpmath.nstr(mpmath.mpf(value), digits)


def test_decimal_of_a_binary_value_rounds_back_to_it():
    for x in (Fraction(1, 2), Fraction(-3, 1024), Fraction(5 * 2 ** 100), Fraction(0),
              Fraction(12345678901234567, 2 ** 200), Fraction(7 * 2 ** 300_000)):
        for prec in (3, 53, 103, 400):
            want = round_bits(x, prec)
            assert round_bits(Fraction(_decimal(want, prec)), prec) == want, (x, prec)


def test_working_bits_match_mpmath():
    for dps in range(1, 400):
        assert working_bits(dps) == mpmath.libmp.dps_to_prec(dps), dps


@pytest.mark.parametrize("dps", [20, 30, 40, 60])
def test_audit_matching_rows_print_mpmath_noise(dps):
    # The verdicts and formulas are those of double precision, and where
    # a printed form matches, its discrepancy is the one mpmath gets from
    # the same series values, pi and ln 2 at the same bits.
    want = [(r.verdict, r.corrected_formula) for r in audit_special_values(1e-12)]
    records = audit_special_values(1e-12, dps=dps)
    assert [(r.verdict, r.corrected_formula) for r in records] == want
    series_tol = max(10.0 ** (2 - dps), 1e-45)
    with mpmath.workdps(dps):
        constants = {"pi": +mpmath.pi, "ez31": _audit_ez31()}
        for k, (record, (_, terms)) in enumerate(zip(records[:2], _PRINTED_FORMS[:2]), 1):
            series = mpmath.mpf(str(polylog(k, 0.5, series_tol, dps=dps).value.real))
            printed = _evaluate(terms, _term_values(terms, constants, mpmath.log(2)))
            assert record.discrepancy == float(abs(series - printed)), (dps, k)


def test_extended_precision_never_imports_mpmath():
    # A fresh interpreter: extended polylog, zeta_real and the audit run on
    # the stdlib engine alone.
    code = (
        "import sys, vpvlab\n"
        "vpvlab.polylog(0.5 + 29.48j, -0.6 - 0.35j, dps=30)\n"
        "vpvlab.zeta_real(3.0, 1e-20, dps=30)\n"
        "vpvlab.audit_special_values(dps=30)\n"
        "print('mpmath' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "False\n"


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(
    st.floats(-20, 20),
    st.floats(-100, 100),
    st.floats(0, 0.95),
    st.floats(-math.pi, math.pi),
    st.integers(15, 60),
)
def test_extended_polylog_is_within_one_unit_of_the_direct_sum(sigma, height, modulus, phase, dps):
    # Against the same terms_used terms summed directly by mpmath at 60
    # digits (dps + 20 past 40), the value is within 10^-dps times their
    # sum of |terms|.
    s, z = complex(sigma, height), modulus * complex(math.cos(phase), math.sin(phase))
    res = polylog(s, z, 1e-12, dps=dps)
    with mpmath.workdps(max(60, dps + 20)):
        s_, z_ = mpmath.mpc(s), mpmath.mpc(z)
        terms = [z_ ** k * mpmath.mpf(k) ** -s_ for k in range(1, res.terms_used + 1)]
        unit = mpmath.mpf(10) ** -dps * mpmath.fsum(terms, absolute=True)
        value = mpmath.mpc(str(res.value.real), str(res.value.imag))
        assert abs(value - mpmath.fsum(terms)) <= unit, (s, z, dps)
