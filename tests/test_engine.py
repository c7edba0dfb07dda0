"""The fixed-point engine of extended precision, checked against mpmath.

mpmath is the oracle only: vpvlab computes pi, ln 2, ln p, exp and cis
on Python ints, evaluates the audit's closed forms in exact Fractions,
and renders extended values with `decimal`, none of it through mpmath.
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
from vpvlab.explorer import _PRINTED_FORMS, MATCHES_PRINTED, _evaluate
from vpvlab.forms import _term_values
from vpvlab.extended import _decimal, exp_cis, ln2_fixed, ln_fixed, pi_fixed, round_bits, working_bits
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
    # a printed form matches, its discrepancy is the rounding noise of the
    # series value: within 1e-6 relative of the gap mpmath finds between
    # the same series value and the form, with its own pi and ln 2 at 64
    # bits past the working precision. The forms are evaluated exactly,
    # so only the engine's pi and ln 2, 32 bits past it, move the gap.
    want = [(r.verdict, r.corrected_formula) for r in audit_special_values(1e-12)]
    records = audit_special_values(1e-12, dps=dps)
    assert [(r.verdict, r.corrected_formula) for r in records] == want
    series_tol = max(10.0 ** (2 - dps), 1e-45)
    matching = [(k, record, terms) for k, (record, (_, terms)) in enumerate(zip(records, _PRINTED_FORMS), 1)
                if record.verdict == MATCHES_PRINTED]
    assert [k for k, _, _ in matching] == [1, 2]
    with mpmath.workprec(working_bits(dps) + 64):
        for k, record, terms in matching:
            series = mpmath.mpf(str(polylog(k, 0.5, series_tol, dps=dps).value.real))
            printed = _evaluate(terms, _term_values(terms, {"pi": +mpmath.pi}, +mpmath.ln2))
            gap = abs(series - printed)
            assert abs(record.discrepancy - gap) <= 1e-6 * gap, (dps, k, record.discrepancy, gap)


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
