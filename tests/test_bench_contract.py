"""The names and fields that bench/run.py reads from vpvlab.

The traced bench patches some of these names in place, and looks the
cap search's tail bounds up with getattr(..., None), so a dropped or
bypassed name would zero a traced count instead of failing. These
tests fail instead."""

import importlib

import pytest

from vpvlab import products
from vpvlab.products import IdentityCase, TruncationSpec, choose_degree_cap, rhs_log, verify

BENCH_NAMES = {
    "products": (
        "IdentityCase", "verify", "rhs_log", "choose_degree_cap", "lhs_log_product_2d",
        "lhs_log_product_3d", "TruncationSpec", "tail_bound_2d", "tail_bound_3d",
        "_zeta_mode_b_tail",
    ),
    "polylog": ("polylog", "zeta_real"),
    "cli": (
        "main", "verify", "polylog", "run_catalog", "critical_line_scan", "trivial_zero_probe",
        "audit_special_values", "euler_zagier_31", "visible_points_2d", "visible_points_3d",
    ),
    "explorer": ("verify", "polylog", "zeta_real", "euler_zagier_31"),
    "lattice": ("visible_points_2d", "visible_points_3d"),
}

# The bench's case constructors, as bench/run.py spells them, and the
# tail bound each one's cap search calls through the products globals.
CASES = [
    (IdentityCase(2, 2, 0.5, 0.3), "tail_bound_2d"),
    (IdentityCase(3, 1, 0.2, 0.3, t=1, z=0.4), "tail_bound_3d"),
    (IdentityCase(2, 3, 1, 0.5), "_zeta_mode_b_tail"),
]


@pytest.mark.parametrize("module", sorted(BENCH_NAMES))
def test_every_name_the_bench_reads_resolves(module):
    mod = importlib.import_module(f"vpvlab.{module}")
    missing = [name for name in BENCH_NAMES[module] if not callable(getattr(mod, name, None))]
    assert missing == []


@pytest.mark.parametrize("case, bound", CASES, ids=["2d", "3d", "zeta"])
def test_cap_search_calls_its_tail_bound_by_name(monkeypatch, case, bound):
    calls = []
    original = getattr(products, bound)
    monkeypatch.setattr(products, bound, lambda *args: calls.append(args) or original(*args))
    choose_degree_cap(case, 5e-9)
    assert calls
    # The search starts at _cap_guess, within a step of the level; from
    # the first level up it took about 13 evaluations per search.
    assert len(calls) <= 4


@pytest.mark.parametrize("case", [c for c, _ in CASES], ids=["2d", "3d", "zeta"])
def test_cases_and_reports_carry_the_fields_the_bench_reads(case):
    assert case.dimension in (2, 3)
    assert isinstance(case.is_zeta_mode, bool)
    for name in ("s", "t", "x", "y", "z"):
        value = getattr(case, name)
        assert value is None or isinstance(value, complex), name
    tol = 1e-8
    report = verify(case, tol)
    assert isinstance(report.terms, int) and isinstance(report.degree_cap, int)
    assert isinstance(report.tail_bound, float) and isinstance(report.abs_err, float)
    assert isinstance(report.lhs_log, complex)
    # The bench repeats verify as separate layer calls; they must agree with it.
    half = tol / 2
    assert rhs_log(case, half) == report.rhs_log
    cap = choose_degree_cap(case, half)
    lhs = products.lhs_log_product_2d if case.dimension == 2 else products.lhs_log_product_3d
    value, spec = lhs(case, TruncationSpec(degree_cap=cap, tol=half))
    assert (cap, value, spec.tail_bound) == (report.degree_cap, report.lhs_log, report.tail_bound)
