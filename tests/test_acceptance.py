"""Acceptance gate: ten end-to-end criteria, one printed line each.

Each test prints `ACCEPTANCE <n>: PASS|FAIL - <what was checked>` so a
verbose run shows the whole gate at a glance; the assert carries the
same text.
"""

import cmath
import math
import random

from vpvlab import (
    IdentityCase,
    audit_special_values,
    catalog,
    critical_line_scan,
    decompose,
    euler_zagier_31,
    lattice_sum,
    polylog,
    product_log_sum,
    trivial_zero_probe,
    verify,
    zeta_real,
)
from vpvlab.products import _eval_lhs, _shell_tail, choose_degree_cap

LI3_HALF = 0.5372131936080402
LI4_HALF = 0.5174790616738993
EZ31 = -0.1178759996505093


def _emit(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"ACCEPTANCE {number}: {status} - {detail}"


def test_acceptance_01_log_closed_form_identity():
    report = verify(IdentityCase(2, 1.0, 0.3, 0.4), 1e-8)
    want = (0.4 / 0.6) * math.log(1 / 0.7)
    ok = report.rel_err <= 1e-7 and abs(report.rhs_log - want) <= 1e-12
    _emit(
        1,
        ok,
        f"s=1 x=0.3 y=0.4 rel_err={report.rel_err:.3e} vs (2/3)ln(10/7)",
    )


def test_acceptance_02_negative_order_family():
    worst = 0.0
    for s in (2, 3, 4, 5):
        case = IdentityCase(2, float(s), 0.5, 0.3)
        report = verify(case, 1e-8)
        li = polylog(s, 0.5, 1e-12).value
        # Closed negative-order factor via the exact rational form.
        y = 0.3
        factors = {
            2: y / (1 - y) ** 2,
            3: y * (1 + y) / (1 - y) ** 3,
            4: y * (1 + 4 * y + y * y) / (1 - y) ** 4,
            5: y * (1 + y) * (1 + 10 * y + y * y) / (1 - y) ** 5,
        }
        want = li * factors[s]
        worst = max(worst, report.rel_err, abs(report.rhs_log - want))
        if report.rel_err > 1e-6 or abs(report.rhs_log - want) > 1e-9:
            _emit(2, False, f"s={s} rel_err={report.rel_err:.3e}")
    _emit(2, True, f"s=2..5 x=0.5 y=0.3 worst deviation {worst:.3e}")


def test_acceptance_03_zeta_constant_family():
    ok = abs(zeta_real(2.0, 1e-12).value - math.pi**2 / 6) <= 1e-12
    ok = ok and abs(zeta_real(4.0, 1e-12).value - math.pi**4 / 90) <= 1e-12
    worst = 0.0
    for s in (2, 3, 4, 5):
        case = IdentityCase(2, float(s), 1.0, 0.3)
        report = verify(case, 1e-8)
        worst = max(worst, report.rel_err)
        ok = ok and report.rel_err <= 1e-6
    _emit(3, ok, f"zeta mode s=2..5 y=0.3 worst rel_err {worst:.3e}")


def test_acceptance_04_half_argument_powers():
    case = IdentityCase(2, 1.0, 0.5, 0.4, closed_form_id="ln2")
    r1 = verify(case, 1e-8)
    want1 = (0.4 / 0.6) * math.log(2)
    case = IdentityCase(2, 2.0, 0.5, 0.25, closed_form_id="dilog-half")
    r2 = verify(case, 1e-8)
    want2 = (math.pi**2 / 12 - math.log(2) ** 2 / 2) * (0.25 / 0.75**2)
    ok = (
        r1.rel_err <= 1e-7
        and abs(r1.rhs_log - want1) <= 1e-12
        and r2.rel_err <= 1e-6
        and abs(r2.rhs_log - want2) <= 1e-12
    )
    _emit(
        4,
        ok,
        f"binary power identity rel_err={r1.rel_err:.3e}, "
        f"dilog constant rel_err={r2.rel_err:.3e}",
    )


def test_acceptance_05_special_value_audit():
    double = audit_special_values(1e-12)
    wide = audit_special_values(1e-12, dps=30)
    by_name = {r.name: r for r in double}
    ok = by_name["LI1_HALF"].verdict == "MATCHES_PRINTED"
    ok = ok and by_name["LI1_HALF"].discrepancy <= 1e-12
    ok = ok and by_name["LI2_HALF"].verdict == "MATCHES_PRINTED"
    ok = ok and by_name["LI2_HALF"].discrepancy <= 1e-12
    for name in ("LI3_HALF", "LI4_HALF"):
        rec = by_name[name]
        ok = ok and rec.verdict in ("MATCHES_PRINTED", "MATCHES_CORRECTED", "UNRESOLVED")
        ok = ok and rec.verdict == "MATCHES_CORRECTED"
    # Series oracles at the stated tolerances.
    ok = ok and abs(by_name["LI3_HALF"].series_value - LI3_HALF) <= 1e-13
    ok = ok and abs(by_name["LI4_HALF"].series_value - LI4_HALF) <= 1e-13
    ez = euler_zagier_31(1e-10)
    ok = ok and ez.tail_bound <= 1e-10 and abs(ez.value - EZ31) <= 1e-9
    # Verdicts agree between double and extended precision.
    ok = ok and [r.verdict for r in double] == [r.verdict for r in wide]
    _emit(
        5,
        ok,
        "audit verdicts "
        + ", ".join(f"{r.name}={r.verdict}" for r in double)
        + " (stable under extended precision)",
    )


def test_acceptance_06_oracle_equivalence():
    rng = random.Random(20260815)
    draws = []
    ok = True
    worst_ratio = 0.0
    for _ in range(50):
        s = complex(rng.uniform(-3, 4), rng.uniform(-20, 20))
        x = 0.5 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        y = 0.5 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        draws.append(s)
        cap = choose_degree_cap(IdentityCase(2, s, x, y), 1e-9)
        lhs, _ = product_log_sum((s, 1 - s), (x, y), cap)
        oracle = lattice_sum((s, 1 - s), (x, y), cap)
        allowance = 2 * _shell_tail((s, 1 - s), (x, y), cap)
        gap = abs(lhs - oracle)
        worst_ratio = max(worst_ratio, gap / allowance)
        ok = ok and gap <= allowance
    for _ in range(10):
        s = complex(rng.uniform(-3, 4), rng.uniform(-20, 20))
        t = complex(rng.uniform(-3, 4), rng.uniform(-20, 20))
        u = 1 - s - t
        x = 0.4 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        y = 0.4 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        z = 0.4 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        cap = choose_degree_cap(IdentityCase(3, s, x, y, t=t, z=z), 1e-8)
        lhs, _ = product_log_sum((s, t, u), (x, y, z), cap)
        oracle = lattice_sum((s, t, u), (x, y, z), cap)
        allowance = 2 * _shell_tail((s, t, u), (x, y, z), cap)
        gap = abs(lhs - oracle)
        worst_ratio = max(worst_ratio, gap / allowance)
        ok = ok and gap <= allowance
    # Constraint sensitivity: t = 1 - s + 0.1 must blow past 100x the
    # same allowance at x = y = 0.4.
    min_break = math.inf
    for s in draws[:50]:
        t = 1 - s + 0.1
        cap = choose_degree_cap(IdentityCase(2, s, 0.4, 0.4), 1e-9)
        lhs, _ = product_log_sum((s, t), (0.4, 0.4), cap)
        oracle = lattice_sum((s, t), (0.4, 0.4), cap)
        allowance = 2 * _shell_tail((s, t), (0.4, 0.4), cap)
        min_break = min(min_break, abs(lhs - oracle) / allowance)
    ok = ok and min_break >= 100
    _emit(
        6,
        ok,
        f"50x2D + 10x3D within bounds (worst ratio {worst_ratio:.3f}); "
        f"broken constraint exceeds bounds by >= {min_break:.1e}x",
    )


def test_acceptance_07_critical_line_scan():
    t_grid = [0.0, 1.0, 5.0, 14.134725, 21.022040, 50.0]
    rows = critical_line_scan(t_grid, x=0.2, y=0.2, tol=1e-8)
    worst = max(row.abs_err for row in rows)
    ok = worst <= 1e-6
    # Hermitian pairs.
    for t_val in (1.0, 14.134725):
        up, down = critical_line_scan([t_val, -t_val], x=0.2, y=0.2, tol=1e-9)
        ok = ok and abs(up.rhs_log - down.rhs_log.conjugate()) <= 1e-12
        ok = ok and abs(up.lhs_log - down.lhs_log.conjugate()) <= 1e-12
    # Exponent rewriting on sampled pairs up to 100, every T in the grid.
    rng = random.Random(7)
    worst_dev = 0.0
    for t_val in t_grid:
        s = complex(0.5, t_val)
        t = complex(0.5, -t_val)
        for _ in range(200):
            a = rng.randint(1, 100)
            b = rng.randint(1, 100)
            direct = cmath.exp(-s * math.log(a) - t * math.log(b))
            rewritten = (a * b) ** -0.5 * cmath.exp(1j * t_val * math.log(b / a))
            worst_dev = max(worst_dev, abs(direct - rewritten))
    ok = ok and worst_dev <= 1e-14
    _emit(
        7,
        ok,
        f"T grid worst abs_err {worst:.3e}; Hermitian pairs conjugate; "
        f"exponent form deviation {worst_dev:.3e}",
    )


def test_acceptance_08_pole_approach_probe():
    rows, note = trivial_zero_probe(order=3, x=0.5, deltas=(0.5, 0.4, 0.3, 0.2))
    ok = all(row.error is None and row.abs_err <= 1e-6 for row in rows)
    # The rational factor matches (1-d)(2-d)/d^3 (same closed form,
    # different float operation order, hence the tiny allowance).
    for row in rows:
        d = row.delta
        direct = (1 - d) * (2 - d) / d**3
        ok = ok and abs(row.closed_factor - direct) <= 1e-13 * direct
    mags = [row.rhs_exponent_magnitude for row in rows]
    ok = ok and all(b > a for a, b in zip(mags, mags[1:]))
    ok = ok and "approach" in note
    _emit(
        8,
        ok,
        f"probe abs_err <= {max(r.abs_err for r in rows):.3e}, factor "
        f"grows {mags[0]:.2f} -> {mags[-1]:.2f}, note present",
    )


def test_acceptance_09_partition_and_density():
    ok = True
    for m in range(1, 201):
        for n in range(1, 201):
            g, (a, b) = decompose(m, n)
            if math.gcd(a, b) != 1 or g * a != m or g * b != n:
                ok = False
    for m in range(1, 41):
        for n in range(1, 41):
            for p in range(1, 41):
                g, (a, b, c) = decompose(m, n, p)
                if math.gcd(a, b, c) != 1 or (g * a, g * b, g * c) != (m, n, p):
                    ok = False
    n_box = 2000
    count = 0
    for a in range(1, n_box + 1):
        for b in range(1, n_box + 1):
            if math.gcd(a, b) == 1:
                count += 1
    density = count / n_box**2
    target = 6 / math.pi**2
    ok = ok and abs(density - target) / target <= 0.01
    _emit(
        9,
        ok,
        f"partition exhaustive on both boxes; density {density:.6f} vs "
        f"{target:.6f}",
    )


def test_acceptance_10_tail_bound_soundness():
    ok = True
    worst = 0.0
    for case in catalog():
        report = verify(case, 1e-8)
        cap = report.degree_cap
        v1, t1, _ = _eval_lhs(case, cap)
        v2, _, _ = _eval_lhs(case, 2 * cap)
        moved = abs(v2 - v1)
        worst = max(worst, moved / max(t1, 1e-300))
        ok = ok and moved < t1
    _emit(
        10,
        ok,
        f"doubling the cap moves every catalog case by < tail_bound "
        f"(worst fraction {worst:.3f})",
    )
