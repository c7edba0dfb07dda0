"""End-to-end command-line tests driven through main(argv)."""

import cmath
import contextlib
import csv
import io
import json
import math
import runpy
import tempfile
import time
import tracemalloc
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vpvlab import (
    IdentityReport, ProbeRow, ScanRow, SeriesResult, SpecialValueRecord, catalog, run_catalog, visible_points,
)
from vpvlab.cli import _build_parser, _complex_flags, main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify2_json_report(capsys):
    code, out, _ = _run(
        capsys,
        ["verify2", "--s", "1", "--x", "0.3", "--y", "0.4", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "lhs_log",
        "rhs_log",
        "abs_err",
        "rel_err",
        "degree_cap",
        "tail_bound",
        "terms",
    }
    # Round trip: the serialized logs regenerate abs_err bit-for-bit.
    lhs = complex(payload["lhs_log"]["re"], payload["lhs_log"]["im"])
    rhs = complex(payload["rhs_log"]["re"], payload["rhs_log"]["im"])
    assert abs(lhs - rhs) == payload["abs_err"]
    assert payload["abs_err"] <= 3e-8
    assert payload["tail_bound"] <= 1e-8


def test_verify2_csv_header(capsys):
    code, out, _ = _run(
        capsys, ["verify2", "--s", "2", "--x", "0.5", "--y", "0.3", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "label,lhs_log_re,lhs_log_im,rhs_log_re,rhs_log_im,"
        "abs_err,rel_err,degree_cap,tail_bound,terms"
    )
    assert len(lines) == 2
    assert lines[1].startswith("verify2,")


def test_verify3_runs(capsys):
    code, out, _ = _run(
        capsys,
        [
            "verify3",
            "--s",
            "1",
            "--t",
            "1",
            "--x",
            "0.2",
            "--y",
            "0.2",
            "--z",
            "0.2",
            "--format",
            "json",
        ],
    )
    assert code == 0
    assert json.loads(out)["rel_err"] <= 1e-7


def test_complex_flag_forms_agree(capsys):
    # scan builds s = 1/2 + iT itself; verify2 parses the same s from a+bi.
    code_a, out_a, _ = _run(capsys, ["scan", "--T", "14.134725", "--format", "json"])
    code_b, out_b, _ = _run(
        capsys,
        ["verify2", "--s", "0.5+14.134725i", "--x", "0.2", "--y", "0.2", "--format", "json"],
    )
    assert code_a == code_b == 0
    (row,) = json.loads(out_a)
    report = json.loads(out_b)
    for key in ("lhs_log", "rhs_log", "abs_err", "degree_cap", "tail_bound"):
        assert row[key] == report[key], key


@pytest.mark.parametrize("source", ["flags", "file"])
def test_split_complex_forms_are_usage_errors(tmp_path, capsys, source):
    # A complex value has one spelling, a+bi, on the command line and in
    # an @file. An unknown flag is reported before the missing --s.
    flags = ["--s-re=0.5", "--s-im=1", "--x=0.3", "--y=0.4"]
    if source == "flags":
        argv = ["verify2", *flags]
    else:
        args_file = tmp_path / "run.args"
        args_file.write_text("\n".join(flags) + "\n")
        argv = ["verify2", f"@{args_file}"]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "error: unrecognized arguments: --s-re=0.5 --s-im=1\n"


def test_missing_required_flag(capsys):
    code, _, err = _run(capsys, ["verify2", "--s", "1", "--x", "0.3"])
    assert code == 1
    assert "y" in err


def test_bad_complex_literal(capsys):
    code, _, err = _run(capsys, ["verify2", "--s", "one", "--x", "0.3", "--y", "0.4"])
    assert code == 1


def test_domain_error_exit_code(capsys):
    code, _, err = _run(capsys, ["verify2", "--s", "1", "--x", "0.9999", "--y", "0.4"])
    assert code == 1
    assert err


@pytest.mark.parametrize(
    "flags",
    [["--precision", "extended:8"], ["--precision", "extended:1"], ["--tol", "1e-16"]],
)
def test_audit_below_working_precision_is_refused(capsys, flags):
    # Each of these once printed wrong verdicts with exit 0.
    code, out, err = _run(capsys, ["audit"] + flags)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("precision", ["double", "extended:30"])
def test_audit_at_working_precision_is_allowed(capsys, precision):
    code, out, _ = _run(capsys, ["audit", "--tol", "1e-12", "--precision", precision])
    assert code == 0
    assert out.count("\n") == 4


def test_unachievable_tolerance_exit_code(capsys):
    # |x| = |y| = .999 needs a level past 20,000 for 1e-10; the work budget
    # stops 2D at equal moduli at level 6324.
    code, out, err = _run(capsys, ["verify2", "--s", "1", "--x", "0.999", "--y", "0.999",
                                   "--tol", "1e-10"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: no degree cap <= 6324 (the work budget of 2e+07 lattice points)")
    assert len(err.strip().splitlines()) == 1


def test_work_budget_refuses_a_3d_case_at_once(capsys):
    # Level 3944 (about 8.5e9 visible points) would meet the tolerance; the
    # work budget stops 3D at equal moduli at level 493, so nothing is summed.
    t0 = time.perf_counter()
    code, out, err = _run(capsys, ["verify3", "--s", ".3", "--t", ".3", "--x", ".99",
                                   "--y", ".99", "--z", ".99"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: no degree cap <= 493 (the work budget of 2e+07 lattice points)")
    assert len(err.strip().splitlines()) == 1


def test_option_removed_with_the_level_cap_is_a_usage_error(capsys):
    code, _, err = _run(capsys, ["verify2", "--s", "2", "--x", ".5", "--y", ".3",
                                 "--degree-cap-max", "60"])
    assert code == 1
    assert err.startswith("error:")


def test_unverified_result_exit_code(capsys):
    # abs_err ~ 7e21 against 3*tol: a typed refusal, not a silent exit 0.
    code, out, err = _run(capsys, ["verify2", "--s=-30", "--x", "0.5", "--y", "0.5",
                                   "--format", "json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify2", "--s=-200.5", "--x", "0.5", "--y", "0.5"],
        ["polylog", "--s=-200.5", "--z", "0.5"],
        ["verify2", "--s=-300", "--x", ".5", "--y", ".5"],
        ["verify2", "--s", "300", "--x", "1", "--y", "0.5"],
        ["verify2", "--s=-500", "--x", ".5", "--y", ".5"],
    ],
)
def test_overflowing_series_exit_code(capsys, argv):
    # k^200.5 passes the float range at k = 35, and Li_{-n}(1/2) does from
    # n = 160 on: a typed refusal, not exit 3 (nor a RecursionError while
    # building P_500).
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("s", ["2000", "10000"])
def test_huge_negative_order_is_refused_at_once(capsys, s):
    # Li_{1-s}(0.3) is far past the float range. Building P_1999 before
    # refusing took 7.5 s; the magnitude floor refuses without it.
    t0 = time.perf_counter()
    code, out, err = _run(capsys, ["verify2", "--s", s, "--x", ".3", "--y", ".3"])
    assert time.perf_counter() - t0 < 0.2
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "leaves the float range" in err


@pytest.mark.parametrize("argv", [
    ["verify2", "--s=-1e15", "--x=0.3", "--y=0.3"],
    ["verify2", "--s=-1e300", "--x=0.3", "--y=0.3"],
    ["verify2", "--s=-1e15", "--x=-0.3", "--y=0.3"],
    ["verify2", "--s=1e308", "--x=0.3", "--y=0.3"],
])
def test_negative_order_with_no_magnitude_floor_is_refused_at_once(capsys, argv):
    # The floor's rounding allowance outgrows |Li_{-n}| from n near 1e13, also
    # at x = -0.3, where the two nearest poles have equal moduli. Building
    # P_n there never returned. The one error line writes n as a float: as
    # an int, n = 1e308 took 309 digits and the line 418 bytes.
    t0 = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - t0 < 0.2
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "no magnitude floor" in err
    assert len(err.strip().splitlines()) == 1
    assert len(err.encode()) < 200


@pytest.mark.parametrize("argv", [
    ["polylog", "--s=-3000", "--z", "0.3"],
    ["verify2", "--s=-3000.5", "--x", "0.3", "--y", "0.3"],
    ["verify2", "--s=2335.33", "--x=-0.962435", "--y=-0.153746"],
])
def test_overflowing_tail_bound_is_a_domain_error(capsys, argv):
    # The first caps of the tail-bound search overflow (1 + 1/(cap+1))^p;
    # that is an infinite bound, not an internal error. In the last argv
    # it is the estimate of |Li_t(y)|, which left the other factor a
    # tolerance of 0 and gave exit 1 ("tol must be positive").
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_internal_errors_do_not_leak_tracebacks(capsys):
    # An unknown subcommand is a usage error, not an internal one.
    code, _, err = _run(capsys, ["frobnicate"])
    assert code == 1


def test_no_command_prints_usage(capsys):
    code, _, err = _run(capsys, [])
    assert code == 1
    assert "usage" in err.lower()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_catalog_json(capsys):
    code, out, _ = _run(capsys, ["catalog", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 14
    for row in rows:
        assert row["rel_err"] <= 1e-6


def test_scan_csv_header_and_rows(capsys):
    code, out, _ = _run(
        capsys, ["scan", "--T", "0,5,14.134725", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "T,lhs_log_re,lhs_log_im,rhs_log_re,rhs_log_im,abs_err,"
        "li_s_x_re,li_s_x_im,li_t_y_re,li_t_y_im,"
        "exponent_dev,degree_cap,tail_bound"
    )
    assert len(lines) == 4


def test_scan_row_past_three_tol_is_a_tolerance_error(capsys):
    # At T = 1e20 the row's abs_err is 2.0e-6 against tol 1e-8; scan
    # printed it with exit 0, where verify2 on the same case exits 2.
    code, out, err = _run(capsys, ["scan", "--T", "1e20"])
    assert (code, out) == (2, "")
    assert err.startswith("error: abs_err ") and err.count("\n") == 1
    assert "exceeds 3*tol = 3.0000000000000004e-08" in err
    _, _, verify_err = _run(capsys, ["verify2", "--s=0.5+1e20i", "--x=0.2", "--y=0.2"])
    assert err == verify_err


@pytest.mark.parametrize("tol, label", [("1e-14", "zeta-s5"), ("1e-15", "vpv2-s4")])
def test_catalog_row_past_three_tol_is_a_tolerance_error(capsys, tol, label):
    # At tol 1e-14 zeta-s5's abs_err is 4.263e-14 against 3e-14, and at
    # 1e-15 five rows miss 3*tol; catalog printed them with exit 0, where
    # scan and verify2 exit 2. The error names the first such row.
    code, out, err = _run(capsys, ["catalog", "--tol", tol])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: catalog row {label}: abs_err ") and err.count("\n") == 1
    assert f"exceeds 3*tol = {3 * float(tol)!r}" in err
    # the library still returns every report, the failing rows included
    reports = run_catalog(float(tol))
    assert len(reports) == 14 and label in [r.case.label for r in reports if not r.passed]


def test_probe_row_past_three_tol_is_an_error_row(capsys):
    # abs_err 2.7e-7 against tol 1e-8 was a value row; it is an error row,
    # as a refused tolerance is, and the table still exits 0.
    code, out, err = _run(capsys, ["probe", "--order", "4", "--deltas", "0.012"])
    assert (code, err) == (0, "")
    row = out.split("\n")[0]
    assert row.startswith("delta=0.012    error: ComputationError: abs_err ")
    assert "exceeds 3*tol" in row


def test_probe_csv_carries_note(capsys):
    code, out, _ = _run(capsys, ["probe", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("delta,y,lhs_log_re")
    assert lines[0].endswith(",error")
    assert any(line.startswith("# note:") for line in lines)


def test_probe_json_carries_note(capsys):
    code, out, _ = _run(capsys, ["probe", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 3
    assert len(payload["rows"]) == 4
    assert "approach" in payload["note"]


def test_audit_csv(capsys):
    code, out, _ = _run(capsys, ["audit", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "name,verdict,printed_re,printed_im,series_re,series_im,"
        "discrepancy,corrected_re,corrected_im,corrected_formula,note"
    )
    assert len(lines) == 5
    verdicts = [line.split(",")[1] for line in lines[1:]]
    assert verdicts == [
        "MATCHES_PRINTED",
        "MATCHES_PRINTED",
        "MATCHES_CORRECTED",
        "MATCHES_CORRECTED",
    ]


def test_ez31_json(capsys):
    code, out, _ = _run(capsys, ["ez31", "--tol", "1e-10", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - (-0.1178759996505093)) <= 1e-9
    assert payload["tail_bound"] <= 1e-10


def test_visible_csv(capsys):
    code, out, _ = _run(
        capsys, ["visible", "--dimension", "2", "--degree-cap", "5", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,b"
    assert lines[1:] == [
        "1,1",
        "1,2",
        "2,1",
        "1,3",
        "3,1",
        "1,4",
        "2,3",
        "3,2",
        "4,1",
    ]


def _visible_reference(dimension, cap):
    """visible's output in each format by the reference renderings:
    json.dumps with an indent, the csv module, and one space-joined line
    per point."""
    points = list(visible_points(dimension, cap))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("a", "b", "c")[:dimension])
    writer.writerows(points)
    return {
        "json": json.dumps({"dimension": dimension, "degree_cap": cap,
                            "points": [list(p) for p in points]}, indent=2) + "\n",
        "csv": buf.getvalue(),
        "human": "\n".join(" ".join(str(c) for c in p) for p in points) + "\n",
    }


@pytest.mark.parametrize("dimension, cap", [(2, 0), (2, 1), (2, 2), (2, 5), (2, 60),
                                            (3, 0), (3, 3), (3, 18)])
def test_visible_output_matches_the_library_encoders(capsys, monkeypatch, dimension, cap):
    # chunks of 3 points: a listing of one point, of exactly three chunks
    # (2D cap 5 has nine points), and of many with a partial last one
    want = _visible_reference(dimension, cap)
    for chunk in (1024, 3):
        monkeypatch.setattr("vpvlab.cli._CHUNK_POINTS", chunk)
        for fmt, text in want.items():
            argv = ["visible", "--dimension", str(dimension), "--degree-cap", str(cap),
                    "--format", fmt]
            assert _run(capsys, argv) == (0, text, ""), (fmt, chunk)


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_visible_output_is_written_as_it_is_listed(tmp_path, fmt):
    # the listing goes to the file a chunk at a time, so the peak stays
    # far below the text it writes (the whole text is 0.8 to 3.6 MB here)
    target = tmp_path / f"visible.{fmt}"
    argv = ["visible", "--degree-cap", "600", "--format", fmt, "--output", str(target)]
    _build_parser()  # built before tracing, so the peak counts the listing alone
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = target.read_text(encoding="utf-8")
    assert code == 0
    assert text == _visible_reference(2, 600)[fmt]
    assert peak < len(text) / 4, (peak, len(text))


@pytest.mark.parametrize("dimension, cap, limit", [(2, 6325, 6324), (2, 100000, 6324),
                                                   (3, 494, 493), (3, 10**9, 493)])
def test_visible_past_the_work_budget_is_refused_at_once(capsys, dimension, cap, limit):
    t0 = time.perf_counter()
    code, out, err = _run(capsys, ["visible", "--dimension", str(dimension),
                                   "--degree-cap", str(cap), "--format", "json"])
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: degree cap {cap} is past {limit}, the largest whose {dimension}D "
                   "region fits the work budget of 2e+07 lattice points\n")


@pytest.mark.parametrize("record_type", [IdentityReport, ScanRow, ProbeRow,
                                         SpecialValueRecord, SeriesResult])
def test_complex_flags_match_the_per_field_check(record_type):
    want = tuple("complex" in str(record_type.__annotations__[name])
                 for name in record_type._fields)
    assert _complex_flags(record_type) == want
    assert _complex_flags(record_type) is _complex_flags(record_type)


def test_polylog_at_a_negative_integer_order_prints_the_closed_form(capsys):
    # The series cancels in double here and printed -5.31e28 with exit 0;
    # the exact Li_-20(-0.95) is 5.92e7, summed over no terms.
    code, out, err = _run(capsys, ["polylog", "--s=-20", "--z=-0.95", "--format", "json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    with mpmath.workdps(40):
        want = mpmath.polylog(-20, mpmath.mpf(-0.95))
    assert abs(report["value"]["re"] - want) <= 1e-15 * abs(want)
    assert report["value"]["im"] == 0.0
    assert (report["terms"], report["tail_bound"]) == (0, 0.0)


def test_polylog_extended_digits(capsys):
    code, out, _ = _run(
        capsys,
        [
            "polylog",
            "--s",
            "2",
            "--z",
            "0.5",
            "--precision",
            "extended:30",
            "--format",
            "human",
        ],
    )
    assert code == 0
    assert "0.582240526465011988703108064946" in out


def test_polylog_extended_at_few_digits(capsys):
    # Under 53 bits of precision this once exited 1 with
    # "error: negative shift count".
    code, out, err = _run(capsys, ["polylog", "--s", "2", "--z", "0.5", "--precision", "extended:5"])
    assert code == 0 and err == ""
    assert "value: (0.58224 + 0.0j)" in out


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_extended_polylog_past_the_float_range(capsys, fmt):
    # Li_{-200.5}(1/2) is about 1.3e408: human output prints its digits,
    # json and csv carry floats, so there it is a typed refusal.
    argv = ["polylog", "--s=-200.5", "--z", "0.5", "--precision", "extended:30", "--format", fmt]
    code, out, err = _run(capsys, argv)
    if fmt == "human":
        # all 30 digits: the correctly rounded value of 60-digit mpmath
        with mpmath.workdps(60):
            ref = mpmath.polylog(mpmath.mpf(-200.5), mpmath.mpf(0.5))
        assert (code, err) == (0, "")
        assert out.startswith(f"value: ({mpmath.nstr(ref, 30)} + 0.0j)\n")
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_args_file_with_later_flag_winning(tmp_path, capsys):
    # One argument per line; blank and # lines are skipped, and a flag
    # after the @file wins over the file's.
    args_file = tmp_path / "run.args"
    args_file.write_text("# a verify2 case\n--s=1\n\n--x\n0.3\n  --y=0.4  \n--format=csv\n")
    flags = ["--s=1", "--x=0.3", "--y=0.4"]
    code, out, err = _run(capsys, ["verify2", f"@{args_file}", "--format", "json"])
    assert (code, err) == (0, "")
    assert out == _run(capsys, ["verify2", *flags, "--format", "json"])[1]
    assert json.loads(out)["rel_err"] <= 1e-7
    code, out, err = _run(capsys, ["verify2", f"@{args_file}"])
    assert (code, err) == (0, "")
    assert out == _run(capsys, ["verify2", *flags, "--format", "csv"])[1]


def test_args_file_unknown_flag_or_missing_file_rejected(tmp_path, capsys):
    args_file = tmp_path / "run.args"
    args_file.write_text("--s=1\n--x=0.3\n--y=0.4\n--bogus=7\n")
    code, out, err = _run(capsys, ["verify2", f"@{args_file}"])
    assert (code, out, err) == (1, "", "error: unrecognized arguments: --bogus=7\n")
    # options keep their flag spelling in a file: no degree_cap key
    args_file.write_text("degree_cap = 5\n")
    code, out, err = _run(capsys, ["visible", f"@{args_file}"])
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: degree_cap = 5\n"
    missing = tmp_path / "missing.args"
    code, out, err = _run(capsys, ["verify2", f"@{missing}"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and str(missing) in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys,
        [
            "verify2",
            "--s",
            "1",
            "--x",
            "0.3",
            "--y",
            "0.4",
            "--format",
            "json",
            "--output",
            str(target),
        ],
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["rel_err"] <= 1e-7


@pytest.mark.parametrize("where", ["missing/out.txt", "."])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, where):
    # A missing directory, or a directory in place of a file, is the
    # caller's mistake: exit 1 with one error line, not exit 3.
    target = tmp_path / where
    code, out, err = _run(capsys, ["polylog", "--s", "2", "--z", ".5", "--output", str(target)])
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write output file {str(target)!r}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def _cx(v: complex) -> str:
    return f"{v.real!r}{'' if math.copysign(1, v.imag) < 0 else '+'}{v.imag!r}i"


@st.composite
def _contract_argv(draw):
    """verify2, verify3, polylog, scan or probe argv over wide orders,
    arguments, heights and tolerances, in every format, and for polylog
    in both precisions."""
    command = draw(st.sampled_from(["probe", "scan", "verify2", "verify3", "polylog"]))

    def order():
        return complex(draw(st.floats(-20, 20)), draw(st.floats(-60, 60)))

    def arg():
        r = draw(st.floats(0, 0.95 if command == "polylog" else 0.7))
        return cmath.rect(r, draw(st.floats(-math.pi, math.pi)))

    def some(values):
        return ",".join(map(repr, draw(st.lists(values, min_size=1, max_size=3))))

    if command == "scan":
        argv = [command, f"--T={some(st.floats(-1e3, 1e3))}", f"--x={_cx(arg())}", f"--y={_cx(arg())}"]
    elif command == "probe":
        # orders 2 .. 4 are the probe's; 1 and 5 are refused with exit 1
        argv = [command, f"--order={draw(st.integers(1, 5))}", f"--x={_cx(arg())}",
                f"--deltas={some(st.floats(0.01, 0.99))}"]
    else:
        names = {"verify2": "sxy", "verify3": "stxyz", "polylog": "sz"}[command]
        argv = [command] + [f"--{n}={_cx(order() if n in 'st' else arg())}" for n in names]
    argv.append(f"--tol={10 ** draw(st.floats(-14, -3))!r}")
    argv.append(f"--format={draw(st.sampled_from(['human', 'csv', 'json']))}")
    if command == "polylog":
        dps = draw(st.one_of(st.none(), st.integers(20, 40)))
        argv.append("--precision=double" if dps is None else f"--precision=extended:{dps}")
    return argv


# Orders at which the polylog stopping-index guess, the lattice weights
# a^-s, a right-side magnitude estimate, the extended guard bits, a
# phase Im(s) ln k or the negative-order floor leave the float range.
# Extreme orders, numbered: a case keeps its number (its test id) when
# it moves between the two tables.
_OVERFLOW_ARGV = {
    0: ["polylog", "--s=-1e308", "--z", "0.5"],
    1: ["polylog", "--s=-6.588739302961221e+307+976.0311053020514i", "--z=0.998"],
    2: ["polylog", "--s=-1e308", "--z", "0.5", "--precision", "extended:20"],
    6: ["verify2", "--s=1e308+1i", "--x=.5", "--y=.5"],
    7: ["polylog", "--s=1e308+1e308i", "--z=0.5", "--precision", "extended:20"],
    8: ["scan", "--T", "5e307"],
    9: ["polylog", "--s=0.5+9e307i", "--z=0.5"],
    10: ["verify2", "--s=1.501e308", "--x=.5", "--y=0.06481051124429528-0.04254761711361023i"],
    # x^a is tiny but nonzero, so the region reaches a = 3, where 3^800.5
    # leaves the float range
    11: ["verify2", "--s=-800.5", "--x=1e-300", "--y=0.3"],
}
# A zero argument kills every term of the product and one factor. The
# weight that leaves the float range (at a = 3) lies past the region of
# the level the cap search picks, whose one point has every coordinate 1.
_ZERO_ARGUMENT_ARGV = {
    3: ["verify2", "--s=-800.5", "--x=0", "--y=0.3"],
    4: ["verify2", "--s=1500.5", "--x=0.3", "--y=0"],
    5: ["verify3", "--s=-900.5", "--t=1", "--x=0", "--y=.3", "--z=.3"],
}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_contract_argv())
@example(["polylog", "--s", "2", "--z", ".5", "--output", "/nonexistent/dir/x"])
@example(["polylog", "--s", "2", "--z", ".5", "--output", "."])
@example(_OVERFLOW_ARGV[0])
@example(_OVERFLOW_ARGV[1])
@example(_OVERFLOW_ARGV[2])
@example(_ZERO_ARGUMENT_ARGV[3])
@example(_ZERO_ARGUMENT_ARGV[4])
@example(_ZERO_ARGUMENT_ARGV[5])
@example(_OVERFLOW_ARGV[6])
@example(_OVERFLOW_ARGV[7])
@example(_OVERFLOW_ARGV[8])
@example(_OVERFLOW_ARGV[9])
@example(_OVERFLOW_ARGV[10])
@example(_OVERFLOW_ARGV[11])
# tol/2 underflows to 0.0: a typed refusal naming the share, not exit 1
@example(["verify2", "--s=2", "--x=0.5", "--y=0.3", "--tol=5e-324"])
def test_cli_exit_code_contract(argv):
    # Legitimate input gets a value (exit 0) or a typed refusal (exit 1 or
    # 2), never an internal error; a refusal prints nothing on stdout and
    # exactly one error line on stderr. The same arguments read from an
    # @file give the same outcome.
    def call(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        return code, out.getvalue(), err.getvalue()

    code, out, err = outcome = call(argv)
    assert code in (0, 1, 2), (code, err)
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("\n")
    with tempfile.TemporaryDirectory() as tmp:
        args_file = Path(tmp, "case.args")
        args_file.write_text("".join(f"{arg}\n" for arg in argv[1:]))
        assert call([argv[0], f"@{args_file}"]) == outcome


@pytest.mark.parametrize("key", _OVERFLOW_ARGV, ids=[f"argv{k}" for k in _OVERFLOW_ARGV])
def test_overflow_at_extreme_orders_is_a_tolerance_error(capsys, key):
    # A typed refusal with one error line, not exit 1 from a NaN guess
    # or exit 3 from a bare OverflowError.
    code, out, err = _run(capsys, _OVERFLOW_ARGV[key])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if key == 11:
        # the refusal names the axis whose weight overflows, x at order
        # -800.5 with rows to a = 10, not the slow axis's 5204
        assert "-800.5" in err and "k <= 10" in err and "5204" not in err, err


@pytest.mark.parametrize("argv", _ZERO_ARGUMENT_ARGV.values(), ids=[f"argv{k}" for k in _ZERO_ARGUMENT_ARGV])
def test_a_zero_argument_at_extreme_orders_is_exactly_zero(capsys, argv):
    # The kernel builds each weight table only as far as its longest row,
    # so a weight past the float range that no point of the region needs
    # is never formed: both sides are exactly 0.
    code, out, err = _run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["lhs_log"] == report["rhs_log"] == {"re": 0.0, "im": 0.0}


@pytest.mark.parametrize("argv", [
    ["verify2", "--s=2", "--x=1e-320", "--y=1e-320"],
    ["verify3", "--s=2", "--t=1", "--x=1e-320", "--y=1e-320", "--z=1e-320"],
    ["verify2", "--s=2", "--x=1e-200", "--y=1e-200"],
])
def test_tiny_arguments_certify_with_the_least_tail_bound(capsys, argv):
    # Every term is below the float range, so both sides are 0. The shell
    # tail divided its floored power-geometric tail by the subnormal r
    # outside log space: exit 2 with "achievable bound is 0.000494..." at
    # 1e-320, and a bound of 4.9e-124 at 1e-200.
    code, out, err = _run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["lhs_log"] == report["rhs_log"] == {"re": 0.0, "im": 0.0}
    assert report["tail_bound"] == math.ulp(0.0)


@pytest.mark.parametrize("argv", [
    ["verify2", "--s=2", "--x=0.5", "--y=0.3", "--tol=5e-324"],  # tol/2 is 0.0
    ["verify2", "--s=2", "--x=0.5", "--y=0.3", "--tol=1e-323"],  # a factor's share is 0.0
    ["verify2", "--s=2", "--x=1", "--y=0.3", "--tol=1e-323"],
])
def test_an_underflowing_tolerance_share_is_a_tolerance_error(capsys, argv):
    # verify halves tol and rhs_factors divides each half among the
    # factors; a share that rounds to 0.0 cannot be met, and was refused
    # with exit 1 as if tol were not positive.
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: the tolerance share ") and err.count("error:") == 1
    assert err.endswith(" underflows to 0.0\n")


def test_tolerance_validation(capsys):
    code, _, err = _run(
        capsys, ["verify2", "--s", "1", "--x", "0.3", "--y", "0.4", "--tol", "-1"]
    )
    assert code == 1


_REPORT_CSV = "lhs_log_re,lhs_log_im,rhs_log_re,rhs_log_im,abs_err,rel_err,degree_cap,tail_bound,terms"
_REPORT_KEYS = ["lhs_log", "rhs_log", "abs_err", "rel_err", "degree_cap", "tail_bound", "terms"]
_REPORT_HUMAN = [f"{key}: " for key in _REPORT_KEYS]
_PROBE_ROW_KEYS = [
    "delta", "y", "lhs_log", "rhs_log", "abs_err", "rhs_exponent_magnitude",
    "closed_factor", "degree_cap", "tail_bound", "error",
]
_SERIES_HUMAN = ["value: ", "terms: ", "tail_bound: "]

# command: (flags, csv header, json keys (of each row, for a list), human line prefixes)
_SCHEMAS = {
    "verify2": (
        ["--s", "2", "--x", "0.5", "--y", "0.3"],
        "label," + _REPORT_CSV, _REPORT_KEYS, ["case: verify2"] + _REPORT_HUMAN,
    ),
    "verify3": (
        ["--s", "1", "--t", "1", "--x", "0.2", "--y", "0.2", "--z", "0.2"],
        "label," + _REPORT_CSV, _REPORT_KEYS, ["case: verify3"] + _REPORT_HUMAN,
    ),
    "catalog": (
        [], "label," + _REPORT_CSV, ["label"] + _REPORT_KEYS,
        [f"{c.label:14s} abs_err=" for c in catalog()],
    ),
    "scan": (
        ["--T", "0,5"],
        "T,lhs_log_re,lhs_log_im,rhs_log_re,rhs_log_im,abs_err,li_s_x_re,li_s_x_im,"
        "li_t_y_re,li_t_y_im,exponent_dev,degree_cap,tail_bound",
        ["T", "lhs_log", "rhs_log", "abs_err", "li_s_x", "li_t_y", "exponent_dev",
         "degree_cap", "tail_bound"],
        ["T=0            abs_err=", "T=5            abs_err="],
    ),
    "probe": (
        ["--deltas", "0.5,0.0005"],
        "delta,y,lhs_log_re,lhs_log_im,rhs_log_re,rhs_log_im,abs_err,"
        "rhs_exponent_magnitude,closed_factor_re,closed_factor_im,degree_cap,tail_bound,error",
        ["order", "rows", "note"],
        ["delta=0.5      abs_err=", "delta=0.0005   error: DomainError: ", "", "note: The "],
    ),
    "audit": (
        [],
        "name,verdict,printed_re,printed_im,series_re,series_im,discrepancy,"
        "corrected_re,corrected_im,corrected_formula,note",
        ["name", "verdict", "printed_form_value", "series_value", "discrepancy",
         "candidate_corrected_value", "corrected_formula", "note"],
        ["LI1_HALF  MATCHES_PRINTED   discrepancy=", "LI2_HALF  MATCHES_PRINTED   discrepancy=",
         "LI3_HALF  MATCHES_CORRECTED discrepancy=", "LI4_HALF  MATCHES_CORRECTED discrepancy="],
    ),
    "ez31": ([], "value,terms,tail_bound", ["value", "terms", "tail_bound"], _SERIES_HUMAN),
    "visible": (
        ["--degree-cap", "4"], "a,b", ["dimension", "degree_cap", "points"],
        ["1 1", "1 2", "2 1", "1 3", "3 1"],
    ),
    "polylog": (
        ["--s", "2", "--z", "0.5"], "value_re,value_im,terms,tail_bound",
        ["value", "terms", "tail_bound"], _SERIES_HUMAN,
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json", "human"])
@pytest.mark.parametrize("command", list(_SCHEMAS))
def test_output_schema(capsys, command, fmt):
    flags, header, keys, human = _SCHEMAS[command]
    code, out, err = _run(capsys, [command, *flags, "--format", fmt])
    assert (code, err) == (0, "")
    if fmt == "csv":
        assert out.split("\n")[0] == header
        # an errored probe row still fills both cells of each complex column
        data = [line for line in out.splitlines() if not line.startswith("#")]
        assert {len(row) for row in csv.reader(data)} == {header.count(",") + 1}
    elif fmt == "json":
        payload = json.loads(out)
        rows = payload if isinstance(payload, list) else [payload]
        assert [list(row) for row in rows] == [keys] * len(rows)
        if command == "probe":
            assert [list(row) for row in payload["rows"]] == [_PROBE_ROW_KEYS] * 2
    else:
        lines = out.split("\n")
        assert lines[-1] == ""
        assert len(lines) - 1 == len(human)
        for line, prefix in zip(lines, human):
            assert line.startswith(prefix)


def _invoke(capsys, argv, target):
    """stdout, stderr, exit code (or SystemExit code) and the --output file
    of one main() call; the file is removed afterwards."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    written = target.read_text() if target.exists() else None
    if written is not None:
        target.unlink()
    return code, captured.out, captured.err, written


def test_reused_parser_matches_fresh_parser(tmp_path, capsys):
    # main() builds the parser once per process. Every call through the
    # reused parser must print what a freshly built one prints.
    args_file = tmp_path / "run.args"
    args_file.write_text("--s=1\n--x=0.3\n--y=0.4\n")
    bad_args_file = tmp_path / "bad.args"
    bad_args_file.write_text("--s=1\n--bogus=7\n")
    target = tmp_path / "out.txt"
    verify = ["verify2", "--s", "1", "--x", "0.3", "--y", "0.4"]
    argvs = [
        [],
        ["--help"],
        verify,
        ["verify2", "--s", "1"],
        ["frobnicate"],
        verify + ["--format", "json"],
        ["ez31", "--help"],
        ["verify2", f"@{args_file}", "--format", "csv"],
        ["verify2", f"@{bad_args_file}"],
        ["ez31", "--tol", "1e-20"],
        verify + ["--format", "csv"],
        ["polylog", "--s", "2", "--z", "0.5", "--bogus", "1"],
        verify + ["--format", "json", "--output", str(target)],
        ["visible", "--dimension", "3", "--degree-cap", "5", "--format", "csv"],
        ["polylog", "--s", "2", "--z", "0.5", "--format", "json"],
        ["ez31", "--tol", "1e-8"],
        [],
        ["verify2", "--s=2", "--s-re=1", "--x", "0.3", "--y", "0.4"],
        verify,
    ]
    fresh = []
    for argv in argvs:
        _build_parser.cache_clear()
        fresh.append(_invoke(capsys, argv, target))
    _build_parser.cache_clear()
    reused = [_invoke(capsys, argv, target) for argv in argvs]
    assert _build_parser.cache_info().misses == 1
    for argv, want, got in zip(argvs, fresh, reused):
        assert got == want, argv
    codes = [r[0] for r in reused]
    assert codes.count(0) == 9 and codes.count(1) == 8
    assert codes.count(("SystemExit", 0)) == 2
    assert reused[12][3] is not None  # --output wrote the file


_WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py"))


def _dispatch_argvs(tmp_path):
    """Every argv of the cli benchmark batch at seeds 1-3 and its pinned
    defects, then argv at the edges of the direct dispatch."""
    command_file = tmp_path / "command.args"
    command_file.write_text("verify2\n--s=2\n# the case\n\n--x=0.5\n--y=0.3\n")
    flags_file = tmp_path / "flags.args"
    flags_file.write_text("--s=2\n--x=0.5\n--y=0.3\n")
    verify = ["verify2", "--s=2", "--x=0.5", "--y=0.3"]
    ops = [op for seed in (1, 2, 3) for op in _WORKLOADS["cli_ops"](seed)]
    return [list(op.argv) for op in ops + _WORKLOADS["pinned_defects"]()] + [
        [], ["-h"], ["verify2", "-h"], ["nosuch"], ["nosuch", "--s=2"],
        [f"@{command_file}"], [f"@{command_file}", "--format", "json"],
        ["verify2", f"@{flags_file}"], ["visible", "--deg=5"], verify + ["--to=1e-9"],
        ["verify2", "--s", "2", "--x", "0.5", "--y", "0.3"],
        ["verify2", "--s=2", "--x=0.5", "--", "--y=0.3"],
        verify + ["--bogus=1"], ["verify2", "--x=0.5", "--y=0.3"],
    ]


def test_direct_dispatch_matches_the_top_level_parser(tmp_path, capsys, monkeypatch):
    argvs = _dispatch_argvs(tmp_path)
    target = tmp_path / "out.txt"
    direct = [_invoke(capsys, argv, target) for argv in argvs]
    # with no subcommand parser to go to, every argv takes the top-level pass
    monkeypatch.setattr(_build_parser(), "commands", {})
    full = [_invoke(capsys, argv, target) for argv in argvs]
    for argv, want, got in zip(argvs, full, direct):
        assert got == want, argv
    assert {r[0] for r in direct} >= {0, 1, 2, ("SystemExit", 0)}


def test_a_command_argv_skips_the_top_level_parser(capsys, monkeypatch):
    parser = _build_parser()
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return parse_known_args(*args, **kwargs)

    parse_known_args = parser.parse_known_args
    monkeypatch.setattr(parser, "parse_known_args", spy)
    assert _run(capsys, ["visible", "--degree-cap", "3"]) == (0, "1 1\n1 2\n2 1\n", "")
    assert _run(capsys, ["verify2", "--s=2"])[0] == 1
    assert calls == []
    with pytest.raises(SystemExit):
        main(["-h"])
    assert capsys.readouterr().out.startswith("usage: vpvlab [-h] command ...")
    assert len(calls) == 1
