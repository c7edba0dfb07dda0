"""End-to-end command-line tests driven through main(argv)."""

import csv
import json

import pytest

from vpvlab import catalog
from vpvlab.cli import _build_parser, main


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
    whole = ["scan", "--T", "14.134725", "--format", "json"]
    code_a, out_a, _ = _run(capsys, whole)
    assert code_a == 0
    code_b, out_b, _ = _run(
        capsys,
        ["verify2", "--s", "0.5+14.134725i", "--x", "0.2", "--y", "0.2", "--format", "json"],
    )
    code_c, out_c, _ = _run(
        capsys,
        [
            "verify2",
            "--s-re",
            "0.5",
            "--s-im",
            "14.134725",
            "--x",
            "0.2",
            "--y",
            "0.2",
            "--format",
            "json",
        ],
    )
    assert code_b == code_c == 0
    assert json.loads(out_b) == json.loads(out_c)


def test_conflicting_complex_forms_rejected(capsys):
    code, _, err = _run(
        capsys,
        ["verify2", "--s", "1", "--s-re", "1", "--x", "0.3", "--y", "0.4"],
    )
    assert code == 1
    assert "--s" in err


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
    code, _, err = _run(
        capsys,
        [
            "verify2",
            "--s",
            "1",
            "--x",
            "0.9",
            "--y",
            "0.995",
            "--tol",
            "1e-10",
            "--degree-cap-max",
            "60",
        ],
    )
    assert code == 2
    assert err


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
    # n = 170 on: a typed refusal, not exit 3 (nor a RecursionError while
    # building P_500).
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


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


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 1\nx = 0.3\ny = 0.4\nformat = csv\n# comment line\n")
    code, out, _ = _run(
        capsys, ["verify2", "--config", str(cfg), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)  # flag wins over config's csv
    assert payload["rel_err"] <= 1e-7


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 1\nx = 0.3\ny = 0.4\nbogus = 7\n")
    code, _, err = _run(capsys, ["verify2", "--config", str(cfg)])
    assert code == 1
    assert "bogus" in err


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
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 1\nx = 0.3\ny = 0.4\n")
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("s = 1\nbogus = 7\n")
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
        ["verify2", "--config", str(cfg), "--format", "csv"],
        ["verify2", "--config", str(bad_cfg)],
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
