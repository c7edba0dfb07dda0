"""Command-line front end for identity verification, scans, probes,
audits, and lattice enumeration, with JSON/CSV/human output.

Exit codes: 0 success; 1 usage, domain, or validation error; 2
tolerance unachievable (tail bound, non-convergence, an overflowing or
non-finite evaluation, or a verify2/verify3 error above 3*tol); 3
internal error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

from .errors import ComputationError, DomainError, NonConvergence, TailBoundExceedsTol
from .explorer import (
    DEFAULT_T_VALUES,
    audit_special_values,
    critical_line_scan,
    euler_zagier_31,
    run_catalog,
    trivial_zero_probe,
)
from .lattice import visible_points_2d, visible_points_3d
from .numerics import require_finite
from .polylog import polylog
from .products import IdentityCase, IdentityReport, verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_INTERNAL = 3

_DEFAULT_DELTAS = (0.5, 0.4, 0.3, 0.2)


class _UsageError(Exception):
    pass


class _NotVerified(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must map to exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# value parsing
# ---------------------------------------------------------------------------

def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise _UsageError(f"cannot parse complex value {text!r}; use forms like 0.5, -2+3i")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise _UsageError(f"complex value {text!r} must be finite")
    return value


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _UsageError(f"cannot parse number {text!r}")
    if not math.isfinite(value):
        raise _UsageError(f"number {text!r} must be finite")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"cannot parse integer {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise _UsageError(f"empty number list {text!r}")
    return tuple(_parse_float(p) for p in parts)


def _parse_precision(text: str) -> Optional[int]:
    if text == "double":
        return None
    if text.startswith("extended:"):
        digits = _parse_int(text[len("extended:"):])
        if digits < 1:
            raise _UsageError("extended precision digits must be >= 1")
        return digits
    raise _UsageError(
        f"cannot parse precision {text!r}; use 'double' or 'extended:<digits>'"
    )


def _parse_format(text: str) -> str:
    if text not in ("json", "csv", "human"):
        raise _UsageError(f"format must be json, csv, or human, got {text!r}")
    return text


# ---------------------------------------------------------------------------
# option schema: one row per flag, shared by argparse, config files, and
# defaulting (flag > config > default)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Opt:
    name: str  # config key / dest, e.g. "degree_cap"
    parse: Callable[[str], object]  # flag or config text -> value
    default: object = None
    required: bool = False
    help: str = ""


@dataclass(frozen=True)
class _Command:
    help: str  # the subcommand's one-line help and description
    run: Callable[[dict], str]  # resolved options -> output text
    opts: tuple[_Opt, ...]


_COMMON = (
    _Opt("format", _parse_format, "human", help="output format: json, csv, or human"),
    _Opt("output", str, None, help="write output to this path instead of stdout"),
)
# (each command's own options are in _COMMANDS, after the subcommand bodies)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and reused by every
    later main() in the process: parsing does not change it."""
    parser = _Parser(
        prog="vpvlab",
        description=(
            "Evaluate complex-order polylogarithms and verify visible-point "
            "lattice product identities with certified truncation bounds."
        ),
        epilog=(
            "Complex flags accept a+bi syntax (use --s=-2-3i for negative "
            "values). A --config file supplies the same options as flat "
            "key = value lines, each key the option's name with _ for - "
            "(degree_cap = 30); flags win."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        for opt in command.opts + _COMMON:
            p.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name, default=None,
                           help=opt.help, metavar="V")
        p.add_argument("--config", dest="config", default=None, metavar="PATH",
                       help="flat key = value file supplying any of the above options")
    return parser


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path!r}: {exc}")
    out: dict[str, str] = {}
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{i}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _resolve_options(args: argparse.Namespace, command: str) -> dict:
    config = _load_config(args.config) if args.config else {}
    opts = _COMMANDS[command].opts + _COMMON
    unknown = sorted(set(config) - {opt.name for opt in opts})
    if unknown:
        raise _UsageError(
            f"unknown config key(s) for {command}: {', '.join(unknown)}; "
            f"the keys are {', '.join(opt.name for opt in opts)}"
        )
    resolved: dict = {}
    for opt in opts:
        text = getattr(args, opt.name)
        if text is None:
            text = config.get(opt.name)
        if text is not None:
            resolved[opt.name] = opt.parse(text)
        elif opt.required:
            raise _UsageError(f"--{opt.name.replace('_', '-')} is required (flag or config)")
        else:
            resolved[opt.name] = opt.default
    return resolved


def _validate_common(res: dict) -> None:
    if "tol" in res and not res["tol"] > 0:
        raise DomainError(f"tol must be positive, got {res['tol']!r}")


# ---------------------------------------------------------------------------
# rendering: a record is one output row, ordered (column, value,
# is_complex) triples; json and csv flatten every record the same way
# ---------------------------------------------------------------------------

def _fmt_complex(v: complex) -> str:
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real!r} {sign} {abs(v.imag)!r}i"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _json_record(record) -> dict:
    return {name: {"re": v.real, "im": v.imag} if cx and v is not None else v
            for name, v, cx in record}


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]],
              comments: Sequence[str] = ()) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue() + "".join(f"# {comment}\n" for comment in comments)


# csv stems of the audit's complex columns
_CSV_STEMS = {
    "printed_form_value": "printed",
    "series_value": "series",
    "candidate_corrected_value": "corrected",
}


def _csv_records(records, comments: Sequence[str] = ()) -> str:
    """A complex column becomes <stem>_re,<stem>_im; None becomes empty cells,
    as the csv module writes it."""
    header = []
    for name, _, cx in records[0]:
        stem = _CSV_STEMS.get(name, name)
        header += [f"{stem}_re", f"{stem}_im"] if cx else [name]
    rows = []
    for record in records:
        row = []
        for _, v, cx in record:
            if not cx:
                row.append(v)
            else:
                row += [None, None] if v is None else [v.real, v.imag]
        rows.append(row)
    return _csv_text(header, rows, comments)


def _human_line(line: str, record) -> str:
    values = {name: _fmt_complex(v) if cx and v is not None else v for name, v, cx in record}
    return line.format(**values) + "\n"


def _render(fmt: str, records, line: Optional[str] = None) -> str:
    """Render a table of records, or one result when no human line is given.

    A single result is a JSON object and `key: value` lines; a table is
    a JSON list and one formatted line per record.
    """
    if fmt == "json":
        dicts = [_json_record(r) for r in records]
        return _json_text(dicts if line else dicts[0])
    if fmt == "csv":
        return _csv_records(records)
    if line:
        return "".join(_human_line(line, r) for r in records)
    text = ""
    for name, v, cx in records[0]:
        if cx:
            v = _fmt_complex(v)
        text += f"{name}: {v if isinstance(v, str) else repr(v)}\n"
    return text


def _fields_record(row, **names):
    """A result dataclass as a record: one column per field, in field order,
    renamed by `names`. A field is complex when its annotation names
    complex, so a None value still gets its two csv columns."""
    return [(names.get(f.name, f.name), getattr(row, f.name), "complex" in str(f.type))
            for f in fields(row)]


def _report_record(r: IdentityReport):
    return [
        ("lhs_log", r.lhs_log, True),
        ("rhs_log", r.rhs_log, True),
        ("abs_err", r.abs_err, False),
        ("rel_err", r.rel_err, False),
        ("degree_cap", r.degree_cap, False),
        ("tail_bound", r.tail_bound, False),
        ("terms", r.terms, False),
    ]


def _series_record(value, result):
    # value: complex for polylog, float for ez31, or the digit string of
    # an extended-precision polylog in human output
    return [
        ("value", value, isinstance(value, complex)),
        ("terms", result.terms_used, False),
        ("tail_bound", result.tail_bound, False),
    ]


_CATALOG_LINE = ("{label:14s} abs_err={abs_err:.3e} rel_err={rel_err:.3e} "
                 "degree_cap={degree_cap} tail_bound={tail_bound:.3e} terms={terms}")
_SCAN_LINE = ("T={T:<12g} abs_err={abs_err:.3e} exponent_dev={exponent_dev:.3e} "
              "lhs_log={lhs_log} degree_cap={degree_cap}")
_PROBE_LINE = ("delta={delta:<8g} abs_err={abs_err:.3e} "
               "|rhs_log|={rhs_exponent_magnitude:.6e} degree_cap={degree_cap}")
_PROBE_ERROR_LINE = "delta={delta:<8g} error: {error}"
_AUDIT_LINE = "{name:9s} {verdict:17s} discrepancy={discrepancy:.3e}  {note}"


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _verified(case: IdentityCase, res: dict) -> str:
    report = verify(case, res["tol"])
    if not report.passed:
        raise _NotVerified(
            f"abs_err {report.abs_err!r} exceeds 3*tol = {3 * res['tol']!r} "
            f"(tail_bound {report.tail_bound!r}); the identity is not verified"
        )
    fmt = res["format"]
    # the label is a csv column and the human "case" line, not a json key
    label = {"json": [], "csv": [("label", case.label, False)],
             "human": [("case", case.label, False)]}[fmt]
    return _render(fmt, [label + _report_record(report)])


def _cmd_verify2(res: dict) -> str:
    return _verified(IdentityCase(2, res["s"], res["x"], res["y"], label="verify2"), res)


def _cmd_verify3(res: dict) -> str:
    case = IdentityCase(3, res["s"], res["x"], res["y"], t=res["t"], z=res["z"], label="verify3")
    return _verified(case, res)


def _cmd_catalog(res: dict) -> str:
    reports = run_catalog(res["tol"])
    records = [[("label", r.case.label, False)] + _report_record(r) for r in reports]
    return _render(res["format"], records, _CATALOG_LINE)


def _cmd_scan(res: dict) -> str:
    rows = critical_line_scan(res["T"], res["x"], res["y"], res["tol"])
    records = [_fields_record(r, t_value="T") for r in rows]
    return _render(res["format"], records, _SCAN_LINE)


def _cmd_probe(res: dict) -> str:
    rows, note = trivial_zero_probe(res["order"], res["x"], res["deltas"], tol=res["tol"])
    records = [_fields_record(r) for r in rows]
    if res["format"] == "json":
        rows_json = [_json_record(r) for r in records]
        return _json_text({"order": res["order"], "rows": rows_json, "note": note})
    if res["format"] == "csv":
        return _csv_records(records, [f"note: {note}"])
    lines = [
        _human_line(_PROBE_LINE if r.error is None else _PROBE_ERROR_LINE, record)
        for r, record in zip(rows, records)
    ]
    return "".join(lines) + f"\nnote: {note}\n"


def _cmd_audit(res: dict) -> str:
    records = [_fields_record(r) for r in audit_special_values(res["tol"], dps=res["precision"])]
    return _render(res["format"], records, _AUDIT_LINE)


def _cmd_ez31(res: dict) -> str:
    result = euler_zagier_31(res["tol"])
    return _render(res["format"], [_series_record(result.value, result)])


def _cmd_visible(res: dict) -> str:
    dimension = res["dimension"]
    cap = res["degree_cap"]
    # Looked up in the module globals at each call: bench/run.py counts
    # points by patching these two names (ROADMAP item 1).
    enumerate_points = {2: visible_points_2d, 3: visible_points_3d}.get(dimension)
    if enumerate_points is None:
        raise DomainError(f"dimension must be 2 or 3, got {dimension!r}")
    points = list(enumerate_points(cap))
    header = ("a", "b", "c")[:dimension]
    if res["format"] == "json":
        return _json_text({"dimension": dimension, "degree_cap": cap,
                           "points": [list(p) for p in points]})
    if res["format"] == "csv":
        return _csv_text(header, points)
    return "\n".join(" ".join(str(c) for c in p) for p in points) + "\n"


def _cmd_polylog(res: dict) -> str:
    result = polylog(res["s"], res["z"], res["tol"], dps=res["precision"])
    if res["precision"] is not None and res["format"] == "human":
        import mpmath

        # extended mode: print all computed digits, not the ambient default
        value = mpmath.nstr(result.value, res["precision"])
    else:
        # json and csv carry floats: a value past their range is an error
        value = require_finite(complex(result.value), "polylog")
    return _render(res["format"], [_series_record(value, result)])


# the command set, read by the parser, option resolution and dispatch
_COMMANDS: dict[str, _Command] = {
    "verify2": _Command("verify a 2D product identity with orders (s, 1-s)", _cmd_verify2, (
        _Opt("s", _parse_complex, required=True, help="leading order s (a+bi); the second order is 1-s"),
        _Opt("x", _parse_complex, required=True, help="first argument; x=1 switches to the zeta mode"),
        _Opt("y", _parse_complex, required=True, help="second argument, |y| < 1"),
        _Opt("tol", _parse_float, 1e-8, help="target tolerance for both sides"),
    )),
    "verify3": _Command("verify a 3D product identity with orders (s, t, 1-s-t)", _cmd_verify3, (
        _Opt("s", _parse_complex, required=True, help="first order s (a+bi)"),
        _Opt("t", _parse_complex, required=True, help="second order t; the third order is 1-s-t"),
        _Opt("x", _parse_complex, required=True, help="first argument, |x| < 1"),
        _Opt("y", _parse_complex, required=True, help="second argument, |y| < 1"),
        _Opt("z", _parse_complex, required=True, help="third argument, |z| < 1"),
        _Opt("tol", _parse_float, 1e-8, help="target tolerance for both sides"),
    )),
    "catalog": _Command("verify every named identity instance", _cmd_catalog, (
        _Opt("tol", _parse_float, 1e-8, help="tolerance applied to every catalog case"),
    )),
    "scan": _Command("verify along the critical line s = 1/2 + iT", _cmd_scan, (
        _Opt("T", _parse_float_list, tuple(DEFAULT_T_VALUES),
             help="comma-separated T values for s = 1/2 + iT"),
        _Opt("x", _parse_complex, complex(0.2), help="first argument"),
        _Opt("y", _parse_complex, complex(0.2), help="second argument"),
        _Opt("tol", _parse_float, 1e-8, help="per-row tolerance"),
    )),
    "probe": _Command("verify near y = 1 at a negative integer order", _cmd_probe, (
        _Opt("order", _parse_int, 3, help="positive order (2, 3, or 4); the probed factor has order 1-order"),
        _Opt("x", _parse_complex, complex(0.5), help="first argument, held fixed"),
        _Opt("deltas", _parse_float_list, _DEFAULT_DELTAS, help="comma-separated deltas; y = 1 - delta"),
        _Opt("tol", _parse_float, 1e-8, help="per-row tolerance"),
    )),
    "audit": _Command("check printed half-argument constants against the series", _cmd_audit, (
        _Opt("tol", _parse_float, 1e-12, help="tolerance for accepting a printed form"),
        _Opt("precision", _parse_precision, None, help="'double' or 'extended:<digits>'"),
    )),
    "ez31": _Command("evaluate the alternating double zeta sum", _cmd_ez31, (
        _Opt("tol", _parse_float, 1e-10, help="certified bound target (>= 1e-14)"),
    )),
    "visible": _Command("list visible lattice points up to a coordinate sum", _cmd_visible, (
        _Opt("dimension", _parse_int, 2, help="2 or 3"),
        _Opt("degree_cap", _parse_int, 30, help="maximum coordinate sum"),
    )),
    "polylog": _Command("evaluate one polylogarithm value", _cmd_polylog, (
        _Opt("s", _parse_complex, required=True, help="order (a+bi)"),
        _Opt("z", _parse_complex, required=True, help="argument, |z| < 1"),
        _Opt("tol", _parse_float, 1e-12, help="certified truncation bound target"),
        _Opt("precision", _parse_precision, None, help="'double' or 'extended:<digits>'"),
    )),
}


def _run(argv: Optional[Sequence[str]]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    res = _resolve_options(args, args.command)
    _validate_common(res)
    text = _COMMANDS[args.command].run(res)
    if res["output"]:
        try:
            with open(res["output"], "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write output file {res['output']!r}: {exc}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TailBoundExceedsTol, NonConvergence, ComputationError, _NotVerified) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
