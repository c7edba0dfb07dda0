"""Command-line front end for identity verification, scans, probes,
audits, and lattice enumeration, with JSON/CSV/human output.

Exit codes: 0 success; 1 usage, domain, or validation error; 2
tolerance unachievable (tail bound, non-convergence, an overflowing or
non-finite evaluation, or a verify2/verify3, catalog or scan error above
3*tol) or a `visible` degree cap past the work budget; 3 internal error.
"""
from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import json
import math
import sys
from itertools import islice, starmap
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

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
from .products import _WORK_BUDGET, IdentityCase, IdentityReport, _budget_level, verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_INTERNAL = 3

_DEFAULT_DELTAS = (0.5, 0.4, 0.3, 0.2)
_CHUNK_POINTS = 1024  # visible points per chunk of written output


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must map to exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)

    # an @file holds one argument per line; blank and # lines are skipped
    def convert_arg_line_to_args(self, arg_line):
        arg = arg_line.strip()
        return [arg] if arg and not arg.startswith("#") else []


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
# option schema: one row per flag; argparse parses and defaults each one
# ---------------------------------------------------------------------------

class _Opt(NamedTuple):
    name: str  # dest, e.g. "degree_cap" for --degree-cap
    parse: Callable[[str], object]  # flag text -> value
    default: object = None
    required: bool = False
    help: str = ""


class _Command(NamedTuple):
    help: str  # the subcommand's one-line help and description
    run: Callable[[dict], str]  # resolved options -> output text (visible: its chunks)
    opts: tuple[_Opt, ...]


_COMMON = (
    _Opt("format", _parse_format, "human", help="output format: json, csv, or human"),
    _Opt("output", str, None, help="write output to this path instead of stdout"),
)
# (each command's own options are in _COMMANDS, after the subcommand bodies)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and reused by every
    later main() in the process: parsing does not change it. Its
    `commands` maps each subcommand's name to the subcommand's own
    parser, which expands @PATH arguments too, so that _run can hand an
    argv that starts with a command straight to it."""
    parser = _Parser(
        prog="vpvlab",
        description=(
            "Evaluate complex-order polylogarithms and verify visible-point "
            "lattice product identities with certified truncation bounds."
        ),
        epilog=(
            "Complex flags accept a+bi syntax (use --s=-2-3i for negative "
            "values). An @PATH argument reads more arguments from a file, one "
            "per line (blank and # lines skipped); a later argument wins."
        ),
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    parser.commands = {}
    for name, command in _COMMANDS.items():
        p = parser.commands[name] = sub.add_parser(
            name, help=command.help, description=command.help, fromfile_prefix_chars="@")
        for opt in command.opts + _COMMON:
            p.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name, type=opt.parse,
                           default=opt.default, help=opt.help, metavar="V")
    return parser


# ---------------------------------------------------------------------------
# rendering: a record is one output row, ordered (column, value,
# is_complex) triples; json and csv flatten every record the same way
# ---------------------------------------------------------------------------

def _fmt_complex(v: complex) -> str:
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real!r} {sign} {abs(v.imag)!r}i"


def _fmt_extended(v, digits: int) -> str:
    """An extended-precision complex value as (re + imj), each part rounded
    half up to `digits` significant digits, as mpmath.nstr prints an mpc."""
    im = _fmt_digits(v.imag.copy_abs(), digits)
    return f"({_fmt_digits(v.real, digits)} {'-' if v.imag < 0 else '+'} {im}j)"


def _fmt_digits(x, digits: int) -> str:
    """A Decimal x at `digits` significant digits, rounded half up, with
    trailing zeros cut but one: positional while the leading digit's
    exponent lies strictly between min(-(digits // 3), -5) and digits,
    else d.ddde+N. For a value of working_bits(digits) bits this is what
    mpmath.nstr prints."""
    if not x:
        return "0.0"
    context = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_UP,
                              Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    x = context.plus(x)
    sign, coefficient, _ = x.as_tuple()
    point = x.adjusted()
    text = "".join(map(str, coefficient)).ljust(digits, "0")
    if min(-(digits // 3), -5) < point < digits:
        text = "0" * -point + text if point < 0 else text.ljust(point + 1, "0")
        split, point = max(point, 0) + 1, 0
    else:
        split = 1
    text = (text[:split] + "." + text[split:]).rstrip("0")
    text = "-" * sign + text + ("0" if text.endswith(".") else "")
    return text if point == 0 else f"{text}e{point:+d}"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _json_record(record) -> dict:
    return {name: {"re": v.real, "im": v.imag} if cx and v is not None else v
            for name, v, cx in record}


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue() + "".join(f"# {comment}\n" for comment in comments)


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


@functools.cache
def _complex_flags(record_type) -> tuple[bool, ...]:
    """For each field of a result NamedTuple type, in field order, whether
    its annotation names complex (a ForwardRef, whose str holds the
    annotation's text)."""
    return tuple("complex" in str(record_type.__annotations__[name])
                 for name in record_type._fields)


def _fields_record(row, skip=(), **names):
    """A result NamedTuple as a record: one column per field not in
    `skip`, in field order, renamed by `names`. A field is complex by its
    annotation (_complex_flags), so a None value still gets its two csv
    columns."""
    return [(names.get(name, name), value, cx)
            for name, value, cx in zip(row._fields, row, _complex_flags(type(row)))
            if name not in skip]


def _report_record(report: IdentityReport):
    return _fields_record(report, skip=("case", "tol", "rhs_factors"))


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

def _verified(res: dict) -> str:
    # verify3 resolves t and z; verify2 has neither option
    dimension = 3 if "z" in res else 2
    case = IdentityCase(dimension, res["s"], res["x"], res["y"], t=res.get("t"), z=res.get("z"),
                        label=f"verify{dimension}")
    report = verify(case, res["tol"]).require_passed()
    fmt = res["format"]
    # the label is a csv column and the human "case" line, not a json key
    label = {"json": [], "csv": [("label", case.label, False)],
             "human": [("case", case.label, False)]}[fmt]
    return _render(fmt, [label + _report_record(report)])


def _cmd_catalog(res: dict) -> str:
    reports = run_catalog(res["tol"])
    for r in reports:  # each row is held to verify2's verdict, abs_err <= 3 * tol
        try:
            r.require_passed()
        except ComputationError as exc:
            raise ComputationError(f"catalog row {r.case.label}: {exc}") from None
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


def _cmd_visible(res: dict) -> Iterator[str]:
    dimension = res["dimension"]
    cap = res["degree_cap"]
    # Looked up in the module globals at each call: bench/run.py counts
    # points by patching these two names (ROADMAP item 1).
    enumerate_points = {2: visible_points_2d, 3: visible_points_3d}.get(dimension)
    if enumerate_points is None:
        raise DomainError(f"dimension must be 2 or 3, got {dimension!r}")
    # Checked here, before anything is written, not as the chunks are made:
    # a cap past the kernel's level limit at equal moduli lists for minutes.
    limit = _budget_level(dimension)
    if cap > limit:
        raise ComputationError(
            f"degree cap {cap} is past {limit}, the largest whose {dimension}D region fits "
            f"the work budget of {_WORK_BUDGET:.0e} lattice points"
        )
    points = iter(enumerate_points(cap))
    if res["format"] == "json":
        # json.dumps(payload, indent=2) + "\n", built directly: json.dumps
        # with an indent runs the pure-Python encoder, at about three
        # times the cost
        head = f'{{\n  "dimension": {dimension},\n  "degree_cap": {cap},\n  "points": '
        point = "    [\n" + ",\n".join(["      {}"] * dimension) + "\n    ]"
        return _listing(points, point, ",\n", head + "[\n", "\n  ]\n}\n", head + "[]\n}\n")
    if res["format"] == "csv":
        # what the csv module writes: an int is never quoted
        header = ",".join("abc"[:dimension]) + "\n"
        return _listing(points, ",".join(["{}"] * dimension) + "\n", "", header, "", header)
    return _listing(points, " ".join(["{}"] * dimension) + "\n", "", "", "", "\n")


def _listing(points: Iterator[tuple], point: str, sep: str, head: str, tail: str,
             empty: str) -> Iterator[str]:
    """head, each point formatted by `point` and joined by `sep`, then
    tail, in chunks of _CHUNK_POINTS points; `empty` alone when there is
    no point. Only one chunk's text is held at a time."""
    chunk = sep.join(starmap(point.format, islice(points, _CHUNK_POINTS)))
    if not chunk:
        yield empty
        return
    yield head + chunk
    while chunk := sep.join(starmap(point.format, islice(points, _CHUNK_POINTS))):
        yield sep + chunk
    yield tail


def _cmd_polylog(res: dict) -> str:
    result = polylog(res["s"], res["z"], res["tol"], dps=res["precision"])
    if res["precision"] is not None and res["format"] == "human":
        # extended mode: print all computed digits, not the ambient default
        value = _fmt_extended(result.value, res["precision"])
    else:
        # json and csv carry floats: a value past their range is an error
        value = require_finite(complex(result.value), "polylog")
    return _render(res["format"], [_series_record(value, result)])


# the command set, read by the parser and dispatch
_COMMANDS: dict[str, _Command] = {
    "verify2": _Command("verify a 2D product identity with orders (s, 1-s)", _verified, (
        _Opt("s", _parse_complex, required=True, help="leading order s (a+bi); the second order is 1-s"),
        _Opt("x", _parse_complex, required=True, help="first argument; x=1 switches to the zeta mode"),
        _Opt("y", _parse_complex, required=True, help="second argument, |y| < 1"),
        _Opt("tol", _parse_float, 1e-8, help="target tolerance for both sides"),
    )),
    "verify3": _Command("verify a 3D product identity with orders (s, t, 1-s-t)", _verified, (
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
    """Parse argv, run its subcommand and write what it returns: one
    string, or (from `visible`) chunks written as they are produced.

    An argv that starts with a subcommand's name goes straight to that
    subcommand's parser. The top-level pass would only match the name and
    hand every later argument on to the same parser, so the result, help
    and error text are the same. Any other argv (empty, -h, an @PATH
    first argument, an unknown command) goes through the top-level
    parser."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    res = vars(args)
    # checked here, not by argparse's required=, so that an unrecognized
    # flag is reported before a missing one
    for opt in _COMMANDS[args.command].opts:
        if opt.required and res[opt.name] is None:
            raise _UsageError(f"--{opt.name.replace('_', '-')} is required")
    if "tol" in res and not res["tol"] > 0:
        raise DomainError(f"tol must be positive, got {res['tol']!r}")
    text = _COMMANDS[args.command].run(res)
    chunks = (text,) if isinstance(text, str) else text
    if res["output"]:
        try:
            with open(res["output"], "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise _UsageError(f"cannot write output file {res['output']!r}: {exc}")
    else:
        sys.stdout.writelines(chunks)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TailBoundExceedsTol, NonConvergence, ComputationError) as exc:
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
