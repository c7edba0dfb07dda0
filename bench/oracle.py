"""Independent reference values and per-operation verdicts.

References are 30-digit mpmath values of the polylogarithm, zeta and
their products. Nothing here imports vpvlab: the checks read only the
plain inputs of an operation and the numbers the program returned or
printed.

Failure criteria (see bench/README.md):
- verify: it raised, abs_err > 3 tol, or |lhs_log - ref| > 3 tol;
- polylog / zeta_real: |value - ref| > tail_bound + gamma_n S_n, with
  S_n = sum_{k<=n} |z|^k k^-Re(s), n = terms_used, gamma_n = nu/(1-nu),
  u = 2^-53;
- cli: wrong exit code, output that does not parse in its format, or
  numbers that fail the checks above.
"""
from __future__ import annotations

import csv
import json
import math
import re

from mpmath import mp

DPS = 30
U_DOUBLE = 2.0 ** -53
HEADROOM_CAP = 16.0
CANDIDATE_TOL = 1e-10

# The fourteen named catalog instances: label -> (s, x, y).
CATALOG = dict(
    [(f"vpv2-s{s}", (s, 0.3, 0.3)) for s in (1, 2, 3, 4, 5)]
    + [(f"zeta-s{s}", (s, 1.0, 0.3)) for s in (2, 3, 4, 5)]
    + [(f"half-s{s}", (s, 0.5, 0.3)) for s in (1, 2, 3, 4)]
    + [("critical-line", (complex(0.5, 14.134725), 0.3, 0.3))]
)
AUDIT_NAMES = ("LI1_HALF", "LI2_HALF", "LI3_HALF", "LI4_HALF")
AUDIT_VERDICTS = ("MATCHES_PRINTED", "MATCHES_CORRECTED", "UNRESOLVED")


class CheckFailed(Exception):
    pass


def _num(v):
    """mpmath number for an order or argument, keeping integers integral."""
    v = complex(v)
    if v.imag == 0.0:
        if v.real == round(v.real):
            return int(v.real)
        return mp.mpf(v.real)
    return mp.mpc(v.real, v.imag)


def headroom(allowed: float, actual: float) -> float:
    if actual <= 0.0:
        return HEADROOM_CAP
    if allowed <= 0.0:
        return -HEADROOM_CAP
    return min(HEADROOM_CAP, math.log10(allowed / actual))


class Oracle:
    """Memoised references plus the verdict for each kind of operation."""

    def __init__(self) -> None:
        self._cache: dict = {}
        self._ez31 = None

    # -- references ---------------------------------------------------------

    def li(self, s, z):
        key = ("li", complex(s), complex(z))
        if key not in self._cache:
            with mp.workdps(DPS):
                zz = _num(z)
                if zz == 1:
                    value = mp.zeta(_num(s))
                else:
                    value = mp.polylog(_num(s), zz)
                self._cache[key] = complex(value), value
        return self._cache[key][1]

    def identity(self, orders, args) -> complex:
        """prod Li_{order}(arg), Li_s(1) = zeta(s): the value of lhs_log."""
        with mp.workdps(DPS):
            value = mp.mpf(1)
            for order, arg in zip(orders, args):
                value *= self.li(order, arg)
            return complex(value)

    def ez31(self) -> float:
        # sum_{m>n>=1} (-1)^(m+n) m^-3 n^-1 = (3/4) zeta(3) ln 2
        #   - sum_m m^-3 Phi(-1, 1, m), Phi(-1, 1, m) = (psi((m+1)/2) - psi(m/2)) / 2
        if self._ez31 is None:
            with mp.workdps(DPS):
                tail = mp.nsum(
                    lambda m: m ** -3 * (mp.digamma((m + 1) / 2) - mp.digamma(m / 2)) / 2,
                    [1, mp.inf],
                )
                self._ez31 = float(mp.mpf(3) / 4 * mp.zeta(3) * mp.log(2) - tail)
        return self._ez31

    # -- verdicts -----------------------------------------------------------
    # Each returns the headroom in digits and raises CheckFailed otherwise.

    def check_identity(self, orders, args, tol, lhs, abs_err) -> float:
        allowed = 3 * tol
        if not abs_err <= allowed:
            raise CheckFailed(f"abs_err {abs_err!r} > 3*tol {allowed!r}")
        ref = self.identity(orders, args)
        dev = abs(complex(lhs) - ref)
        if not dev <= allowed:
            raise CheckFailed(f"|lhs_log - ref| = {dev!r} > 3*tol {allowed!r} (ref {ref!r})")
        return headroom(allowed, max(dev, abs_err))

    def check_series(self, s, z, value, terms, tail_bound, u=U_DOUBLE, extra=0.0) -> float:
        """Li_s(z) (or zeta(s) for z == 1) against its certified allowance."""
        allowed = series_allowance(s, z, terms, tail_bound, u) + extra
        ref = complex(self.li(s, z))
        dev = abs(complex(value) - ref)
        if not dev <= allowed:
            raise CheckFailed(
                f"|value - ref| = {dev!r} > tail_bound + gamma_n*S_n = {allowed!r} "
                f"(n={int(terms)}, ref {ref!r})"
            )
        return headroom(allowed, dev)

    def check_op(self, op, result) -> float:
        """Verdict for one library operation; result is what the call returned
        or ("raised", type name, message)."""
        if isinstance(result, tuple) and result[:1] == ("raised",):
            raise CheckFailed(f"raised {result[1]}: {result[2]}")
        if op.kind == "verify":
            orders, args = _orders_args(op.dimension, op.s, op.x, op.y, op.t, op.z)
            return self.check_identity(orders, args, op.tol, result.lhs_log, result.abs_err)
        if op.kind == "polylog":
            return self.check_series(op.s, op.z, result.value, result.terms_used,
                                     result.tail_bound)
        return self.check_series(op.s.real, 1, result.value, result.terms_used,
                                 result.tail_bound)

    def check_all(self, ops, results):
        """([(headroom, op)] of passing operations that report numbers,
        [(op, reason)] of failing ones)."""
        headrooms, failures = [], []
        for op, result in zip(ops, results):
            try:
                if op.kind == "cli":
                    digits = self.check_cli(op, *result)
                else:
                    digits = self.check_op(op, result)
            except CheckFailed as exc:
                failures.append((op, str(exc)))
            else:
                if digits is not None:
                    headrooms.append((digits, op))
        return headrooms, failures

    def slack(self, orders, args, lhs, tail_bound) -> float:
        """log10(tail_bound / |lhs - ref|): how far a tail bound overshoots."""
        return headroom(tail_bound, abs(complex(lhs) - self.identity(orders, args)))

    def check_cli(self, op, rc: int, out: str, err: str) -> float | None:
        """Verdict for one CLI call: the least headroom of its numbers, or
        None when it printed none (an error, a point list)."""
        if rc != op.expect_exit and not (op.meta.get("allow_refusal") and rc == 2):
            detail = (err.strip().splitlines() or [""])[-1]
            raise CheckFailed(f"exit {rc}, expected {op.expect_exit}: {detail}")
        if rc != 0:
            if out or not err.startswith("error:"):
                raise CheckFailed("a failing call must print only 'error: ...' on stderr")
            return None
        meta = op.meta
        try:
            rows = _parse(meta["cmd"], meta["fmt"], out)
            return getattr(self, "_cli_" + meta["cmd"])(meta, op.tol, rows)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise CheckFailed(f"{meta['fmt']} output does not parse as expected: {exc!r}") from None

    # -- per-subcommand CLI checks (rows come from _parse) -------------------

    def _cli_verify2(self, meta, tol, rows):
        (row,) = rows
        orders, args = _orders_args(2, meta["s"], meta["x"], meta["y"], None, None)
        return self.check_identity(orders, args, tol, row["lhs_log"], row["abs_err"])

    def _cli_verify3(self, meta, tol, rows):
        (row,) = rows
        orders, args = _orders_args(3, meta["s"], meta["x"], meta["y"], meta["t"], meta["z"])
        return self.check_identity(orders, args, tol, row["lhs_log"], row["abs_err"])

    def _cli_catalog(self, meta, tol, rows):
        labels = [row["label"] for row in rows]
        if labels != list(CATALOG):
            raise CheckFailed(f"catalog labels {labels!r}")
        worst = HEADROOM_CAP
        for row in rows:
            s, x, y = CATALOG[row["label"]]
            worst = min(worst, self._identity_row(2, s, x, y, tol, row))
        return worst

    def _cli_scan(self, meta, tol, rows):
        heights = meta["T"]
        if len(rows) != len(heights):
            raise CheckFailed(f"{len(rows)} rows for {len(heights)} heights")
        worst = HEADROOM_CAP
        for row, height in zip(rows, heights):
            if not math.isclose(row["T"], height, rel_tol=1e-5, abs_tol=1e-5):
                raise CheckFailed(f"row T={row['T']!r}, expected {height!r}")
            s = complex(0.5, height)
            worst = min(worst, self._identity_row(2, s, meta["x"], meta["y"], tol, row))
        return worst

    def _cli_probe(self, meta, tol, rows):
        deltas = meta["deltas"]
        if len(rows) != len(deltas):
            raise CheckFailed(f"{len(rows)} rows for {len(deltas)} deltas")
        worst = HEADROOM_CAP
        for row, delta in zip(rows, deltas):
            if row.get("error"):
                raise CheckFailed(f"delta={delta!r}: {row['error']}")
            y = 1.0 - delta
            worst = min(worst, self._identity_row(2, meta["order"], meta["x"], y, tol, row))
        return worst

    def _identity_row(self, dim, s, x, y, tol, row):
        if "lhs_log" in row:
            orders, args = _orders_args(dim, s, x, y, None, None)
            return self.check_identity(orders, args, tol, row["lhs_log"], row["abs_err"])
        if not row["abs_err"] <= 3 * tol:  # human tables print abs_err only
            raise CheckFailed(f"abs_err {row['abs_err']!r} > 3*tol")
        return headroom(3 * tol, row["abs_err"])

    def _cli_audit(self, meta, tol, rows):
        names = [row["name"] for row in rows]
        if names != list(AUDIT_NAMES):
            raise CheckFailed(f"audit names {names!r}")
        dps = meta["dps"]
        # The audit sums Li_k(1/2) to 1e-15 (double) or 10^(2-dps); at most
        # 64 terms are needed, and printing rounds each value to a double.
        series_tol = 1e-15 if dps is None else max(10.0 ** (2 - dps), 1e-45)
        u = U_DOUBLE if dps is None else 10.0 ** (1 - dps)
        worst = None
        for k, row in enumerate(rows, start=1):
            if row["verdict"] not in AUDIT_VERDICTS:
                raise CheckFailed(f"{row['name']}: verdict {row['verdict']!r}")
            if "series" not in row:
                continue
            ref = complex(self.li(k, 0.5))
            extra = 2 * U_DOUBLE * abs(ref)
            digits = self.check_series(k, 0.5, row["series"], 64, series_tol, u, extra)
            worst = digits if worst is None else min(worst, digits)
            # A verdict compares a form with the series value, so the form
            # may sit one series allowance further from the reference.
            slack = series_allowance(k, 0.5, 64, series_tol, u) + extra
            if row["verdict"] == "MATCHES_PRINTED":
                dev = abs(row["printed"] - ref)
                if not dev <= tol + slack:
                    raise CheckFailed(f"{row['name']}: printed form off by {dev!r}")
            elif row["verdict"] == "MATCHES_CORRECTED":
                dev = abs(row["corrected"] - ref)
                if not dev <= CANDIDATE_TOL + slack:
                    raise CheckFailed(f"{row['name']}: corrected form off by {dev!r}")
        return worst

    def _cli_ez31(self, meta, tol, rows):
        (row,) = rows
        n = int(row["terms"])
        # |terms| of the m-grouped series sum to less than 1.
        allowed = row["tail_bound"] + n * U_DOUBLE / (1 - n * U_DOUBLE)
        if not row["tail_bound"] <= tol + 1e-15:
            raise CheckFailed(f"tail_bound {row['tail_bound']!r} > tol {tol!r}")
        dev = abs(row["value"] - self.ez31())
        if not dev <= allowed:
            raise CheckFailed(f"|value - ref| = {dev!r} > {allowed!r}")
        return headroom(allowed, dev)

    def _cli_visible(self, meta, tol, rows):
        expected = visible_points(meta["dimension"], meta["degree_cap"])
        if rows != expected:
            raise CheckFailed(f"{len(rows)} points listed, {len(expected)} expected")
        return None

    def _cli_polylog(self, meta, tol, rows):
        (row,) = rows
        dps = meta["dps"]
        if dps is None:
            return self.check_series(meta["s"], meta["z"], row["value"], row["terms"],
                                     row["tail_bound"])
        # Extended mode: rounding at dps digits, then the printed value is
        # a double (csv, json) or dps significant digits (human).
        value = row["value"]
        digits = U_DOUBLE if meta["fmt"] != "human" else 10.0 ** (1 - dps)
        extra = 2 * digits * (abs(value.real) + abs(value.imag))
        return self.check_series(meta["s"], meta["z"], value, row["terms"], row["tail_bound"],
                                 10.0 ** (1 - dps), extra)


def series_allowance(s, z, terms, tail_bound, u=U_DOUBLE) -> float:
    """tail_bound + gamma_n * sum_{k<=n} |z|^k k^-Re(s), gamma_n = nu/(1-nu)."""
    n = int(terms)
    r = abs(complex(z))
    sigma = complex(s).real
    total = math.fsum(r ** k * k ** -sigma for k in range(1, n + 1))
    return tail_bound + n * u / (1 - n * u) * total


def _orders_args(dim, s, x, y, t, z):
    s = complex(s)
    if dim == 2:
        return (s, 1 - s), (x, y)
    return (s, complex(t), 1 - s - complex(t)), (x, y, z)


def visible_points(dim: int, cap: int) -> list[tuple]:
    """Coprime tuples with coordinate sum <= cap: ascending sum, then
    ascending leading coordinates."""
    out = []
    for total in range(dim, cap + 1):
        if dim == 2:
            out.extend((a, total - a) for a in range(1, total) if math.gcd(a, total - a) == 1)
        else:
            for a in range(1, total - 1):
                out.extend((a, b, total - a - b) for b in range(1, total - a)
                           if math.gcd(math.gcd(a, b), total - a - b) == 1)
    return out


# ---------------------------------------------------------------------------
# output parsing: every format becomes a list of rows of plain values
# ---------------------------------------------------------------------------

_CX = re.compile(r"^(\S+) ([+-]) (\S+)i$")
_HUMAN = {
    "catalog": re.compile(
        r"^(?P<label>\S+)\s+abs_err=(?P<abs_err>\S+) rel_err=\S+ degree_cap=\d+ "
        r"tail_bound=\S+ terms=\d+$"),
    "scan": re.compile(
        r"^T=(?P<T>\S+)\s+abs_err=(?P<abs_err>\S+) exponent_dev=\S+ "
        r"lhs_log=(?P<lhs_log>.+) degree_cap=\d+$"),
    "probe": re.compile(
        r"^delta=(?P<delta>\S+)\s+(?:error: (?P<error>.*)|abs_err=(?P<abs_err>\S+) "
        r"\|rhs_log\|=\S+ degree_cap=\d+)$"),
    "audit": re.compile(r"^(?P<name>\S+)\s+(?P<verdict>\S+)\s+discrepancy=\S+\s+.*$"),
}
_TEXT_KEYS = {"case", "label", "name", "verdict", "error", "note", "corrected_formula"}
_JSON_RENAME = {"printed_form_value": "printed", "series_value": "series",
                "candidate_corrected_value": "corrected"}


def parse_complex(text: str) -> complex:
    text = text.strip()
    if text.startswith("("):  # extended precision: mpmath's (a + bj)
        return complex(text.replace(" ", ""))
    m = _CX.match(text)
    if not m:
        return complex(float(text))
    im = float(m.group(3))
    return complex(float(m.group(1)), -im if m.group(2) == "-" else im)


def _value(key: str, text: str):
    if key in _TEXT_KEYS:
        return text or None
    if key in ("lhs_log", "rhs_log", "value"):
        return parse_complex(text)
    return float(text) if text != "" else None


def _parse(cmd: str, fmt: str, out: str) -> list:
    if cmd == "visible":
        return _parse_visible(fmt, out)
    if fmt == "json":
        return _parse_json(cmd, json.loads(out))
    if fmt == "csv":
        return _parse_csv(out)
    if cmd in _HUMAN:
        body = out.split("\n\n")[0] if cmd == "probe" else out
        rows = []
        for line in body.splitlines():
            m = _HUMAN[cmd].match(line)
            if not m:
                raise ValueError(f"unexpected line {line!r}")
            rows.append({k: _value(k, v) for k, v in m.groupdict().items() if v is not None})
        return rows
    row = {}
    for line in out.splitlines():
        key, _, text = line.partition(": ")
        row[key] = _value(key, text)
    return [row]


def _from_json(value):
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        return complex(value["re"], value["im"])
    return value


def _parse_json(cmd, payload) -> list:
    if cmd == "probe":
        payload = payload["rows"]
    if isinstance(payload, dict):
        payload = [payload]
    return [{_JSON_RENAME.get(k, k): _from_json(v) for k, v in row.items()} for row in payload]


def _parse_csv(out: str) -> list:
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    rows = []
    for cells in reader:
        if len(cells) != len(header):
            raise ValueError(f"row of {len(cells)} cells under {len(header)} columns")
        raw = dict(zip(header, cells))
        row = {}
        for key, text in raw.items():
            if key.endswith("_re") or key.endswith("_im"):
                base = key[:-3]
                if base in row:
                    continue
                re_text, im_text = raw[base + "_re"], raw[base + "_im"]
                row[base] = None if re_text == "" else complex(float(re_text), float(im_text))
            else:
                row[key] = _value(key, text) if key in _TEXT_KEYS else (
                    float(text) if text != "" else None)
        rows.append(row)
    return [{_JSON_RENAME.get(k, k): v for k, v in r.items()} for r in rows]


def _parse_visible(fmt: str, out: str) -> list:
    if fmt == "json":
        return [tuple(p) for p in json.loads(out)["points"]]
    lines = out.splitlines()
    if fmt == "csv":
        return [tuple(int(c) for c in line.split(",")) for line in lines[1:]]
    return [tuple(int(c) for c in line.split()) for line in lines]
