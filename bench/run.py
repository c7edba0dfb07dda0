"""vpvlab benchmark: seeded, closed-loop workloads checked against mpmath.

    python3 bench/run.py --workload lattice --seed 1 --seconds 25 --trace 0

The program under test is the src/ tree next to this directory. One
client in one thread issues each operation after the previous one
returns. The batch built from --seed runs again and again until --seconds
have passed, at least three times, and every batch must reproduce the
first one's results exactly. Each operation is timed right after a short
calibration loop. End-to-end times are reported in units of that loop
("ref"), which cancels the drift in processor speed on a shared host; the
summary lines also give them in seconds. With --trace 0 the last stdout
line reports the end-to-end metrics; with --trace 1, untraced and traced
batches alternate and it reports the per-layer metrics (see
bench/README.md). Exit code 2 means the benchmark could not run: there is
no src/vpvlab, or no mpmath for the oracle.
"""
from __future__ import annotations

import argparse
import cmath
import importlib
import importlib.util
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, pinned_defects  # noqa: E402

MIN_BATCHES = 3
SETUP_SAMPLES = 7
CALIBRATION_STEPS = 1500  # about a millisecond
REF_WINDOW = 2  # an operation's reference: median of the 2k+1 calibrations around it
# A fresh interpreter until the first operation could be issued.
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import vpvlab, vpvlab.cli\n"
    "t1 = time.perf_counter()\n"
    "print(repr(t1 - t0), vpvlab.__file__)\n"
)
EXPLORER_SPANS = {
    "run_catalog": "explorer.catalog",
    "critical_line_scan": "explorer.scan",
    "trivial_zero_probe": "explorer.probe",
    "audit_special_values": "explorer.audit",
    "euler_zagier_31": "explorer.ez31",
}
CAP_SEARCH_BOUNDS = ("tail_bound_2d", "tail_bound_3d", "_zeta_mode_b_tail")
EXACT_COUNTS = ("lattice.points", "products.lhs_terms", "products.degree_cap_sum",
                "products.cap_search_evals", "polylog.series_terms")


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> float:
    """Seconds to import vpvlab and vpvlab.cli in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        die(f"importing vpvlab failed:\n{proc.stderr}")
    seconds, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        die(f"vpvlab was imported from {path}, not from {SRC}")
    return float(seconds)


def calibrate() -> float:
    """Seconds this machine takes, right now, for a fixed pure-Python loop.

    The loop does the program's kind of work: complex exp and log, float
    arithmetic, calls, small tuples and a dict. On a shared host the speed
    of one processor can change by half within seconds; an operation's
    time divided by this reference, measured just before it, does not.
    """
    t0 = perf_counter()
    acc = 0j
    table = {}
    for k in range(1, CALIBRATION_STEPS + 1):
        w = cmath.exp(complex(-0.5, 0.01 * k) * math.log(k))
        acc += w / (1.0 + abs(w))
        table[k & 255] = (k, w)
    return perf_counter() - t0


class Program:
    """The entry points of the vpvlab tree under test."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        self.mod = {name: importlib.import_module(f"vpvlab.{name}")
                    for name in ("cli", "explorer", "lattice", "polylog", "products")}
        if not Path(self.mod["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
            die(f"vpvlab was imported from {self.mod['cli'].__file__}, not from {SRC}")
        self.IdentityCase = self.mod["products"].IdentityCase
        self.fns = {
            "verify": self.mod["products"].verify,
            "polylog": self.mod["polylog"].polylog,
            "zeta_real": self.mod["polylog"].zeta_real,
            "cli": self.mod["cli"].main,
        }

    def case(self, op):
        if op.dimension == 2:
            return self.IdentityCase(2, op.s, op.x, op.y)
        return self.IdentityCase(3, op.s, op.x, op.y, t=op.t, z=op.z)


def invoke(op, fns, program: Program):
    """Issue one operation; a raised exception is returned as its result."""
    try:
        if op.kind == "verify":
            return fns["verify"](program.case(op), op.tol)
        if op.kind == "polylog":
            return fns["polylog"](op.s, op.z, op.tol)
        if op.kind == "zeta_real":
            return fns["zeta_real"](op.s.real, op.tol)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = fns["cli"](list(op.argv))
        return rc, out.getvalue(), err.getvalue()
    except Exception as exc:  # the oracle reports it as a failed operation
        return ("raised", type(exc).__name__, str(exc))


def run_batch(ops, fns, program: Program):
    """Closed loop over the batch, each operation timed after a calibration:
    (per-op seconds, per-op calibration seconds, results)."""
    latencies, refs, results = [], [], []
    for op in ops:
        refs.append(calibrate())
        t0 = perf_counter()
        results.append(invoke(op, fns, program))
        latencies.append(perf_counter() - t0)
    return latencies, refs, results


def run_traced_batch(ops, layers: "Layers", program: Program):
    """The batch under tracing, without calibration: (wall seconds, results)."""
    results = []
    start = perf_counter()
    for i, op in enumerate(ops):
        layers.tracer.op_id = i
        results.append(invoke(op, layers.fns, program))
        layers.decompose()
    return perf_counter() - start, results


class Layers:
    """One traced batch: spans at each layer boundary, plus the split of
    every verify call into RHS, cap search, LHS and enumeration."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.tracer = Tracer()
        self.pending: list = []  # verify calls of the current operation
        self.verified: list = []  # (case, report) for the bound slack
        tr = self.tracer
        self.fns = {
            "verify": tr.wrap(program.fns["verify"], "products.verify", self._on_verify),
            "polylog": tr.wrap(program.fns["polylog"], "polylog.series", self._on_series),
            "zeta_real": tr.wrap(program.fns["zeta_real"], "polylog.zeta_real"),
            "cli": tr.wrap(program.fns["cli"], "cli.main"),
        }

    def install(self, stack: ExitStack) -> None:
        tr, mod = self.tracer, self.program.mod
        for owner in (mod["cli"], mod["explorer"]):
            tr.patch(stack, owner, "verify", "products.verify", self._on_verify)
            tr.patch(stack, owner, "polylog", "polylog.series", self._on_series)
        tr.patch(stack, mod["explorer"], "zeta_real", "polylog.zeta_real")
        tr.patch(stack, mod["explorer"], "euler_zagier_31", "explorer.ez31")
        for attr, name in EXPLORER_SPANS.items():
            tr.patch(stack, mod["cli"], attr, name)
        for attr in ("visible_points_2d", "visible_points_3d"):
            original = getattr(mod["cli"], attr)
            setattr(mod["cli"], attr, self._listed(original))
            stack.callback(setattr, mod["cli"], attr, original)

    def _listed(self, enumerate_points):
        def traced(cap):
            with self.tracer.span("lattice.enum"):
                points = list(enumerate_points(cap))
            self.tracer.counts["lattice.points"] += len(points)
            return iter(points)
        return traced

    def _on_verify(self, report, case, tol, **kwargs):
        self.pending.append((case, tol, kwargs))
        self.verified.append((case, report))
        self.tracer.counts["products.lhs_terms"] += report.terms
        self.tracer.counts["products.degree_cap_sum"] += report.degree_cap

    def _on_series(self, result, *args, **kwargs):
        self.tracer.counts["polylog.series_terms"] += result.terms_used

    def decompose(self) -> None:
        """Repeat each verify call of the operation as separate layer calls."""
        tr, products = self.tracer, self.program.mod["products"]
        lattice = self.program.mod["lattice"]
        for case, tol, kwargs in self.pending:
            half = tol / 2  # verify's split of the budget between the sides
            with tr.span("products.rhs"):
                products.rhs_log(case, half)
            with tr.span("products.cap_search"):
                cap = products.choose_degree_cap(case, half, **kwargs)
            lhs = products.lhs_log_product_2d if case.dimension == 2 else products.lhs_log_product_3d
            with tr.span("products.lhs"):
                lhs(case, products.TruncationSpec(degree_cap=cap, tol=half))
            if not case.is_zeta_mode:
                points = lattice.visible_points_2d if case.dimension == 2 else lattice.visible_points_3d
                with tr.span("lattice.enum"):
                    n = sum(1 for _ in points(cap))
                tr.counts["lattice.points"] += n
            tr.counts["products.cap_search_evals"] += self._cap_search_evals(case, half, kwargs)
        self.pending.clear()

    def _cap_search_evals(self, case, tol, kwargs) -> int:
        """Tail-bound evaluations one cap search makes (counted, not timed)."""
        products = self.program.mod["products"]
        calls = [0]

        def counted(fn):
            def inner(*args):
                calls[0] += 1
                return fn(*args)
            return inner

        with ExitStack() as stack:
            for attr in CAP_SEARCH_BOUNDS:
                original = getattr(products, attr, None)
                if original is not None:
                    setattr(products, attr, counted(original))
                    stack.callback(setattr, products, attr, original)
            products.choose_degree_cap(case, tol, **kwargs)
        return calls[0]


def case_identity(case):
    """Plain orders and arguments of an IdentityCase, for the oracle."""
    s = complex(case.s)
    if case.dimension == 2:
        return (s, 1 - s), (case.x, case.y)
    t = complex(case.t)
    return (s, t, 1 - s - t), (case.x, case.y, case.z)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(batch: Layers, oracle) -> dict:
    own, total = batch.tracer.self_times()
    counts = batch.tracer.counts
    lhs_s, series_s = own.get("products.lhs", 0.0), own.get("polylog.series", 0.0)
    slack = [oracle.slack(*case_identity(case), report.lhs_log, report.tail_bound)
             for case, report in batch.verified]
    out = {
        "lattice.enum_s": own.get("lattice.enum", 0.0),
        "products.lhs_s": lhs_s,
        "products.lhs_terms_per_s": counts["products.lhs_terms"] / lhs_s if lhs_s else 0.0,
        "products.cap_search_s": own.get("products.cap_search", 0.0),
        "products.rhs_s": own.get("products.rhs", 0.0),
        "products.verify_s": total.get("products.verify", 0.0),
        "products.bound_slack_log10": statistics.median(slack) if slack else 0.0,
        "polylog.series_s": series_s,
        "polylog.terms_per_s": counts["polylog.series_terms"] / series_s if series_s else 0.0,
        "polylog.zeta_real_s": own.get("polylog.zeta_real", 0.0),
        "cli.main_s": total.get("cli.main", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
    }
    for name in EXPLORER_SPANS.values():
        out[name + "_s"] = own.get(name, 0.0)
    out.update({name: counts[name] for name in EXACT_COUNTS})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vpvlab" / "__init__.py").is_file():
        die(f"no vpvlab source tree at {SRC}")
    if importlib.util.find_spec("mpmath") is None:
        die("mpmath is not installed, so the oracle cannot run")

    # The metrics to report, with their units, are the ones BENCHMARK.json lists.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ops = WORKLOADS[args.workload](args.seed)
    measure_setup()  # the first import may write bytecode caches
    program = Program()

    # Set-up samples are spread over the run, one before each batch, so
    # their median sees the same machine as the batches do.
    setups, latencies, refs, traced, mismatches = [], [], [], [], []
    reference = None
    deadline = perf_counter() + args.seconds
    while True:
        setups.append(measure_setup())
        lat, ref, results = run_batch(ops, program.fns, program)
        latencies.append(lat)
        refs.append(ref)
        if reference is None:
            reference = results
        elif results != reference:
            mismatches.append(f"untraced batch {len(latencies)} differs from batch 1")
        if args.trace:
            layers = Layers(program)
            with ExitStack() as stack:
                layers.install(stack)
                wall, results = run_traced_batch(ops, layers, program)
            traced.append((wall, layers))
            if results != reference:
                mismatches.append(f"traced batch {len(traced)} differs from batch 1")
        enough = len(latencies) >= MIN_BATCHES and (not args.trace or len(traced) >= 2)
        if enough and perf_counter() >= deadline:
            break
    # Peak memory of this process, which ran every timed operation, read
    # before the oracle imports mpmath.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_SAMPLES:
        setups.append(measure_setup())

    from oracle import CheckFailed, Oracle

    oracle = Oracle()
    headrooms, failures = oracle.check_all(ops, reference)
    defects = pinned_defects()
    defect_lines = []
    for op in defects:
        rc, out, err = invoke(op, program.fns, program)
        try:
            oracle.check_cli(op, rc, out, err)
            defect_lines.append(f"  closed: {op.describe()}")
        except CheckFailed as exc:
            defect_lines.append(f"  open:   {op.describe()}\n          {exc}")
    open_defects = sum(line.startswith("  open") for line in defect_lines)

    least = min(headrooms, key=lambda pair: pair[0], default=(0.0, None))
    # A batch's time is the sum of its operations' latencies; in "ref" units
    # it is divided by the mean calibration of that batch. Each operation's
    # latency is its median over the batches; in "ref" units each sample is
    # divided by the median of the calibrations taken around it.
    walls = [sum(lat) for lat in latencies]
    wall_s = statistics.median(walls)
    per_op = [statistics.median(col) for col in zip(*latencies)]
    local = [[statistics.median(ref[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
              for i in range(len(ref))] for ref in refs]
    per_op_ref = [statistics.median(t / r for t, r in zip(times, cal))
                  for times, cal in zip(zip(*latencies), zip(*local))]
    batches = len(latencies)
    attempted = len(ops) * batches
    failed = len(failures) * batches
    seconds = {
        "wall_s": (wall_s, "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_p90_s": (percentile(per_op, 90), "s"),
        "ref_s": (statistics.median(r for ref in refs for r in ref), "s"),
    }
    metrics = {
        "wall_ref": (statistics.median(sum(lat) / statistics.fmean(ref)
                                       for lat, ref in zip(latencies, refs)), "ref"),
        "op_p50_ref": (statistics.median(per_op_ref), "ref"),
        "op_p90_ref": (percentile(per_op_ref, 90), "ref"),
        "pass_frac": ((attempted - failed) / attempted, "fraction"),
        "err_headroom_digits": (statistics.median(h for h, _ in headrooms), "digits"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    exit_codes = Counter(r[0] for op, r in zip(ops, reference) if op.kind == "cli")
    out_bytes = sum(len(r[1].encode()) for op, r in zip(ops, reference) if op.kind == "cli")
    if args.trace:
        per_batch = [layer_metrics(layers, oracle) for _, layers in traced]
        for name in EXACT_COUNTS:
            if len({m[name] for m in per_batch}) != 1:
                mismatches.append(f"{name} differs between traced batches")
        layer = {name: statistics.median(m[name] for m in per_batch) for name in per_batch[0]}
        layer["cli.out_bytes"] = out_bytes
        for code in range(4):
            layer[f"cli.exit_code.{code}"] = exit_codes.get(code, 0)
        layer["cli.pinned_defects_open"] = open_defects
        layer["trace.overhead_s"] = statistics.median(w for w, _ in traced) - wall_s
        layer["bench.ref_s"] = seconds["ref_s"][0]
        traced[-1][1].tracer.dump(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.json")
        report = {m["name"]: (layer[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        report = {m["name"]: (metrics[m["name"]][0], m["unit"]) for m in spec["end_to_end"]}

    print(f"workload={args.workload} seed={args.seed} ops={len(ops)} batches={batches} "
          f"traced_batches={len(traced)} closed loop, 1 client")
    print("  batch walls: " + " ".join(f"{w:.4f}" for w in walls))
    for name, (value, unit) in {**seconds, **metrics, **(report if args.trace else {})}.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(f"  fail_frac                    {failed / attempted:.6g} ({len(failures)} of {len(ops)} operations)")
    if least[1] is not None:
        print(f"  least headroom {least[0]:.3g} digits: {least[1].describe()}")
    for op, reason in failures:
        print(f"  FAILED {op.describe()}\n         {reason}")
    for message in mismatches:
        print(f"  NOT REPEATABLE: {message}")
    print(f"pinned defects: {open_defects} of {len(defects)} open")
    print("\n".join(defect_lines))
    correct = not failures and not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
