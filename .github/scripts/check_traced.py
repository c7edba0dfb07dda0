"""Check one traced benchmark report against its seed's pins.

usage: python3 .github/scripts/check_traced.py REPORT_JSON WORKLOAD SEED

REPORT_JSON is the last line that `bench/run.py --workload WORKLOAD
--seed SEED --seconds 1 --trace 1` prints; counts are pinned at seeds 1
and 7. The script exits 0 when the run is correct and every pinned count
holds, and otherwise exits 1 with a message that names the count, one
line for each pinned count that moved.
"""
import json, sys
report, workload, seed = json.loads(sys.argv[1]), sys.argv[2], int(sys.argv[3])
# The exact counts of each seed's batches:
# - products.lhs_terms: the kernel counts its tail points by Moebius
#   inversion, and an off-by-one there moves this count, which a nonzero
#   check would miss; on series and cli, the zeta-mode levels and the
#   audit and verify work that a cache must not skip.
# - products.degree_cap_sum and products.cap_search_evals: the levels the
#   cap search picks and its tail-bound evaluations; a change of the bound
#   or of the search moves them, and so does a search that no longer
#   starts at its guess (2 evaluations each).
# - polylog.series_terms: the polylog stopping indices, which a change of
#   summation, rounding or of how extended weights are built must not move.
# - cli.exit_code.*: a typed refusal that turned into a usage error or an
#   internal error, or a value into a refusal, moves these.
# - cli.out_bytes: any change to what the CLI prints on the batch argv.
PINS = {
    1: {
        "lattice": {"products.lhs_terms": 379742, "products.degree_cap_sum": 11239,
                    "products.cap_search_evals": 216},
        "series": {"polylog.series_terms": 317142, "products.lhs_terms": 3364,
                   "products.cap_search_evals": 50},
        "cli": {"polylog.series_terms": 3171, "products.lhs_terms": 39821, "products.cap_search_evals": 252,
                "cli.exit_code.0": 108, "cli.exit_code.1": 12, "cli.exit_code.2": 0, "cli.exit_code.3": 0,
                "cli.out_bytes": 123489},
    },
    7: {
        "lattice": {"products.lhs_terms": 423021, "products.degree_cap_sum": 11270,
                    "products.cap_search_evals": 216},
        "series": {"polylog.series_terms": 317291, "products.lhs_terms": 3370,
                   "products.cap_search_evals": 50},
        "cli": {"polylog.series_terms": 3152, "products.lhs_terms": 39090, "products.cap_search_evals": 252,
                "cli.exit_code.0": 108, "cli.exit_code.1": 12, "cli.exit_code.2": 0, "cli.exit_code.3": 0,
                "cli.out_bytes": 124222},
    },
}
if seed not in PINS:
    sys.exit(f"no counts are pinned at seed {seed}; pinned seeds: {sorted(PINS)}")
where = workload + " --trace 1"
if report.get("correct") is not True:
    sys.exit(where + ": not correct")
metrics = {name: m["value"] for name, m in report["metrics"].items()}
# polylog.series_terms is read from the terms_used of the polylog the tracer wraps by name
counts = ("lattice.points", "products.cap_search_evals") if workload == "lattice" else ("polylog.series_terms",)
zero = [name for name in counts if not metrics[name]]
if zero:
    sys.exit(where + ": zero " + ", ".join(zero))
# every moved pin is named, one line each, so one run shows all that a change moved
moved = [f"{where}: {name} {metrics[name]}, expected {expected} at seed {seed}"
         for name, expected in PINS[seed][workload].items() if metrics[name] != expected]
if moved:
    sys.exit("\n".join(moved))
# One pinned defect (the polylog phase case) is open; lower this as defects close.
open_defects = metrics["cli.pinned_defects_open"]
if open_defects > 1:
    sys.exit(f"{where}: {open_defects} pinned defects open, at most 1 allowed")
