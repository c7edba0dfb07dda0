"""Check one traced benchmark report against the seed-1 pins.

usage: python3 .github/scripts/check_traced.py REPORT_JSON WORKLOAD

REPORT_JSON is the last line that `bench/run.py --workload WORKLOAD
--seed 1 --seconds 1 --trace 1` prints. The script exits 0 when the run
is correct and every pinned count holds, and otherwise exits with a
message that names the count.
"""
import json, sys
report, workload = json.loads(sys.argv[1]), sys.argv[2]
if report.get("correct") is not True:
    sys.exit(workload + " --trace 1: not correct")
# polylog.series_terms is read from the terms_used of the polylog the tracer wraps by name
counts = ("lattice.points", "products.cap_search_evals") if workload == "lattice" else ("polylog.series_terms",)
zero = [name for name in counts if not report["metrics"][name]["value"]]
if zero:
    sys.exit(workload + " --trace 1: zero " + ", ".join(zero))
# The kernel counts its tail points by Moebius inversion; an off-by-one
# there moves this exact count, which a nonzero check would miss.
terms = report["metrics"]["products.lhs_terms"]["value"]
if workload == "lattice" and terms != 379742:
    sys.exit("lattice --trace 1: products.lhs_terms " + str(terms) + ", expected 379742 at seed 1")
# The levels the cap search picks, and its tail-bound evaluations:
# a change of the bound or of the search moves these, and so does
# a search that no longer starts at its guess (2 evaluations each).
if workload == "lattice":
    search = tuple(report["metrics"]["products." + c]["value"] for c in ("degree_cap_sum", "cap_search_evals"))
    if search != (11239, 216):
        sys.exit("lattice --trace 1: products.degree_cap_sum/cap_search_evals " + str(search)
                 + ", expected (11239, 216) at seed 1")
evals = report["metrics"]["products.cap_search_evals"]["value"]
expected_evals = {"series": 50, "cli": 252}.get(workload, evals)
if evals != expected_evals:
    sys.exit(workload + " --trace 1: products.cap_search_evals " + str(evals) + ", expected "
             + str(expected_evals) + " at seed 1")
# A change of summation or rounding must not move the series counts:
# the zeta-mode levels and the polylog stopping indices at seed 1.
if workload == "series":
    series_terms = report["metrics"]["polylog.series_terms"]["value"]
    if (series_terms, terms) != (317142, 3364):
        sys.exit("series --trace 1: polylog.series_terms " + str(series_terms) + " and products.lhs_terms "
                 + str(terms) + ", expected 317142 and 3364 at seed 1")
# A change of how extended weights are built must not move a polylog
# stopping index, and a cache must not skip real audit or verify
# work: the series and kernel terms of the cli batch at seed 1.
if workload == "cli":
    series_terms = report["metrics"]["polylog.series_terms"]["value"]
    if (series_terms, terms) != (3171, 39821):
        sys.exit("cli --trace 1: polylog.series_terms " + str(series_terms) + " and products.lhs_terms "
                 + str(terms) + ", expected 3171 and 39821 at seed 1")
    # A typed refusal that turned into a usage error or an internal
    # error, or a value into a refusal, moves these counts.
    codes = tuple(report["metrics"]["cli.exit_code." + c]["value"] for c in "0123")
    if codes != (108, 12, 0, 0):
        sys.exit("cli --trace 1: cli.exit_code.0/1/2/3 " + str(codes) + ", expected (108, 12, 0, 0) at seed 1")
    # Any change to what the CLI prints on the batch argv moves the byte count.
    out_bytes = report["metrics"]["cli.out_bytes"]["value"]
    if out_bytes != 123511:
        sys.exit("cli --trace 1: cli.out_bytes " + str(out_bytes) + ", expected 123511 at seed 1")
# One pinned defect (the polylog phase case) is open; lower this as defects close.
open_defects = report["metrics"]["cli.pinned_defects_open"]["value"]
if open_defects > 1:
    sys.exit(workload + " --trace 1: " + str(open_defects) + " pinned defects open, at most 1 allowed")
