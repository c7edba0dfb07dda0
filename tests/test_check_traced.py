"""The traced-benchmark check that CI runs on each workload's report."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "check_traced.py"

# The seed-1 counts of each workload that the check pins, and the text its
# message names each one by.
PINS = {
    "lattice": {
        "products.lhs_terms": (379742, "products.lhs_terms"),
        "products.degree_cap_sum": (11239, "products.degree_cap_sum"),
        "products.cap_search_evals": (216, "cap_search_evals"),
    },
    "series": {
        "products.lhs_terms": (3364, "products.lhs_terms"),
        "polylog.series_terms": (317142, "polylog.series_terms"),
        "products.cap_search_evals": (50, "products.cap_search_evals"),
    },
    "cli": {
        "products.lhs_terms": (39821, "products.lhs_terms"),
        "polylog.series_terms": (3171, "polylog.series_terms"),
        "products.cap_search_evals": (252, "products.cap_search_evals"),
        "cli.exit_code.0": (108, "cli.exit_code.0/1/2/3"),
        "cli.exit_code.1": (12, "cli.exit_code.0/1/2/3"),
        "cli.exit_code.2": (0, "cli.exit_code.0/1/2/3"),
        "cli.exit_code.3": (0, "cli.exit_code.0/1/2/3"),
        "cli.out_bytes": (123511, "cli.out_bytes"),
    },
}


def _report(workload, **changed):
    values = {"lattice.points": 746623, "cli.pinned_defects_open": 1}
    values.update({name: value for name, (value, _) in PINS[workload].items()})
    values.update(changed)
    return {"correct": True, "metrics": {name: {"value": v} for name, v in values.items()}}


def _check(report, workload):
    return subprocess.run([sys.executable, str(SCRIPT), json.dumps(report), workload],
                          capture_output=True, text=True)


@pytest.mark.parametrize("workload", sorted(PINS))
def test_seed_one_pins_pass(workload):
    run = _check(_report(workload), workload)
    assert run.returncode == 0, run.stderr
    assert run.stdout == run.stderr == ""


@pytest.mark.parametrize("workload, name", [(w, n) for w in sorted(PINS) for n in PINS[w]])
def test_a_pin_off_by_one_fails_naming_its_metric(workload, name):
    value, named = PINS[workload][name]
    for moved in (value - 1, value + 1):
        if moved < 0:
            continue
        run = _check(_report(workload, **{name: moved}), workload)
        assert run.returncode == 1, (name, moved)
        assert named in run.stderr and str(moved) in run.stderr, run.stderr


@pytest.mark.parametrize("workload", sorted(PINS))
def test_incorrect_runs_zero_counts_and_open_defects_fail(workload):
    report = _report(workload)
    report["correct"] = False
    assert "not correct" in _check(report, workload).stderr
    run = _check(_report(workload, **{"cli.pinned_defects_open": 2}), workload)
    assert run.returncode == 1 and "2 pinned defects open" in run.stderr
    zeroed = "lattice.points" if workload == "lattice" else "polylog.series_terms"
    run = _check(_report(workload, **{zeroed: 0}), workload)
    assert run.returncode == 1 and "zero " + zeroed in run.stderr
