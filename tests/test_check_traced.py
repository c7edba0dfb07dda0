"""The traced-benchmark check that CI runs on each workload's report."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "check_traced.py"

# The counts the check pins, by seed and workload. The message names each
# count by its metric.
PINS = {
    1: {
        "lattice": {"products.lhs_terms": 379742, "products.degree_cap_sum": 11239,
                    "products.cap_search_evals": 216},
        "series": {"products.lhs_terms": 3364, "polylog.series_terms": 317142,
                   "products.cap_search_evals": 50},
        "cli": {"products.lhs_terms": 39821, "polylog.series_terms": 3171, "products.cap_search_evals": 252,
                "cli.exit_code.0": 108, "cli.exit_code.1": 12, "cli.exit_code.2": 0, "cli.exit_code.3": 0,
                "cli.out_bytes": 123489},
    },
    7: {
        "lattice": {"products.lhs_terms": 423021, "products.degree_cap_sum": 11270,
                    "products.cap_search_evals": 216},
        "series": {"products.lhs_terms": 3370, "polylog.series_terms": 317291,
                   "products.cap_search_evals": 50},
        "cli": {"products.lhs_terms": 39090, "polylog.series_terms": 3152, "products.cap_search_evals": 252,
                "cli.exit_code.0": 108, "cli.exit_code.1": 12, "cli.exit_code.2": 0, "cli.exit_code.3": 0,
                "cli.out_bytes": 124222},
    },
}
WORKLOADS = sorted(PINS[1])


def _report(workload, seed=1, **changed):
    values = {"lattice.points": 746623, "cli.pinned_defects_open": 1}
    values.update(PINS[seed][workload])
    values.update(changed)
    return {"correct": True, "metrics": {name: {"value": v} for name, v in values.items()}}


def _check(report, workload, seed=1):
    return subprocess.run([sys.executable, str(SCRIPT), json.dumps(report), workload, str(seed)],
                          capture_output=True, text=True)


def _assert_off_by_one_fails(workload, name, seed):
    value = PINS[seed][workload][name]
    for moved in (value - 1, value + 1):
        if moved < 0:
            continue
        run = _check(_report(workload, seed, **{name: moved}), workload, seed)
        assert run.returncode == 1, (name, moved)
        assert f"{name} {moved}, expected {value} at seed {seed}" in run.stderr, run.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_one_pins_pass(workload):
    run = _check(_report(workload), workload)
    assert run.returncode == 0, run.stderr
    assert run.stdout == run.stderr == ""


@pytest.mark.parametrize("workload, name", [(w, n) for w in WORKLOADS for n in PINS[1][w]])
def test_a_pin_off_by_one_fails_naming_its_metric(workload, name):
    _assert_off_by_one_fails(workload, name, 1)


@pytest.mark.parametrize("seed", sorted(PINS))
def test_every_moved_pin_is_named_in_one_run(seed):
    # The check stopped at the first moved pin, so a change that moved two
    # showed the second only after the first was re-pinned.
    pins = PINS[seed]["cli"]
    moved = {"products.lhs_terms": pins["products.lhs_terms"] + 1,
             "cli.out_bytes": pins["cli.out_bytes"] - 21}
    run = _check(_report("cli", seed, **moved), "cli", seed)
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.splitlines() == [f"cli --trace 1: {name} {value}, expected {pins[name]} at seed {seed}"
                                       for name, value in moved.items()]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_seven_pins_pass_and_differ_from_seed_one(workload):
    run = _check(_report(workload, 7), workload, 7)
    assert run.returncode == 0, run.stderr
    assert run.stdout == run.stderr == ""
    # each seed's report fails the other's pins, and a seed with no pins is refused
    assert _check(_report(workload, 7), workload, 1).returncode == 1
    assert _check(_report(workload), workload, 7).returncode == 1
    run = _check(_report(workload), workload, 2)
    assert run.returncode == 1 and "no counts are pinned at seed 2" in run.stderr


@pytest.mark.parametrize("workload, name", [(w, n) for w in WORKLOADS for n in PINS[7][w]])
def test_a_seed_seven_pin_off_by_one_fails_naming_its_metric(workload, name):
    _assert_off_by_one_fails(workload, name, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_incorrect_runs_zero_counts_and_open_defects_fail(workload):
    report = _report(workload)
    report["correct"] = False
    assert "not correct" in _check(report, workload).stderr
    run = _check(_report(workload, **{"cli.pinned_defects_open": 2}), workload)
    assert run.returncode == 1 and "2 pinned defects open" in run.stderr
    zeroed = "lattice.points" if workload == "lattice" else "polylog.series_terms"
    run = _check(_report(workload, **{zeroed: 0}), workload)
    assert run.returncode == 1 and "zero " + zeroed in run.stderr
