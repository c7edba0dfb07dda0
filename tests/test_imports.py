"""Import hygiene: every module of the package uses what it imports,
every name the package exports resolves, and start-up loads neither
mpmath nor dataclasses; the result records are NamedTuples that keep
their checks, repr and pickling."""

import ast
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import vpvlab
from vpvlab import DomainError, IdentityCase, polylog, verify
from vpvlab.explorer import ProbeRow
from vpvlab.products import TruncationSpec

PACKAGE = Path(vpvlab.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_detected():
    assert _unused_imports("import math\nfrom enum import Enum\nmath.pi\n") == ["Enum (line 2)"]


def test_every_exported_name_resolves():
    missing = [name for name in vpvlab.__all__ if not hasattr(vpvlab, name)]
    assert missing == []
    assert len(vpvlab.__all__) == len(set(vpvlab.__all__))


def test_mpmath_is_imported_only_on_demand():
    # Importing the package and the CLI does not import mpmath, which
    # would add about 3 MB of RSS to every run; extended precision does
    # not either (test_engine.py checks those paths in a fresh process).
    code = "import sys, vpvlab, vpvlab.cli; print('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "False\n"


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # dataclasses loads inspect, and the two took about 10 ms of each
    # process's start, plus 1-1.7 ms to generate each record class. -S
    # keeps site's own imports out of the interpreter.
    code = ("import sys; before = set(sys.modules); import vpvlab, vpvlab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)), "
            "'dataclasses' in before or 'inspect' in before)")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[] False\n"


@pytest.mark.parametrize("make, message", [
    (lambda: IdentityCase(4, .5, .3, .3), "dimension must be 2 or 3, got 4"),
    (lambda: IdentityCase(True, .5, .3, .3), "dimension must be 2 or 3, got True"),
    (lambda: IdentityCase(2, .5, .3, .3, t=.5), "2D cases derive t = 1 - s and take no z"),
    (lambda: IdentityCase(3, .5, .3, .3, t=.2), "3D cases need explicit t and z"),
    (lambda: IdentityCase(2, complex(math.inf, 0), .3, .3), "s = (inf+0j) is not finite"),
    (lambda: IdentityCase(3, .5, .3, .3, t=.2, z=math.nan), "z = (nan+0j) is not finite"),
    (lambda: IdentityCase(2, 2, .5, .3, closed_form_id="nope"), "unknown closed_form_id 'nope'"),
    (lambda: IdentityCase(2, 3, .5, .3, closed_form_id="dilog-half"),
     "closed_form_id 'dilog-half' stands for Li_2(0.5), not Li_s(x) at s=(3+0j), x=(0.5+0j)"),
    (lambda: IdentityCase(2, 2, 1, .3, closed_form_id="ln2"),
     "closed_form_id 'ln2' does not apply in zeta mode (x = 1)"),
    (lambda: IdentityCase(2, .5, .9999, .3), "|x| = 0.9999 too close to the unit circle"),
    (lambda: IdentityCase(3, .5, 1, .3, t=.2, z=.3), "x = 1 is only supported in the 2D zeta mode"),
    (lambda: IdentityCase(2, 1.0005, 1, .3),
     "x = 1 needs real s >= 1 + 0.001 so the first factor is zeta(s)"),
    (lambda: TruncationSpec(0, 1e-8), "degree_cap must be a positive integer, got 0"),
    (lambda: TruncationSpec(5.0, 1e-8), "degree_cap must be a positive integer, got 5.0"),
    (lambda: TruncationSpec(5, 0), "tol must be positive"),
    (lambda: TruncationSpec(5, math.nan), "tol must be positive"),
    (lambda: TruncationSpec(5, 1e-8, -1.0), "tail_bound cannot be negative"),
])
def test_bad_records_raise_the_same_domain_error(make, message):
    # The messages are those of the frozen-dataclass checks they replace.
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


def test_record_repr_and_pickle_round_trip_are_unchanged():
    # Each repr is the one the frozen dataclasses printed.
    case = IdentityCase(dimension=3, s=0.5, x=0.3, y=0.2, t=0.25, z=-0.1j, label="a")
    records = {
        case: "IdentityCase(dimension=3, s=(0.5+0j), x=(0.3+0j), y=(0.2+0j), t=(0.25+0j), "
              "z=(-0-0.1j), closed_form_id=None, label='a')",
        TruncationSpec(12, 1e-8): "TruncationSpec(degree_cap=12, tol=1e-08, tail_bound=None)",
        polylog(2, 0.5): "SeriesResult(value=(0.582240526465012+0j), terms_used=40, "
                         "tail_bound=9.094947017738378e-13)",
        verify(IdentityCase(2, 2, 0.5, 0.3), 1e-6): (
            "IdentityReport(case=IdentityCase(dimension=2, s=(2+0j), x=(0.5+0j), y=(0.3+0j), "
            "t=None, z=None, closed_form_id=None, label=''), lhs_log=(0.35647378570948873+0j), "
            "rhs_log=(0.3564737915955119+0j), abs_err=5.886023168866217e-09, "
            "rel_err=1.6511797802922473e-08, degree_cap=32, tol=1e-06, "
            "tail_bound=3.110883749006836e-07, terms=178, "
            "rhs_factors=((0.5822405262726695+0j), (0.6122448979591836+0j)))"),
        ProbeRow(0.5, 0.5, error="x"): (
            "ProbeRow(delta=0.5, y=0.5, lhs_log=None, rhs_log=None, abs_err=None, "
            "rhs_exponent_magnitude=None, closed_factor=None, degree_cap=None, tail_bound=None, "
            "error='x')"),
    }
    for record, shown in records.items():
        assert repr(record) == shown
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is type(record) and back == record and repr(back) == shown


def test_module_level_helpers_are_not_exported():
    # They stay attributes of their modules, where bench/run.py reads the
    # products ones and the scan calls exponent_pair_deviation, but the
    # package exports only the identity, polylog and explorer API.
    helpers = {"TruncationSpec", "lhs_log_product", "rhs_log", "choose_degree_cap",
               "exponent_pair_deviation"}
    assert helpers.isdisjoint(vpvlab.__all__)
    assert not any(hasattr(vpvlab, name) for name in helpers)
