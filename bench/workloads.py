"""Seeded workload generators.

An operation is plain data: the benchmark builds it from the seed, and the
program under test receives only these inputs. Every workload uses
stratified (Latin-hypercube) draws for the parameters that set the cost of
an operation (argument moduli, heights on the critical line), so two seeds
give batches of nearly the same total work and the run-to-run spread stays
small while the inputs still differ.

Orders with a non-integer value are drawn only where every order's real
part lies in [0, 1]; outside that strip the right side cannot be evaluated
today (see the pinned defects below), and a later fix would read as a
slow-down of the timed batch.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

LATTICE_TOL = 1e-8
SERIES_TOL = 1e-12
ZETA_MODE_TOL = 1e-8


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    kind: "verify", "polylog", "zeta_real" or "cli".
    verify: dimension, s, x, y, t, z (t and z are None in 2D); x == 1
        selects the zeta mode.
    polylog: s, z.  zeta_real: s.
    cli: argv; meta holds the parsed inputs the oracle checks against,
        and expect_exit the exit code a correct program returns.
    """

    kind: str
    tol: float
    s: complex = 0j
    x: complex = 0j
    y: complex = 0j
    t: complex | None = None
    z: complex | None = None
    dimension: int = 2
    argv: tuple = ()
    expect_exit: int = 0
    meta: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.kind == "cli":
            return "vpvlab " + " ".join(self.argv)
        if self.kind == "verify":
            extra = "" if self.dimension == 2 else f", t={self.t!r}, z={self.z!r}"
            return (f"verify(dim={self.dimension}, s={self.s!r}, x={self.x!r}, "
                    f"y={self.y!r}{extra}, tol={self.tol!r})")
        if self.kind == "polylog":
            return f"polylog(s={self.s!r}, z={self.z!r}, tol={self.tol!r})"
        return f"zeta_real(s={self.s.real!r}, tol={self.tol!r})"


def _grid(rng: random.Random, n: int, lo: float, hi: float, at: float = 0.5) -> list[float]:
    """n values spread evenly over [lo, hi], ascending: one per stratum, at
    fraction `at` of it, moved by up to a twentieth of the spacing. Used
    for the parameters that set an operation's cost, so every seed covers
    their range the same way: seeds differ in their inputs but hardly in
    total work. Grids of one workload sit at different `at`, so costs do
    not bunch at a few values and the p90 does not jump between them."""
    step = (hi - lo) / n
    return [lo + step * (i + at + 0.1 * (rng.random() - 0.5)) for i in range(n)]


def _polar(rng: random.Random, r: float, phase: float) -> complex:
    return cmath.rect(r, rng.uniform(-phase, phase))


def _args(rng, r_max, lo, phase, count):
    """count arguments whose largest modulus is r_max, in random positions."""
    mods = [r_max] + [rng.uniform(lo, r_max) for _ in range(count - 1)]
    rng.shuffle(mods)
    return [_polar(rng, m, phase) for m in mods]


def _strip_orders(rng, count, im):
    """count - 1 free orders whose real parts, and that of the implied last
    order, all lie in [0, 1]."""
    cuts = sorted(rng.random() for _ in range(count - 1))
    parts = [b - a for a, b in zip([0.0] + cuts, cuts)]
    return [complex(p, rng.uniform(-im, im)) for p in parts]


# ---------------------------------------------------------------------------
# lattice: the visible-point product kernel, 2D and 3D
# ---------------------------------------------------------------------------

def lattice_ops(seed: int) -> list[Op]:
    rng = random.Random(f"lattice:{seed}")
    ops: list[Op] = []
    # 2D: critical line, integer orders (second order non-positive, closed
    # form), and complex orders inside the strip. The largest modulus sets
    # the degree cap, and with it the cost.
    for r_max in _grid(rng, 33, 0.55, 0.9):
        x, y = _args(rng, r_max, 0.55, 0.6, 2)
        ops.append(Op("verify", LATTICE_TOL, s=complex(0.5, rng.uniform(0, 40)), x=x, y=y))
    for s in (1, 2, 3, 4, 5):
        for r_max in _grid(rng, 7, 0.55, 0.9):
            x, y = _args(rng, r_max, 0.55, 0.6, 2)
            if s == 5:
                # |Li_-4(y)| reaches 1e6 near |y| = 0.9; the rounding error
                # of a sum that large, which no bound covers, reached 1.3e-8
                # of the 3e-8 allowed in a scan. |y| <= 0.8 keeps it near 5e-10.
                x = _polar(rng, r_max, 0.6)
                y = _polar(rng, rng.uniform(0.55, min(r_max, 0.8)), 0.6)
            ops.append(Op("verify", LATTICE_TOL, s=complex(s), x=x, y=y))
    for r_max in _grid(rng, 32, 0.55, 0.9):
        x, y = _args(rng, r_max, 0.55, 0.6, 2)
        (s,) = _strip_orders(rng, 2, 10)
        ops.append(Op("verify", LATTICE_TOL, s=s, x=x, y=y))
    # 3D: four complex-strip cases, four integer cases (third order -1 or -2).
    for r_max in _grid(rng, 4, 0.45, 0.7):
        x, y, z = _args(rng, r_max, 0.45, 0.6, 3)
        s, t = _strip_orders(rng, 3, 5)
        ops.append(Op("verify", LATTICE_TOL, s=s, x=x, y=y, t=t, z=z, dimension=3))
    for r_max, (s, t) in zip(_grid(rng, 4, 0.45, 0.7), ((1, 1), (2, 1), (1, 1), (1, 2))):
        x, y, z = _args(rng, r_max, 0.45, 0.6, 3)
        ops.append(Op("verify", LATTICE_TOL, s=complex(s), x=x, y=y, t=complex(t), z=z,
                      dimension=3))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# series: polylog near the unit circle, zeta mode, zeta_real
# ---------------------------------------------------------------------------

def series_ops(seed: int) -> list[Op]:
    rng = random.Random(f"series:{seed}")
    ops: list[Op] = []
    # The term count grows like 1/(1 - |z|) and with -Re s.
    for r in _grid(rng, 40, 0.97, 0.999, at=0.25):
        s = complex(0.5, rng.uniform(0, 100))
        ops.append(Op("polylog", SERIES_TOL, s=s, z=_polar(rng, r, math.pi)))
    sigmas = _grid(rng, 40, -2.0, 3.0)
    for i, r in enumerate(_grid(rng, 40, 0.97, 0.999, at=0.75)):
        s = complex(sigmas[i * 7 % 40], rng.uniform(-20, 20))  # a fixed interleaving
        ops.append(Op("polylog", SERIES_TOL, s=s, z=_polar(rng, r, math.pi)))
    # Zeta mode (x = 1), cost growing steeply with y. Its error grows with s
    # and y until it passes 3 tol (a pinned defect, below), so the draw
    # stops short of that for s = 5 and 6.
    for j, (s, y_top) in enumerate(((2, 0.92), (3, 0.92), (4, 0.92), (5, 0.88), (6, 0.74))):
        for y in _grid(rng, 5, 0.6, y_top, at=(j + 0.5) / 5):
            ops.append(Op("verify", ZETA_MODE_TOL, s=complex(s), x=1 + 0j, y=complex(y)))
    for s in _grid(rng, 6, 1.1, 8.0):
        ops.append(Op("zeta_real", SERIES_TOL, s=complex(s)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli: in-process vpvlab.cli.main(argv) over all nine subcommands
# ---------------------------------------------------------------------------

FORMATS = ("human", "csv", "json")


def cx(v: complex) -> str:
    """A complex value in the CLI's a+bi syntax; repr keeps every digit."""
    v = complex(v)
    im = repr(v.imag)
    return f"{v.real!r}{'' if im.startswith('-') else '+'}{im}i"


def _cli(cmd: str, fmt: str, flags: dict, tol: float = 0.0, expect_exit: int = 0,
         **meta) -> Op:
    argv = [cmd]
    for key, value in flags.items():
        argv.append(f"--{key}={value}")
    if fmt != "human":
        argv.append(f"--format={fmt}")
    meta.update(cmd=cmd, fmt=fmt)
    return Op("cli", tol, argv=tuple(argv), expect_exit=expect_exit, meta=meta)


def _small_order(rng: random.Random, family: int) -> complex:
    if family == 0:
        return complex(0.5, rng.uniform(0, 40))
    if family == 1:
        return complex(rng.randint(1, 5))
    return complex(rng.random(), rng.uniform(-10, 10))


def cli_verify2(s, x, y, fmt="human", tol=1e-8) -> Op:
    return _cli("verify2", fmt, {"s": cx(s), "x": cx(x), "y": cx(y), "tol": repr(tol)}, tol,
                s=complex(s), x=complex(x), y=complex(y))


def cli_polylog(s, z, fmt="human", tol=1e-12, dps=None) -> Op:
    flags = {"s": cx(s), "z": cx(z), "tol": repr(tol)}
    if dps is not None:
        flags["precision"] = f"extended:{dps}"
    return _cli("polylog", fmt, flags, tol, s=complex(s), z=complex(z), dps=dps)


def cli_ops(seed: int) -> list[Op]:
    rng = random.Random(f"cli:{seed}")
    ops: list[Op] = []
    for i, r in enumerate(_grid(rng, 30, 0.1, 0.5)):
        x, y = _args(rng, r, 0.1, 0.6, 2)
        ops.append(cli_verify2(_small_order(rng, i % 3), x, y, FORMATS[i // 3 % 3]))
    for i, r in enumerate(_grid(rng, 12, 0.1, 0.5)):
        x, y, z = _args(rng, r, 0.1, 0.6, 3)
        if i % 2:
            s, t = (complex(a) for a in ((1, 1), (2, 1), (1, 2))[i // 2 % 3])
        else:
            s, t = _strip_orders(rng, 3, 5)
        flags = {"s": cx(s), "t": cx(t), "x": cx(x), "y": cx(y), "z": cx(z)}
        ops.append(_cli("verify3", FORMATS[i % 3], flags, 1e-8, s=s, t=t, x=x, y=y, z=z))
    for i in range(4):
        ops.append(_cli("catalog", FORMATS[i % 3], {}, 1e-8))
    for i in range(8):
        heights = [round(rng.uniform(0, 50), 6) for _ in range(2)]
        flags = {"T": ",".join(repr(h) for h in heights), "x": "0.2", "y": "0.2"}
        ops.append(_cli("scan", FORMATS[i % 3], flags, 1e-8, T=heights, x=0.2 + 0j, y=0.2 + 0j))
    for i, order in enumerate((2, 3, 4, 2, 3, 4)):
        deltas = [rng.uniform(0.45, 0.5), rng.uniform(0.3, 0.35)]
        flags = {"order": str(order), "deltas": ",".join(repr(d) for d in deltas)}
        ops.append(_cli("probe", FORMATS[i % 3], flags, 1e-8, order=order, x=0.5 + 0j,
                        deltas=deltas))
    for i, dps in enumerate((None, None, None, 30, 30, 30)):
        flags = {} if dps is None else {"precision": f"extended:{dps}"}
        ops.append(_cli("audit", FORMATS[i % 3], flags, 1e-12, dps=dps))
    for i, exponent in enumerate(_grid(rng, 6, -10.0, -6.0)):
        tol = 10.0 ** exponent
        ops.append(_cli("ez31", FORMATS[i % 3], {"tol": repr(tol)}, tol))
    for dim, lo, hi in ((2, 10, 60), (3, 6, 18)):
        for i, cap in enumerate(_grid(rng, 6, lo, hi)):
            cap = round(cap)
            flags = {"dimension": str(dim), "degree-cap": str(cap)}
            ops.append(_cli("visible", FORMATS[i % 3], flags, dimension=dim, degree_cap=cap))
    for i, r in enumerate(_grid(rng, 24, 0.05, 0.9)):
        if i % 4:
            s = _small_order(rng, i % 3)
        else:
            s = complex(rng.uniform(-2, 3), rng.uniform(-20, 20))
        dps = (20, 30, 40)[i // 9 % 3] if i % 3 == 0 else None
        ops.append(cli_polylog(s, _polar(rng, r, math.pi), FORMATS[i // 3 % 3], dps=dps))
    # Invalid input must give exit 1 with a message on stderr.
    invalid = [
        ("verify2", {"x": "1.5"}),
        ("verify2", {"s": "2", "x": "1.5", "y": "0.3"}),
        ("verify2", {"s": "2", "x": "0.5", "y": "0.3", "tol": "-1"}),
        ("verify3", {"s": "0.3", "t": "0.2", "x": "0.3", "y": "0.2", "z": "1.2"}),
        ("polylog", {"s": "2", "z": "1.5"}),
        ("polylog", {"s": "abc", "z": "0.5"}),
        ("polylog", {"s": "2", "z": "0.5", "precision": "quad"}),
        ("visible", {"dimension": "4"}),
        ("probe", {"order": "7"}),
        ("probe", {"deltas": "1.5"}),
        ("scan", {"T": ""}),
        ("ez31", {"tol": "1e-20"}),
    ]
    for i, (cmd, flags) in enumerate(invalid):
        ops.append(_cli(cmd, FORMATS[i % 3], flags, expect_exit=1))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"lattice": lattice_ops, "series": series_ops, "cli": cli_ops}


def pinned_defects() -> list[Op]:
    """Valid inputs that get a wrong outcome today.

    They are run and checked on every workload, outside the timed batch,
    and counted in cli.pinned_defects_open; a fix lowers the count. A
    typed refusal (exit 2, tolerance not achievable) also closes one.
    """
    probes = [
        # rhs_factors passes tol 0 to polylog once 2^sigma |arg| >= 1: exit 1.
        cli_verify2(2.5, 0.5, 0.6),
        # abs_err 7e21 against tol 1e-8, with exit 0.
        _cli("verify2", "human", {"s": "-30", "x": "0.5", "y": "0.5"}, 1e-8,
             s=complex(-30), x=0.5 + 0j, y=0.5 + 0j),
        # The split-exponent self-check is absolute: internal error, exit 3.
        _cli("scan", "human", {"T": "500"}, 1e-8, T=[500.0], x=0.2 + 0j, y=0.2 + 0j),
        # Phase rounding at |Im s| = 1e6 is not in the reported bound.
        cli_polylog(complex(0.5, 1e6), 0.5),
        # Zeta mode at s = 6, y = 0.9 misses 3*tol by a factor of 30.
        cli_verify2(6, 1, 0.9),
    ]
    for op in probes:
        op.meta["allow_refusal"] = True
    return probes
