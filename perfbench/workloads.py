"""The four workloads: which `fatou` commands a round runs, and how each
command's output is checked.

A round is the same list of commands on every seed; the seed only shuffles
the order and picks the basin cells that are re-iterated. So every run
attempts whole rounds of identical work and fails the same share of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

CATALOG = ("paper-g", "paper-degree4", "pseudo-basilica:2", "pseudo-basilica:3",
           "pseudo-basilica:4", "pseudo-rabbit:3:0")

# Angle sets closed under doubling (the local degree at infinity is 2 on every
# catalog map) or mapping onto the pair 1/3, 2/3. paper-g, where closed forms
# are known, runs {1/3, 2/3} and {0, 1/6, 5/6}; the period-3 orbit runs on the
# cheapest map and {1/3, 2/3} on the others, so a round takes ~9 s.
RAYS = (
    ("paper-g", ("1/3", "2/3"), True),
    ("paper-g", ("0", "1/6", "5/6"), False),
    ("paper-degree4", ("1/3", "2/3"), False),
    ("pseudo-basilica:2", ("1/7", "2/7", "4/7"), False),
    ("pseudo-basilica:3", ("1/3", "2/3"), False),
    ("pseudo-basilica:4", ("1/3", "2/3"), False),
    ("pseudo-rabbit:3:0", ("1/3", "2/3"), False),
)
# Maps of the two-cycle family, where R_1/3 and R_2/3 co-land at a fixed point.
# On the rabbit they land apart.
COLANDING = {"paper-g", "paper-degree4", "pseudo-basilica:2", "pseudo-basilica:3",
             "pseudo-basilica:4"}
WIDE = (-2.8, 2.8, -2.1, 2.1)
ZOOM = (-1.2908, -1.2708, -0.01, 0.01)  # around the landing point of R_1/3 on paper-g
BASINS = tuple((name, WIDE, (400, 400)) for name in CATALOG) + (
    ("paper-g", ZOOM, (400, 400)),
    ("paper-g", WIDE, (800, 600)),
)
LIFT_RADIUS = 0.1
LIFT_SEGMENTS = 64
TOWERS = (  # map, centre, omega (None = infinity), steps
    ("paper-g", -2.0, None, 4),
    ("paper-g", -2.0, 0j, 3),
    ("paper-degree4", 0.0, None, 4),
    ("paper-degree4", 0.0, 0j, 3),
)
PERIODIC_MAX_DEGREE = 729
# d^p from which the faults of periodic_points show: (a) RootFindingError,
# (b) wrong output with exit 0. Fault (b) spares pseudo-basilica:2 at d^p = 32.
FAULT_A_FROM = 243
FAULT_B_FROM = 27
FAULT_B_FROM_MAP = {"pseudo-basilica:2": 64}
NAMES = ("rays", "basins", "lifts", "periodic")


@dataclass(frozen=True)
class Op:
    """One CLI command and the check of its output.

    check(stdout) returns the work delivered or raises CheckFailed.
    fault names the fault of periodic_points expected on the command: "a",
    a RootFindingError exit; "b", output that exits 0 and fails its check;
    None, no failure.
    """

    label: str
    argv: tuple
    check: Callable[[str], int]
    fault: str | None = None


def _json(fn):
    def run(out: str, *args, **kw):
        return fn(json.loads(out), *args, **kw)
    return run


def _point_arg(z) -> str:
    return "inf" if z is None else f"{z.real!r},{z.imag!r}"


def rays(maps) -> list[Op]:
    ops = []
    for name, angles, samples in RAYS:
        argv = ["ray", "--map", name] + [a for t in angles for a in ("--angle", t)]
        if samples:
            argv.append("--samples")
        ops.append(Op(f"ray {name} {','.join(angles)}", tuple(argv),
                      partial(_json(checks.check_ray), f=maps[name], map_name=name,
                              angles=angles, samples=samples,
                              colanding=name in COLANDING)))
    return ops


def basins(maps, out_dir: Path, rng, images: dict) -> list[Op]:
    ops = []
    for i, (name, bounds, (w, h)) in enumerate(BASINS):
        ppm = out_dir / f"basins-{i}.ppm"
        argv = ("render", "--map", name, "--out", str(ppm),
                "--resolution", f"{w}x{h}", "--bounds=" + ",".join(map(repr, bounds)))
        label = f"render {name} {w}x{h} {bounds}"

        def check(out, name=name, bounds=bounds, ppm=ppm, w=w, h=h, label=label):
            cls = checks.colour_classes(checks.read_ppm(ppm, w, h))
            images.setdefault(label, cls)
            return checks.check_render(json.loads(out), maps[name], cls, bounds, rng)
        ops.append(Op(label, argv, check))
    return ops


def lifts(maps) -> list[Op]:
    ops = []
    for name in CATALOG:
        for c in (0.0, 1.0 - maps[name].degree):
            argv = ("lift", "--map", name, f"--center={c!r},0", "--radius", repr(LIFT_RADIUS),
                    "--segments", str(LIFT_SEGMENTS))
            ops.append(Op(f"lift {name} around {c}", argv,
                          partial(_json(checks.check_lift), f=maps[name], center=complex(c),
                                  radius=LIFT_RADIUS, segments=LIFT_SEGMENTS, omega=None)))
    for name, c, omega, steps in TOWERS:
        argv = ("lift", "--map", name, f"--center={c!r},0", "--radius", repr(LIFT_RADIUS),
                "--steps", str(steps), "--omega", _point_arg(omega))
        ops.append(Op(f"lift {name} around {c} --steps {steps} omega {_point_arg(omega)}",
                      argv, partial(_json(checks.check_tower), f=maps[name], steps=steps,
                                    omega_at_infinity=omega is None)))
    return ops


def periodic_fault(name: str, n: int) -> str | None:
    """The fault expected on map `name` at d^p = n."""
    if n >= FAULT_A_FROM:
        return "a"
    return "b" if n >= FAULT_B_FROM_MAP.get(name, FAULT_B_FROM) else None


def periodic(maps) -> list[Op]:
    """Every catalog map at every period with d^p <= 729.

    Two faults of `orbits.periodic_points`, which expands f^p into dense
    coefficients, are expected: (a) a RootFindingError exit once d^p >= 243,
    and (b) output that fails the checks (points lost to infinity, wrong
    multiplicities, Newton distances far above the bound) before that.
    """
    ops = []
    for name in CATALOG:
        p = 1
        while (n := maps[name].degree ** p) <= PERIODIC_MAX_DEGREE:
            ops.append(Op(f"periodic {name} --period {p}",
                          ("periodic", "--map", name, "--period", str(p)),
                          partial(_json(checks.check_periodic), f=maps[name], period=p),
                          fault=periodic_fault(name, n)))
            p += 1
    return ops


def build(workload: str, maps, out_dir: Path, rng, images: dict) -> list[Op]:
    if workload == "basins":
        return basins(maps, out_dir, rng, images)
    return {"rays": rays, "lifts": lifts, "periodic": periodic}[workload](maps)

