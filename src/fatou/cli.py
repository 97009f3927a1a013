"""Command-line surface: rendering, orbit reports, rays, lifting, self-checks.

All reports go to stdout as single-line JSON with fixed key order and
shortest round-trip floats, so identical invocations are byte-identical.
Exit codes: 0 success, 1 computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import sys

from . import _jsonio
from . import basins as _basins
from . import rays as _rays
from .catalog import CATALOG_NAMES, by_name
from .lifting import circle, lift_curve, sign_change_sequence
from .orbits import critical_portrait, periodic_points
from .ratmap import RationalMap, map_from_jsonable, map_to_jsonable
from .rays import DEFAULT_DEPTH, DEFAULT_R0, RayAngle
from .sphere import ParameterError, SpherePoint, as_sphere
from .verify import groups as verify_groups
from .verify import run_checks

SCHEMA = 1


def _angle_type(text: str) -> RayAngle:
    try:
        return RayAngle.parse(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"--angle expects an exact fraction 'a/b' or integer, got {text!r}")


def _point_type(text: str):
    s = text.strip().lower()
    if s in ("inf", "infinity"):
        return SpherePoint.infinity()
    try:
        if "," in s:
            re_s, im_s = s.split(",", 1)
            z = complex(float(re_s), float(im_s))
        else:
            z = complex(float(s), 0.0)
    except ValueError:
        z = None
    if z is None or not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(
            f"expected a finite point 're,im' or 'inf', got {text!r}")
    return z


def _bounds_type(text: str) -> _basins.Bounds:
    # argparse prefixes these messages with "argument --bounds: "
    try:
        xmin, xmax, ymin, ymax = (float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects four numbers 'xmin,xmax,ymin,ymax', got {text!r}")
    try:
        return _basins.Bounds(xmin, xmax, ymin, ymax)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _resolution_type(text: str) -> tuple:
    try:
        w_s, h_s = text.lower().split("x", 1)
        return int(w_s), int(h_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--resolution expects 'WIDTHxHEIGHT', got {text!r}")


def _load_map(selector: str) -> RationalMap:
    try:
        return by_name(selector)
    except KeyError as exc:
        reason = exc.args[0]
    if os.path.exists(selector):
        try:
            with open(selector, "r", encoding="utf-8") as fh:
                return map_from_jsonable(json.load(fh))
        except (OSError, ValueError, RecursionError) as exc:
            raise ParameterError("map", f"map file {selector!r}: {exc}") from None
    raise ParameterError("map", f"not a file, and {reason}; "
                         f"catalog: {', '.join(CATALOG_NAMES)}")


def _emit(report: dict):
    sys.stdout.write(_jsonio.dumps(report) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_portrait(args) -> int:
    f = _load_map(args.map)
    port = critical_portrait(f)
    order = sorted(range(len(port.critical_points)),
                   key=lambda i: _basins.point_key(port.critical_points[i].point))
    crit = []
    for i in order:
        c = port.critical_points[i]
        rep = port.orbits[i]
        entry = {
            "point": _jsonio.sphere_jsonable(c.point),
            "local_degree": c.local_degree,
        }
        if rep is None:
            entry["resolved"] = False
        else:
            entry["resolved"] = True
            entry["preperiod"] = rep.preperiod
            entry["period"] = rep.period
            entry["multiplier"] = _jsonio.complex_pair(rep.multiplier)
            entry["classification"] = rep.classification
        crit.append(entry)
    report = {
        "schema": SCHEMA,
        "map": args.map,
        "degree": f.degree,
        "critical_points": crit,
        "postcritical": [_jsonio.sphere_jsonable(p)
                         for p in sorted(port.postcritical, key=_basins.point_key)],
        "postcritical_in_critical_cycles": [
            _jsonio.sphere_jsonable(p)
            for p in sorted(port.q_subset, key=_basins.point_key)],
        "critically_finite": port.critically_finite,
        "hyperbolic": port.hyperbolic,
        "all_postcritical_periodic": port.all_postcritical_periodic,
    }
    _emit(report)
    return 0


def cmd_periodic(args) -> int:
    f = _load_map(args.map)
    pts = periodic_points(f, args.period)
    pts = sorted(pts, key=lambda q: _basins.point_key(q.point))
    report = {
        "schema": SCHEMA,
        "map": args.map,
        "period": args.period,
        "count": sum(q.multiplicity for q in pts),
        "points": [{
            "point": _jsonio.sphere_jsonable(q.point),
            "multiplicity": q.multiplicity,
            "minimal_period": q.minimal_period,
        } for q in pts],
    }
    _emit(report)
    return 0


def cmd_ray(args) -> int:
    f = _load_map(args.map)
    angles = list(dict.fromkeys(args.angle))
    traces = _rays.trace_orbit(f, args.basin, angles, depth=args.depth, r0=args.r0)
    rays = []
    for t in angles:
        tr = traces[t]
        entry = {
            "angle": str(tr.angle),
            "landed": tr.landed,
            "landing": _jsonio.complex_pair(tr.landing) if tr.landed else None,
            "certified": tr.certified,
            "multiplier": tr.multiplier,
            "disc_radius": tr.disc_radius,
            "residual": tr.residual,
            "potential_sublevels": tr.sublevels,
        }
        if args.samples:
            entry["samples"] = [_jsonio.complex_pair(z) for z in tr.samples]
            entry["potentials"] = list(tr.potentials)
        rays.append(entry)
    report = {
        "schema": SCHEMA,
        "map": args.map,
        "basin": _jsonio.sphere_jsonable(as_sphere(args.basin)),
        "depth": args.depth,
        "r0": args.r0,
        "rays": rays,
    }
    _emit(report)
    return 0


def cmd_lift(args) -> int:
    if args.steps < 0:  # 0 asks for a single lift
        raise ParameterError("steps", "must be a non-negative integer")
    f = _load_map(args.map)
    base = circle(args.center, args.radius, args.segments)
    report = {
        "schema": SCHEMA,
        "map": args.map,
        "curve": {"center": _jsonio.complex_pair(args.center),
                  "radius": args.radius, "segments": args.segments},
        "omega": _jsonio.sphere_jsonable(as_sphere(args.omega)),
    }
    if args.steps == 0:
        ls = lift_curve(f, base, args.omega, eps=args.eps)
        report["total_degree"] = ls.total_degree
        report["monodromy"] = list(ls.monodromy)
        report["lifts"] = [{
            "strand": l.strand,
            "degree": l.degree,
            "sign": l.sign,
            "vertices": [_jsonio.complex_pair(v) for v in l.curve.vertices],
        } for l in ls.lifts]
    else:
        seq = sign_change_sequence(f, base, args.omega, n=args.steps, eps=args.eps)
        report["base_sign"] = seq.base_sign
        report["signs"] = list(seq.signs)
        report["sign_changes"] = seq.change_count
        report["outermost_counts"] = [s.outermost_count for s in seq.steps]
    _emit(report)
    return 0


def cmd_catalog(args) -> int:
    maps = []
    for name in CATALOG_NAMES:
        f = by_name(name)
        entry = {"name": name, "degree": f.degree}
        if args.coeffs:
            entry.update(map_to_jsonable(f))
        maps.append(entry)
    _emit({"schema": SCHEMA, "maps": maps})
    return 0


def cmd_render(args) -> int:
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if os.path.isdir(args.out):
        raise ParameterError("out", f"{args.out!r} is a directory")
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
        raise ParameterError("out", f"directory {out_dir!r} does not exist or is not writable")
    f = _load_map(args.map)
    port = critical_portrait(f)
    grid = _basins.classify_grid(f, port, args.bounds, args.resolution,
                                 trap_radius=args.trap_radius,
                                 max_iter=args.max_iter)
    labeling = _basins.label_components(grid)
    ppm = _basins.render_ppm(grid)
    with open(args.out, "wb") as fh:
        fh.write(ppm)
    unresolved = int((grid.cycle_id < 0).sum())
    report = {
        "schema": SCHEMA,
        "map": args.map,
        "resolution": [grid.width, grid.height],
        "bounds": [grid.bounds.xmin, grid.bounds.xmax,
                   grid.bounds.ymin, grid.bounds.ymax],
        "cycles": [[_jsonio.sphere_jsonable(p) for p in cyc]
                   for cyc in grid.cycles],
        "components": labeling.roots.size,
        "unresolved_cells": unresolved,
        "out": args.out,
    }
    _emit(report)
    return 0


def cmd_verify(args) -> int:
    results = run_checks(only=args.only)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:<{width}}  measured: {r.measured}  "
              f"[tolerance: {r.tolerance}]")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------------------
# parser / dispatch


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fatou",
        description="Rational map dynamics: basins, rays, curve lifting.")
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")

    def add_map(p):
        p.add_argument("--map", required=True,
                       help="catalog name or JSON map file")

    p = sub.add_parser("portrait", help="critical points, orbits, flags")
    add_map(p)
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("periodic", help="points of a given period")
    add_map(p)
    p.add_argument("--period", type=int, required=True)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("ray", help="trace rays in a superattracting basin")
    add_map(p)
    p.add_argument("--angle", type=_angle_type, action="append", required=True,
                   help="exact fraction a/b; repeatable")
    p.add_argument("--basin", type=_point_type, default=SpherePoint.infinity(),
                   help="superattracting fixed point ('inf' or 're,im')")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                   help="maximum number of potential levels; tracing stops once "
                        "every landing is certified")
    p.add_argument("--r0", type=float, default=DEFAULT_R0)
    p.add_argument("--samples", action="store_true",
                   help="include the full sample chain in the report")
    p.set_defaults(func=cmd_ray)

    p = sub.add_parser("lift", help="lift a circle through the map")
    add_map(p)
    p.add_argument("--center", type=_point_type, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--segments", type=int, default=64)
    p.add_argument("--omega", type=_point_type, default=SpherePoint.infinity(),
                   help="reference point ('inf' or 're,im')")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=0,
                   help="if > 0, iterate lifting this many times and report signs")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("catalog", help="list built-in maps")
    p.add_argument("--coeffs", action="store_true",
                   help="include numerator/denominator coefficients")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("render", help="basin classification image (P6 PPM)")
    add_map(p)
    p.add_argument("--out", required=True, help="output PPM path")
    p.add_argument("--resolution", type=_resolution_type, default=(400, 400))
    p.add_argument("--bounds", type=_bounds_type,
                   default=_basins.Bounds(-2.8, 2.8, -2.1, 2.1))
    p.add_argument("--trap-radius", type=float, default=_basins.DEFAULT_TRAP_RADIUS)
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="run the built-in numeric fact checks")
    p.add_argument("--only", choices=verify_groups(), default=None,
                   help="run a single check group")
    p.set_defaults(func=cmd_verify)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.error("a subcommand is required")
        return args.func(args)
    except SystemExit as e:
        code = e.code
        if isinstance(code, int):
            return code
        return 0 if code is None else 2
    except ParameterError as e:
        # the library names its parameters as the flags spell them
        flags = "/".join("--" + name.replace("_", "-") for name in e.names)
        print(f"usage error: {flags}: {e.message}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, KeyError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(dispatch())
