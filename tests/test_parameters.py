"""Every bound has one owner: the library function that does the work refuses
an out-of-range argument with ParameterError before any work, and the command
line reports it as a usage error (exit 2) under the flag of the same name."""

import argparse
import functools
import math

import pytest

import fatou.basins
import fatou.catalog
import fatou.lifting
import fatou.orbits
import fatou.rays
from fatou.basins import (MAX_CELLS, MAX_ITER, Bounds, classify_grid, classify_points,
                          superattracting_cycles)
from fatou.catalog import (FAMILY_MAX_DEGREE, RABBIT_MAX_DEGREE, paper_g, pseudo_basilica,
                           pseudo_rabbit_roots)
from fatou.cli import build_parser, dispatch
from fatou.lifting import (MAX_SEGMENTS, MAX_STEPS, circle, lift_curve,
                           sign_change_sequence)
from fatou.orbits import critical_portrait, periodic_points
from fatou.ratmap import iterate_degree
from fatou.rays import MAX_DEPTH, MAX_R0, trace_orbit
from fatou.sphere import ParameterError, SpherePoint

G = paper_g()
INF = SpherePoint.infinity()
_BOX = Bounds(-1, 1, -1, 1)
REPELLING = (-1.0 - math.sqrt(17.0)) / 4.0  # the fixed point R_1/3 lands on


@functools.cache
def _portrait():
    return critical_portrait(G)


def _ray(**kwargs):
    return lambda: trace_orbit(G, INF, ["1/3"], **kwargs)


def _grid(resolution=(8, 8), **kwargs):
    return lambda: classify_grid(G, _portrait(), _BOX, resolution, **kwargs)


def _points(**kwargs):
    # 0.5 is in no trap disk, so classifying it takes a step
    return lambda: classify_points(G, superattracting_cycles(_portrait()), 0.5, 1.0, **kwargs)


def _lift(eps=1e-3, omega=1e6):
    return lambda: lift_curve(G, circle(-2.0, 0.1), omega, eps=eps)


def _tower(n):
    return lambda: sign_change_sequence(G, circle(-2.0, 0.1), 1e6, n=n)


_CASES = [
    ("depth", _ray(depth=0)),
    ("depth", _ray(depth=MAX_DEPTH + 1)),
    ("r0", _ray(r0=5.0)),
    ("r0", _ray(r0=math.nan)),
    ("r0", _ray(r0=math.inf)),
    ("r0", _ray(r0=math.nextafter(MAX_R0, math.inf))),
    ("angle", lambda: trace_orbit(G, INF, ["1/1000003"])),
    ("trap_radius", _grid(trap_radius=math.nan)),
    ("trap_radius", _grid(trap_radius=-1.0)),
    ("trap_radius", _grid(trap_radius=math.inf)),
    ("trap_radius", _grid(trap_radius=0.95)),  # the disks at 0 and -2 overlap
    ("trap_radius", _grid(trap_radius=1e300)),
    ("max_iter", _grid(max_iter=0)),
    ("max_iter", _grid(max_iter=MAX_ITER + 1)),
    ("resolution", _grid(resolution=(0, 4))),
    ("resolution", _grid(resolution=(MAX_CELLS + 1, 1))),
    ("center", lambda: circle(complex(math.nan, 0.0), 0.1)),
    ("center", lambda: circle(INF, 0.1)),
    ("radius", lambda: circle(0.0, 0.0)),
    ("radius", lambda: circle(0.0, -1.0)),
    ("radius", lambda: circle(0.0, math.nan)),
    ("radius", lambda: circle(0.0, math.inf)),
    ("radius", lambda: circle(0.0, 1e-320)),  # subnormal: vertices round together
    ("segments", lambda: circle(0.0, 1.0, 2)),
    ("segments", lambda: circle(0.0, 1.0, MAX_SEGMENTS + 1)),
    (("center", "radius"), lambda: circle(1e308, 1e308)),
    (("center", "radius"), lambda: circle(1e100, 1.0)),
    ("eps", _lift(eps=math.nan)),
    ("eps", _lift(eps=0.0)),
    ("eps", _lift(eps=math.inf)),
    ("omega", _lift(omega=math.nan)),
    ("steps", _tower(0)),
    ("steps", _tower(MAX_STEPS + 1)),
    ("period", lambda: periodic_points(G, 0)),
    ("period", lambda: periodic_points(G, 9)),  # 3^9 > 4096
    ("period", lambda: iterate_degree(2, 13)),
    ("period", lambda: iterate_degree(3, 10 ** 18)),
    ("degree", lambda: pseudo_basilica(1)),
    ("degree", lambda: pseudo_basilica(FAMILY_MAX_DEGREE + 1)),
    ("degree", lambda: pseudo_basilica(10 ** 6)),
    ("degree", lambda: pseudo_rabbit_roots(RABBIT_MAX_DEGREE + 1)),
    ("degree", lambda: pseudo_rabbit_roots(FAMILY_MAX_DEGREE + 1)),
    ("trap_radius", _points(trap_radius=math.nan)),
    ("trap_radius", _points(trap_radius=-1.0)),
    ("trap_radius", _points(trap_radius=1e300)),  # the trap disks overlap
    ("max_iter", _points(max_iter=0)),
    ("max_iter", _points(max_iter=MAX_ITER + 1)),
    ("basin", lambda: trace_orbit(G, 0.0, ["1/3"])),  # on the two-cycle 0 <-> -2
    ("basin", lambda: trace_orbit(G, 1.0, ["1/3"])),  # critical, mapped to 0
    ("basin", lambda: trace_orbit(G, REPELLING, ["1/3"])),
    ("basin", lambda: trace_orbit(G, 2.0, ["1/3"])),  # repelling too
]


def _no_work(*args, **kwargs):
    raise AssertionError("worked on an argument it should have refused")


@pytest.mark.parametrize("names, call", _CASES)
def test_library_refuses_out_of_range_arguments_before_work(names, call, monkeypatch):
    for module, attr in ((fatou.rays, "_trace_at_infinity"), (fatou.basins, "hom_eval"),
                         (fatou.lifting, "_vertex_fibers"), (fatou.catalog, "hom_compose"),
                         (fatou.orbits, "compose_self")):
        monkeypatch.setattr(module, attr, _no_work)
    with pytest.raises(ParameterError) as refused:
        call()
    want = (names,) if isinstance(names, str) else names
    assert refused.value.names == want
    assert str(refused.value) == f"{'/'.join(want)}: {refused.value.message}"


@pytest.mark.parametrize("basin", ["0,0", "1,0", "2,0", f"{REPELLING!r},0"])
def test_basin_points_that_are_not_superattracting_fixed_points_exit_two(
        basin, capsys, monkeypatch):
    monkeypatch.setattr(fatou.rays, "_trace_at_infinity", _no_work)
    code = dispatch(["ray", "--map", "paper-g", f"--basin={basin}", "--angle", "1/3"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --basin: ") and err.count("\n") == 1


# a valid command per subcommand with numeric flags; a flag given again later
# on the command line overrides the first
_BASE = {
    "periodic": ["periodic", "--map", "paper-g", "--period", "1"],
    "ray": ["ray", "--map", "paper-g", "--angle", "1/3"],
    "lift": ["lift", "--map", "paper-g", "--center=-2,0", "--radius", "0.1"],
    "render": ["render", "--map", "paper-g", "--resolution", "4x4", "--out", "out.ppm"],
}


def _numeric_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, p in sub.choices.items()
            for action in p._actions if action.type in (int, float)]


def test_every_command_with_a_numeric_flag_has_a_base_command():
    assert {name for name, _ in _numeric_flags()} == set(_BASE)


@pytest.mark.parametrize("command, flag", _numeric_flags())
@pytest.mark.parametrize("value", ["nan", "-1", "1e400"])
def test_unusable_numeric_flags_exit_two_naming_the_flag(
        command, flag, value, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = dispatch(_BASE[command] + [f"{flag}={value}"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert last.startswith(f"usage error: {flag}: ") or f"argument {flag}: " in last
    assert list(tmp_path.iterdir()) == []
