"""Lifting closed curves through a rational map, with orientation bookkeeping.

A simple closed polyline that stays clear of the critical values has a full
preimage made of disjoint closed curves. The full fiber over each vertex is
continued around the curve by nearest-strand matching; the monodromy
permutation this produces decomposes into cycles, one lift per cycle, whose
covering degree is the cycle length. Signs are relative to a marked point
omega standing in for the distinguished invariant Fatou component.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._geom import (is_simple, point_polyline_distance, signed_area,
                    winding_number)
from .sphere import SpherePoint, as_sphere
from .ratmap import (RationalMap, _Ambiguous, critical_points, eval_sphere,
                     fibers, nearest, preimages)

MAX_SUBDIVISION = 10
HUGE_FIBER = 1e9
# Compared floats closer than this, relative to their scale, tie, so that the
# next key decides instead of roundoff (mirror lifts of a real map).
TIE_REL = 1e-9


class LiftError(RuntimeError):
    pass


@dataclass(frozen=True)
class OrientedPolyCurve:
    """Closed polyline, implicitly joining the last vertex back to the first."""

    vertices: tuple

    def __post_init__(self):
        vs = tuple(complex(v) for v in self.vertices)
        if len(vs) < 3:
            raise ValueError("need at least three vertices")
        for i, v in enumerate(vs):
            nxt = vs[(i + 1) % len(vs)]
            if abs(v - nxt) == 0.0:
                raise ValueError("coincident consecutive vertices")
        object.__setattr__(self, "vertices", vs)

    def validate_simple(self):
        if not is_simple(self.vertices):
            raise ValueError("polyline is self-intersecting")

    def winding(self, p: complex) -> int:
        return winding_number(self.vertices, p)

    def orientation(self) -> int:
        a = signed_area(self.vertices)
        if a == 0.0:
            raise ValueError("degenerate curve with zero area")
        return 1 if a > 0 else -1

    def distance_to(self, p: complex) -> float:
        return point_polyline_distance(p, self.vertices)


def circle(center: complex, radius: float, n: int = 64,
           clockwise: bool = False) -> OrientedPolyCurve:
    """Regular polygon approximation of a circle, counterclockwise by default."""
    if not cmath.isfinite(center):
        raise ValueError("center must be a finite complex number")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be a finite number > 0")
    if n < 3:
        raise ValueError("need at least three vertices")
    sgn = -1.0 if clockwise else 1.0
    pts = tuple(center + radius * complex(math.cos(sgn * 2 * math.pi * k / n),
                                          math.sin(sgn * 2 * math.pi * k / n))
                for k in range(n))
    return OrientedPolyCurve(pts)


def _omega_winding(curve: OrientedPolyCurve, omega) -> int:
    om = as_sphere(omega)
    if om.is_infinity:
        return 0
    return curve.winding(om.to_complex())


def sign_of(curve: OrientedPolyCurve, omega) -> int:
    """+1 when omega lies on the right of the curve (the outside in the
    left-is-inside convention), -1 when it lies inside.

    Uses the winding number around omega plus the curve's own orientation;
    |winding| > 1 means the curve is not simple and is rejected. omega may be
    the point at infinity, which every closed polyline winds around zero
    times.
    """
    w = _omega_winding(curve, omega)
    if abs(w) > 1:
        raise ValueError(f"malformed curve: winding {w} around the base point")
    o = curve.orientation()
    return o if w == 0 else -o


@dataclass(frozen=True)
class Lift:
    curve: OrientedPolyCurve
    degree: int
    sign: int
    strand: int  # index of the starting strand in the base fiber


@dataclass(frozen=True)
class LiftSet:
    base: OrientedPolyCurve
    base_refined: tuple  # base vertices incl. adaptive subdivision points
    lifts: tuple
    monodromy: tuple  # permutation of the fiber over the first vertex

    @property
    def total_degree(self) -> int:
        return sum(l.degree for l in self.lifts)


def _fiber(f: RationalMap, v: complex) -> list[complex]:
    """The d distinct preimages of v, or raise if the fiber degenerates."""
    pts = preimages(f, v)
    out = []
    for p, m in pts:
        if m != 1:
            raise LiftError(f"degenerate fiber over {v}: multiplicity {m}")
        if p.is_infinity or abs(p.to_complex()) > HUGE_FIBER:
            raise LiftError(f"fiber over {v} reaches infinity")
        out.append(p.to_complex())
    return out


def _tied(x: float, scale: float) -> int:
    """x on a grid of TIE_REL * scale: values apart by roundoff compare equal."""
    return round(x / (TIE_REL * scale))


def _strand_order(fiber: list[complex]) -> list[complex]:
    """The fiber sorted by (re, im), with tied parts decided by the other."""
    scale = 1.0 + max(abs(z) for z in fiber)
    return sorted(fiber, key=lambda z: (_tied(z.real, scale), _tied(z.imag, scale)))


def _match(strands: Sequence[complex], fiber: Sequence[complex]) -> list[complex]:
    """Assign each strand its continuation in the next fiber: its nearest
    point by ratmap.nearest, with the assignment a bijection. Anything else
    raises _Ambiguous.
    """
    chosen = []
    taken = set()
    for s in strands:
        best = nearest(fiber, s)
        if best in taken:
            raise _Ambiguous(f"two strands claim one preimage near {fiber[best]}")
        taken.add(best)
        chosen.append(fiber[best])
    return chosen


def _vertex_fibers(f: RationalMap, verts: Sequence[complex]) -> list[list[complex]]:
    """The fiber over each vertex, as _fiber returns it: from one batched
    solve, with _fiber solving the rows the batch cannot vouch for."""
    roots, certified = fibers(f, verts)
    certified &= np.abs(roots).max(axis=1) <= HUGE_FIBER
    return [row if ok else _fiber(f, v)
            for v, row, ok in zip(verts, roots.tolist(), certified.tolist())]


def _continue_edge(f: RationalMap, strands: list[complex], va: complex, vb: complex,
                   fiber: list[complex], depth: int, refined: list[complex],
                   chains: list[list[complex]]):
    """Continue all strands across the edge va -> vb, whose end has the given
    fiber, subdividing on ambiguity."""
    try:
        matched = _match(strands, fiber)
    except _Ambiguous:
        if depth >= MAX_SUBDIVISION:
            raise LiftError(
                f"strand matching stayed ambiguous after {depth} subdivisions "
                f"near {vb}") from None
        vm = 0.5 * (va + vb)
        mid = _continue_edge(f, strands, va, vm, _fiber(f, vm), depth + 1, refined, chains)
        return _continue_edge(f, mid, vm, vb, fiber, depth + 1, refined, chains)
    refined.append(vb)
    for chain, m in zip(chains, matched):
        chain.append(m)
    return matched


def lift_curve(f: RationalMap, curve: OrientedPolyCurve, omega: complex,
               eps: float = 1e-3) -> LiftSet:
    """All lifts of a closed curve, each with covering degree and sign.

    Preconditions enforced: the curve is simple, every vertex keeps chordal
    distance > eps from every critical value, and omega stays off the base
    curve and off every lift. Lifts inherit the parametrization that makes f
    orientation preserving on them, which is automatic for the induced
    continuation.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be a finite number > 0")
    if not isinstance(omega, SpherePoint) and cmath.isnan(omega):
        raise ValueError("omega must be a point of the sphere, not NaN")
    try:
        curve.validate_simple()
    except ValueError as exc:
        raise LiftError(f"base curve: {exc}") from exc
    crit_values = [eval_sphere(f, c.point) for c in critical_points(f)]
    for v in curve.vertices:
        vp = as_sphere(v)
        for cv in crit_values:
            if vp.chordal(cv) <= eps:
                raise LiftError(
                    f"vertex {v} within eps of critical value {cv}")
    om = as_sphere(omega)
    if not om.is_infinity:
        oz = om.to_complex()
        if curve.distance_to(oz) < 1e-9 * (1.0 + abs(oz)):
            raise LiftError("omega lies on the base curve")

    verts = list(curve.vertices)
    vert_fibers = _vertex_fibers(f, verts)
    start_fiber = _strand_order(vert_fibers[0])
    refined = [verts[0]]
    chains = [[s] for s in start_fiber]
    strands = list(start_fiber)
    for i in range(len(verts)):
        j = (i + 1) % len(verts)
        fiber = start_fiber if j == 0 else vert_fibers[j]
        strands = _continue_edge(f, strands, verts[i], verts[j], fiber, 0, refined, chains)
    # the last edge matched the strands into start_fiber itself
    perm = [start_fiber.index(s) for s in strands]

    # cycles of the permutation -> lifts
    k = len(refined) - 1  # chain length per loop, excluding the closing vertex
    lifts = []
    seen = set()
    for s0 in range(len(perm)):
        if s0 in seen:
            continue
        cycle = [s0]
        nxt = perm[s0]
        while nxt != s0:
            cycle.append(nxt)
            nxt = perm[nxt]
        seen.update(cycle)
        pts: list[complex] = []
        for idx in cycle:
            pts.extend(chains[idx][:k])
        lift_curve_ = OrientedPolyCurve(tuple(pts))
        if not om.is_infinity:
            oz = om.to_complex()
            if lift_curve_.distance_to(oz) < 1e-9 * (1.0 + abs(oz)):
                raise LiftError("omega lies on a lift")
        lifts.append(Lift(lift_curve_, len(cycle), sign_of(lift_curve_, om), s0))
    return LiftSet(curve, tuple(refined[:-1]), tuple(lifts), tuple(perm))


def outermost_lifts(lift_set: LiftSet, omega) -> list[Lift]:
    """Lifts not separated from omega by any other lift.

    A lift l' separates l from omega when the winding of l' around l differs
    from its winding around omega. The lifts are pairwise disjoint closed
    curves, so the winding of l' is constant along l and one vertex of l
    decides it; the first is used, after checking that it lies off l'.
    """
    lifts = lift_set.lifts
    around_omega = [_omega_winding(l.curve, omega) for l in lifts]
    out = []
    for l in lifts:
        probe = l.curve.vertices[0]
        separated = False
        for lp, w_omega in zip(lifts, around_omega):
            if lp is l:
                continue
            if lp.curve.distance_to(probe) < 1e-9 * (1.0 + abs(probe)):
                raise LiftError("could not separate lifts for the outermost test")
            if lp.curve.winding(probe) != w_omega:
                separated = True
                break
        if not separated:
            out.append(l)
    return out


@dataclass(frozen=True)
class SignStep:
    curve: OrientedPolyCurve
    sign: int
    outermost_count: int
    changed: bool


@dataclass(frozen=True)
class SignSequence:
    base_sign: int
    steps: tuple

    @property
    def signs(self) -> list[int]:
        return [s.sign for s in self.steps]

    @property
    def change_count(self) -> int:
        return sum(1 for s in self.steps if s.changed)


def _default_selector(lifts: Sequence[Lift], omega) -> Lift:
    """Deterministic choice: the outermost lift whose closest vertex to omega
    is farthest away (chordally when omega is at infinity); ties, up to
    TIE_REL, break by strand index."""
    om = as_sphere(omega)
    if om.is_infinity:
        def dist(v):
            return om.chordal(as_sphere(v))
    else:
        oz = om.to_complex()

        def dist(v):
            return abs(v - oz)

    nearest = [min(dist(v) for v in l.curve.vertices) for l in lifts]
    scale = 1.0 + max(nearest)
    best = min(range(len(lifts)), key=lambda i: (-_tied(nearest[i], scale), lifts[i].strand))
    return lifts[best]


def sign_change_sequence(f: RationalMap, curve: OrientedPolyCurve, omega,
                         n: int = 8, eps: float = 1e-3) -> SignSequence:
    """Iterated lifting, recording the sign of a chosen outermost lift at each
    backward step and whether it changed from the previous one."""
    if n < 1:
        raise ValueError("need at least one step")
    omega = as_sphere(omega)
    prev_sign = sign_of(curve, omega)
    base_sign = prev_sign
    steps = []
    current = curve
    for _ in range(n):
        ls = lift_curve(f, current, omega, eps)
        outs = outermost_lifts(ls, omega)
        chosen = _default_selector(outs, omega)
        step_sign = chosen.sign
        steps.append(SignStep(chosen.curve, step_sign, len(outs),
                              step_sign != prev_sign))
        prev_sign = step_sign
        current = chosen.curve
    return SignSequence(base_sign, tuple(steps))
