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
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._geom import (is_simple, point_polyline_distance, signed_area,
                    winding_number)
from .sphere import ParameterError, SpherePoint, as_sphere
from .ratmap import (MATCH_RATIO, RationalMap, critical_points, eval_sphere, fibers,
                     preimages)

MAX_SUBDIVISION = 10
HUGE_FIBER = 1e9
# Compared floats closer than this, relative to their scale, tie, so that the
# next key decides instead of roundoff (mirror lifts of a real map).
TIE_REL = 1e-9
# Work bounds, derived in the README from the time of the largest lift:
# segments of a circle(), vertices of a curve that lift_curve takes or
# refines, and steps of a sign_change_sequence (lifts in one tower).
MAX_SEGMENTS = 20_000
MAX_VERTICES = 100_000
MAX_STEPS = 64
# circle() keeps |z| <= MAX_COORD, so that the product of two coordinate
# differences stays finite, and a radius of at least RADIUS_RESOLUTION times
# |center|, so that the vertices stay apart at float resolution; a radius
# below the least normal float leaves them too few bits for that.
MAX_COORD = 1e150
RADIUS_RESOLUTION = 1e-9


class LiftError(RuntimeError):
    pass


@dataclass(frozen=True)
class OrientedPolyCurve:
    """Closed polyline, implicitly joining the last vertex back to the first.
    The geometry reads a read-only array copy of the vertices."""

    vertices: tuple

    def __post_init__(self):
        v = np.array(self.vertices, dtype=complex)
        if len(v) < 3:
            raise ValueError("need at least three vertices")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        if (v == np.roll(v, -1)).any():
            raise ValueError("coincident consecutive vertices")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", tuple(v.tolist()))
        object.__setattr__(self, "_array", v)

    def validate_simple(self):
        if not is_simple(self._array):
            raise ValueError("polyline is self-intersecting")

    def winding(self, p: complex) -> int:
        return winding_number(self._array, p)

    def orientation(self) -> int:
        a = signed_area(self._array)
        if a == 0.0:
            raise ValueError("degenerate curve with zero area")
        return 1 if a > 0 else -1

    def distance_to(self, p: complex) -> float:
        return point_polyline_distance(p, self._array)


def circle(center: complex, radius: float, n: int = 64) -> OrientedPolyCurve:
    """Regular polygon of n vertices approximating a circle, counterclockwise.
    Out-of-range arguments raise ParameterError, n under the name segments."""
    if isinstance(center, SpherePoint) or not cmath.isfinite(center):
        raise ParameterError("center", "must be a finite complex number")
    if not (math.isfinite(radius) and radius >= sys.float_info.min):
        raise ParameterError("radius", f"must be a finite number >= {sys.float_info.min:g}")
    if n < 3:
        raise ParameterError("segments", "must be at least 3")
    if n > MAX_SEGMENTS:
        raise ParameterError("segments", f"must be at most {MAX_SEGMENTS}")
    center = complex(center)
    mod = math.hypot(center.real, center.imag)  # inf, where abs() would raise
    if mod + radius > MAX_COORD:
        raise ParameterError(("center", "radius"),
                             f"the circle reaches |z| = {mod + radius:g}; "
                             f"vertices must stay within |z| <= {MAX_COORD:g}")
    if radius < RADIUS_RESOLUTION * mod:
        raise ParameterError(("center", "radius"),
                             f"radius {radius:g} is below {RADIUS_RESOLUTION:g} times "
                             f"|center| = {mod:g}; the vertices would round together")
    pts = tuple(center + radius * complex(math.cos(2 * math.pi * k / n),
                                          math.sin(2 * math.pi * k / n))
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


def _vertex_fibers(f: RationalMap, verts: Sequence[complex]) -> list[list[complex]]:
    """The fiber over each vertex, as _fiber returns it: from one batched
    solve, with _fiber solving the rows the batch cannot vouch for."""
    roots, certified = fibers(f, verts)
    certified &= np.abs(roots).max(axis=1) <= HUGE_FIBER
    return [row if ok else _fiber(f, v)
            for v, row, ok in zip(verts, roots.tolist(), certified.tolist())]


def _match_edges(rows: np.ndarray) -> tuple[list[list[int]], list[bool]]:
    """Strand matching on every edge at once. rows (n + 1, d) holds the fiber
    over each vertex, the first and last row alike in strand order.

    Returns, per edge i, the index in row i + 1 that each point of row i
    continues to, its nearest candidate as ratmap.nearest picks it, and
    whether the edge is refused: some point's nearest candidate fails
    nearest's MATCH_RATIO test, or two points share one. The distances are
    np.hypot of the coordinate differences, which rounds as abs() of a complex
    number does, so every decision is nearest's.
    """
    dz = rows[1:, None, :] - rows[:-1, :, None]  # [edge, point, candidate]
    dist = np.hypot(dz.real, dz.imag)
    best = dist.argmin(axis=2)
    two = np.partition(dist, 1, axis=2)
    ambiguous = ((two[..., 0] > MATCH_RATIO * two[..., 1]) & (two[..., 0] > 1e-12)).any(axis=1)
    shared = (np.sort(best, axis=1) != np.arange(rows.shape[1])).any(axis=1)
    return best.tolist(), (ambiguous | shared).tolist()


def _critical_values(f: RationalMap) -> tuple[SpherePoint, ...]:
    """f at its critical points, solved on the first lift through the map
    object and kept in its __dict__ (as functools.cached_property keeps
    RationalMap.pair), so that a sign_change_sequence tower, which lifts
    through one map, solves them once."""
    values = f.__dict__.get("_critical_values")
    if values is None:
        values = f.__dict__["_critical_values"] = tuple(
            eval_sphere(f, c.point) for c in critical_points(f))
    return values


def _check_critical_values(f: RationalMap, verts: np.ndarray, eps: float):
    """Raise unless every vertex keeps chordal distance > eps from every
    critical value. An array pass picks the vertices that might not; the
    SpherePoint.chordal test then decides those, in vertex order."""
    crit = _critical_values(f)
    s = np.maximum(np.hypot(verts.real, verts.imag), 1.0)
    z, w = verts / s, 1.0 / s  # SpherePoint.of(v), max-modulus normalized
    near = np.zeros(len(verts), dtype=bool)
    norm = np.hypot(np.abs(z), w)
    for cv in crit:
        d = 2.0 * np.abs(z * cv.w - cv.z * w) / (norm * math.hypot(abs(cv.z), abs(cv.w)))
        near |= d <= eps * (1.0 + 1e-9) + 1e-300
    for v in verts[near].tolist():
        vp = as_sphere(v)
        for cv in crit:
            if vp.chordal(cv) <= eps:
                raise LiftError(f"vertex {v} within eps of critical value {cv}")


def lift_curve(f: RationalMap, curve: OrientedPolyCurve, omega: complex,
               eps: float = 1e-3) -> LiftSet:
    """All lifts of a closed curve, each with covering degree and sign.

    Preconditions enforced: the curve is simple with at most MAX_VERTICES
    vertices, every vertex keeps chordal distance > eps from every critical
    value, and omega stays off the base curve and off every lift. Lifts
    inherit the parametrization that makes f orientation preserving on them,
    which is automatic for the induced continuation.

    The curve is refined in whole-curve rounds: _match_edges matches every
    edge in one array pass, each edge it flags gains its midpoint (with the
    fiber from _fiber), and the refined curve is matched again. The strands
    compose from the last round's matches. LiftError when an edge is still
    flagged after MAX_SUBDIVISION rounds, or when a round would take the
    refined curve past MAX_VERTICES vertices.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError("eps", "must be a finite number > 0")
    if not isinstance(omega, SpherePoint) and cmath.isnan(omega):
        raise ParameterError("omega", "must be a point of the sphere, not NaN")
    verts = list(curve.vertices)
    n = len(verts)
    if n > MAX_VERTICES:
        raise LiftError(f"base curve has {n} vertices; at most {MAX_VERTICES} are lifted")
    try:
        curve.validate_simple()
    except ValueError as exc:
        raise LiftError(f"base curve: {exc}") from exc
    _check_critical_values(f, curve._array, eps)
    om = as_sphere(omega)
    if not om.is_infinity:
        oz = om.to_complex()
        if curve.distance_to(oz) < 1e-9 * (1.0 + abs(oz)):
            raise LiftError("omega lies on the base curve")

    rows = np.array(_vertex_fibers(f, verts))
    rows[0] = _strand_order(rows[0].tolist())
    for depth in range(MAX_SUBDIVISION + 1):
        n = len(verts)
        best, flagged = _match_edges(np.concatenate((rows, rows[:1])))
        split = [i for i, bad in enumerate(flagged) if bad]
        if not split:
            break
        if depth == MAX_SUBDIVISION:
            raise LiftError(f"strand matching stayed ambiguous after {depth} subdivisions "
                            f"near {verts[(split[0] + 1) % n]}")
        if n + len(split) > MAX_VERTICES:
            raise LiftError(f"subdivision takes the base curve past {MAX_VERTICES} vertices")
        mids = [0.5 * (verts[i] + verts[(i + 1) % n]) for i in split]
        at = [i + 1 for i in split]
        rows = np.insert(rows, at, [_fiber(f, vm) for vm in mids], axis=0)
        verts = np.insert(np.array(verts), at, mids).tolist()

    # pos[i][k]: the index in rows[i] of strand k's point over vertex i; the
    # last edge matched the strands into rows[0] itself
    pos = [list(range(rows.shape[1]))]
    for b in best:
        pos.append([b[k] for k in pos[-1]])
    perm = pos.pop()
    strand_pts = rows[np.arange(n)[:, None], np.array(pos)]

    # cycles of the permutation -> lifts
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
        lift_curve_ = OrientedPolyCurve(strand_pts[:, cycle].T.reshape(-1))
        if not om.is_infinity:
            oz = om.to_complex()
            if lift_curve_.distance_to(oz) < 1e-9 * (1.0 + abs(oz)):
                raise LiftError("omega lies on a lift")
        lifts.append(Lift(lift_curve_, len(cycle), sign_of(lift_curve_, om), s0))
    return LiftSet(curve, tuple(verts), tuple(lifts), tuple(perm))


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


def _closest(vertices: Sequence[complex], om: SpherePoint) -> float:
    """Least distance from a vertex to om: |v - om|, or the chordal distance
    when om is infinity. np.hypot rounds as abs() does, so the finite case
    has the bits of the scalar loop. The chordal case takes
    2 (1/s) / hypot(|v|/s, 1/s), s = max(|v|, 1), for every vertex, and
    SpherePoint.chordal then decides among those within rounding of the least."""
    v = np.asarray(vertices, dtype=complex)
    if not om.is_infinity:
        oz = om.to_complex()
        return float(np.hypot(v.real - oz.real, v.imag - oz.imag).min())
    mod = np.hypot(v.real, v.imag)
    s = np.maximum(mod, 1.0)
    approx = 2.0 / s / np.hypot(mod / s, 1.0 / s)
    near = v[approx <= approx.min() * (1.0 + 1e-12)]
    return min(om.chordal(as_sphere(z)) for z in near.tolist())


def _default_selector(lifts: Sequence[Lift], omega) -> Lift:
    """Deterministic choice: the outermost lift whose closest vertex to omega
    is farthest away (chordally when omega is at infinity); ties, up to
    TIE_REL, break by strand index."""
    om = as_sphere(omega)
    nearest = [_closest(l.curve._array, om) for l in lifts]
    scale = 1.0 + max(nearest)
    best = min(range(len(lifts)), key=lambda i: (-_tied(nearest[i], scale), lifts[i].strand))
    return lifts[best]


def sign_change_sequence(f: RationalMap, curve: OrientedPolyCurve, omega,
                         n: int = 8, eps: float = 1e-3) -> SignSequence:
    """Iterated lifting, recording the sign of a chosen outermost lift at each
    backward step and whether it changed from the previous one. Every step
    lifts through f, so its critical values are solved once (_critical_values).
    An n outside 1..MAX_STEPS raises ParameterError, under the name steps."""
    if n < 1:
        raise ParameterError("steps", "must be at least 1")
    if n > MAX_STEPS:
        raise ParameterError("steps", f"must be at most {MAX_STEPS}")
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
