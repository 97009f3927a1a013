"""Forward orbits, cycle classification, critical portraits, periodic points."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .sphere import ParameterError, Polynomial, SpherePoint, as_sphere, poly_roots
from .ratmap import (LEAD_TRIM, RationalMap, compose_self, critical_points,
                     eval_sphere, hom_eval, iterate_degree)

SUPER_TOL = 1e-8
INDIFFERENT_BAND = 1e-6
CYCLE_WINDOW = 64
CYCLE_TOL = 1e-9  # chordal distance at which an orbit point revisits another
WALK_STEPS = 512  # steps a critical orbit walk takes before it is left unresolved


@dataclass(frozen=True)
class CycleReport:
    """Eventually periodic orbit data for one starting point."""

    start: SpherePoint
    preperiod: int
    period: int
    cycle: tuple  # tuple[SpherePoint, ...]
    multiplier: complex
    classification: str  # superattracting | attracting | indifferent | repelling


@dataclass(frozen=True)
class CriticalPortrait:
    critical_points: tuple  # tuple[CriticalPoint, ...]
    orbits: tuple  # tuple[Optional[CycleReport], ...], aligned with critical_points
    postcritical: tuple  # tuple[SpherePoint, ...], strict forward orbit closure
    q_subset: tuple  # postcritical points feeding cycles that contain a critical point
    critically_finite: Optional[bool]
    hyperbolic: Optional[bool]
    all_postcritical_periodic: Optional[bool]


@dataclass(frozen=True)
class PeriodicPoint:
    point: SpherePoint
    multiplicity: int
    minimal_period: int


def _classify(multiplier: complex) -> str:
    m = abs(multiplier)
    if m < SUPER_TOL:
        return "superattracting"
    if m < 1.0 - INDIFFERENT_BAND:
        return "attracting"
    if m <= 1.0 + INDIFFERENT_BAND:
        return "indifferent"
    return "repelling"


def cycle_multiplier(f: RationalMap, cycle) -> complex:
    """Chain-rule multiplier, in no chart.

    With F = (P, Q) on the stored representatives x_i and F(x_i) = c_i x_(i+1),
    the multiplier is the product of det DF(x_i) / (d c_i^2): DF(x_i) sends x_i
    to d c_i x_(i+1) (Euler's relation), so the chart factors cancel around the
    cycle.
    """
    pts = [as_sphere(p) for p in cycle]
    d = f.degree
    lam = 1.0 + 0j
    for x, y in zip(pts, pts[1:] + pts[:1]):
        p, q, pz, pw, qz, qw = hom_eval(f, x.z, x.w, partials=True)
        c = p / y.z if abs(y.z) >= abs(y.w) else q / y.w
        lam *= (pz * qw - pw * qz) / (d * c * c)
    return lam


def orbit_derivative(f: RationalMap, z: complex, n: int) -> tuple[complex, complex]:
    """f^n(z) and (f^n)'(z) for a finite z whose first n images are finite.

    Carries the homogeneous point x = (z, 1) and its derivative dx = (1, 0)
    through x -> F(x), dx -> DF(x) dx with DF from hom_eval(partials=True),
    and rescales all four by one power of two per step (exact, so the result
    does not depend on the scaling). Raises ZeroDivisionError when f^n(z) is
    infinity.
    """
    x, y, dx, dy = complex(z), 1.0 + 0j, 1.0 + 0j, 0j
    for _ in range(n):
        p, q, pz, pw, qz, qw = hom_eval(f, x, y, partials=True)
        x, y, dx, dy = p, q, pz * dx + pw * dy, qz * dx + qw * dy
        s = math.ldexp(1.0, -math.frexp(max(abs(x), abs(y)))[1])
        x, y, dx, dy = x * s, y * s, dx * s, dy * s
    return x / y, (dx * y - x * dy) / (y * y)


def _walk(f: RationalMap, start, max_iter: int) -> tuple[list, int]:
    """The orbit of start up to its first revisit, within CYCLE_TOL of one of
    the CYCLE_WINDOW points before it, and the revisit's period, from the
    latest such point; period 0 when max_iter steps bring none.

    The points of the window are kept by _sphere_cell, so each step is
    compared only with those in the 27 cells about its own."""
    x = as_sphere(start)
    orbit, keys = [x], [_sphere_cell(x)]
    cells = {keys[0]: [0]}  # _sphere_cell -> indices of window points in it
    for _ in range(max_iter):
        x = eval_sphere(f, x)
        k = len(orbit)
        a, b, c = key = _sphere_cell(x)
        near = [j for i, m, n in _NEAR_CELLS for j in cells.get((a + i, b + m, c + n), ())
                if x.chordal(orbit[j]) < CYCLE_TOL]
        orbit.append(x)
        if near:
            return orbit, k - max(near)
        keys.append(key)
        cells.setdefault(key, []).append(k)
        if k >= CYCLE_WINDOW:  # the oldest point leaves the window
            cells[keys[k - CYCLE_WINDOW]].remove(k - CYCLE_WINDOW)
    return orbit, 0


def _sphere_cell(p: SpherePoint) -> tuple[int, int, int]:
    """The cell of side 2 CYCLE_TOL holding p's point on the unit sphere. The
    chordal distance is the distance between those points, so two points
    closer than CYCLE_TOL lie in the same or adjacent cells, with a margin of
    CYCLE_TOL for the rounding of the coordinates."""
    n = abs(p.z) ** 2 + abs(p.w) ** 2
    zw = p.z * p.w.conjugate()
    side = 2.0 * CYCLE_TOL * n
    return (math.floor(2.0 * zw.real / side), math.floor(2.0 * zw.imag / side),
            math.floor((abs(p.z) ** 2 - abs(p.w) ** 2) / side))


_NEAR_CELLS = [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)]


def _report(f: RationalMap, orbit: list, period: int) -> Optional[CycleReport]:
    """The cycle report of a walk, or None for a walk without a revisit."""
    if not period:
        return None
    preperiod = 0
    while orbit[preperiod].chordal(orbit[preperiod + period]) >= CYCLE_TOL:
        preperiod += 1
    cycle = tuple(orbit[preperiod:preperiod + period])
    lam = cycle_multiplier(f, cycle)
    return CycleReport(orbit[0], preperiod, period, cycle, lam, _classify(lam))


def detect_cycle(f: RationalMap, start, max_iter: int = WALK_STEPS) -> Optional[CycleReport]:
    """Find the eventually periodic structure of an orbit, or None if the
    orbit shows no revisit within max_iter (expected for Julia set starts)."""
    return _report(f, *_walk(f, start, max_iter))


def critical_portrait(f: RationalMap) -> CriticalPortrait:
    """Orbit data for every critical point plus the derived finiteness flags,
    all read off one walk of up to WALK_STEPS steps per critical orbit.

    The postcritical point f^i(c), i >= 1, has the cycle of c and preperiod
    max(0, pre - i), so every postcritical point is periodic exactly when
    every critical preperiod is at most 1.

    Flags are tri-state: None when some orbit stayed unresolved, so absence
    of evidence is reported as unknown rather than false.
    """
    crits = critical_points(f)
    walks = [_walk(f, c.point, WALK_STEPS) for c in crits]
    reports = [_report(f, orbit, period) for orbit, period in walks]
    crit_pts = [c.point for c in crits]
    critical_cycle = [rep is not None and any(any(p.chordal(c) < CYCLE_TOL for c in crit_pts)
                                              for p in rep.cycle)
                      for rep in reports]

    post: list[SpherePoint] = []
    feeds: list[bool] = []  # aligned with post: on a walk into a critical cycle
    cells: dict = {}  # _sphere_cell -> the points of post in it
    for (orbit, _), rep, in_q in zip(walks, reports, critical_cycle):
        # an unresolved walk still gives a bounded chunk of postcritical points
        stop = CYCLE_WINDOW if rep is None else rep.preperiod + rep.period
        for p in orbit[1:stop + 1]:
            a, b, c = cell = _sphere_cell(p)
            if not any(p.chordal(q) < CYCLE_TOL for i, j, k in _NEAR_CELLS
                       for q in cells.get((a + i, b + j, c + k), ())):
                post.append(p)
                feeds.append(in_q)
                cells.setdefault(cell, []).append(p)

    if any(rep is None for rep in reports):
        critically_finite = hyperbolic = all_periodic = None
        q_subset = []
    else:
        critically_finite = True
        hyperbolic = all(critical_cycle)
        all_periodic = all(rep.preperiod <= 1 for rep in reports)
        q_subset = [p for p, in_q in zip(post, feeds) if in_q]

    return CriticalPortrait(
        critical_points=tuple(crits),
        orbits=tuple(reports),
        postcritical=tuple(post),
        q_subset=tuple(q_subset),
        critically_finite=critically_finite,
        hyperbolic=hyperbolic,
        all_postcritical_periodic=all_periodic,
    )


def periodic_points(f: RationalMap, period: int) -> list[PeriodicPoint]:
    """All fixed points of f^period, counted with multiplicity.

    There are degree^period + 1 of them on the sphere. Points whose true
    period strictly divides the requested one are kept, annotated with their
    minimal period. A period below 1, or one whose d^period exceeds
    COMPOSE_DEGREE_BOUND, raises ParameterError before anything is composed.
    """
    if period < 1:
        raise ParameterError("period", "must be a positive integer")
    dp = iterate_degree(f.degree, period)
    fp = compose_self(f, period)
    num, den = fp.num, fp.den
    phi = (num - Polynomial((0.0, 1.0)) * den).trimmed(LEAD_TRIM)
    out: list[PeriodicPoint] = []
    pts: list[tuple[SpherePoint, int]] = []
    if phi.degree >= 1:
        for r, m in poly_roots(phi):
            pts.append((SpherePoint.of(r), m))
    elif phi.is_zero:
        raise ArithmeticError("iterate equals identity; not a degree >= 2 map")
    inf_mult = (dp + 1) - sum(m for _, m in pts)
    if inf_mult > 0:
        pts.append((SpherePoint.infinity(), inf_mult))
    for p, m in pts:
        minimal = period
        x = p
        for q in range(1, period):
            x = eval_sphere(f, x)
            if period % q == 0 and x.chordal(p) < math.sqrt(CYCLE_TOL):
                minimal = q
                break
        out.append(PeriodicPoint(p, m, minimal))
    assert sum(pp.multiplicity for pp in out) == dp + 1
    return out
