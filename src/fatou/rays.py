"""Backward-iterated rays in a superattracting basin, co-landing, separation.

In the basin of a superattracting fixed point of local degree m the map is
conjugate to zeta -> zeta^m; rays are preimages of radial lines under that
conjugacy. Tracing runs backward: the sample of the angle-t ray at potential
rho^(1/m) is the preimage of the sample of the angle-mt ray at potential rho,
picked by continuity. Angle arithmetic is exact on rationals, so the angle
orbit under multiplication by m is finite and the whole orbit is traced
jointly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from ._geom import point_polyline_distance, winding_number
from .orbits import CYCLE_TOL, INDIFFERENT_BAND, orbit_derivative
from .sphere import MoebiusTransform, ParameterError, SpherePoint, as_sphere
from .ratmap import (RationalMap, _Ambiguous, critical_points, eval_sphere,
                     fibers, nearest, preimages)

DEFAULT_R0 = 100.0
MIN_R0 = 10.0  # smallest starting potential the linearized seed is trusted at
# Largest starting potential: the first fiber targets are about as large as
# r0, and from 1 / LEAD_TRIM = 1e12 on preimages trims their fibers to
# infinity (derived in the README).
MAX_R0 = 1e10
MAX_ORBIT_ANGLES = 64
DEFAULT_DEPTH = 96
MAX_DEPTH = 1024  # potentials round to 1.0 long before; deeper adds no information
LANDING_TOL = 1e-6  # tail diameter at which an uncertified ray lands
LANDING_WINDOW = 8  # potential shells inspected for contraction
STOP_RADIUS = 1e-3  # a certified landing is this close to the newest shells
COLAND_TOL = 1e-12  # relative gap at which two certified landings are one point
NEWTON_STEPS = 8
NEWTON_TOL = 1e-12  # relative Newton step taken as converged
_LIN_GUIDE_MIN = 4.0  # potential above which the linearized coordinate guides
_MAX_SUBLEVELS = 64


class RayTraceError(RuntimeError):
    pass


class RayLandingError(RayTraceError):
    pass


class AngleOrbitError(ParameterError):
    """The requested angles have a forward orbit too long to trace."""

    def __init__(self, message: str):
        super().__init__("angle", message)


@dataclass(frozen=True)
class RayAngle:
    """Angle t in [0, 1) as an exact fraction of full turns."""

    numerator: int
    denominator: int

    def __post_init__(self):
        fr = Fraction(self.numerator, self.denominator)
        fr -= math.floor(fr)
        object.__setattr__(self, "numerator", fr.numerator)
        object.__setattr__(self, "denominator", fr.denominator)

    @classmethod
    def parse(cls, text: str) -> "RayAngle":
        """Exact fraction strings only ('1/3', '0'); decimals are rejected."""
        s = text.strip()
        if "/" in s:
            a, b = s.split("/", 1)
            return cls(int(a), int(b))
        return cls(int(s), 1)

    def times(self, m: int) -> "RayAngle":
        return RayAngle(self.numerator * m, self.denominator)

    def value(self) -> float:
        return self.numerator / self.denominator

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class RayTrace:
    angle: RayAngle
    samples: tuple  # complex, ordered by decreasing potential
    potentials: tuple  # float, same order
    landed: bool
    landing: Optional[complex]
    residual: float  # Newton distance of a certified landing, else tail diameter
    sublevels: int  # potential steps inserted per doubling level
    certified: bool  # landing is a Newton-certified repelling (pre)periodic point
    multiplier: Optional[float]  # |(f^k)'| on the cycle it lands on, k the angle's period


def _as_angle(t) -> RayAngle:
    return t if isinstance(t, RayAngle) else RayAngle.parse(str(t))


def _local_degree_at(f: RationalMap, b: SpherePoint) -> int:
    for c in critical_points(f):
        if c.point.chordal(b) < 1e-8:
            return c.local_degree
    raise ValueError("basin point is not a critical point of the map")


def _check_superattracting_fixed(f: RationalMap, b: SpherePoint) -> int:
    if eval_sphere(f, b).chordal(b) > 1e-9:
        raise ValueError("basin point is not fixed")
    m = _local_degree_at(f, b)
    if m < 2:
        raise ValueError("basin point is not superattracting")
    return m


def _leading_data(f: RationalMap, m: int) -> tuple[complex, complex]:
    """(a, shift) of the asymptotic conjugacy psi(z) ~ a (z + shift) at
    infinity, where f(z) = c z^m (1 + c1/z + ...) and a^(m-1) = c.

    The principal root keeps the positive real axis fixed when c > 0, which
    pins the t = 0 ray along the positive reals.
    """
    p, q = f.num.degree, f.den.degree
    if p - q != m:
        raise ValueError("map does not have a superattracting pole of that degree")
    c = f.num.coeffs[-1] / f.den.coeffs[-1]
    a = cmath.exp(cmath.log(c) / (m - 1))
    alpha = f.num.coeffs[-2] / f.num.coeffs[-1] if p >= 1 else 0j
    beta = f.den.coeffs[-2] / f.den.coeffs[-1] if q >= 1 else 0j
    c1 = alpha - beta
    return a, c1 / m


def _orbit_angles(angles, m: int) -> list[RayAngle]:
    """The forward orbit of angles under t -> mt; raises AngleOrbitError
    once it holds more than MAX_ORBIT_ANGLES angles."""
    seen: dict[RayAngle, None] = {}
    stack = list(angles)
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        if len(seen) == MAX_ORBIT_ANGLES:
            raise AngleOrbitError(
                f"the orbit of the angles under multiplication by {m} has more "
                f"than {MAX_ORBIT_ANGLES} angles")
        seen[t] = None
        stack.append(t.times(m))
    return list(seen)


def _finite_fiber(f: RationalMap, target: complex) -> list[complex]:
    """Finite preimages of target, repeated by multiplicity."""
    cands = []
    for p, mult in preimages(f, target):
        if not p.is_infinity:
            cands.extend([p.to_complex()] * mult)
    return cands


def _periods(orbit: list[RayAngle], m: int) -> dict:
    """The period of each angle of a closed orbit under t -> mt; 0 for a
    strictly preperiodic angle."""
    image = {t: t.times(m) for t in orbit}
    periods = {}
    for t in orbit:
        s, k = image[t], 1
        while s != t and k < len(orbit):
            s, k = image[s], k + 1
        periods[t] = k if s == t else 0
    return periods


@dataclass(frozen=True)
class _Landing:
    point: complex  # in the chart the rays are traced in
    multiplier: float  # |(f^k)'| on the cycle, k the angle's period
    residual: float  # Newton distance


def _newton(f: RationalMap, z: complex, k: int,
            target: Optional[complex] = None) -> Optional[_Landing]:
    """Newton on f^k(z) = z, or on f(z) = target, from z: the root, |(f^k)'|
    there and its Newton distance, or None unless that distance comes within
    NEWTON_TOL (1 + |root|). Steps while the steps shrink, at most
    NEWTON_STEPS, and keeps the iterate with the shortest step."""
    best = None
    try:
        for _ in range(NEWTON_STEPS):
            fz, dfz = orbit_derivative(f, z, k)
            step = (fz - z) / (dfz - 1.0) if target is None else (fz - target) / dfz
            if best is not None and abs(step) >= best.residual:
                break
            best = _Landing(z, abs(dfz), abs(step))
            z -= step
    except (ZeroDivisionError, OverflowError):  # a pole or overflow: no root here
        return None
    if best is None or not best.residual <= NEWTON_TOL * (1.0 + abs(best.point)):
        return None
    return best


def _periodic_root(f: RationalMap, z: complex, k: int) -> Optional[_Landing]:
    """_newton on f^k(z) = z, polished again on f^j when the root's minimal
    period is a proper divisor j of k (fewer roundings), with |(f^k)'| and the
    Newton distance on f^k at the polished point."""
    root = _newton(f, z, k)
    if root is None:
        return None
    z = root.point
    for j in range(1, k):
        if k % j == 0 and abs(orbit_derivative(f, z, j)[0] - z) <= CYCLE_TOL * (1.0 + abs(z)):
            sharper = _newton(f, z, j)
            if sharper is not None:
                z = sharper.point
                fz, dfz = orbit_derivative(f, z, k)
                root = _Landing(z, abs(dfz), abs((fz - z) / (dfz - 1.0)))
            break
    return root


def _shells(chain: list, sub: int) -> Optional[list]:
    """The newest LANDING_WINDOW samples sub apart (one level of the map),
    oldest first; None while the chain is shorter."""
    start = len(chain) - 1 - (LANDING_WINDOW - 1) * sub
    return chain[start::sub] if start >= 0 else None


def _approaches(shells: list, z: complex) -> bool:
    """Whether the shells lie within STOP_RADIUS of z and strictly approach it."""
    d = [abs(s - z) for s in shells]
    return d[0] <= STOP_RADIUS and all(a > b for a, b in zip(d, d[1:]))


def _certify(f: RationalMap, m: int, periods: dict, chains: dict, sub: int,
             landings: dict) -> None:
    """Adds to landings (keyed by angle) each ray not yet in it whose newest
    shells approach a certified landing.

    A periodic angle of period k lands at z* when Newton on f^k(z) = z from
    its newest sample converges, |(f^k)'(z*)| > 1 + INDIFFERENT_BAND and its
    shells approach z*. A preperiodic angle t lands at the point of the fiber
    of f over the landing of mt nearest its newest sample, under the same
    approach test, once mt is certified.
    """
    shells = {t: _shells(chains[t], sub) for t in periods if t not in landings}
    # the approach test needs every shell within 2 STOP_RADIUS of the newest
    pending = [t for t, sh in shells.items()
               if sh is not None and max(abs(s - sh[-1]) for s in sh) <= 2.0 * STOP_RADIUS]
    for t in pending:
        root = _periodic_root(f, shells[t][-1], periods[t]) if periods[t] else None
        if (root is not None and root.multiplier > 1.0 + INDIFFERENT_BAND
                and _approaches(shells[t], root.point)):
            landings[t] = root
    pending = [t for t in pending if not periods[t]]
    while True:
        ready = [t for t in pending if t.times(m) in landings]
        if not ready:
            return
        pending = [t for t in pending if t not in ready]
        targets = [landings[t.times(m)].point for t in ready]
        roots, ok = fibers(f, targets)
        for t, target, row, good in zip(ready, targets, roots.tolist(), ok.tolist()):
            cands = row if good else _finite_fiber(f, target)
            if not cands:
                continue
            root = _newton(f, min(cands, key=lambda c: abs(c - shells[t][-1])), 1, target)
            if root is not None and _approaches(shells[t], root.point):
                landings[t] = _Landing(root.point, landings[t.times(m)].multiplier,
                                       root.residual)


def _trace_at_infinity(f: RationalMap, m: int, orbit: list[RayAngle], potentials: tuple,
                       sublevels: int) -> tuple[dict, dict]:
    """The sample chain of every angle of the orbit, one sample per potential
    down to the first block after which every angle is certified, keyed in
    orbit order, and the certified landings (of every angle, or of those
    certified when the chains reach the last potential); raises _Ambiguous
    where continuation is unclear."""
    a, shift = _leading_data(f, m)
    periods = _periods(orbit, m)

    def lin_inverse(rho: float, t: RayAngle) -> complex:
        psi = rho * cmath.exp(2j * math.pi * t.value())
        return psi / a - shift

    samples = {t: [lin_inverse(potentials[q], t) for q in range(sublevels)] for t in orbit}
    chains = list(samples.values())
    images = [samples[t.times(m)] for t in orbit]
    warm = None
    landings: dict = {}
    for q0 in range(sublevels, len(potentials), sublevels):
        # level q pulls back level q - sublevels, so the block of sublevels
        # levels from q0 depends only on the block above: one solve for the
        # block, rows level by level, each row seeded with the same row of
        # the block above
        levels = range(q0, min(q0 + sublevels, len(potentials)))
        targets = [image[q - sublevels] for q in levels for image in images]
        roots, certified = fibers(f, targets, None if warm is None else warm[:len(targets)])
        warm = np.where(certified[:, None], roots, np.nan)
        rows = zip(targets, roots.tolist(), certified.tolist())
        for q in levels:
            rho = potentials[q]
            for t, chain, (target, row, ok) in zip(orbit, chains, rows):
                if rho >= _LIN_GUIDE_MIN:
                    guide = lin_inverse(rho, t)
                elif len(chain) >= 2:
                    guide = 2.0 * chain[-1] - chain[-2]
                else:
                    guide = chain[-1]
                cands = row if ok else _finite_fiber(f, target)
                if not cands:
                    raise RayTraceError("empty finite fiber while tracing")
                chain.append(cands[nearest(cands, guide)])
        _certify(f, m, periods, samples, sublevels, landings)
        if len(landings) == len(orbit):
            break
    return samples, landings


def trace_orbit(f: RationalMap, basin_fixed_point, angles, depth: int = DEFAULT_DEPTH,
                r0: float = DEFAULT_R0) -> dict:
    """Traces of every ray in the forward angle orbit of the given angles.

    The orbit is traced jointly, block by block of potential levels, and stops
    after the first block at which every landing is certified, or at depth
    levels (see _certify and the README). Certified rays report their
    (pre)periodic landing, its Newton distance as residual and |(f^k)'| as
    multiplier; the others land when their tail is narrower than LANDING_TOL.

    Keys of the returned dict are RayAngle instances. Raises ParameterError
    when depth is outside 1..MAX_DEPTH or r0 outside MIN_R0..MAX_R0, and
    AngleOrbitError (a ParameterError) when the orbit holds more than
    MAX_ORBIT_ANGLES angles, before any work; RayTraceError when branch
    continuation stays ambiguous at the finest potential subdivision.
    """
    if not MIN_R0 <= r0 <= MAX_R0:
        raise ParameterError("r0", f"must be between {MIN_R0:g} and {MAX_R0:g}")
    if depth < 1:
        raise ParameterError("depth", "must be a positive integer")
    if depth > MAX_DEPTH:
        raise ParameterError("depth", f"must be at most {MAX_DEPTH}")
    b = as_sphere(basin_fixed_point)
    m = _check_superattracting_fixed(f, b)
    orbit = _orbit_angles([_as_angle(t) for t in angles], m)

    if b.is_infinity:
        work, back = f, None
    else:
        z0 = b.to_complex()
        mo = MoebiusTransform(0.0, 1.0, 1.0, -z0)  # z -> 1/(z - z0)
        work, back = f.conjugate_by(mo), z0

    sub = 1
    while True:
        step = (1.0 / m) ** (1.0 / sub)
        potentials = tuple(r0 ** (step ** q) for q in range(depth * sub + 1))
        try:
            chains, landings = _trace_at_infinity(work, m, orbit, potentials, sub)
            break
        except _Ambiguous:
            sub *= 2
            if sub > _MAX_SUBLEVELS:
                raise RayTraceError(
                    "branch continuation ambiguous at the finest subdivision")

    window = LANDING_WINDOW * sub + 1

    def tail_diameter(chain) -> float:
        tail = chain[-window:]
        return max(abs(x - y) for x in tail for y in tail)

    traces = {}
    for t, chain in chains.items():
        lnd = landings.get(t)
        # an uncertified landing is decided in the chart the rays were traced in
        landed = lnd is not None or tail_diameter(chain) < LANDING_TOL
        if back is not None:
            chain = [back + 1.0 / u for u in chain]
        if lnd is None:
            landing, residual = (chain[-1] if landed else None), tail_diameter(chain)
        elif back is None:
            landing, residual = lnd.point, lnd.residual
        else:  # z = back + 1/u scales distances by |dz/du| = 1/|u|^2
            landing, residual = back + 1.0 / lnd.point, lnd.residual / abs(lnd.point) ** 2
        traces[t] = RayTrace(t, tuple(chain), potentials[:len(chain)], landed, landing,
                             residual, sub, lnd is not None,
                             None if lnd is None else lnd.multiplier)
    return traces


def trace_ray(f: RationalMap, basin_fixed_point, t, depth: int = DEFAULT_DEPTH,
              r0: float = DEFAULT_R0) -> RayTrace:
    """Trace one ray; see trace_orbit for the mechanics."""
    t = _as_angle(t)
    return trace_orbit(f, basin_fixed_point, [t], depth, r0)[t]


def _landed_pair(f: RationalMap, basin_fixed_point, t1, t2, depth: int,
                 r0: float) -> tuple[RayTrace, RayTrace]:
    """Joint traces of two rays; raises RayLandingError if either fails to land."""
    t1, t2 = _as_angle(t1), _as_angle(t2)
    traces = trace_orbit(f, basin_fixed_point, [t1, t2], depth, r0)
    tr1, tr2 = traces[t1], traces[t2]
    for tr in (tr1, tr2):
        if not tr.landed:
            raise RayLandingError(
                f"ray {tr.angle} did not land (residual {tr.residual:.3g})")
    return tr1, tr2


def coland(f: RationalMap, basin_fixed_point, t1, t2, depth: int = DEFAULT_DEPTH,
           r0: float = DEFAULT_R0) -> bool:
    """Whether the two rays land at the same point: two certified landings
    within COLAND_TOL (1 + |z|), else within LANDING_TOL.

    Raises RayLandingError if either ray fails to land; an unlanded ray is
    never reported as not co-landing.
    """
    tr1, tr2 = _landed_pair(f, basin_fixed_point, t1, t2, depth, r0)
    return _colanded(tr1, tr2)


def _colanded(tr1: RayTrace, tr2: RayTrace) -> bool:
    gap = abs(tr1.landing - tr2.landing)
    if tr1.certified and tr2.certified:
        return gap <= COLAND_TOL * (1.0 + abs(tr1.landing))
    return gap < LANDING_TOL


def separation_test(f: RationalMap, basin_fixed_point, t1, t2, a: complex,
                    b: complex, depth: int = DEFAULT_DEPTH,
                    r0: float = DEFAULT_R0) -> bool:
    """Whether the closed curve R_t1 + landing + R_t2, closed up across the
    basin's fixed point, separates a from b. Decided by winding parity.

    Preconditions: both rays land at a common point, as coland decides;
    neither a nor b sits on the curve (within a relative 1e-9). The curve
    closes at the certified landing of R_t1 when both are certified, else at
    the midpoint of the two landings.
    """
    a, b = complex(a), complex(b)
    tr1, tr2 = _landed_pair(f, basin_fixed_point, t1, t2, depth, r0)
    if not _colanded(tr1, tr2):
        raise RayLandingError(
            f"rays do not co-land (gap {abs(tr1.landing - tr2.landing):.3g})")
    joint = (tr1.landing if tr1.certified and tr2.certified
             else 0.5 * (tr1.landing + tr2.landing))

    if not as_sphere(basin_fixed_point).is_infinity:
        raise NotImplementedError("separation closure only implemented across infinity")

    tip1, tip2 = tr1.samples[0], tr2.samples[0]
    r_close = 1e6 * max(1.0, abs(a), abs(b))
    th1, th2 = cmath.phase(tip1), cmath.phase(tip2)
    dth = (th2 - th1) % (2.0 * math.pi)
    if dth > math.pi:
        dth -= 2.0 * math.pi  # shorter way around
    arc = [r_close * cmath.exp(1j * (th1 + dth * k / 64)) for k in range(65)]

    # In along R_t1 from its far tip to the landing, back out along R_t2,
    # radially to the far circle, across the short arc, radially back in.
    verts = [complex(s) for s in tr1.samples] + [joint]
    verts += [complex(s) for s in reversed(tr2.samples)]
    verts.append(tip2 / abs(tip2) * r_close)
    verts += [arc[k] for k in range(64, -1, -1)]
    verts.append(tip1 / abs(tip1) * r_close)

    for name, pt in (("a", a), ("b", b)):
        if point_polyline_distance(pt, verts) < 1e-9 * (1.0 + abs(pt)):
            raise ValueError(f"point {name} lies on the separation curve")
    wa = winding_number(verts, a)
    wb = winding_number(verts, b)
    return (wa - wb) % 2 == 1
