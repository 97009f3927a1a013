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
import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from ._bounds import _rim_disc
from ._geom import point_polyline_distance, winding_number
from .orbits import INDIFFERENT_BAND, orbit_derivative
from .sphere import MoebiusTransform, ParameterError, SpherePoint, as_sphere
from .ratmap import (RationalMap, _Ambiguous, critical_points, eval_sphere,
                     fibers, nearest, preimages)

DEFAULT_R0 = 100.0
MIN_R0 = 10.0  # smallest starting potential the linearized seed is trusted at
# Largest starting potential: the first fiber targets are about as large as
# r0, and from 1 / LEAD_TRIM = 1e12 on preimages trims their fibers to
# infinity (derived in the README).
MAX_R0 = 1e10
# separation_test closes its curve on the circle |z| = 1e6 max(1, |a|, |b|).
# Keeping |a|, |b| <= SEPARATION_MAX_COORD holds that radius to 1e153, so the
# squared edge lengths (at most (2e153)^2 = 4e306) and the products of two
# coordinate differences in the winding test stay finite.
SEPARATION_MAX_COORD = 1e147
MAX_ORBIT_ANGLES = 64
DEFAULT_DEPTH = 96
MAX_DEPTH = 1024  # potentials round to 1.0 long before; deeper adds no information
LANDING_TOL = 1e-6  # tail diameter at which an uncertified ray lands
LANDING_WINDOW = 8  # levels of the map in the tail an uncertified ray is judged by
COLAND_TOL = 1e-12  # relative gap at which two certified landings are one point
NEWTON_STEPS = 8
NEWTON_TOL = 1e-12  # relative Newton step taken as converged
POLISH_STEPS = 3  # Newton steps on the exact residual after convergence
POLISH_DIGITS = 40  # of the decimal arithmetic of the exact residual
_LIN_GUIDE_MIN = 4.0  # potential above which the linearized coordinate guides
# Sublevels of the first attempt: with 1 or 2 the guide 2 s1 - s0 below
# _LIN_GUIDE_MIN lands far from every candidate and the attempt fails.
_FIRST_SUBLEVELS = 4
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
    certified: bool  # landing is a proved repelling (pre)periodic point
    multiplier: Optional[float]  # |(f^k)'| on the cycle it lands on, k the angle's period
    disc_radius: Optional[float] = None  # of the proved disc about a certified landing


def _as_angle(t) -> RayAngle:
    return t if isinstance(t, RayAngle) else RayAngle.parse(str(t))


def _check_superattracting_fixed(f: RationalMap, b: SpherePoint) -> int:
    """The local degree m at the fixed point b; at infinity m = deg num - deg
    den, read off the map without solving for its critical points. A b that
    is not a superattracting fixed point is a ParameterError."""
    if eval_sphere(f, b).chordal(b) > 1e-9:
        raise ParameterError("basin", "not a fixed point of the map")
    m = f.num.degree - f.den.degree if b.is_infinity else next(
        (c.local_degree for c in critical_points(f) if c.point.chordal(b) < 1e-8), 1)
    if m < 2:
        raise ParameterError("basin", "a fixed point of the map, but not superattracting")
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


class _Landing(NamedTuple):  # a tuple class: cheaper to create at import than a dataclass
    point: complex  # in the chart the rays are traced in
    multiplier: float  # |(f^k)'| on the cycle, k the angle's period
    residual: float  # Newton distance
    radius: float = 0.0  # of the proved landing disc about point; 0.0 for none
    start: int = 0  # the first sample of the chain's tail proved to lie in that disc
    period: int = 0  # the least period j of the disc's one fixed point of f^j; 0 for a preimage
    cover: Optional[tuple] = None  # of a preimage: (point, radius) of the disc its disc covers


def _exact_residual(f: RationalMap, z: complex, k: int, target: Optional[complex]) -> complex:
    """f^k(z) - z, or f(z) - target, in POLISH_DIGITS-digit decimal arithmetic
    from the exact values of z and the coefficients, rounded once at the end.
    Raises ZeroDivisionError at a pole."""
    dec = decimal.Decimal
    num, den = ([(dec(c.real), dec(c.imag)) for c in reversed(p.coeffs)] for p in (f.num, f.den))

    def horner(coeffs, xr, xi):
        re, im = coeffs[0]
        for cr, ci in coeffs[1:]:
            re, im = re * xr - im * xi + cr, re * xi + im * xr + ci
        return re, im
    with decimal.localcontext() as ctx:
        ctx.prec = POLISH_DIGITS
        xr, xi = start = dec(z.real), dec(z.imag)
        for _ in range(k):
            (nr, ni), (dr, di) = horner(num, xr, xi), horner(den, xr, xi)
            scale = dr * dr + di * di
            if not scale:  # decimal's 0/0 would raise InvalidOperation
                raise ZeroDivisionError("the orbit meets a pole")
            xr, xi = (nr * dr + ni * di) / scale, (ni * dr - nr * di) / scale
        gr, gi = start if target is None else (dec(target.real), dec(target.imag))
        return complex(float(xr - gr), float(xi - gi))


def _newton(f: RationalMap, z: complex, k: int,
            target: Optional[complex] = None) -> Optional[_Landing]:
    """Newton on f^k(z) = z, or on f(z) = target, from z: the root, |(f^k)'|
    there and its Newton distance, or None unless that distance comes within
    NEWTON_TOL (1 + |root|). Steps while the steps shrink, at most
    NEWTON_STEPS, and then polishes the iterate with the shortest step by at
    most POLISH_STEPS steps on _exact_residual, until a step leaves it
    unchanged. Those steps are exact to far below a rounding of the root, so
    the root found does not depend on the start beyond the rounding of the
    last step."""
    best = None
    try:
        for _ in range(NEWTON_STEPS):
            fz, dfz = orbit_derivative(f, z, k)
            step = (fz - z) / (dfz - 1.0) if target is None else (fz - target) / dfz
            if best is not None and abs(step) >= best.residual:
                break
            best = _Landing(z, abs(dfz), abs(step))
            z -= step
        if best is None or not best.residual <= NEWTON_TOL * (1.0 + abs(best.point)):
            return None
        z = best.point
        for i in range(POLISH_STEPS):
            dfz = orbit_derivative(f, z, k)[1]
            step = _exact_residual(f, z, k, target) / (dfz - 1.0 if target is None else dfz)
            if z - step == z or i == POLISH_STEPS - 1:
                return _Landing(z, abs(dfz), abs(step))
            z -= step
    except (ZeroDivisionError, OverflowError):  # a pole or overflow: no root here
        return None


def _cycle_disc(f: RationalMap, z: complex, k: int) -> tuple[float, int]:
    """A rung r of the ladder about a fixed point z of f^k, and the least
    period j dividing k, such that f^j maps D = D(z, r) once over itself, by
    _bounds._rim on the cycle z_0 = z, z_(i+1) = f(z_i); (0.0, k) when no
    rung passes. A period j < k is tried only where |f^j(z) - z| <=
    NEWTON_TOL (1 + |z|).

    Every point of D then has exactly one f^j-preimage in D, so that branch
    of f^(-j) maps D into itself. By Schwarz-Pick it has a single fixed
    point, the one fixed point of f^j in D, and every orbit of the branch
    in D converges to it.
    """
    cycle = [z]
    for _ in range(k - 1):
        cycle.append(orbit_derivative(f, cycle[-1], 1)[0])
    for j in range(1, k + 1):  # cycle[j] = f^j(z) for j < k
        if k % j == 0 and (j == k or abs(cycle[j] - z) <= NEWTON_TOL * (1.0 + abs(z))):
            r = _rim_disc(f, cycle[:j])
            if r:
                return r, j
    return 0.0, k


def _candidate(f: RationalMap, z: complex, k: int, image: Optional[_Landing],
               proved=()) -> Optional[_Landing]:
    """The landing a ray whose newest sample is z may have, with its disc:
    for period k, the root of f^k(z) = z (a disc only when repelling past
    INDIFFERENT_BAND); for a preperiodic angle (k = 0), the root of f(z) =
    image.point; None when Newton does not converge.

    proved are landings of period k (or preimages) whose discs are proved
    already. A root at distance g < r from the centre of one, r its radius,
    gets the disc of radius r - g about it (_served), which lies inside that
    proved disc: a ray that reaches it lands at the proved disc's one fixed
    point of f^j (or preimage of the same disc's landing), and no disc is
    proved again for the same landing."""
    if k:
        root = _newton(f, z, k)
        if root is None or not root.multiplier > 1.0 + INDIFFERENT_BAND:
            return root
        point = _centre(f, root.point, None)
        radius, j = _served(f, point, None, proved) or _cycle_disc(f, point, k)
        return root._replace(point=point, radius=radius, period=j)
    root = _newton(f, z, 1, image.point)
    if root is None:
        return None
    point, cover = _centre(f, root.point, image.point), (image.point, image.radius)
    served = _served(f, point, cover, proved)
    # else a rung about point that f maps once over the disc of image: every
    # point of that disc then has exactly one preimage in it
    radius = served[0] if served else _rim_disc(f, [point], image.point, image.radius)
    return _Landing(point, image.multiplier, root.residual, radius, cover=cover)


def _served(f: RationalMap, point: complex, cover: Optional[tuple], proved) -> Optional[tuple]:
    """(r - g, j) for the first proved disc, of radius r and least period j,
    that covers the same disc (cover; None for a fixed point of f^j) and
    whose centre lies at distance g < r from point, else None. A real map
    proves the conjugate of each disc as well."""
    for disc in proved:
        mirrors = [(disc.point, disc.cover)]
        if f.real:
            mirrors.append((disc.point.conjugate(),
                            disc.cover and (disc.cover[0].conjugate(), disc.cover[1])))
        for centre, covered in mirrors:
            gap = abs(point - centre)
            if covered == cover and gap < disc.radius:
                return disc.radius - gap, disc.period
    return None


def _centre(f: RationalMap, z: complex, target: Optional[complex]) -> complex:
    """The centre of the landing disc about the root z: its real part when f
    has real coefficients, the target (None for a fixed point of f^j) is
    real and z is real to within NEWTON_TOL; else z. A disc about a real
    centre is its own conjugate, so its one fixed point of f^j (or preimage
    of the real target) is its own conjugate: real, and reported with
    imaginary part 0.0."""
    if (z.imag != 0.0 and abs(z.imag) <= NEWTON_TOL * (1.0 + abs(z))
            and (target is None or target.imag == 0.0) and f.real):
        return complex(z.real, 0.0)
    return z


def _certify(f: RationalMap, m: int, periods: dict, chains: dict, sub: int,
             landings: dict, candidates: dict) -> None:
    """Adds to landings (keyed by angle) each ray not yet in it whose tail is
    proved to stay in its candidate's disc, and so to land at the candidate.

    candidates keeps, across calls, each angle's candidate landing (see
    _candidate) and the distance of the newest sample from it then; Newton
    runs again only when the newest sample has stopped approaching it. The
    proved discs of candidates of one period, or of preimages that cover one
    disc, serve the others' roots, and for a real map so do their
    conjugates (_served).
    - Periodic angle t of period k whose disc holds one fixed point of f^j
      (j the least period that _cycle_disc proved, dividing k): certified
      once the newest k sub + 1 samples, one period of the ray, of each of
      t, m^j t, m^2j t, ... lie in the disc. f^j maps the ray of each onto
      the next one's, j sub levels up, so the branch of f^(-j) that maps the
      disc into itself maps each piece of j sub levels of the next one's
      ray onto the following piece of this one's: every tail stays in the
      disc, and converges to its fixed point. For j = k that is t alone.
    - Preperiodic angle t, once mt is certified: certified at the first
      sample, from start(mt) + sub on, in its disc. The branch of f^(-1)
      onto that disc maps the tail of mt's ray from there onto t's.
    The landing's start is the first sample of the tail so proved.
    """
    pending = [t for t in periods if t not in landings]
    while True:
        ready = [t for t in pending if periods[t] or t.times(m) in landings]
        if not ready:
            return
        pending = [t for t in pending if t not in ready]
        for t in ready:
            k, chain = periods[t], chains[t]
            image = None if k else landings[t.times(m)]
            first = len(chain) - 1 - k * sub if k else image.start + sub
            if not 0 <= first < len(chain):
                continue
            newest = chain[-1]
            cand, gap = candidates.get(t, (None, math.inf))
            if cand is None or not abs(newest - cand.point) < gap:
                proved = [c for s, (c, _) in candidates.items() if periods[s] == k and c.radius]
                cand = _candidate(f, newest, k, image, proved)
            if cand is None:
                candidates.pop(t, None)
                continue
            candidates[t] = (cand, abs(newest - cand.point))
            tails = [chain[first:]]
            if k and cand.radius:
                tails = [chains[t.times(m ** i)][first:] for i in range(0, k, cand.period)]
            inside = [abs(s - cand.point) < cand.radius for tail in tails for s in tail]
            if all(inside) if k else any(inside):
                landings[t] = cand._replace(start=first if k else first + inside.index(True))


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
    candidates: dict = {}
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
        _certify(f, m, periods, samples, sublevels, landings, candidates)
        if len(landings) == len(orbit):
            break
    return samples, landings


def trace_orbit(f: RationalMap, basin_fixed_point, angles, depth: int = DEFAULT_DEPTH,
                r0: float = DEFAULT_R0) -> dict:
    """Traces of every ray in the forward angle orbit of the given angles.

    The orbit is traced jointly, block by block of potential levels, and stops
    after the first block at which every landing is certified, or at depth
    levels (see _certify and the README). Certified rays report their
    (pre)periodic landing, its Newton distance as residual, |(f^k)'| as
    multiplier and the radius of a disc about the landing inside the proved
    disc; the others land when their tail is narrower than LANDING_TOL.

    Keys of the returned dict are RayAngle instances. Raises ParameterError
    when depth is outside 1..MAX_DEPTH, r0 outside MIN_R0..MAX_R0 or the
    basin point is not a superattracting fixed point of f, and
    AngleOrbitError (a ParameterError) when the orbit holds more than
    MAX_ORBIT_ANGLES angles, before any tracing; RayTraceError when branch
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

    sub = _FIRST_SUBLEVELS
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
        radius = None
        if lnd is None:
            landing, residual = (chain[-1] if landed else None), tail_diameter(chain)
        elif back is None:
            landing, residual, radius = lnd.point, lnd.residual, lnd.radius
        else:
            # z = back + 1/u scales distances by |dz/du| = 1/|u|^2, and maps
            # D(u, r) onto a region holding the disc of r / (|u| (|u| + r)) about z
            u = abs(lnd.point)
            landing, residual = back + 1.0 / lnd.point, lnd.residual / u ** 2
            radius = lnd.radius / (u * (u + lnd.radius))
        traces[t] = RayTrace(t, tuple(chain), potentials[:len(chain)], landed, landing,
                             residual, sub, lnd is not None,
                             None if lnd is None else lnd.multiplier, radius)
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

    A non-finite a or b, or one past SEPARATION_MAX_COORD in modulus, is a
    ParameterError, and a finite basin a NotImplementedError, both raised
    before any ray is traced.
    """
    a, b = complex(a), complex(b)
    for name, pt in (("a", a), ("b", b)):
        if not cmath.isfinite(pt):
            raise ParameterError(name, "must be finite")
        if math.hypot(pt.real, pt.imag) > SEPARATION_MAX_COORD:
            raise ParameterError(name, f"must be at most {SEPARATION_MAX_COORD:g} in modulus")
    if not as_sphere(basin_fixed_point).is_infinity:
        raise NotImplementedError("separation closure only implemented across infinity")
    tr1, tr2 = _landed_pair(f, basin_fixed_point, t1, t2, depth, r0)
    if not _colanded(tr1, tr2):
        raise RayLandingError(
            f"rays do not co-land (gap {abs(tr1.landing - tr2.landing):.3g})")
    joint = (tr1.landing if tr1.certified and tr2.certified
             else 0.5 * (tr1.landing + tr2.landing))

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
