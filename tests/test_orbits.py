import cmath
import math

import numpy as np
import pytest

import fatou.orbits
from fatou.catalog import CATALOG_NAMES, by_name, paper_g, pseudo_basilica
from fatou.orbits import (
    critical_portrait,
    cycle_multiplier,
    detect_cycle,
    orbit_derivative,
    periodic_points,
)
from fatou.ratmap import Polynomial, RationalMap, critical_points, eval_sphere, normalize
from fatou.sphere import MoebiusTransform, SpherePoint, as_sphere


def _poly(*coeffs):
    # coeffs low to high, denominator 1
    return normalize(Polynomial(tuple(float(c) for c in coeffs)),
                     Polynomial((1.0,)))


def _chebyshev():
    return _poly(-2, 0, 1)  # z^2 - 2


def test_detect_cycle_superattracting_two_cycle():
    # paper-g sends 1 -> 0 -> -2 -> 0, and 0 is critical
    g = paper_g()
    rep = detect_cycle(g, 1.0)
    assert rep is not None
    assert rep.preperiod == 1
    assert rep.period == 2
    got = {p.to_complex() for p in rep.cycle}
    assert all(min(abs(z - w) for w in got) < 1e-8 for z in (0.0, -2.0))
    assert abs(rep.multiplier) < 1e-12
    assert rep.classification == "superattracting"


def test_detect_cycle_repelling_fixed_point():
    f = _chebyshev()
    rep = detect_cycle(f, 0.0)  # 0 -> -2 -> 2 -> 2
    assert rep.preperiod == 2
    assert rep.period == 1
    assert abs(rep.cycle[0].to_complex() - 2.0) < 1e-9
    assert abs(rep.multiplier - 4.0) < 1e-9
    assert rep.classification == "repelling"


def test_detect_cycle_classifications():
    # z + z^2 fixes 0 with multiplier exactly 1
    par = _poly(0, 1, 1)
    rep = detect_cycle(par, 0.0)
    assert rep.period == 1
    assert abs(rep.multiplier - 1.0) < 1e-12
    assert rep.classification == "indifferent"

    # z^2 + 0.1 has an attracting fixed point at (1 - sqrt(0.6)) / 2
    att = _poly(0.1, 0, 1)
    rep = detect_cycle(att, 0.0)
    assert rep.period == 1
    fix = (1.0 - math.sqrt(0.6)) / 2.0
    assert abs(rep.cycle[0].to_complex() - fix) < 1e-7
    assert abs(rep.multiplier - 2.0 * fix) < 1e-6
    assert rep.classification == "attracting"

    rep = detect_cycle(_chebyshev(), SpherePoint.infinity())
    assert rep.period == 1
    assert rep.classification == "superattracting"


def test_detect_cycle_none_cases():
    # rotation number = golden mean: closest return in 512 steps stays
    # far above tol, so no cycle is reported
    theta = (math.sqrt(5.0) - 1.0) / 2.0
    lam = cmath.exp(2j * math.pi * theta)
    f = normalize(Polynomial((0.0, lam, 1.0)), Polynomial((1.0,)))
    assert detect_cycle(f, 0.05) is None

    att = _poly(0.1, 0, 1)
    assert detect_cycle(att, 0.0, max_iter=3) is None


def test_fixed_points_chebyshev():
    # z^2 - z - 2 = (z - 2)(z + 1), plus the fixed point at infinity
    pts = periodic_points(_chebyshev(), 1)
    assert sum(p.multiplicity for p in pts) == 3
    finite = sorted(p.point.to_complex().real for p in pts
                    if not p.point.is_infinity)
    assert np.allclose(finite, [-1.0, 2.0], atol=1e-9)
    assert all(p.minimal_period == 1 for p in pts)


def test_period_two_points_minimal_periods():
    # period-2 polynomial of z^2 - 2 factors through z^2 + z - 1,
    # giving the golden pair (-1 +- sqrt(5)) / 2
    pts = periodic_points(_chebyshev(), 2)
    assert sum(p.multiplicity for p in pts) == 5
    fresh = sorted(p.point.to_complex().real for p in pts
                   if p.minimal_period == 2)
    s5 = math.sqrt(5.0)
    assert np.allclose(fresh, [(-1 - s5) / 2, (-1 + s5) / 2], atol=1e-9)
    fixed = {round(p.point.to_complex().real, 6) for p in pts
             if p.minimal_period == 1 and not p.point.is_infinity}
    assert fixed == {-1.0, 2.0}


def test_fixed_points_embed_in_higher_periods():
    f = paper_g()
    fix = [p.point for p in periodic_points(f, 1)]
    per2 = periodic_points(f, 2)
    for q in fix:
        assert min(q.chordal(p.point) for p in per2) < 1e-8


def test_periodic_count_degree_formula():
    # degree^period + 1 points counted with multiplicity
    for f, period in ((_poly(0, 0, 1), 3), (paper_g(), 1), (paper_g(), 2),
                      (pseudo_basilica(4), 2)):
        pts = periodic_points(f, period)
        assert sum(p.multiplicity for p in pts) == f.degree ** period + 1


def test_parabolic_fixed_point_multiplicity():
    # z + z^2 has a double fixed point at 0
    pts = periodic_points(_poly(0, 1, 1), 1)
    by_mult = {("inf" if p.point.is_infinity
                else round(abs(p.point.to_complex()), 9)): p.multiplicity
               for p in pts}
    assert by_mult == {0.0: 2, "inf": 1}


def test_multiplier_conjugation_invariant():
    f = _chebyshev()
    m = MoebiusTransform(0.0, 1.0, 1.0, 0.0)  # z -> 1/z
    h = f.conjugate_by(m)
    a = detect_cycle(f, 2.0)
    b = detect_cycle(h, 0.5)
    assert a.period == b.period == 1
    assert abs(a.multiplier - b.multiplier) < 1e-8
    assert b.classification == "repelling"


def test_cycle_multiplier_through_infinity():
    # z + 1/z fixes infinity with derivative 1 in the 1/z chart
    flow = normalize(Polynomial((1.0, 0.0, 1.0)), Polynomial((0.0, 1.0)))
    rep = detect_cycle(flow, SpherePoint.infinity())
    assert rep.period == 1
    assert abs(rep.multiplier - 1.0) < 1e-9
    assert rep.classification == "indifferent"

    # 1/z^2 swaps 0 and infinity, both critical
    inv2 = normalize(Polynomial((1.0,)), Polynomial((0.0, 0.0, 1.0)))
    rep = detect_cycle(inv2, 0.0)
    assert rep.period == 2
    assert abs(rep.multiplier) < 1e-12
    assert rep.classification == "superattracting"
    assert abs(cycle_multiplier(inv2, rep.cycle)) < 1e-12


def test_chebyshev_portrait_not_hyperbolic():
    # both critical orbits are finite but the finite one lands on a
    # repelling fixed point, so the map is critically finite and not
    # hyperbolic
    port = critical_portrait(_chebyshev())
    crit = {("inf" if c.point.is_infinity
             else round(abs(c.point.to_complex()), 9)): c.local_degree
            for c in port.critical_points}
    assert crit == {0.0: 2, "inf": 2}
    post = {"inf" if p.is_infinity else round(p.to_complex().real, 6)
            for p in port.postcritical}
    assert post == {-2.0, 2.0, "inf"}
    assert port.critically_finite is True
    assert port.hyperbolic is False
    assert port.all_postcritical_periodic is False
    assert len(port.q_subset) == 1 and port.q_subset[0].is_infinity


def test_paper_g_portrait_flags():
    port = critical_portrait(paper_g())
    assert port.critically_finite is True
    assert port.hyperbolic is True
    assert port.all_postcritical_periodic is True
    # orbits tuple stays aligned with critical_points
    assert len(port.orbits) == len(port.critical_points)
    for c, rep in zip(port.critical_points, port.orbits):
        assert rep is not None
        assert rep.start.chordal(c.point) < 1e-12


@pytest.mark.parametrize("name, calls", [("paper-g", 6), ("pseudo-rabbit:3:0", 8)])
def test_portrait_evaluates_the_map_only_along_the_critical_walks(monkeypatch, name, calls):
    f = by_name(name)
    crit = critical_points(f)
    evaluate = fatou.orbits.eval_sphere
    seen = []

    def counted(g, x):
        seen.append(x)
        return evaluate(g, x)
    monkeypatch.setattr(fatou.orbits, "eval_sphere", counted)
    for c in crit:
        detect_cycle(f, c.point)
    walks = len(seen)
    seen.clear()
    critical_portrait(f)
    assert len(seen) == walks == calls


@pytest.mark.parametrize("c, flags, n_post, n_q", [
    (1j, (True, False, False), 4, 1),  # 0 -> i -> -1+i <-> -i, repelling
    (-2.0, (True, False, False), 3, 1),  # 0 -> -2 -> 2 -> 2, repelling
    (-1.0, (True, True, True), 3, 3),  # 0 <-> -1, superattracting
])
def test_portrait_flags_survive_moebius_conjugation(c, flags, n_post, n_q):
    f = normalize(Polynomial((c, 0.0, 1.0)), Polynomial((1.0,)))
    rng = np.random.default_rng(8)
    maps = [f]
    while len(maps) < 11:
        a, b, cc, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        if abs(a * d - b * cc) > 1e-2:
            maps.append(f.conjugate_by(MoebiusTransform(a, b, cc, d)))
    for h in maps:
        port = critical_portrait(h)
        assert (port.critically_finite, port.hyperbolic,
                port.all_postcritical_periodic) == flags
        assert (len(port.postcritical), len(port.q_subset)) == (n_post, n_q)


def _all_pairs_postcritical(f) -> list:
    """The reference dedupe: each new postcritical point is compared with
    every point kept so far."""
    post = []
    for c in critical_points(f):
        orbit, period = fatou.orbits._walk(f, c.point, fatou.orbits.WALK_STEPS)
        rep = fatou.orbits._report(f, orbit, period)
        stop = fatou.orbits.CYCLE_WINDOW if rep is None else rep.preperiod + rep.period
        for p in orbit[1:stop + 1]:
            if not any(p.chordal(q) < fatou.orbits.CYCLE_TOL for q in post):
                post.append(p)
    return post


def _random_map(seed: int, degree: int):
    rng = np.random.default_rng(seed)
    num, den = (rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
                for _ in range(2))
    return normalize(Polynomial(tuple(num)), Polynomial(tuple(den)))


@pytest.mark.parametrize("f", [pytest.param(by_name(name), id=name) for name in CATALOG_NAMES]
                         + [pytest.param(_chebyshev(), id="chebyshev")]
                         + [pytest.param(_random_map(seed, d), id=f"random {d} seed {seed}")
                            for seed, d in ((1, 3), (2, 5), (3, 8))])
def test_postcritical_cells_keep_the_all_pairs_points(f):
    assert list(critical_portrait(f).postcritical) == _all_pairs_postcritical(f)


def _window_walk(f, start, max_iter: int) -> tuple[list, int]:
    """The reference revisit test: each new point against the CYCLE_WINDOW
    points before it, latest first."""
    x = as_sphere(start)
    orbit = [x]
    for _ in range(max_iter):
        x = eval_sphere(f, x)
        k = len(orbit)
        orbit.append(x)
        for j in range(k - 1, max(0, k - fatou.orbits.CYCLE_WINDOW) - 1, -1):
            if x.chordal(orbit[j]) < fatou.orbits.CYCLE_TOL:
                return orbit, k - j
    return orbit, 0


@pytest.mark.parametrize("f", [pytest.param(by_name(name), id=name) for name in CATALOG_NAMES]
                         + [pytest.param(_random_map(seed, d), id=f"random {d} seed {seed}")
                            for seed, d in ((1, 3), (2, 5), (3, 8))])
def test_walk_cells_find_the_window_loops_revisit(f):
    rng = np.random.default_rng(7)
    starts = [c.point for c in critical_points(f)]
    starts += [SpherePoint.of(complex(z)) for z in rng.normal(size=8) + 1j * rng.normal(size=8)]
    for x in starts:
        want = _window_walk(f, x, fatou.orbits.WALK_STEPS)
        assert fatou.orbits._walk(f, x, fatou.orbits.WALK_STEPS) == want


@pytest.mark.parametrize("turns, period", [(50, 50), (64, 64), (65, 0), (100, 0)])
def test_walk_sees_only_the_window(turns, period):
    # a rotation by 1/turns of a turn (built raw: degree 1) revisits its
    # start after turns steps, which the walk sees only within the window
    f = RationalMap(Polynomial((0.0, cmath.exp(2j * math.pi / turns))), Polynomial((1.0,)))
    want = _window_walk(f, SpherePoint.of(0.5), 300)
    assert want[1] == period
    assert fatou.orbits._walk(f, SpherePoint.of(0.5), 300) == want


def test_points_closer_than_cycle_tol_share_or_neighbour_cells():
    rng = np.random.default_rng(11)
    tol = fatou.orbits.CYCLE_TOL
    pairs = 0
    for scale in (1e-3, 1.0, 1e3):
        for z in scale * (rng.normal(size=400) + 1j * rng.normal(size=400)):
            p = SpherePoint.of(complex(z))
            # a step of chordal length just under tol: dz = step (1 + |z|^2) / 2
            step = tol * (1.0 - 1e-6 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
            q = SpherePoint.of(complex(z) + step * (1.0 + abs(z) ** 2) / 2.0)
            if p.chordal(q) < tol:
                pairs += 1
                a, b = fatou.orbits._sphere_cell(p), fatou.orbits._sphere_cell(q)
                assert max(abs(i - j) for i, j in zip(a, b)) <= 1, (z, a, b)
    assert pairs > 1000


def test_portrait_unresolved_orbit_gives_none_flags():
    # Siegel-type map: the finite critical orbit never settles, so the
    # portrait leaves the global flags undecided
    theta = (math.sqrt(5.0) - 1.0) / 2.0
    lam = cmath.exp(2j * math.pi * theta)
    f = normalize(Polynomial((0.0, lam, 1.0)), Polynomial((1.0,)))
    port = critical_portrait(f)  # walks WALK_STEPS steps
    assert any(rep is None for rep in port.orbits)
    assert port.critically_finite is None
    assert port.hyperbolic is None


def _reference_multiplier(f, cycle):
    """Product of f' = W / den^2 over finite cycle points, in the plain chart."""
    wr = f.wronskian()
    return math.prod(wr(z) / f.den(z) ** 2 for z in cycle)


def test_random_conjugation_preserves_multiplier():
    rng = np.random.default_rng(44)
    f = paper_g()
    base = detect_cycle(f, 1.0)
    # a repelling 2-cycle, and the repelling fixed point 2 (f'(2) = 3)
    z0 = min((q.point.to_complex() for q in periodic_points(f, 2)
              if q.minimal_period == 2 and not q.point.is_infinity),
             key=lambda z: abs(z - 0.4))
    repelling = [[z0, f(z0).to_complex()], [2.0]]
    refs = [_reference_multiplier(f, cyc) for cyc in repelling]
    assert abs(refs[0]) > 4.0 and abs(refs[1] - 3.0) < 1e-12
    for cyc, ref in zip(repelling, refs):
        assert abs(cycle_multiplier(f, cyc) - ref) <= 1e-9 * abs(ref)
    # z -> 1/(z - 2) moves the fixed point to infinity
    to_inf = MoebiusTransform(0.0, 1.0, 1.0, -2.0)
    assert to_inf.apply(2.0).is_infinity
    lam = cycle_multiplier(f.conjugate_by(to_inf), [SpherePoint.infinity()])
    assert abs(lam - refs[1]) <= 1e-9 * abs(refs[1])
    for _ in range(10):
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        if abs(a * d - b * c) < 1e-2:
            continue
        m = MoebiusTransform(a, b, c, d)
        h = f.conjugate_by(m)
        rep = detect_cycle(h, m.apply(SpherePoint(1.0, 1.0)))
        assert rep is not None
        assert rep.period == base.period
        assert abs(rep.multiplier - base.multiplier) < 1e-6
        for cyc, ref in zip(repelling, refs):
            lam = cycle_multiplier(h, [m.apply(z) for z in cyc])
            assert abs(lam - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_orbit_derivative_is_the_affine_chain_rule(name):
    # f^n(z) and (f^n)'(z) against num/den and their derivatives, step by step
    f = by_name(name)
    dnum, dden = f.num.deriv(), f.den.deriv()
    rng = np.random.default_rng(23)
    starts = rng.uniform(-1.5, 1.5, 12) + 1j * rng.uniform(-1.5, 1.5, 12)
    for z0 in starts.tolist():
        z, dz = z0, 1.0
        for n in (1, 2, 3):
            p, q = f.num(z), f.den(z)
            dz *= (dnum(z) * q - p * dden(z)) / (q * q)
            z = p / q
            got, dgot = orbit_derivative(f, z0, n)
            assert abs(got - z) <= 1e-12 * (1.0 + abs(z))
            assert abs(dgot - dz) <= 1e-11 * (1.0 + abs(dz))
