import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import fatou._bounds
import fatou.rays
from fatou.basins import escape_disc, superattracting_cycles
from fatou.catalog import SELECTORS, by_name, paper_g
from fatou.orbits import critical_portrait
from fatou.ratmap import Polynomial, eval_sphere, nearest, normalize
from fatou.rays import (
    DEFAULT_DEPTH,
    LANDING_TOL,
    MAX_DEPTH,
    MAX_ORBIT_ANGLES,
    MAX_R0,
    SEPARATION_MAX_COORD,
    AngleOrbitError,
    RayAngle,
    RayLandingError,
    RayTrace,
    RayTraceError,
    _colanded,
    _finite_fiber,
    _leading_data,
    _orbit_angles,
    coland,
    separation_test,
    trace_orbit,
    trace_ray,
)
from fatou.sphere import MoebiusTransform, ParameterError, SpherePoint
from test_golden import RAYS

# independent oracle: the two real roots of 2z^2 + z - 2 by interval
# bisection (see tests/test_sphere.py for the other four)
BETA_LIKE = -1.2807764064044149


def _square():
    return normalize(Polynomial((0.0, 0.0, 1.0)), Polynomial((1.0,)))


def test_angle_parse_and_reduce():
    assert str(RayAngle.parse("1/3")) == "1/3"
    assert str(RayAngle.parse("2/6")) == "1/3"
    assert str(RayAngle.parse("7/6")) == "1/6"
    assert str(RayAngle.parse("-1/3")) == "2/3"
    assert str(RayAngle.parse("0")) == "0/1"
    assert str(RayAngle.parse("3")) == "0/1"
    assert RayAngle.parse("1/4").value() == 0.25
    assert RayAngle.parse("1/3") == RayAngle(1, 3)


def test_angle_parse_rejects_decimals():
    for bad in ("0.25", "1.5/3", "", "a/b"):
        with pytest.raises(ValueError):
            RayAngle.parse(bad)
    with pytest.raises(ArithmeticError):
        RayAngle.parse("1/0")


def test_angle_multiplication():
    assert RayAngle.parse("1/3").times(2) == RayAngle(2, 3)
    assert RayAngle.parse("2/3").times(2) == RayAngle(1, 3)
    assert RayAngle.parse("1/6").times(3) == RayAngle(1, 2)
    assert RayAngle.parse("1/2").times(2) == RayAngle(0, 1)


def test_square_map_ray_traces_are_radial():
    # the escape coordinate of z -> z^2 is the identity, so every sample
    # must sit exactly at potential * e^(2 pi i t)
    f = _square()
    traces = trace_orbit(f, SpherePoint.infinity(), ["0", "1/3"])
    assert sorted(str(a) for a in traces) == ["0/1", "1/3", "2/3"]
    for angle, tr in traces.items():
        assert tr.landed and tr.certified
        w = cmath.exp(2j * math.pi * angle.value())
        err = max(abs(s - p * w) for s, p in zip(tr.samples, tr.potentials))
        assert err < 1e-12
        # the landing is the repelling point e^(2 pi i t) of period 1 or 2,
        # polished by Newton rather than read off the last sample
        assert abs(tr.landing - w) < 1e-15
        assert tr.residual < 1e-15
        assert abs(tr.multiplier - 2.0 ** {1: 1, 3: 2}[angle.denominator]) < 1e-14
    # potentials decrease toward 1
    pots = traces[RayAngle(0, 1)].potentials
    assert pots[0] == 100.0
    assert all(a > b > 1.0 for a, b in zip(pots, pots[1:]))
    # the trace stopped once every landing was certified, well before depth
    sub = traces[RayAngle(0, 1)].sublevels
    assert all(len(tr.samples) == len(pots) for tr in traces.values())
    assert len(pots) < DEFAULT_DEPTH * sub // 2


def test_square_map_rays_do_not_coland():
    f = _square()
    assert coland(f, SpherePoint.infinity(), "1/3", "2/3") is False
    assert coland(f, SpherePoint.infinity(), "0", "0") is True


def _landed(landing, certified):
    return RayTrace(RayAngle(0, 1), (landing,), (1.0,), True, landing, 0.0, 1, certified,
                    2.0 if certified else None)


def test_certified_landings_coland_only_when_they_agree_to_1e_12():
    near, far = 1.0 + 1e-13, 1.0 + 1e-9
    assert _colanded(_landed(1.0, True), _landed(near, True)) is True
    assert _colanded(_landed(1.0, True), _landed(far, True)) is False
    # LANDING_TOL stays for a pair with an uncertified landing
    assert _colanded(_landed(1.0, True), _landed(far, False)) is True
    assert _colanded(_landed(1.0, False), _landed(1.0 + 2 * LANDING_TOL, True)) is False


def test_real_coefficients_give_conjugate_rays():
    f = _square()
    for t, s in (("1/6", "5/6"), ("1/3", "2/3")):
        a = trace_ray(f, SpherePoint.infinity(), t)
        b = trace_ray(f, SpherePoint.infinity(), s)
        assert abs(a.landing.conjugate() - b.landing) < 1e-12


def test_paper_g_fixed_ray_and_coland():
    g = paper_g()
    # the landings are the doubles nearest the closed forms, alone or in an orbit
    for tr in (trace_ray(g, SpherePoint.infinity(), "0"),
               trace_orbit(g, SpherePoint.infinity(), ["0", "1/6", "5/6"])[RayAngle(0, 1)]):
        assert tr.landed and tr.certified
        assert tr.landing == 2.0
        assert tr.multiplier == 3.0  # g'(2) = 3
    assert coland(g, SpherePoint.infinity(), "1/3", "2/3") is True
    assert coland(g, SpherePoint.infinity(), "1/6", "5/6") is False
    t13 = trace_ray(g, SpherePoint.infinity(), "1/3")
    alpha = (-1.0 - math.sqrt(17.0)) / 4.0  # -1.2807764064044151, correctly rounded
    assert t13.certified
    assert t13.landing.real == alpha
    assert abs(t13.landing.imag) < 1e-15


def test_ray_images_follow_angle_multiplication():
    # applying the map to a ray sample moves it one shell out on the ray
    # of the multiplied angle; the multiplier is the local degree at the
    # basin point, here 2
    g = paper_g()
    traces = trace_orbit(g, SpherePoint.infinity(), ["1/6"])
    assert sorted(str(a) for a in traces) == ["1/3", "1/6", "2/3"]
    for angle, tr in traces.items():
        img = traces[angle.times(2)]
        step = tr.sublevels
        assert img.sublevels == step
        worst = 0.0
        for q in range(step, len(tr.samples), 7):
            fz = eval_sphere(g, SpherePoint(tr.samples[q], 1.0))
            worst = max(worst, abs(fz.to_complex() - img.samples[q - step]))
        assert worst < 1e-6


def test_finite_basin_traces_through_conjugation():
    # moving the superattracting point to the origin must not change the
    # landing up to the same coordinate change
    m = MoebiusTransform(0.0, 1.0, 1.0, 1.0)  # z -> 1/(z + 1)
    h = _square().conjugate_by(m)
    tr = trace_ray(h, 0.0, "0")
    assert tr.landed
    assert abs(tr.landing - 0.5) < 1e-9  # image of the landing point 1

    inv = MoebiusTransform(0.0, 1.0, 1.0, 0.0)  # z -> 1/z
    hg = paper_g().conjugate_by(inv)
    assert coland(hg, 0.0, "1/3", "2/3") is True
    tr = trace_ray(hg, 0.0, "1/3")
    assert abs(tr.landing - 1.0 / BETA_LIKE) < 1e-6


def test_unlanded_trace_reports_residual():
    f = _square()
    tr = trace_ray(f, SpherePoint.infinity(), "1/3", depth=2)
    assert tr.landed is False
    assert tr.landing is None
    assert (tr.certified, tr.multiplier) == (False, None)
    assert tr.residual > 1.0
    with pytest.raises(RayLandingError):
        coland(f, SpherePoint.infinity(), "1/3", "2/3", depth=2)


def test_trace_validation_errors():
    f = _square()
    with pytest.raises(ValueError):
        trace_ray(f, SpherePoint.infinity(), "0", r0=5.0)
    with pytest.raises(ValueError):
        trace_ray(f, 0.5, "0")  # not a fixed point
    with pytest.raises(ValueError):
        trace_ray(paper_g(), 2.0, "0")  # fixed but repelling
    for r0 in (math.inf, math.nan, math.nextafter(MAX_R0, math.inf)):
        with pytest.raises(ValueError, match="r0"):
            trace_orbit(paper_g(), SpherePoint.infinity(), ["1/3"], r0=r0)
    for depth in (0, MAX_DEPTH + 1):
        with pytest.raises(ValueError, match="depth"):
            trace_orbit(paper_g(), SpherePoint.infinity(), ["1/3"], depth=depth)


def test_an_ambiguous_continuation_retraces_at_twice_the_sublevels(monkeypatch):
    # trace_orbit retraces the whole orbit at doubled sublevels while a
    # continuation is ambiguous; here the two coarsest subdivisions are
    # planted ambiguous
    real, tried = fatou.rays._trace_at_infinity, []

    def ambiguous_below_16(f, m, orbit, potentials, sublevels):
        tried.append((sublevels, len(potentials)))
        if sublevels < 16:
            raise fatou.rays._Ambiguous("planted")
        return real(f, m, orbit, potentials, sublevels)
    monkeypatch.setattr(fatou.rays, "_trace_at_infinity", ambiguous_below_16)
    traces = trace_orbit(paper_g(), SpherePoint.infinity(), ["1/3", "2/3"], depth=12)
    assert tried == [(4, 49), (8, 97), (16, 193)]
    assert [tr.sublevels for tr in traces.values()] == [16, 16]
    assert all(tr.certified and abs(tr.landing - BETA_LIKE) < 1e-9 for tr in traces.values())


def test_a_continuation_ambiguous_at_the_finest_subdivision_is_an_error(monkeypatch):
    # from r0 = 1e12 the first fiber targets of paper-g trim to the pole and
    # infinity twice (see the README), so R_1/3 is ambiguous at every
    # subdivision; MAX_R0 stops short of that, and is lifted here to reach it
    monkeypatch.setattr(fatou.rays, "MAX_R0", 1e12)
    real, tried = fatou.rays._trace_at_infinity, []

    def spy(f, m, orbit, potentials, sublevels):
        tried.append(sublevels)
        return real(f, m, orbit, potentials, sublevels)
    monkeypatch.setattr(fatou.rays, "_trace_at_infinity", spy)
    with pytest.raises(RayTraceError, match="ambiguous at the finest subdivision"):
        trace_orbit(paper_g(), SpherePoint.infinity(), ["1/3", "2/3"], r0=1e12)
    assert tried == [4, 8, 16, 32, 64] and tried[-1] == fatou.rays._MAX_SUBLEVELS


def test_separation_parity():
    g = paper_g()
    inf = SpherePoint.infinity()
    assert separation_test(g, inf, "1/3", "2/3", 0.0, -2.0) is True
    assert separation_test(g, inf, "1/3", "2/3", 0.0, 5.0) is False
    assert separation_test(g, inf, "1/3", "2/3", -2.0, 5.0) is True


def test_separation_curve_closes_at_the_certified_landing(monkeypatch):
    curves = []
    real_winding, real_trace = fatou.rays.winding_number, fatou.rays.trace_orbit

    def spy(verts, p):
        curves.append(verts)
        return real_winding(verts, p)

    def nudged(*args):
        # R_2/3 lands 1e-13 off R_1/3: still one certified point, not a midpoint
        traces = real_trace(*args)
        t = RayAngle(2, 3)
        traces[t] = dataclasses.replace(traces[t], landing=traces[t].landing + 1e-13)
        return traces
    monkeypatch.setattr(fatou.rays, "winding_number", spy)
    monkeypatch.setattr(fatou.rays, "trace_orbit", nudged)
    g, inf = paper_g(), SpherePoint.infinity()
    assert separation_test(g, inf, "1/3", "2/3", 0.0, -2.0) is True
    r13 = real_trace(g, inf, ["1/3"])[RayAngle(1, 3)]
    assert r13.certified
    # in along R_1/3, then the joint: its certified landing itself
    assert curves[0][len(r13.samples)] == r13.landing


def test_certify_accepts_only_repelling_points_whose_samples_fill_the_disc():
    t = RayAngle(0, 1)

    def certified(chain, f=_square(), sub=1) -> dict:  # z^2 fixes 0 (multiplier 0) and 1 (2)
        landings = {}
        fatou.rays._certify(f, 2, {t: 1}, {t: chain}, sub, landings, {})
        return landings
    # z^2 maps the circle |z - 1| = r outside D(1, r), once around it,
    # exactly when r < 1: from r = 1 on the disc holds the critical point 0
    toward_one = [1.0 + 0.1 * 0.5 ** j for j in range(4)]
    landing = certified(toward_one)[t]
    assert (landing.point, landing.multiplier, landing.start, landing.period) == (1.0, 2.0, 2, 1)
    r = landing.radius
    assert 0.8 < r < 1.0
    # z^2 + z/2 fixes 0 with multiplier 1/2: refused although Newton converges
    half = normalize(Polynomial((0.0, 0.5, 1.0)), Polynomial((1.0,)))
    assert certified([1e-4 * 0.9 ** j for j in range(4)], half) == {}
    # one period of the ray (k sub + 1 samples) must lie in the disc
    assert certified([1.0 + 0.99 * r, 1.0 + 0.5 * r])[t].start == 0
    assert certified([1.0 + 1.01 * r, 1.0 + 0.5 * r]) == {}
    assert certified([1.0 + 1.01 * r, 1.0 + 0.7 * r, 1.0 + 0.5 * r], sub=2) == {}
    assert certified([1.0 + 0.5 * r]) == {}  # shorter than one period


def test_exact_residual_rounds_once_and_refuses_poles():
    # the residual of the doubles themselves, rounded once: against Fraction
    f = normalize(Polynomial((0.3, -1.0, 1.0)), Polynomial((0.7, 0.0, 1.0)))
    for z in (0.1, 1.0 / 3.0, -2.5):
        x = Fraction(z)
        for _ in range(2):
            x = (Fraction(0.3) - x + x * x) / (Fraction(0.7) + x * x)
        assert fatou.rays._exact_residual(f, complex(z), 2, None) == float(x - Fraction(z))
        y = (Fraction(0.3) - Fraction(z) + Fraction(z) ** 2) / (Fraction(0.7) + Fraction(z) ** 2)
        assert fatou.rays._exact_residual(f, complex(z), 1, 0.25) == float(y - Fraction(0.25))
    pole = normalize(Polynomial((1.0, 0.0, 1.0)), Polynomial((0.0, 1.0)))  # (z^2 + 1) / z
    with pytest.raises(ZeroDivisionError):
        fatou.rays._exact_residual(pole, 0j, 1, None)


def test_certify_runs_newton_once_per_candidate_and_chains_preimages(monkeypatch):
    # 1/2 -> 0 under doubling: R_1/2 of z^2 lands at -1, the preimage of 1
    half, zero = RayAngle(1, 2), RayAngle(0, 1)
    periods = {zero: 1, half: 0}
    calls = []
    real = fatou.rays._newton

    def counted(*args):
        calls.append(args[2])
        return real(*args)
    monkeypatch.setattr(fatou.rays, "_newton", counted)
    chains = {zero: [2.5, 2.4], half: [-2.5, -2.4]}
    landings, candidates = {}, {}
    fatou.rays._certify(_square(), 2, periods, chains, 1, landings, candidates)
    assert landings == {} and calls == [1]  # 2.5 lies outside the disc about 1
    # the newest sample approaches the candidate: no new Newton run
    chains = {zero: [2.5, 2.4, 1.2, 1.1], half: [-2.5, -2.4, -1.2, -1.1]}
    fatou.rays._certify(_square(), 2, periods, chains, 1, landings, candidates)
    assert calls == [1, 1]  # R_1/2 now needs its one Newton run on f(z) = 1
    assert landings[zero].point == 1.0 and landings[zero].start == 2
    lnd = landings[half]
    assert (lnd.point, lnd.multiplier, lnd.period) == (-1.0, 2.0, 0)
    # each point of the disc about 1 has one preimage in the disc about -1,
    # which holds the critical point 0: its critical value 0 lies outside
    assert 1.0 < lnd.radius < 2.0 and landings[zero].radius < 1.0
    assert lnd.start == 3  # from start(0) + sub on
    # a newest sample moving away from the candidate runs Newton again
    kept = {zero: (landings[zero], 0.05)}  # the candidate 1, last seen 0.05 away
    fatou.rays._certify(_square(), 2, {zero: 1}, {zero: [1.2, 1.1]}, 1, {}, kept)
    assert calls == [1, 1, 1]


def test_separation_preconditions():
    g = paper_g()
    inf = SpherePoint.infinity()
    with pytest.raises(RayTraceError):
        separation_test(g, inf, "1/6", "5/6", 0.0, -2.0)  # no common landing
    with pytest.raises(ValueError):
        separation_test(g, inf, "1/3", "2/3", BETA_LIKE + 0j, 5.0)  # on curve
    hg = g.conjugate_by(MoebiusTransform(0.0, 1.0, 1.0, 0.0))
    with pytest.raises(NotImplementedError):
        separation_test(hg, 0.0, "1/3", "2/3", 2.0, 3.0)


_PAST = math.nextafter(SEPARATION_MAX_COORD, math.inf)


@pytest.mark.parametrize("basin, a, b, error, match", [
    (None, math.nan, -2.0, ParameterError, "a: must be finite"),
    (None, complex(math.inf, 0.0), -2.0, ParameterError, "a: must be finite"),
    (None, 0.0, complex(0.0, -math.inf), ParameterError, "b: must be finite"),
    (None, 1e300, -2.0, ParameterError, "a: must be at most 1e\\+147"),
    (None, 0.0, _PAST * 1j, ParameterError, "b: must be at most 1e\\+147"),
    (0.0, 2.0, 3.0, NotImplementedError, "across infinity"),
], ids=["nan", "inf", "inf-imag", "1e300", "past-bound", "finite-basin"])
def test_separation_refuses_before_tracing(monkeypatch, basin, a, b, error, match):
    # each refusal comes before the two rays are traced
    g, traced = paper_g(), []
    if basin is not None:  # the basin of infinity of paper-g moved to 0
        g = g.conjugate_by(MoebiusTransform(0.0, 1.0, 1.0, 0.0))
    monkeypatch.setattr(fatou.rays, "trace_orbit", lambda *args: traced.append(args))
    with pytest.raises(error, match=match):
        separation_test(g, SpherePoint.infinity() if basin is None else basin,
                        "1/3", "2/3", a, b)
    assert traced == []


def test_separation_at_the_coordinate_bound():
    # |a| = SEPARATION_MAX_COORD closes the curve on |z| = 1e153 with every
    # product finite (a RuntimeWarning fails the test); -2 lies inside the
    # curve, the points at the bound outside it
    g, inf = paper_g(), SpherePoint.infinity()
    assert separation_test(g, inf, "1/3", "2/3", SEPARATION_MAX_COORD, -2.0) is True
    assert separation_test(g, inf, "1/3", "2/3", -2.0, -SEPARATION_MAX_COORD * 1j) is True


def test_trace_determinism():
    g = paper_g()
    a = trace_ray(g, SpherePoint.infinity(), "1/3")
    b = trace_ray(g, SpherePoint.infinity(), "1/3")
    assert a.samples == b.samples
    assert a.potentials == b.potentials
    assert a.landing == b.landing


def test_ray_levels_are_solved_in_batches_without_preimages(monkeypatch):
    calls = []
    real = fatou.rays.preimages

    def counted(f, v):
        calls.append(v)
        return real(f, v)
    monkeypatch.setattr(fatou.rays, "preimages", counted)
    traces = trace_orbit(paper_g(), SpherePoint.infinity(), ["1/3", "2/3"])
    assert all(tr.landed for tr in traces.values())
    assert calls == []


def test_ray_trace_matches_the_preimages_path(monkeypatch):
    # the per-sample fallback must continue the rays exactly as the batch does
    g, inf = paper_g(), SpherePoint.infinity()
    batched = trace_orbit(g, inf, ["1/3", "2/3"])
    real_fibers, real_preimages = fatou.rays.fibers, fatou.rays.preimages
    calls = []

    def certify_none(f, targets, warm=None):
        roots, certified = real_fibers(f, targets, warm)
        return roots, np.zeros_like(certified)

    def counted(f, v):
        calls.append(v)
        return real_preimages(f, v)
    monkeypatch.setattr(fatou.rays, "fibers", certify_none)
    monkeypatch.setattr(fatou.rays, "preimages", counted)
    fallback = trace_orbit(g, inf, ["1/3", "2/3"])
    assert calls
    assert list(fallback) == list(batched)
    for t, a in batched.items():
        b = fallback[t]
        assert (b.sublevels, b.landed, b.certified) == (a.sublevels, a.landed, a.certified) \
            == (4, True, True)
        assert len(b.samples) == len(a.samples) < DEFAULT_DEPTH * 4  # the same stop
        assert max(abs(u - v) / (1.0 + abs(u)) for u, v in zip(a.samples, b.samples)) < 1e-12
        assert abs(a.landing - b.landing) <= 1e-12


def test_angle_orbit_is_bounded_before_tracing():
    # 1/(2^k - 1) has period exactly k under doubling
    assert len(_orbit_angles([RayAngle(1, 2 ** MAX_ORBIT_ANGLES - 1)], 2)) == MAX_ORBIT_ANGLES
    with pytest.raises(AngleOrbitError):
        _orbit_angles([RayAngle(1, 2 ** (MAX_ORBIT_ANGLES + 1) - 1)], 2)
    with pytest.raises(ValueError, match=f"more than {MAX_ORBIT_ANGLES} angles"):
        trace_orbit(paper_g(), SpherePoint.infinity(), ["1/1000003"])


def _reference_trace(f, m, orbit, potentials, sublevels):
    """The level-by-level loop: one fibers call per potential level, seeded
    with the fibers of the level just above, and a certification attempt
    after every sublevels levels. The block solve of
    fatou.rays._trace_at_infinity must continue the rays as this does and
    stop where it stops."""
    a, shift = _leading_data(f, m)
    periods = fatou.rays._periods(orbit, m)
    landings, candidates = {}, {}

    def lin_inverse(rho, t):
        return rho * cmath.exp(2j * math.pi * t.value()) / a - shift

    samples = {t: [lin_inverse(potentials[q], t) for q in range(sublevels)] for t in orbit}
    chains = list(samples.values())
    images = [samples[t.times(m)] for t in orbit]
    warm = None
    for q in range(sublevels, len(potentials)):
        rho = potentials[q]
        targets = [image[q - sublevels] for image in images]
        roots, certified = fatou.rays.fibers(f, targets, warm)
        warm = np.where(certified[:, None], roots, np.nan)
        for t, chain, target, row, ok in zip(orbit, chains, targets, roots.tolist(),
                                             certified.tolist()):
            if rho >= fatou.rays._LIN_GUIDE_MIN:
                guide = lin_inverse(rho, t)
            elif len(chain) >= 2:
                guide = 2.0 * chain[-1] - chain[-2]
            else:
                guide = chain[-1]
            cands = row if ok else _finite_fiber(f, target)
            if not cands:
                raise RayTraceError("empty finite fiber while tracing")
            chain.append(cands[nearest(cands, guide)])
        if (q + 1) % sublevels == 0 or q == len(potentials) - 1:
            fatou.rays._certify(f, m, periods, samples, sublevels, landings, candidates)
            if len(landings) == len(orbit):
                break
    return samples, landings


_RAY_CASES = [pytest.param(name, angles, False, id=f"{name} {','.join(angles)}")
              for name, angles, _ in RAYS] + [
    pytest.param("paper-g", ("1/3", "2/3"), True, id="paper-g at 0 1/3,2/3")]


@pytest.mark.parametrize("name, angles, basin_at_zero", _RAY_CASES)
def test_block_solve_matches_the_level_by_level_reference(monkeypatch, name, angles,
                                                          basin_at_zero):
    f, basin = by_name(name), SpherePoint.infinity()
    if basin_at_zero:  # the basin of infinity moved to 0 by z -> 1/z
        f, basin = f.conjugate_by(MoebiusTransform(0.0, 1.0, 1.0, 0.0)), 0.0
    blocked = trace_orbit(f, basin, angles)
    monkeypatch.setattr(fatou.rays, "_trace_at_infinity", _reference_trace)
    reference = trace_orbit(f, basin, angles)
    assert list(blocked) == list(reference)
    for t, want in reference.items():
        got = blocked[t]
        assert (got.sublevels, got.landed, got.certified) == (want.sublevels, True, True)
        # both stop after the same block, long before the last potential
        assert got.potentials == want.potentials
        assert len(got.samples) == len(want.samples) < DEFAULT_DEPTH * got.sublevels
        assert all(abs(u - v) <= 1e-12 * (1.0 + abs(v)) for u, v in zip(got.samples, want.samples))
        assert abs(got.landing - want.landing) <= 1e-12 * (1.0 + abs(want.landing))
        assert abs(got.residual - want.residual) <= 1e-12


def test_one_fibers_call_per_block_of_sublevels(monkeypatch):
    # the levels of one block depend only on the block above, so the
    # successful attempt solves each block of sub levels in one call: depth
    # calls, where the level-by-level loop made depth * sub - sub + 1
    attempts = []
    real_fibers, real_trace = fatou.rays.fibers, fatou.rays._trace_at_infinity

    def counted_fibers(f, targets, warm=None):
        attempts[-1] += 1
        return real_fibers(f, targets, warm)

    def counted_trace(*args):
        attempts.append(0)
        return real_trace(*args)
    monkeypatch.setattr(fatou.rays, "fibers", counted_fibers)
    monkeypatch.setattr(fatou.rays, "_trace_at_infinity", counted_trace)
    traces = trace_orbit(paper_g(), SpherePoint.infinity(), ["1/3", "2/3"])
    sub = traces[RayAngle(1, 3)].sublevels
    assert sub == 4 and len(attempts) == 1  # the first attempt takes 4 sublevels
    assert attempts[-1] <= DEFAULT_DEPTH + 1


def _oracle(f, mp):
    """z -> (f(z), f'(z)) in mpmath from the map's own coefficients."""
    num = [mp.mpc(c.real, c.imag) for c in reversed(f.num.coeffs)]
    den = [mp.mpc(c.real, c.imag) for c in reversed(f.den.coeffs)]

    def step(z):
        p, dp = mp.polyval(num, z, derivative=True)
        q, dq = mp.polyval(den, z, derivative=True)
        return p / q, (dp * q - p * dq) / (q * q)
    return step


@pytest.mark.parametrize("name, angles, basin_at_zero", _RAY_CASES)
def test_certified_landings_against_an_mpmath_oracle(name, angles, basin_at_zero):
    mp = pytest.importorskip("mpmath").mp
    f, basin = by_name(name), SpherePoint.infinity()
    if basin_at_zero:
        f, basin = f.conjugate_by(MoebiusTransform(0.0, 1.0, 1.0, 0.0)), 0.0
    traces = trace_orbit(f, basin, angles)
    m = 2  # the local degree at the traced basin point of every catalog map
    with mp.workdps(50):
        step = _oracle(f, mp)
        for t, tr in traces.items():
            assert tr.landed and tr.certified, t
            z = mp.mpc(tr.landing.real, tr.landing.imag)
            bound = 1e-13 * (1.0 + abs(tr.landing))
            # the polished root: the true one is within two roundings of |z|
            # (one for the root, one for the chart change of a finite basin)
            ulps = 2.0 ** -51 * abs(tr.landing)
            k = next((k for k in range(1, len(traces) + 1)
                      if (t.numerator * m ** k - t.numerator) % t.denominator == 0), 0)
            if k:  # periodic angle: a repelling point of period dividing k
                x, dx = z, mp.mpf(1)
                for _ in range(k):
                    x, d = step(x)
                    dx *= d
                assert abs(x - z) <= bound, (t, float(abs(x - z)))
                assert abs((x - z) / (dx - 1)) <= ulps, (t, float(abs((x - z) / (dx - 1))))
                assert abs(dx) > 1.0
                assert abs(tr.multiplier - float(abs(dx))) <= 1e-12 * tr.multiplier
            else:  # preperiodic angle: f maps the landing onto its image's
                image = traces[t.times(m)].landing
                fz, dfz = step(z)
                assert abs(fz - mp.mpc(image.real, image.imag)) <= bound, t
                assert abs((fz - mp.mpc(image.real, image.imag)) / dfz) <= ulps, t
                assert tr.multiplier == traces[t.times(m)].multiplier


def test_parabolic_landing_stays_uncertified():
    # z^2 + 1/4: R_0 lands at the parabolic fixed point 1/2 (multiplier 1),
    # which is not certified, so the orbit runs to the last potential and R_0
    # keeps the tail rule; R_1/3 lands on the repelling 2-cycle -1/2 +- i,
    # multiplier 4 (1/4 + 1) = 5
    f = normalize(Polynomial((0.25, 0.0, 1.0)), Polynomial((1.0,)))
    traces = trace_orbit(f, SpherePoint.infinity(), ["0", "1/3"])
    r0, r13 = traces[RayAngle(0, 1)], traces[RayAngle(1, 3)]
    assert (r0.certified, r0.multiplier) == (False, None)
    assert len(r0.samples) == DEFAULT_DEPTH * r0.sublevels + 1 == 385
    assert r0.landed is False and r0.residual > LANDING_TOL
    assert r13.landed and r13.certified
    assert abs(r13.landing - (-0.5 + 1j)) < 1e-12
    assert abs(r13.multiplier - 5.0) < 1e-12


def test_certified_orbits_stop_within_20_fiber_solves(monkeypatch):
    # a fixed 96 levels took about 100 solves per orbit (failed subdivision
    # attempts included); the stop once one period of every ray lies in its
    # proved disc, with the first attempt at 4 sublevels, made it at most 19,
    # and 115 for the seven orbits of a benchmark round (700 before). The
    # rim-proved discs, 5-30 times larger, make it at most 9 and 60
    counts = []
    real = fatou.rays.fibers

    def counted(f, targets, warm=None):
        counts[-1] += 1
        return real(f, targets, warm)
    monkeypatch.setattr(fatou.rays, "fibers", counted)
    for name, angles, _ in RAYS:
        counts.append(0)
        traces = trace_orbit(by_name(name), SpherePoint.infinity(), angles)
        assert all(tr.certified for tr in traces.values())
    assert max(counts) <= 9, counts
    assert sum(counts) <= 60, counts


def test_one_cycle_disc_per_landing_in_a_benchmark_round(monkeypatch):
    # R_1/3 and R_2/3 of the two-cycle family land on one fixed point, and
    # their Newton roots differ by about 1e-48 in the imaginary part: both
    # get their disc about the same real centre, proved once. The six orbits
    # of the golden ray list (a benchmark round less its pseudo-basilica:4
    # orbit, which repeats paper-degree4's) have 10 distinct landings (14
    # runs when each angle proved its own disc); on the rabbit, R_2/3 lands
    # at the conjugate of R_1/3's landing, whose disc's conjugate is proved
    # with it: 9 runs
    runs = []
    real = fatou.rays._cycle_disc

    def counted(f, z, k):
        runs.append(z)
        return real(f, z, k)
    monkeypatch.setattr(fatou.rays, "_cycle_disc", counted)
    found = []
    for name, angles, _ in RAYS:
        f = by_name(name)
        traces = trace_orbit(f, SpherePoint.infinity(), angles)
        periods = fatou.rays._periods(list(traces), 2)
        found += [(f, tr, periods[t]) for t, tr in traces.items() if periods[t]]
    assert len(runs) == 9
    assert len(found) == 14
    # each served root reports the radius its own disc would have had
    for f, tr, k in found:
        assert tr.certified and tr.disc_radius == real(f, tr.landing, k)[0]


def test_a_root_in_a_proved_disc_gets_the_disc_inside_it():
    f = _square()  # R_0 lands at the repelling fixed point 1
    first = fatou.rays._candidate(f, 1.1, 1, None)
    assert first.point == 1.0 and first.radius > 0.1
    moved = first._replace(point=1.0 + 0.05j)
    again = fatou.rays._candidate(f, 1.1, 1, None, [moved])
    assert again.point == 1.0 and again.radius == first.radius - 0.05
    assert again.radius < first.radius
    # outside every proved disc, the root gets its own
    far = first._replace(point=5.0)
    assert fatou.rays._candidate(f, 1.1, 1, None, [far]) == first


def _rim_oracle(mp, step, z, r, j, w, n=512):
    """In mpmath: min |f^j(x) - w| over n points x of the circle |x - z| = r,
    and the turns of their images about w."""
    values = []
    for i in range(n):
        x = z + r * mp.expjpi(mp.mpf(2 * i) / n)
        for _ in range(j):
            x = step(x)[0]
        values.append(x - w)
    turns = sum(mp.arg(b / a) for a, b in zip(values, values[1:] + values[:1])) / (2 * mp.pi)
    return min(abs(v) for v in values), turns


def _least_period(mp, step, z, k):
    """The least j dividing k with f^j(z) = z to 1e-12 (1 + |z|)."""
    x = z
    for j in range(1, k + 1):
        x = step(x)[0]
        if k % j == 0 and abs(x - z) <= 1e-12 * (1 + abs(z)):
            return j
    raise AssertionError(f"{z} is not fixed by f^{k}")


@pytest.mark.parametrize("name, angles", [
    pytest.param(name, angles, id=f"{name} {','.join(angles)}") for name, angles, _ in RAYS])
def test_landing_discs_against_an_mpmath_oracle(name, angles):
    # in 50 digits, on 512 points of the boundary circle of each reported
    # disc: for a periodic angle, f^j (j the least period of the landing)
    # maps them outside the disc and once around its centre, so every point
    # of the disc has one f^j-preimage in it; for a preperiodic angle, f maps
    # 64 of them once around the image's landing, outside the image's disc
    mp = pytest.importorskip("mpmath").mp
    f = by_name(name)
    traces = trace_orbit(f, SpherePoint.infinity(), angles)
    periods = fatou.rays._periods(list(traces), 2)
    with mp.workdps(50):
        step = _oracle(f, mp)
        for t, tr in traces.items():
            assert tr.certified and tr.disc_radius > 0.0, t
            z, r = mp.mpc(tr.landing.real, tr.landing.imag), mp.mpf(tr.disc_radius)
            circle = [z + r * mp.expjpi(mp.mpf(j) / 32) for j in range(64)]
            k = periods[t]
            if k:
                j = _least_period(mp, step, z, k)
                gap, turns = _rim_oracle(mp, step, z, r, j, z)
                assert gap > r, (t, float(gap), float(r))
                assert abs(turns - 1) < 1e-9, (t, float(turns))
            else:
                image = traces[t.times(2)]
                w = mp.mpc(image.landing.real, image.landing.imag)
                values = [step(x)[0] - w for x in circle]
                assert min(abs(v) for v in values) > image.disc_radius, t
                turns = sum(mp.arg(b / a) for a, b in zip(values, values[1:] + values[:1]))
                assert abs(turns / (2 * mp.pi) - 1) < 1e-9, (t, float(turns))


@pytest.mark.parametrize("name", SELECTORS)
@pytest.mark.parametrize("trap_radius", [1e-6, 1e-3, 0.2])
def test_escape_discs_against_an_mpmath_oracle(name, trap_radius):
    # at points of the escape disc |z| >= R, in 50 digits and the chart
    # u = 1/z: g(u) = 1/f(1/u) maps each into |u| <= 1/(2R), and each orbit
    # enters the trap disk at infinity within K - 1 steps (K counts one more
    # for the rounding of the float trap test)
    mp = pytest.importorskip("mpmath").mp
    f = by_name(name)
    disc = escape_disc(f, superattracting_cycles(critical_portrait(f)), trap_radius)
    assert disc is not None
    with mp.workdps(50):
        step = _oracle(f, mp)
        r = 1 / mp.mpf(disc.radius)
        circle = [r * mp.expjpi(mp.mpf(j) / 32) for j in range(64)]
        inner = [r * rho * mp.expjpi(mp.mpf(j) / 8) for rho in (0.25, 0.5, 0.75)
                 for j in range(16)]

        def chart(u):
            return 1 / step(1 / u)[0]

        def trapped(u):  # the chordal distance of 1/u from infinity
            return 2 * abs(u) / mp.sqrt(1 + abs(u) ** 2) <= trap_radius
        for u in circle + inner:
            assert abs(chart(u)) <= r / 2, (u, float(abs(chart(u)) / r))
            for _ in range(disc.steps - 1):
                if trapped(u):
                    break
                u = chart(u)
            assert trapped(u), u


def test_the_rim_refuses_a_rung_past_the_largest_true_disc():
    # z^2 maps |z - 1| = r outside D(1, r), once around 1, exactly when
    # r < 1: at r = 1 the circle meets the critical point 0
    f, one = _square(), 1.0 + 0j
    assert fatou._bounds._rim(f, [one], one, 0.9, 0.9, 1024)
    for r in (1.0, 1.05, 1.5):
        assert not fatou._bounds._rim(f, [one], one, r, r, fatou._bounds.RIM_MAX_POINTS), r
    r = fatou._bounds._rim_disc(f, [one])
    assert 0.8 < r < 1.0 and r in fatou._bounds._ladder(one)


def test_the_rim_refuses_a_circle_around_a_critical_point():
    # z^2 maps |z| = 1/2 twice around 0, outside the disc of radius 1/8
    # about 0: each point of that disc has two preimages in D(0, 1/2)
    f = _square()
    x = 0.5 * fatou._bounds._rim_points(1024)
    assert fatou._bounds._winding(x * x, 0j) == 2
    assert not fatou._bounds._rim(f, [0j], 0j, 0.5, 0.125, 1024)
    assert fatou._bounds._rim_disc(f, [0j], 0j, 0.125) == 0.0


def test_the_rim_refuses_a_circle_around_a_pole():
    # f = (z^2 + 1) / z maps |z - 1| = 1.5 outside D(2.5, 0.4), once around
    # 2.5, yet f - 2.5 has two zeros in the disc, 0.5 and 2: the argument
    # principle counts the pole at 0 against them. Without a finite bound
    # on f' over the disc the rim proves nothing
    f = normalize(Polynomial((1.0, 0.0, 1.0)), Polynomial((0.0, 1.0)))
    c, w = 1.0 + 0j, 2.5 + 0j
    x = c + 1.5 * fatou._bounds._rim_points(1024)
    y = fatou._bounds._image(f, x)[0]
    assert np.abs(y - w).min() > 0.4 and fatou._bounds._winding(y, w) == 1
    assert fatou._bounds._walk(f, [c], w, np.array([1.5]))[1][0][0] == math.inf
    assert not fatou._bounds._rim(f, [c], w, 1.5, 0.3, fatou._bounds.RIM_MAX_POINTS)
    assert fatou._bounds._rim_disc(f, [c], w, 0.3) < 1.0  # a disc that misses 0


def test_the_rim_refuses_a_rim_too_coarse_for_its_slack():
    # on D(1, 0.9), |(z^2)'| <= L = 3.8 (plus the bound's own slack), and the
    # circle's images clear D(1, 0.9) by 0.09 (0.1 maps to 0.01, 0.99 from 1);
    # the slack L pi r / n is 0.34 at 32 points and 0.011 at 1024
    f, one = _square(), 1.0 + 0j
    bound = float(fatou._bounds._walk(f, [one], one, np.array([0.9]))[1][0][0])
    assert 3.8 <= bound < 4.0
    assert not fatou._bounds._rim(f, [one], one, 0.9, 0.9, 8)  # fewer than 4 L points
    assert not fatou._bounds._rim(f, [one], one, 0.9, 0.9, 32)
    assert fatou._bounds._rim(f, [one], one, 0.9, 0.9, 1024)
    with pytest.raises(ValueError, match="power of two"):
        fatou._bounds._rim(f, [one], one, 0.9, 0.9, 1000)


def test_a_walk_along_a_path_is_its_one_step_walks_chained():
    # each step of a walk along path to end gives, bit for bit, the radii
    # and the bound on |f'| of a one-step walk from the radii carried to it
    f, path, end = paper_g(), [0j, -2 + 0j, 0.5 + 0.25j], 1j
    r = fatou._bounds._ladder(path[0])
    radii, highs = fatou._bounds._walk(f, path, end, r)
    assert len(radii) == len(path) + 1 and len(highs) == len(path)
    assert radii[0] is r
    for i, (z, w) in enumerate(zip(path, [*path[1:], end])):
        (start, image), (high,) = fatou._bounds._walk(f, [z], w, radii[i])
        assert start is radii[i]
        assert image.tobytes() == radii[i + 1].tobytes() and high.tobytes() == highs[i].tobytes()


@pytest.mark.parametrize("cycle, rung", [((0j, -2 + 0j), 0.3255713057967825),
                                         ((-2 + 0j, 0j), 0.11984709625991916)])
def test_the_walk_around_the_two_cycle_of_paper_g_halves_its_discs(cycle, rung):
    # the largest rung about a point of the superattracting 2-cycle
    # {0, -2} whose walk around the cycle maps it into half its radius
    f = paper_g()
    r = fatou._bounds._ladder(cycle[0])
    halved = fatou._bounds._walk(f, list(cycle), cycle[0], r)[0][-1] <= 0.5 * r
    assert float(r[np.argmax(halved)]) == rung


def test_a_rays_round_walks_each_step_of_each_disc_once(monkeypatch):
    # every _LocalBound of the golden ray orbits (the rays workload's, less
    # the pseudo-basilica:4 orbit that repeats paper-degree4's) is one step of
    # a disc's walk in _rim_disc: _rim reads that walk and does not walk
    # again. 17 of them: the workload's 18 less the pseudo-basilica:4 one
    built, steps = [], []

    class Counted(fatou._bounds._LocalBound):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)
    real = fatou.rays._rim_disc

    def rim_disc(f, path, *args):
        steps.append(len(path))
        return real(f, path, *args)
    monkeypatch.setattr(fatou._bounds, "_LocalBound", Counted)
    monkeypatch.setattr(fatou.rays, "_rim_disc", rim_disc)
    for name, angles, _ in RAYS:
        trace_orbit(by_name(name), SpherePoint.infinity(), list(angles))
    assert len(built) == sum(steps) <= 17


def test_cycle_discs_take_the_least_period():
    # R_1/3 of paper-g has period 2 and lands on a fixed point: its disc is
    # proved for f, and larger than f^2 proves; R_1/7 of pseudo-basilica:2
    # lands on a point of least period 3
    g, alpha = paper_g(), complex((-1.0 - math.sqrt(17.0)) / 4.0)
    r1, j1 = fatou.rays._cycle_disc(g, alpha, 2)
    assert j1 == 1 and r1 == fatou._bounds._rim_disc(g, [alpha])
    assert r1 > fatou._bounds._rim_disc(g, [alpha, g.num(alpha) / g.den(alpha)]) > 0.0
    f = by_name("pseudo-basilica:2")
    t17 = trace_orbit(f, SpherePoint.infinity(), ["1/7"])[RayAngle(1, 7)]
    assert fatou.rays._cycle_disc(f, t17.landing, 3) == (t17.disc_radius, 3)


def test_a_landing_of_lower_period_wants_the_whole_group_in_its_disc():
    # R_1/3 and R_2/3 of paper-g both land on the fixed point alpha: f maps
    # each onto the other, so one period of R_1/3 in the disc of f proves
    # nothing unless R_2/3 is there as well
    g = paper_g()
    t13, t23 = RayAngle(1, 3), RayAngle(2, 3)
    alpha = (-1.0 - math.sqrt(17.0)) / 4.0
    near = [alpha + 0.01 * 0.9 ** q * (1 + 1j) for q in range(9)]
    far = [alpha + 3.0 + 0.1j * q for q in range(9)]

    def certify(chain23):
        landings = {}
        fatou.rays._certify(g, 2, {t13: 2, t23: 2}, {t13: list(near), t23: chain23},
                            4, landings, {})
        return landings
    assert certify(far) == {}
    both = certify([z.conjugate() for z in near])
    assert set(both) == {t13, t23}
    assert {(lnd.point, lnd.period) for lnd in both.values()} == {(complex(alpha), 1)}


def test_real_landings_of_real_maps_are_real():
    # the disc of a landing real to within NEWTON_TOL is proved about its
    # real part; it is its own conjugate, so its one fixed point is real
    g = paper_g()
    traces = trace_orbit(g, SpherePoint.infinity(), ["1/3", "2/3"])
    alpha = (-1.0 - math.sqrt(17.0)) / 4.0
    for tr in traces.values():
        assert tr.landing == complex(alpha, 0.0) and math.copysign(1.0, tr.landing.imag) == 1.0
    finite = trace_orbit(g.conjugate_by(MoebiusTransform(0.0, 1.0, 1.0, 0.0)), 0.0, ["1/3"])
    assert finite[RayAngle(1, 3)].landing.imag == 0.0
    # conjugate landings of the rabbit stay apart, each with its disc
    rabbit = trace_orbit(by_name("pseudo-rabbit:3:0"), SpherePoint.infinity(), ["1/3"])
    a, b = rabbit[RayAngle(1, 3)], rabbit[RayAngle(2, 3)]
    assert a.landing.imag < -0.5 and b.landing == a.landing.conjugate()
    assert a.disc_radius == b.disc_radius < 0.5


def test_finite_basin_landing_discs_against_an_mpmath_oracle():
    # a finite --basin traces in u = 1/(z - z0); its reported disc about the
    # landing z is the largest about z inside the image of the proved disc
    # D(u, r), r / (|u| (|u| + r)). Mapped back to u, that disc passes the
    # same test as the others in 50 digits, on 512 points of its circle
    mp = pytest.importorskip("mpmath").mp
    h = paper_g().conjugate_by(MoebiusTransform(0.0, 1.0, 1.0, 0.0))  # basin of infinity at 0
    traces = trace_orbit(h, 0.0, ["1/3", "2/3"])
    chart = h.conjugate_by(MoebiusTransform(0.0, 1.0, 1.0, -0.0))  # as trace_orbit builds it
    with mp.workdps(50):
        step = _oracle(chart, mp)
        for t, tr in traces.items():
            assert tr.certified, t
            z, rho = mp.mpc(tr.landing.real, tr.landing.imag), mp.mpf(tr.disc_radius)
            u = 1 / z
            r = rho * abs(u) ** 2 / (1 - rho * abs(u))  # rho = r / (|u| (|u| + r))
            gap, turns = _rim_oracle(mp, step, u, r, _least_period(mp, step, u, 2), u)
            assert gap > r and abs(turns - 1) < 1e-9, (t, float(gap), float(r), float(turns))
            # the reported disc lies inside the proved one
            edge = [1 / (z + rho * mp.expjpi(mp.mpf(i) / 64)) for i in range(128)]
            assert max(abs(e - u) for e in edge) <= r * (1 + 1e-12), t


def test_maps_with_complex_coefficients_keep_their_own_discs():
    # h(z) = rho g(z / rho) has complex coefficients and the rays rho R_t of
    # paper-g: no real centre and no conjugate disc serves it, and its
    # landings are still proved
    rho = cmath.exp(0.3j)
    h = paper_g().conjugate_by(MoebiusTransform(rho, 0.0, 0.0, 1.0))
    assert not h.real
    traces = trace_orbit(h, SpherePoint.infinity(), ["1/6", "5/6"])
    alpha = (-1.0 - math.sqrt(17.0)) / 4.0
    for t in (RayAngle(1, 3), RayAngle(2, 3)):
        tr = traces[t]
        assert tr.certified and tr.disc_radius > 0.3
        assert abs(tr.landing - rho * alpha) < 1e-12
    g_traces = trace_orbit(paper_g(), SpherePoint.infinity(), ["1/6", "5/6"])
    for t in (RayAngle(1, 6), RayAngle(5, 6)):
        assert traces[t].certified
        assert abs(traces[t].landing - rho * g_traces[t].landing) < 1e-12
