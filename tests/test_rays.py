import cmath
import math

import numpy as np
import pytest

import fatou.rays
from fatou.catalog import by_name, paper_g
from fatou.ratmap import Polynomial, eval_sphere, nearest, normalize
from fatou.rays import (
    DEFAULT_DEPTH,
    MAX_DEPTH,
    MAX_ORBIT_ANGLES,
    MAX_R0,
    AngleOrbitError,
    RayAngle,
    RayLandingError,
    RayTraceError,
    _finite_fiber,
    _leading_data,
    _orbit_angles,
    coland,
    separation_test,
    trace_orbit,
    trace_ray,
)
from fatou.sphere import MoebiusTransform, SpherePoint
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
        assert tr.landed
        w = cmath.exp(2j * math.pi * angle.value())
        err = max(abs(s - p * w) for s, p in zip(tr.samples, tr.potentials))
        assert err < 1e-12
        assert abs(tr.landing - w) < 1e-9
        assert tr.residual < 1e-9
    # potentials decrease toward 1
    pots = traces[RayAngle(0, 1)].potentials
    assert pots[0] == 100.0
    # decreasing toward 1, exactly 1.0 once the exponent underflows
    assert all(a >= b for a, b in zip(pots, pots[1:]))
    assert pots[0] > pots[40] > pots[-1]
    assert abs(pots[-1] - 1.0) < 1e-2


def test_square_map_rays_do_not_coland():
    f = _square()
    assert coland(f, SpherePoint.infinity(), "1/3", "2/3") is False
    assert coland(f, SpherePoint.infinity(), "0", "0") is True


def test_real_coefficients_give_conjugate_rays():
    f = _square()
    for t, s in (("1/6", "5/6"), ("1/3", "2/3")):
        a = trace_ray(f, SpherePoint.infinity(), t)
        b = trace_ray(f, SpherePoint.infinity(), s)
        assert abs(a.landing.conjugate() - b.landing) < 1e-12


def test_paper_g_fixed_ray_and_coland():
    g = paper_g()
    tr = trace_ray(g, SpherePoint.infinity(), "0")
    assert tr.landed
    assert abs(tr.landing - 2.0) < 1e-10
    assert coland(g, SpherePoint.infinity(), "1/3", "2/3") is True
    assert coland(g, SpherePoint.infinity(), "1/6", "5/6") is False
    t13 = trace_ray(g, SpherePoint.infinity(), "1/3")
    assert abs(t13.landing - (-1.0 - math.sqrt(17.0)) / 4.0) < 1e-10


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


def test_separation_parity():
    g = paper_g()
    inf = SpherePoint.infinity()
    assert separation_test(g, inf, "1/3", "2/3", 0.0, -2.0) is True
    assert separation_test(g, inf, "1/3", "2/3", 0.0, 5.0) is False
    assert separation_test(g, inf, "1/3", "2/3", -2.0, 5.0) is True


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
        assert (b.sublevels, b.landed) == (a.sublevels, a.landed) == (4, True)
        assert len(b.samples) == len(a.samples)
        assert max(abs(u - v) / (1.0 + abs(u)) for u, v in zip(a.samples, b.samples)) < 1e-12


def test_angle_orbit_is_bounded_before_tracing():
    # 1/(2^k - 1) has period exactly k under doubling
    assert len(_orbit_angles([RayAngle(1, 2 ** MAX_ORBIT_ANGLES - 1)], 2)) == MAX_ORBIT_ANGLES
    with pytest.raises(AngleOrbitError):
        _orbit_angles([RayAngle(1, 2 ** (MAX_ORBIT_ANGLES + 1) - 1)], 2)
    with pytest.raises(ValueError, match=f"more than {MAX_ORBIT_ANGLES} angles"):
        trace_orbit(paper_g(), SpherePoint.infinity(), ["1/1000003"])


def _reference_trace(f, m, orbit, potentials, sublevels):
    """The level-by-level loop: one fibers call per potential level, seeded
    with the fibers of the level just above. The block solve of
    fatou.rays._trace_at_infinity must continue the rays as this does."""
    a, shift = _leading_data(f, m)

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
    return samples


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
        assert (got.sublevels, got.landed) == (want.sublevels, want.landed)
        assert got.potentials == want.potentials
        assert len(got.samples) == len(want.samples)
        assert all(abs(u - v) <= 1e-12 * (1.0 + abs(v)) for u, v in zip(got.samples, want.samples))
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
    assert sub == 4 and len(attempts) == 3  # 1 -> 2 -> 4 sublevels
    assert attempts[-1] <= DEFAULT_DEPTH + 1
