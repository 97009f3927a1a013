import math

import numpy as np
import pytest

import fatou.lifting
from fatou.catalog import by_name, paper_g
from fatou.lifting import (
    Lift,
    LiftError,
    LiftSet,
    OrientedPolyCurve,
    circle,
    lift_curve,
    outermost_lifts,
    point_polyline_distance,
    sign_change_sequence,
    sign_of,
    signed_area,
    winding_number,
)
from fatou.ratmap import Polynomial, eval_sphere, normalize
from fatou.sphere import SpherePoint


def _square_map():
    return normalize(Polynomial((0.0, 0.0, 1.0)), Polynomial((1.0,)))


def test_winding_number_hand_cases():
    square = (0j, 1 + 0j, 1 + 1j, 1j)
    assert winding_number(square, 0.5 + 0.5j) == 1
    assert winding_number(square, 2 + 0.5j) == 0
    assert winding_number(tuple(reversed(square)), 0.5 + 0.5j) == -1
    # pentagram: five vertices stepping by 4 pi / 5 wind twice
    import cmath
    star = tuple(cmath.exp(4j * math.pi * k / 5) for k in range(5))
    assert winding_number(star, 0j) == 2


def test_signed_area_and_orientation():
    cc = circle(0.0, 1.0, n=64)
    # regular 64-gon area, not quite pi
    assert abs(signed_area(cc.vertices) - 32 * math.sin(math.pi / 32)) < 1e-12
    assert cc.orientation() == 1
    assert circle(0.0, 1.0, clockwise=True).orientation() == -1
    flat = OrientedPolyCurve((0j, 1 + 0j, 2 + 0j))
    with pytest.raises(ValueError):
        flat.orientation()


def test_point_polyline_distance():
    square = (0j, 1 + 0j, 1 + 1j, 1j)
    assert abs(point_polyline_distance(0.5 + 0.5j, square) - 0.5) < 1e-12
    assert abs(point_polyline_distance(2 + 0.5j, square) - 1.0) < 1e-12
    # the closing edge along x = 0 counts
    assert abs(point_polyline_distance(-0.2 + 0.5j, square) - 0.2) < 1e-12


def test_curve_validation():
    with pytest.raises(ValueError):
        OrientedPolyCurve((0j, 1 + 0j))
    with pytest.raises(ValueError):
        OrientedPolyCurve((0j, 0j, 1 + 0j, 1j))
    bowtie = OrientedPolyCurve((0j, 1 + 1j, 1 + 0j, 1j))
    with pytest.raises(ValueError):
        bowtie.validate_simple()
    circle(0.0, 1.0).validate_simple()


def test_simplicity_check_reaches_the_last_edges_of_a_long_curve():
    # 300 vertices span many blocks of edge pairs; swapping two vertices near
    # the end makes edges 296 and 298 cross, and nothing else
    pts = list(circle(0.0, 1.0, 300).vertices)
    pts[297], pts[298] = pts[298], pts[297]
    with pytest.raises(ValueError):
        OrientedPolyCurve(tuple(pts)).validate_simple()


def test_circle_helper():
    c = circle(2.0 + 1j, 0.5, n=48)
    assert len(c.vertices) == 48
    assert all(abs(abs(v - (2 + 1j)) - 0.5) < 1e-12 for v in c.vertices)
    assert c.winding(2.0 + 1j) == 1
    assert circle(2.0 + 1j, 0.5, clockwise=True).winding(2.0 + 1j) == -1
    for radius in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="radius"):
            circle(-2.0, radius)
    for center in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(ValueError, match="center"):
            circle(center, 0.1)


def test_sign_convention():
    cc = circle(0.0, 1.0)
    cw = circle(0.0, 1.0, clockwise=True)
    assert sign_of(cc, 5.0) == 1
    assert sign_of(cc, 0.0) == -1
    assert sign_of(cw, 5.0) == -1
    assert sign_of(cw, 0.0) == 1
    # the point at infinity is outside every closed polyline
    assert sign_of(cc, SpherePoint.infinity()) == 1
    assert sign_of(cw, SpherePoint.infinity()) == -1


def test_lift_through_critical_value_is_connected():
    # |w| = 4 encloses the critical value 0 of z -> z^2, so its preimage
    # is the circle |z| = 2 covered once while the base is covered twice
    f = _square_map()
    ls = lift_curve(f, circle(0.0, 4.0), omega=1e9)
    assert len(ls.lifts) == 1
    lift = ls.lifts[0]
    assert lift.degree == 2
    assert lift.sign == 1
    assert ls.monodromy == (1, 0)
    assert all(abs(abs(v) - 2.0) < 1e-9 for v in lift.curve.vertices)
    assert lift.curve.winding(0.0) == 1


def test_lift_away_from_critical_values_splits():
    f = _square_map()
    ls = lift_curve(f, circle(5.0, 1.0), omega=1e9)
    assert sorted(l.degree for l in ls.lifts) == [1, 1]
    assert ls.monodromy == (0, 1)
    s5 = math.sqrt(5.0)
    centers = sorted((sum(l.curve.vertices) / len(l.curve.vertices)).real
                     for l in ls.lifts)
    assert abs(centers[0] + s5) < 1e-6 and abs(centers[1] - s5) < 1e-6
    # components are unnested
    assert ls.lifts[0].curve.winding(centers[1] + 0j) == 0
    assert ls.lifts[1].curve.winding(centers[0] + 0j) == 0


def test_lift_degrees_paper_g():
    g = paper_g()
    ls = lift_curve(g, circle(-2.0, 0.1), omega=1e6)
    assert [l.degree for l in ls.lifts] == [3]
    assert ls.monodromy == (1, 2, 0)
    assert ls.lifts[0].curve.winding(0.0) == 1

    ls0 = lift_curve(g, circle(0.0, 0.1), omega=1e6)
    degs = sorted((l.degree, l.curve.winding(-2.0), l.curve.winding(1.0))
                  for l in ls0.lifts)
    assert degs == [(1, 1, 0), (2, 0, 1)]
    assert ls0.monodromy == (0, 2, 1)
    assert sum(l.degree for l in ls0.lifts) == g.degree


def test_lifts_map_back_onto_the_base():
    g = paper_g()
    ls = lift_curve(g, circle(0.0, 0.1), omega=1e6)
    base = ls.base_refined
    for lift in ls.lifts:
        for v in lift.curve.vertices:
            w = eval_sphere(g, SpherePoint(v, 1.0)).to_complex()
            assert point_polyline_distance(w, base) < 1e-9


def test_lift_rejects_curve_near_critical_value():
    f = _square_map()
    with pytest.raises(LiftError):
        lift_curve(f, circle(0.0, 1e-9), omega=1e9)
    with pytest.raises(LiftError):
        lift_curve(paper_g(), circle(-2.0, 1e-4), omega=1e6)
    # an unusable eps must not skip the critical-value guard
    for eps in (math.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match="eps"):
            lift_curve(paper_g(), circle(-1.9, 0.1), omega=1e6, eps=eps)
    # NaN names omega; an infinite omega is the point at infinity
    for omega in (complex(math.nan, 0.0), math.nan, complex(math.inf, math.nan)):
        with pytest.raises(ValueError, match="omega"):
            lift_curve(paper_g(), circle(-2.0, 0.1), omega=omega)
    signs = [[l.sign for l in lift_curve(paper_g(), circle(-2.0, 0.1), omega=om).lifts]
             for om in (complex(math.inf, 0.0), SpherePoint.infinity())]
    assert signs[0] == signs[1]


def test_lift_rejects_self_intersecting_base_curve():
    bowtie = OrientedPolyCurve((0j, 1 + 1j, 1 + 0j, 1j))
    with pytest.raises(LiftError, match="self-intersecting"):
        lift_curve(paper_g(), bowtie, omega=1e6)


def test_outermost_filtering_is_relative_to_omega():
    outer = circle(0.0, 2.0)
    inner = circle(0.0, 1.0)
    ls = LiftSet(base=circle(0.0, 4.0), base_refined=circle(0.0, 4.0),
                 lifts=(Lift(outer, 1, 1, 0), Lift(inner, 1, 1, 1)),
                 monodromy=(0, 1))
    assert [l.strand for l in outermost_lifts(ls, 1e6)] == [0]
    assert [l.strand for l in outermost_lifts(ls, 0.0)] == [1]
    assert [l.strand for l in outermost_lifts(ls, SpherePoint.infinity())] == [0]


def test_outermost_test_probes_one_vertex_per_lift_pair(monkeypatch):
    # four unnested degree-1 lifts of a small circle away from the critical
    # values of paper-degree4; with omega at infinity none separates another,
    # so every ordered pair is tested
    ls = lift_curve(by_name("paper-degree4"), circle(5.0, 0.1), omega=1e6)
    n = len(ls.lifts)
    assert n == 4
    calls = []
    real = fatou.lifting.point_polyline_distance

    def counting(p, vertices):
        calls.append(p)
        return real(p, vertices)
    monkeypatch.setattr(fatou.lifting, "point_polyline_distance", counting)
    assert outermost_lifts(ls, SpherePoint.infinity()) == list(ls.lifts)
    assert 0 < len(calls) <= n * (n - 1)


def test_outermost_test_rejects_a_probe_on_another_lift():
    # the inner diamond's first vertex lies on the outer square's right edge
    outer = OrientedPolyCurve((-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j))
    inner = OrientedPolyCurve((1 + 0j, 0.5j, -0.5 + 0j, -0.5j))
    ls = LiftSet(base=circle(0.0, 4.0), base_refined=circle(0.0, 4.0),
                 lifts=(Lift(outer, 1, 1, 0), Lift(inner, 1, 1, 1)),
                 monodromy=(0, 1))
    with pytest.raises(LiftError, match="could not separate lifts"):
        outermost_lifts(ls, 1e6)


def test_sign_sequence_omega_in_unbounded_basin():
    g = paper_g()
    seq = sign_change_sequence(g, circle(-2.0, 0.1), 1e6, n=3)
    assert seq.base_sign == 1
    assert [s.sign for s in seq.steps] == [1, 1, 1]
    assert [s.changed for s in seq.steps] == [False, False, False]
    assert [s.outermost_count for s in seq.steps] == [1, 2, 1]


def test_sign_sequence_omega_inside():
    # when omega sits in the bounded complement the first pull-back
    # already flips the sign
    g = paper_g()
    seq = sign_change_sequence(g, circle(-2.0, 0.1), 0.0, n=2)
    assert seq.base_sign == 1
    assert [s.sign for s in seq.steps] == [-1, 1]
    assert [s.changed for s in seq.steps] == [True, True]


def test_lift_determinism():
    g = paper_g()
    a = lift_curve(g, circle(0.0, 0.1), omega=1e6)
    b = lift_curve(g, circle(0.0, 0.1), omega=1e6)
    assert a.monodromy == b.monodromy
    assert len(a.lifts) == len(b.lifts)
    for la, lb in zip(a.lifts, b.lifts):
        assert la.curve.vertices == lb.curve.vertices
        assert (la.degree, la.sign, la.strand) == (lb.degree, lb.sign, lb.strand)


def test_lift_solves_the_vertex_fibers_in_one_batch(monkeypatch):
    calls = []
    real = fatou.lifting.preimages

    def counted(f, v):
        calls.append(v)
        return real(f, v)
    monkeypatch.setattr(fatou.lifting, "preimages", counted)
    base = circle(0.0, 0.5, 6)  # coarse enough that two edges subdivide
    ls = lift_curve(paper_g(), base, omega=1e6)
    midpoints = len(ls.base_refined) - len(base.vertices)
    assert midpoints > 0
    assert len(calls) <= midpoints


def test_selector_breaks_roundoff_ties_by_strand():
    # mirror lifts of a real map sit at the same distance from omega up to
    # roundoff; the strand index decides, not the last bit
    def diamond(r):
        return OrientedPolyCurve((r + 0j, r * 1j, -r + 0j, -r * 1j))
    a = Lift(diamond(2.0), 1, 1, 0)
    b = Lift(diamond(math.nextafter(2.0, 3.0)), 1, 1, 1)  # one ulp farther from 0
    assert fatou.lifting._default_selector([b, a], 0j) is a
    assert fatou.lifting._default_selector([a, b], 0j) is a


def test_tower_matches_the_preimages_path(monkeypatch):
    # the paper-g tower around -2 has mirror-image lifts at every step; the
    # chosen curves must not depend on which solver produced the fibers
    g = paper_g()
    base = circle(-2.0, 0.1)
    inf = SpherePoint.infinity()
    batched = sign_change_sequence(g, base, inf, n=4)
    real = fatou.lifting.fibers

    def certify_none(f, targets, warm=None):
        roots, certified = real(f, targets, warm)
        return roots, np.zeros_like(certified)
    monkeypatch.setattr(fatou.lifting, "fibers", certify_none)
    fallback = sign_change_sequence(g, base, inf, n=4)
    for a, b in zip(batched.steps, fallback.steps):
        assert (a.sign, a.outermost_count) == (b.sign, b.outermost_count)
        assert len(a.curve.vertices) == len(b.curve.vertices)
        assert max(abs(u - v) for u, v in zip(a.curve.vertices, b.curve.vertices)) < 1e-12
