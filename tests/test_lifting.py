import cmath
import math
from typing import Sequence

import numpy as np
import pytest

import fatou._geom
import fatou.lifting
from fatou.catalog import by_name, paper_g
from fatou.lifting import (
    MAX_SUBDIVISION,
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
    _fiber,
)
from fatou.ratmap import Polynomial, RationalMap, _Ambiguous, eval_sphere, nearest, normalize
from fatou.sphere import SpherePoint, as_sphere


def _square_map():
    return normalize(Polynomial((0.0, 0.0, 1.0)), Polynomial((1.0,)))


def _clockwise(curve):
    return OrientedPolyCurve(curve.vertices[::-1])


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
    assert _clockwise(circle(0.0, 1.0)).orientation() == -1
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
    assert _clockwise(circle(2.0 + 1j, 0.5)).winding(2.0 + 1j) == -1
    for radius in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="radius"):
            circle(-2.0, radius)
    for center in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(ValueError, match="center"):
            circle(center, 0.1)


def test_sign_convention():
    cc = circle(0.0, 1.0)
    cw = _clockwise(circle(0.0, 1.0))
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


# --- array geometry against scalar references --------------------------------
# The references are per-edge scalar loops; the array passes must agree with them.


def _orient(p, q, r):
    return (q.real - p.real) * (r.imag - p.imag) - (r.real - p.real) * (q.imag - p.imag)


def _on_segment(p, q, r, d):
    return (d == 0 and min(p.real, q.real) <= r.real <= max(p.real, q.real)
            and min(p.imag, q.imag) <= r.imag <= max(p.imag, q.imag))


def _is_simple_all_pairs(vs):
    n = len(vs)
    if n < 3:
        return False
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # the wraparound pair shares vertex 0
            a, b, c, e = vs[i], vs[(i + 1) % n], vs[j], vs[(j + 1) % n]
            d1, d2, d3, d4 = _orient(a, b, c), _orient(a, b, e), _orient(c, e, a), _orient(c, e, b)
            if d1 * d2 < 0 and d3 * d4 < 0:
                return False
            if (_on_segment(a, b, c, d1) or _on_segment(a, b, e, d2)
                    or _on_segment(c, e, a, d3) or _on_segment(c, e, b, d4)):
                return False
    return True


def _winding_scalar(vs, p):
    w = 0
    for i in range(len(vs)):
        a, b = vs[i], vs[(i + 1) % len(vs)]
        left = _orient(a, b, p)
        if a.imag <= p.imag:
            if b.imag > p.imag and left > 0:
                w += 1
        elif b.imag <= p.imag and left < 0:
            w -= 1
    return w


def _distance_scalar(p, vs):
    best = math.inf
    for i in range(len(vs)):
        a, b = vs[i], vs[(i + 1) % len(vs)]
        ab = b - a
        denom = abs(ab) ** 2
        t = 0.0 if denom == 0.0 else min(1.0, max(0.0, ((p - a).real * ab.real
                                                       + (p - a).imag * ab.imag) / denom))
        best = min(best, abs(p - (a + t * ab)))
    return best


def _random_polylines(rng, count):
    for k in range(count):
        n = int(rng.integers(3, 30))
        if k % 3 == 0:  # lattice: shared vertices, collinear overlaps, T-touches
            v = rng.integers(0, 4, n) + 1j * rng.integers(0, 4, n)
        elif k % 3 == 1:  # star-shaped, mostly simple
            v = rng.uniform(0.5, 1.5, n) * np.exp(1j * np.sort(rng.uniform(0, 2 * np.pi, n)))
        else:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        yield [complex(z) for z in v]


_HAND_POLYLINES = [
    (0j, 2 + 0j, 2 + 2j, 1 + 0j),  # a vertex touches a non-adjacent edge
    (0j, 2 + 0j, 2 + 1j, 1 + 0j, 1 - 1j),  # T-touch from inside an edge
    (0j, 3 + 0j, 3 + 1j, 1 + 0j, 2 + 0j, 2 - 1j),  # collinear overlap
    (0j, 1 + 0j, 1 + 1j, 0j + 0j, 1j),  # a repeated vertex
    (0j, 1 + 0j, 1 + 1j, 1j),  # the wraparound pair only meets at vertex 0
    (0j, 1 + 0j, 0.5 + 1j),
]


def test_is_simple_matches_the_all_pairs_check():
    rng = np.random.default_rng(12)
    cases = list(_random_polylines(rng, 600)) + [list(p) for p in _HAND_POLYLINES]
    got = [fatou.lifting.is_simple(vs) for vs in cases]
    assert got == [_is_simple_all_pairs(vs) for vs in cases]
    assert 0 < sum(got) < len(got)  # both answers are exercised
    assert [fatou.lifting.is_simple(p) for p in _HAND_POLYLINES] == [False] * 4 + [True] * 2


def test_is_simple_blocks_agree_with_one_pass(monkeypatch):
    # a long circle with one crossing near the end, with candidate blocks of
    # a few pairs
    pts = list(circle(0.0, 1.0, 200).vertices)
    pts[150], pts[151] = pts[151], pts[150]
    zigzag = [complex(k, k % 2) for k in range(40)] + [complex(39, 5), complex(0, 5)]
    for size in (1, 7, 1 << 16):
        monkeypatch.setattr(fatou._geom, "_PAIR_BLOCK", size)
        assert not fatou.lifting.is_simple(pts)
        assert fatou.lifting.is_simple(circle(0.0, 1.0, 200).vertices)
        assert fatou.lifting.is_simple(zigzag)


def test_winding_number_matches_the_crossing_count():
    rng = np.random.default_rng(13)
    for vs in _random_polylines(rng, 300):
        probes = [complex(*rng.standard_normal(2)) for _ in range(3)]
        # at a vertex's height, and on the lattice of the lattice polylines
        probes += [complex(0.5, vs[0].imag), complex(rng.uniform(-2, 2), vs[-1].imag),
                   complex(1.5, 1.5), complex(1, 2)]
        for p in probes:
            assert winding_number(vs, p) == _winding_scalar(vs, p)


def test_point_polyline_distance_matches_the_edge_loop():
    rng = np.random.default_rng(14)
    for vs in _random_polylines(rng, 300):
        for p in [complex(*rng.standard_normal(2)) for _ in range(3)] + [vs[0], 0.5 * (vs[0] + vs[1])]:
            assert abs(point_polyline_distance(p, vs) - _distance_scalar(p, vs)) <= 1e-12


def test_signed_area_sums_left_to_right():
    rng = np.random.default_rng(15)
    for vs in _random_polylines(rng, 100):
        # relative to the first vertex, as signed_area takes it
        rel = [v - vs[0] for v in vs]
        acc = 0.0
        for a, b in zip(rel, rel[1:] + rel[:1]):
            acc += a.real * b.imag - b.real * a.imag
        assert signed_area(vs) == 0.5 * acc


def test_signed_area_of_a_small_curve_far_from_zero():
    # a regular 12-gon of radius 1e-9 around 0.78 - 0.18i: at absolute
    # coordinates each shoelace term is about 0.1 and their sum, 3e-18, is
    # lost to rounding (such a sum reads 1.4e-17 here)
    c, r = 0.78 - 0.18j, 1e-9
    vs = [c + r * cmath.exp(2j * math.pi * k / 12) for k in range(12)]
    area = 0.5 * 12 * math.sin(2 * math.pi / 12) * r * r
    assert abs(signed_area(vs) / area - 1.0) < 1e-6
    assert abs(signed_area(vs[::-1]) / area + 1.0) < 1e-6


def test_curve_rejects_non_finite_vertices():
    for bad in (complex(math.inf, 0.0), complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            OrientedPolyCurve((0j, 1 + 0j, bad))


# --- whole-curve rounds against the edge-by-edge reference -------------------
# A scalar reference for lift_curve's refinement: each edge is matched point
# by point and bisected depth first until its strands continue unambiguously.
# The rounds must split every edge where this bisection splits it.


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


def _continue_edge(f: RationalMap, strands: list[complex], va: complex, vb: complex,
                   fiber: list[complex], depth: int, refined: list[complex],
                   matches: list[list[complex]]):
    """Continue all strands across the edge va -> vb, whose end has the given
    fiber, subdividing on ambiguity. Appends each point reached, midpoints
    and then vb, to refined and the strands' continuations there to matches."""
    try:
        matched = _match(strands, fiber)
    except _Ambiguous:
        if depth >= MAX_SUBDIVISION:
            raise LiftError(
                f"strand matching stayed ambiguous after {depth} subdivisions "
                f"near {vb}") from None
        vm = 0.5 * (va + vb)
        mid = _continue_edge(f, strands, va, vm, _fiber(f, vm), depth + 1, refined, matches)
        return _continue_edge(f, mid, vm, vb, fiber, depth + 1, refined, matches)
    refined.append(vb)
    matches.append(matched)
    return matched


def _lift_edge_by_edge(f, curve):
    """Base points, strand chains and monodromy from _match, one edge at a time."""
    verts = list(curve.vertices)
    vert_fibers = fatou.lifting._vertex_fibers(f, verts)
    start = fatou.lifting._strand_order(vert_fibers[0])
    refined, matches = [verts[0]], [start]
    strands = start
    for i in range(len(verts)):
        j = (i + 1) % len(verts)
        strands = _continue_edge(f, strands, verts[i], verts[j],
                                 start if j == 0 else vert_fibers[j], 0, refined, matches)
    chains = [list(c) for c in zip(*matches[:-1])]
    return tuple(refined[:-1]), chains, tuple(start.index(s) for s in strands)


def _assert_lift_matches_edge_by_edge(f, curve, omega=1e6):
    ls = lift_curve(f, curve, omega)
    refined, chains, perm = _lift_edge_by_edge(f, curve)
    assert ls.base_refined == refined
    assert ls.monodromy == perm
    for lift in ls.lifts:
        cycle = [lift.strand]
        while perm[cycle[-1]] != lift.strand:
            cycle.append(perm[cycle[-1]])
        assert lift.curve.vertices == tuple(z for k in cycle for z in chains[k])
    return ls


@pytest.mark.parametrize("name", ["paper-g", "paper-degree4", "pseudo-basilica:2",
                                  "pseudo-basilica:3", "pseudo-basilica:4",
                                  "pseudo-rabbit:3:0"])
def test_all_edge_matching_makes_the_edge_by_edge_decisions(name):
    f = by_name(name)
    for c in (0.0, 1.0 - f.degree):
        _assert_lift_matches_edge_by_edge(f, circle(c, 0.1))
    # coarse enough that edges subdivide on every map but pseudo-basilica:2
    ls = _assert_lift_matches_edge_by_edge(f, circle(0.3 + 0.2j, 0.6, 6))
    assert len(ls.base_refined) > 6 or name == "pseudo-basilica:2"


def test_match_edges_flags_what_match_refuses():
    # one edge whose strands cross over to a bijection; two where both
    # strands pick one point with a clear margin (the bijection test fails);
    # one where the bijection holds but a strand's nearest point is not twice
    # as close as the runner-up (the ratio test)
    row0, row1 = [0j, 4.9 + 0j], [5 + 0j, 0.1 + 0j]
    assert fatou.lifting._match_edges(np.array([row0, row1])) == ([[1, 0]], [False])
    assert _match(row0, row1) == [0.1 + 0j, 5 + 0j]
    for row0, row1, best in (([0j, 0.2 + 0j], [5 + 0j, 0.1 + 0j], [1, 1]),
                             ([0j, 2 + 0j], [1 + 0j, 10 + 0j], [0, 0]),
                             ([0j, -1.3 + 0j], [1 + 0j, -1.2 + 0j], [0, 1])):
        got, flagged = fatou.lifting._match_edges(np.array([row0, row1]))
        assert (got, flagged) == ([best], [True])
        shared = best[0] == best[1]
        with pytest.raises(_Ambiguous, match="two strands" if shared else "ambiguous"):
            _match(row0, row1)


def _fake_fibers(monkeypatch, branches):
    """Install a made-up degree-2 fiber over v: the points branches(v - 10),
    for the batched and the scalar solver alike. Returns the batched one."""
    def fake_fibers(f, targets, warm=None):
        rows = np.array([sorted(branches(complex(v) - 10), key=lambda z: (z.real, z.imag))
                         for v in targets])
        return rows, np.ones(len(rows), dtype=bool)

    def fake_preimages(f, v):
        return [(SpherePoint.of(z), 1) for z in branches(as_sphere(v).to_complex() - 10)]
    monkeypatch.setattr(fatou.lifting, "fibers", fake_fibers)
    monkeypatch.setattr(fatou.lifting, "preimages", fake_preimages)
    return fake_fibers


@pytest.mark.parametrize("branches", [
    lambda u: [u, 2 + 8 * u],  # over the first edge, both strands claim u = 1
    lambda u: [u, -1.3 + 0.1 * u],  # 0 sits 1 from u = 1 and 1.2 from the other
], ids=["bijection", "ratio"])
def test_flagged_edges_subdivide(monkeypatch, branches):
    # two affine branches of u = v - 10 over a triangle far from the critical
    # values of z -> z^2, whose first edge fails exactly one of the two tests
    fake_fibers = _fake_fibers(monkeypatch, branches)
    base = OrientedPolyCurve((10 + 0j, 11 + 0j, 10.5 + 0.05j))
    rows, _ = fake_fibers(None, (10 + 0j, 11 + 0j))
    assert fatou.lifting._match_edges(rows)[1] == [True]
    ls = _assert_lift_matches_edge_by_edge(_square_map(), base)
    assert len(ls.base_refined) > 3 and 10 < ls.base_refined[1].real < 11
    assert ls.monodromy == (0, 1)


def test_nested_bisection_takes_one_round_per_level(monkeypatch):
    # both strands claim one point across the first edge until it is cut to
    # eighths next to v = 10: three rounds of midpoints, each matched again
    _fake_fibers(monkeypatch, lambda u: [u, 1.5 + 4 * u])
    edges = []
    real = fatou.lifting._match_edges

    def counted(rows):
        edges.append(len(rows) - 1)
        return real(rows)
    monkeypatch.setattr(fatou.lifting, "_match_edges", counted)
    base = OrientedPolyCurve((10 + 0j, 11 + 0j, 10.5 + 0.05j))
    ls = _assert_lift_matches_edge_by_edge(_square_map(), base)
    assert edges == [3, 5, 7, 8]  # three rounds insert midpoints; the last match flags none
    assert ls.base_refined[:6] == (10, 10.125, 10.25, 10.5, 10.75, 11)


def test_an_edge_that_never_disambiguates_exhausts_the_rounds(monkeypatch):
    # the branches of [u, 2u] meet at u = 0, the midpoint of the first edge,
    # and every sub-edge that ends there stays refused at any depth
    _fake_fibers(monkeypatch, lambda u: [u, 2 * u])
    base = OrientedPolyCurve((9.5 + 0j, 10.5 + 0j, 10 - 0.5j))
    with pytest.raises(LiftError, match=f"after {MAX_SUBDIVISION} subdivisions") as rounds:
        lift_curve(_square_map(), base, 1e6)
    with pytest.raises(LiftError) as reference:
        _lift_edge_by_edge(_square_map(), base)
    assert str(rounds.value) == str(reference.value)


def test_lift_refuses_curves_past_the_vertex_cap(monkeypatch):
    # six vertices, but the coarse edges subdivide to eight
    assert len(lift_curve(paper_g(), circle(0.0, 0.5, 6), omega=1e6).base_refined) == 8
    monkeypatch.setattr(fatou.lifting, "MAX_VERTICES", 7)
    with pytest.raises(LiftError, match="8 vertices; at most 7"):
        lift_curve(paper_g(), circle(-2.0, 0.1, 8), omega=1e6)
    with pytest.raises(LiftError, match="past 7 vertices"):
        lift_curve(paper_g(), circle(0.0, 0.5, 6), omega=1e6)


def test_tower_solves_the_critical_points_once(monkeypatch):
    calls = []
    real = fatou.lifting.critical_points

    def counted(f):
        calls.append(f)
        return real(f)
    monkeypatch.setattr(fatou.lifting, "critical_points", counted)
    g = paper_g()
    sign_change_sequence(g, circle(-2.0, 0.1), 0.0, n=3)
    assert calls == [g]


def test_circle_refuses_what_floats_cannot_represent():
    with pytest.raises(ValueError, match="1e\\+150"):
        circle(1e308, 1e308)
    with pytest.raises(ValueError, match="round together"):
        circle(1e100 + 0j, 1.0)
    circle(1e6, 1e-3, 20000).validate_simple()
