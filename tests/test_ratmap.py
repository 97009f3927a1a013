"""Rational maps: normalization, charts, critical structure, fibers."""

import numpy as np
import pytest

from fatou.catalog import SELECTORS, by_name, paper_g, pseudo_basilica
from fatou.lifting import _match_edges
from fatou.orbits import critical_portrait
from fatou.ratmap import (RationalMap, _Ambiguous, compose_self, critical_points,
                          eval_sphere, fibers, from_coeffs, hom_eval, iterate_degree,
                          map_from_jsonable, map_to_jsonable, nearest, normalize,
                          preimages)
from fatou.sphere import Polynomial, SpherePoint, as_sphere, poly


def _crit_summary(f):
    out = set()
    for c in critical_points(f):
        key = "inf" if c.point.is_infinity else complex(round(c.point.to_complex().real, 9),
                                                        round(c.point.to_complex().imag, 9))
        out.add((key, c.local_degree))
    return out


def test_normalize_cancels_common_roots():
    # (z^2 - 1)/(z - 1) is the degree-1 map z + 1 and gets rejected
    with pytest.raises(ValueError, match="degree 1 after cancellation; need >= 2"):
        normalize(poly(-1.0, 0.0, 1.0), poly(-1.0, 1.0))


def test_normalize_keeps_coprime_pair():
    f = normalize(poly(2.0, -3.0, 0.0, 1.0), poly(-1.0, 1.5))
    assert f.degree == 3
    # cancellation keeps the map's values
    g = normalize(poly(2.0, -3.0, 0.0, 1.0) * poly(1.0, 1.0),
                  poly(-1.0, 1.5) * poly(1.0, 1.0))
    rng = np.random.default_rng(7)
    for _ in range(10):
        z = complex(rng.normal(), rng.normal())
        a = eval_sphere(f, as_sphere(z))
        b = eval_sphere(g, as_sphere(z))
        assert a.chordal(b) < 1e-8


def test_normalize_rejects_zero_denominator():
    with pytest.raises(ValueError):
        normalize(poly(1.0, 1.0, 1.0), poly(0.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf"))])
def test_normalize_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="coefficients must be finite"):
        normalize(poly(bad, 0.0, 1.0), poly(1.0))
    with pytest.raises(ValueError, match="coefficients must be finite"):
        normalize(poly(0.0, 0.0, 1.0), poly(1.0, bad))


@pytest.mark.parametrize("num, den, message", [
    ((1e300, 0.0, 1.0), (1.0,), "degree 0 after dropping coefficients at most 1e-14 times"),
    ((0.0, 1.0), (1.0, 1.0), "degree 1; need >= 2"),
], ids=["trim", "low-degree"])
def test_normalize_says_why_the_degree_is_too_low(num, den, message):
    # z^2 + 1e300 loses z^2 to the relative trim; nothing cancels
    with pytest.raises(ValueError, match=message):
        normalize(poly(*num), poly(*den))


def test_normalize_refuses_a_scaling_that_loses_a_coefficient():
    # the joint power of two that takes 1e300 to modulus 1 takes 1e-300 to 0
    with pytest.raises(ValueError, match="takes another to 0"):
        normalize(poly(0.0, 0.0, 1e300), poly(1e-300))
    # all coefficients below the normal range: 2^1063 is not a float, so the
    # map z^2 is scaled up in two exact powers of two
    f = normalize(poly(0.0, 0.0, 1e-320), poly(1e-320))
    assert f.degree == 2
    assert f.num.coeffs == (0j, 0j, 1e-320 * 2.0 ** 531 * 2.0 ** 532)
    assert f.den.coeffs == f.num.coeffs[2:]


def test_normalize_scales_coefficients_at_the_top_of_the_float_range():
    # the largest rounds to 2^1024, which is not a float; its inverse is
    f = normalize(poly(0.0, 0.0, 1.7e308), poly(2.0 ** 1023))
    assert f.num.coeffs[-1] == 1.7e308 * 2.0 ** -1024
    assert f.den.coeffs == (0.5,)


def test_eval_special_points():
    g = paper_g()
    assert eval_sphere(g, as_sphere(0.0)).to_complex() == pytest.approx(-2.0)
    assert eval_sphere(g, SpherePoint.infinity()).is_infinity
    # pole of the denominator 1.5z - 1
    assert eval_sphere(g, as_sphere(2.0 / 3.0)).is_infinity
    assert eval_sphere(g, as_sphere(1.0)).chordal(as_sphere(0.0)) < 1e-15


def test_eval_chart_consistency():
    g = paper_g()
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = complex(rng.normal(), rng.normal()) * 10.0 ** rng.integers(-2, 3)
        x = as_sphere(z)
        direct = eval_sphere(g, x)
        # same point entered through the far chart representation
        flipped = SpherePoint(1.0, 1.0 / z)
        assert direct.chordal(eval_sphere(g, flipped)) < 1e-9


def _kernel_points(f, seed):
    """Seeded points in both charts, infinity and a pole, max-modulus normalized."""
    rng = np.random.default_rng(seed)
    inner = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
    outer = 1.0 / (rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40))
    poles = np.roots(np.array(f.den.coeffs[::-1]))
    pts = [as_sphere(complex(z)) for z in np.concatenate([inner, outer, poles[:1]])]
    return pts + [SpherePoint.infinity()]


@pytest.mark.parametrize("name", SELECTORS)
def test_hom_eval_matches_eval_sphere(name):
    f = by_name(name)
    pts = _kernel_points(f, 11)
    if f.den.degree >= 1:  # a polynomial's only pole is infinity
        assert any(abs(eval_sphere(f, x).w) < 1e-12 for x in pts[:-1])
    z = np.array([x.z for x in pts])
    w = np.array([x.w for x in pts])
    arrays = hom_eval(f, z, w, partials=True)
    for i, x in enumerate(pts):
        scalars = hom_eval(f, x.z, x.w, partials=True)
        assert isinstance(scalars[0], complex)
        p, q = scalars[:2]
        assert SpherePoint(p, q).chordal(eval_sphere(f, x)) <= 1e-14
        for s, a in zip(scalars, arrays):
            assert abs(s - a[i]) <= 1e-15 * (1.0 + abs(s))
    assert all(np.array_equal(a, b) for a, b in zip(hom_eval(f, z, w), arrays[:2]))


@pytest.mark.parametrize("name", SELECTORS)
def test_hom_eval_partials(name):
    f = by_name(name)
    d = f.degree
    pts = _kernel_points(f, 12)
    z = np.array([x.z for x in pts])
    w = np.array([x.w for x in pts])
    p, q, pz, pw, qz, qw = hom_eval(f, z, w, partials=True)
    scale = sum(abs(c) for c in f.num.coeffs + f.den.coeffs) * d
    # Euler's relation for forms of degree d
    assert np.abs(z * pz + w * pw - d * p).max() <= 1e-14 * scale
    assert np.abs(z * qz + w * qw - d * q).max() <= 1e-14 * scale
    # in the finite chart the z-partials are the derivatives of num and den
    t = np.array([complex(x.z / x.w) for x in pts if abs(x.w) == 1.0])
    _, _, pz1, _, qz1, _ = hom_eval(f, t, np.ones_like(t), partials=True)
    dnum, dden = f.num.deriv(), f.den.deriv()
    for k, tk in enumerate(t):
        assert abs(pz1[k] - dnum(tk)) <= 1e-14 * scale
        assert abs(qz1[k] - dden(tk)) <= 1e-14 * scale


def _hom_eval_out_of_place(f, z, w, partials=False):
    """hom_eval with a fresh array for every partial sum: the same operations
    in the same order as the in-place body, as hom_eval was written first."""
    d = f.degree
    a, b = f.pair
    p, q, wk = a[d], b[d], 1.0
    pz = pw = qz = qw = 0j
    for k in range(d - 1, -1, -1):
        if partials:
            pz, pw = pz * z + p, pw * z + (d - k) * a[k] * wk
            qz, qw = qz * z + q, qw * z + (d - k) * b[k] * wk
        wk = wk * w
        p = p * z + a[k] * wk
        q = q * z + b[k] * wk
    return (p, q, pz, pw, qz, qw) if partials else (p, q)


@pytest.mark.parametrize("name", SELECTORS)
def test_hom_eval_in_place_gives_the_out_of_place_bits(name):
    """Every bit, signs of zeros included, on the same arrays and on the
    scalars cycle_multiplier passes, the cycle points among them. Against
    the scalar path the array path agrees to rounding only
    (test_hom_eval_matches_eval_sphere): numpy's vectorized complex product
    may fuse a*c - b*d into one rounding, which its loop for one-element
    arrays and Python's complex scalars do not
    (test_hom_eval_bits_survive_compaction)."""
    f = by_name(name)
    pts = [p for rep in critical_portrait(f).orbits if rep is not None for p in rep.cycle]
    pts += _kernel_points(f, 13)
    z = np.array([x.z for x in pts])
    w = np.array([x.w for x in pts])
    z0, w0 = z.tobytes(), w.tobytes()
    for partials in (False, True):
        arrays = hom_eval(f, z, w, partials=partials)
        assert z.tobytes() == z0 and w.tobytes() == w0  # inputs untouched
        assert not any(np.shares_memory(a, x) for a in arrays for x in (z, w))
        want = _hom_eval_out_of_place(f, z, w, partials=partials)
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in want]
        for x in pts:
            got = hom_eval(f, x.z, x.w, partials=partials)
            want = _hom_eval_out_of_place(f, x.z, x.w, partials=partials)
            assert [repr(v) for v in got] == [repr(v) for v in want]
    # real arrays: the accumulators turn complex, the inputs stay as they were
    x, y = np.array([0.5, -2.0]), np.array([1.0, 0.25])
    p, q = hom_eval(f, x, y)
    assert x.tolist() == [0.5, -2.0] and y.tolist() == [1.0, 0.25]
    assert p.dtype == q.dtype == complex


@pytest.mark.parametrize("name", ["paper-g", "paper-degree4", "pseudo-rabbit:3:0"])
def test_hom_eval_bits_survive_compaction(name):
    """The basin kernel compacts a tile to its unresolved cells every step, so
    a cell's bits must not depend on which other cells are left: each slice
    of 2 to 100 points and each boolean compaction of a batch gives the
    batch's bits, signs of zeros included. A one-element array may differ
    (numpy runs another loop for it), so none is compared."""
    f = by_name(name)
    rng = np.random.default_rng(19)
    n = 4099
    z = rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
    w = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    for partials in (False, True):
        batch = hom_eval(f, z, w, partials=partials)

        def same_bits(index) -> bool:
            part = hom_eval(f, z[index], w[index], partials=partials)
            return all(a.tobytes() == b[index].tobytes() for a, b in zip(part, batch))
        for length in range(2, 101):
            for start in rng.integers(0, n - length, 2).tolist():
                assert same_bits(slice(start, start + length)), (length, start)
        for _ in range(50):
            keep = rng.random(n) < rng.random()
            assert same_bits(keep)


def test_evaluation_reads_the_cached_pair(monkeypatch):
    """eval_sphere in both charts, hom_eval and fibers build no Polynomial:
    they read the one homogeneous pair the map caches."""
    f = paper_g()
    built = []
    post_init = Polynomial.__post_init__

    def counting(self):
        built.append(self.coeffs)
        post_init(self)

    monkeypatch.setattr(Polynomial, "__post_init__", counting)
    for x in (3.0 - 2.0j, SpherePoint.infinity(), 0.5j, 2.0 / 3.0):
        eval_sphere(f, x)
    hom_eval(f, 3.0 - 2.0j, 1.0, partials=True)
    hom_eval(f, np.array([0.5, 1.0]), np.array([1.0, 0.25]))
    fibers(f, [0.3, 2.0 + 1.0j])
    assert built == []
    a, b = f.pair
    assert f.pair is f.pair
    assert a == f.num.coeffs and b == f.den.coeffs + (0j,) * 2


def test_critical_points_square():
    f = from_coeffs([0.0, 0.0, 1.0], [1.0])
    assert _crit_summary(f) == {(0j, 2), ("inf", 2)}


def test_critical_points_cubic_map():
    assert _crit_summary(paper_g()) == {(0j, 3), (1 + 0j, 2), ("inf", 2)}


def test_critical_points_quartic_map():
    assert _crit_summary(pseudo_basilica(4)) == {(0j, 4), (1 + 0j, 3), ("inf", 2)}


def test_critical_points_multiple_pole():
    # (z^3 + 1)/z^2 has a double pole at 0; the branching count must close
    f = from_coeffs([1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    total = sum(c.local_degree - 1 for c in critical_points(f))
    assert total == 2 * f.degree - 2


def test_critical_points_one_trim_for_infinity():
    # z^2 + 1e-10 z^3: the Wronskian's top coefficient is 3e-10 of its
    # largest, above the LEAD_TRIM that keeps it as a finite root; infinity
    # must not count it again
    f = from_coeffs([0, 0, 1, 1e-10], [1])
    crit = critical_points(f)
    assert sum(c.local_degree - 1 for c in crit) == 4
    assert _crit_summary(f) == {(0j, 2), (complex(round(-2 / 3e-10, 9)), 2), ("inf", 3)}
    # below the trim the cubic term is a root at infinity, of order one more
    g = from_coeffs([0, 0, 1, 1e-13], [1])
    assert _crit_summary(g) == {(0j, 2), ("inf", 4)}


def test_riemann_hurwitz_random_maps():
    rng = np.random.default_rng(12)
    built = 0
    while built < 50:
        d = int(rng.integers(2, 6))
        dn = int(rng.integers(0, d + 1))
        dd = d if dn < d else int(rng.integers(0, d + 1))
        if max(dn, dd) < 2:
            continue
        num = rng.normal(size=dn + 1) + 1j * rng.normal(size=dn + 1)
        den = rng.normal(size=dd + 1) + 1j * rng.normal(size=dd + 1)
        try:
            f = normalize(poly(*num), poly(*den))
        except (ValueError, ArithmeticError):
            continue
        built += 1
        crit = critical_points(f)
        assert sum(c.local_degree - 1 for c in crit) == 2 * f.degree - 2
        assert all(c.local_degree >= 2 for c in crit)


def test_preimages_square_map():
    f = from_coeffs([0.0, 0.0, 1.0], [1.0])
    pre = preimages(f, as_sphere(4.0))
    got = sorted(p.to_complex().real for p, _ in pre)
    assert got == pytest.approx([-2.0, 2.0])


def test_preimages_of_cycle_points():
    g = paper_g()
    pre0 = sorted(((p.to_complex(), m) for p, m in preimages(g, as_sphere(0.0))),
                  key=lambda t: t[0].real)
    assert [(round(z.real, 9), m) for z, m in pre0] == [(-2.0, 1), (1.0, 2)]
    prem2 = preimages(g, as_sphere(-2.0))
    assert len(prem2) == 1
    p, m = prem2[0]
    assert m == 3 and abs(p.to_complex()) < 1e-9


def test_preimages_fiber_property():
    g = paper_g()
    rng = np.random.default_rng(31)
    for _ in range(20):
        v = as_sphere(complex(rng.normal(), rng.normal()))
        fiber = preimages(g, v)
        assert sum(m for _, m in fiber) == g.degree
        for p, _ in fiber:
            assert eval_sphere(g, p).chordal(v) < 1e-7


def test_preimages_at_infinity():
    g = paper_g()
    fiber = preimages(g, SpherePoint.infinity())
    # pole 2/3 simple, infinity double (deg num - deg den = 2)
    flat = {(("inf" if p.is_infinity else round(p.to_complex().real, 9)), m)
            for p, m in fiber}
    assert flat == {(0.666666667, 1), ("inf", 2)}


def _iterate(f, x, n):
    pt = as_sphere(x)
    for _ in range(n):
        pt = eval_sphere(f, pt)
    return pt


def test_iterate_matches_composition():
    g = paper_g()
    g2 = compose_self(g, 2)
    assert g2.degree == 9
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = as_sphere(complex(rng.normal(), rng.normal()))
        a = _iterate(g, z, 2)
        b = eval_sphere(g2, z)
        assert a.chordal(b) < 1e-7


def test_iterate_orbit_of_one():
    g = paper_g()
    x = as_sphere(1.0)
    orbit = [_iterate(g, x, n) for n in range(4)]
    vals = [("inf" if p.is_infinity else round(p.to_complex().real, 9)) for p in orbit]
    assert vals == [1.0, 0.0, -2.0, 0.0]


def test_iterate_power_of_two():
    f = from_coeffs([0.0, 0.0, 1.0], [1.0])
    assert _iterate(f, as_sphere(2.0), 3).to_complex() == pytest.approx(256.0)


def test_compose_self_degree_bound():
    g = paper_g()
    with pytest.raises(ValueError, match=r"degree 3\^9 exceeds bound 4096"):
        compose_self(g, 9)  # 3^9 > 4096
    assert iterate_degree(3, 7) == 2187
    assert iterate_degree(2, 12) == 4096  # the bound itself is allowed
    with pytest.raises(ValueError):
        iterate_degree(2, 13)
    with pytest.raises(ValueError):
        iterate_degree(3, 10**18)  # refused without computing the power


def test_json_round_trip():
    g = paper_g()
    j = map_to_jsonable(g)
    h = map_from_jsonable(j)
    assert h.num.coeffs == g.num.coeffs
    assert h.den.coeffs == g.den.coeffs


def test_conjugate_by_inversion_moves_infinity():
    from fatou.sphere import MoebiusTransform
    g = paper_g().conjugate_by(MoebiusTransform.inversion())
    # infinity had local degree 2; now 0 does
    summary = dict(_crit_summary(g))
    assert summary[0j] == 2
    assert sum(ld - 1 for ld in summary.values()) == 2 * g.degree - 2


def _finite_fiber(f, v):
    pts = [p.to_complex() for p, m in preimages(f, v) if not p.is_infinity for _ in range(m)]
    return sorted(pts, key=lambda z: (z.real, z.imag))


@pytest.mark.parametrize("name", SELECTORS)
def test_certified_fibers_equal_preimages(name):
    f = by_name(name)
    rng = np.random.default_rng(7)
    targets = rng.normal(size=200) * 2.0 + 1j * rng.normal(size=200) * 2.0
    roots, certified = fibers(f, targets)
    assert roots.shape == (200, f.degree)
    assert certified.sum() >= 190
    for v, row, ok in zip(targets, roots, certified):
        if ok:
            want = _finite_fiber(f, v)
            assert len(want) == f.degree
            for got, z in zip(row, want):
                assert abs(got - z) <= 1e-12 * (1.0 + abs(z))


def test_fibers_leave_critical_values_and_roots_at_infinity_to_preimages():
    g = paper_g()
    v = eval_sphere(g, 1.0).to_complex()  # 1 is a critical point of local degree 2
    _, certified = fibers(g, [v, 0.5 + 0.5j])
    assert certified.tolist() == [False, True]
    assert sorted(m for _, m in preimages(g, v)) == [1, 2]
    # (z^2 + 1) / (2 z^2) sends infinity to 1/2, so the fiber over 1/2 has
    # no finite points
    h = from_coeffs([1.0, 0.0, 1.0], [0.0, 0.0, 2.0])
    _, certified = fibers(h, [0.5, 0.3])
    assert certified.tolist() == [False, True]
    assert [p.is_infinity for p, _ in preimages(h, 0.5)] == [True]


def test_warm_started_fibers_equal_the_cold_solve():
    f = by_name("paper-degree4")
    rng = np.random.default_rng(11)
    targets = rng.normal(size=50) + 1j * rng.normal(size=50)
    near, ok_near = fibers(f, targets + 1e-3)
    warm = np.where(ok_near[:, None], near, np.nan)
    cold, ok_cold = fibers(f, targets)
    hot, ok_hot = fibers(f, targets, warm)
    assert ok_cold.all() and ok_hot.all()
    assert np.all(np.abs(hot - cold) <= 1e-12 * (1.0 + np.abs(cold)))


def test_nearest_needs_a_clear_winner():
    # MATCH_RATIO: the best distance may be at most half the runner-up's
    assert nearest([3.0 + 0j, 1.0 + 0j, 2.0 + 0j], 0j) == 1
    with pytest.raises(_Ambiguous):
        nearest([3.0 + 0j, complex(np.nextafter(1.0, 2.0)), 2.0 + 0j], 0j)
    # a best distance within 1e-12 is never ambiguous
    assert nearest([1.5e-12 + 0j, 1e-12 + 0j], 0j) == 1
    with pytest.raises(_Ambiguous):
        nearest([1.5e-12 + 0j, 1.1e-12 + 0j], 0j)
    # ties go to the first point; a lone point is its own continuation
    assert nearest([5.0 + 0j, 1e-13 + 0j, -1e-13 + 0j, 1e-13j], 0j) == 1
    assert nearest([7.0 + 1j], -100.0 + 0j) == 0


def test_strand_matching_is_a_bijection():
    # the strands cross over: each takes its nearest point, one apiece
    rows = np.array([[0.0 + 0j, 4.9 + 0j], [5.0 + 0j, 0.1 + 0j]])
    assert _match_edges(rows) == ([[1, 0]], [False])
    # both strands nearest one point: the edge is refused
    rows = np.array([[0.0 + 0j, 0.2 + 0j], [5.0 + 0j, 0.1 + 0j]])
    assert _match_edges(rows) == ([[1, 1]], [True])
