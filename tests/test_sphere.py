"""Sphere points, polynomial arithmetic, and the root finder."""

import math
import warnings

import numpy as np
import pytest

import fatou.sphere
from fatou.sphere import (MoebiusTransform, Polynomial, RootFindingError,
                          SpherePoint, as_sphere, chordal, coprime, hom_compose,
                          moebius_conjugate, poly, poly_roots)


def _sorted_roots(pairs):
    return sorted(pairs, key=lambda rm: (rm[0].real, rm[0].imag))


def test_sphere_point_normalization():
    p = SpherePoint(3.0 + 4.0j, 1.0)
    assert max(abs(p.z), abs(p.w)) == pytest.approx(1.0)
    assert p.to_complex() == pytest.approx(3.0 + 4.0j)
    assert SpherePoint.infinity().is_infinity
    assert SpherePoint.of(complex("inf")).is_infinity
    with pytest.raises(ValueError):
        SpherePoint(0.0, 0.0)


def test_chordal_metric_basics():
    assert chordal(0.0, 0.0) == 0.0
    # antipodal points are at distance 2
    assert chordal(0.0, complex("inf")) == pytest.approx(2.0)
    assert chordal(1.0, complex("inf")) == pytest.approx(2.0 / math.sqrt(2.0))
    # scaling the homogeneous pair changes nothing
    a = SpherePoint(0.5 + 0.1j, 0.7)
    b = SpherePoint((0.5 + 0.1j) * 3j, 0.7 * 3j)
    assert a.chordal(b) < 1e-15


def test_polynomial_ops():
    p = poly(1.0, 2.0, 3.0)  # 1 + 2z + 3z^2
    q = poly(-1.0, 1.0)
    assert p.degree == 2
    assert p(2.0) == pytest.approx(17.0)
    assert (p * q).degree == 3
    assert (p * q)(1.7) == pytest.approx(p(1.7) * q(1.7))
    assert (p + q)(0.3) == pytest.approx(p(0.3) + q(0.3))
    assert p.deriv()(0.5) == pytest.approx(2.0 + 6.0 * 0.5)
    assert poly(0.0).is_zero and poly(0.0).degree == -1
    # trailing zeros are stripped
    assert poly(1.0, 1.0, 0.0, 0.0).degree == 1


def test_quadratic_roots():
    roots = _sorted_roots(poly_roots(poly(1.0, 0.0, 1.0)))  # z^2 + 1
    assert len(roots) == 2
    assert roots[0][0] == pytest.approx(-1j, abs=1e-12)
    assert roots[1][0] == pytest.approx(1j, abs=1e-12)
    assert all(m == 1 for _, m in roots)


def test_double_root_detection():
    # z^3 - 3z + 2 = (z + 2)(z - 1)^2
    roots = _sorted_roots(poly_roots(poly(2.0, -3.0, 0.0, 1.0)))
    assert [(round(r.real, 9), m) for r, m in roots] == [(-2.0, 1), (1.0, 2)]


def test_sextic_product_all_real():
    # (4z^4 - 2z^3 - 15z^2 + 16z - 4)(2z^2 + z - 2); real root values frozen
    # from an interval-bisection oracle run separately
    a = poly(-4.0, 16.0, -15.0, -2.0, 4.0)
    b = poly(-2.0, 1.0, 2.0)
    roots = _sorted_roots(poly_roots(a * b))
    assert sum(m for _, m in roots) == 6
    assert max(abs(r.imag) for r, _ in roots) < 1e-8
    expected = [-2.1720016195327387, -1.2807764064044149, 0.40643718245810101,
                0.74495063640789616, 0.78077640640441515, 1.5206138006667409]
    for (r, m), e in zip(roots, expected):
        assert m == 1
        assert r.real == pytest.approx(e, abs=1e-9)


def test_roots_reconstruct_polynomial():
    rng = np.random.default_rng(20)
    for _ in range(25):
        deg = int(rng.integers(1, 9))
        cs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        p = poly(*cs)
        if p.degree < 1:
            continue
        roots = poly_roots(p)
        assert sum(m for _, m in roots) == p.degree
        # rebuild and compare at sample points
        for x in (0.3 + 0.1j, -1.2, 0.8j):
            prod = p.coeffs[-1]
            for r, m in roots:
                prod *= (x - r) ** m
            assert abs(prod - p(x)) < 1e-6 * (1.0 + abs(p(x)))


def test_high_multiplicity_cluster():
    # (z - 0.5)^4 via expansion
    p = poly(0.0625, -0.5, 1.5, -2.0, 1.0)
    roots = poly_roots(p)
    assert len(roots) == 1
    r, m = roots[0]
    assert m == 4
    assert abs(r - 0.5) < 1e-3  # quadruple roots cost accuracy


def test_wide_coefficient_range_roots():
    # roots at 1e-3, 1, 1e3: coefficient span forces scale-aware starting
    # points in the solver
    p = poly(1.0, 0.0)
    for r in (1e-3, 1.0, 1e3):
        p = p * poly(-r, 1.0)
    roots = _sorted_roots(poly_roots(p.trimmed()))
    got = sorted(abs(r) for r, _ in roots if abs(r) > 0)
    assert got == pytest.approx([1e-3, 1.0, 1e3], rel=1e-8)


def test_aberth_pulls_an_overflowing_start_inward_without_warnings(monkeypatch):
    # a start point whose cube overflows: the iteration halves it until the
    # polynomial evaluates, and numpy's overflow warnings are not printed
    real = fatou.sphere._initial_guesses

    def one_far(a):
        z = real(a)
        z[0] = 1e200
        return z
    monkeypatch.setattr(fatou.sphere, "_initial_guesses", one_far)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z = fatou.sphere._aberth(np.array([-1.0, 0.0, 0.0, 1.0], dtype=complex))
    roots = sorted(z.tolist(), key=lambda c: (c.real, c.imag))
    want = [complex(-0.5, -math.sqrt(3) / 2), complex(-0.5, math.sqrt(3) / 2), 1.0]
    assert all(abs(r - w) < 1e-12 for r, w in zip(roots, want))


def _reference_cluster(points, ests=None):
    """The all-pairs scan that _cluster replaced, kept as the oracle of its
    merge decisions: every pair rescanned after each merge."""
    if ests is None:
        ests = [1] * len(points)
    clusters = [[complex(p), 1, int(e)] for p, e in zip(points, ests)]
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = abs(clusters[i][0] - clusters[j][0])
                if best is None or d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        m = clusters[i][1] + clusters[j][1]
        m_eff = max(m, min(clusters[i][2], clusters[j][2]))
        local = 1.0 + max(abs(clusters[i][0]), abs(clusters[j][0]))
        if d <= 3.0 * (fatou.sphere.ROOT_TOL ** (1.0 / m_eff)) * local:
            ci, mi, ei = clusters[i]
            cj, mj, ej = clusters[j]
            clusters[i] = [(ci * mi + cj * mj) / m, m, max(ei, ej)]
            del clusters[j]
            merged = True
    return [(c, m) for c, m, _ in clusters]


def _bits(pairs):
    return [(c.real.hex(), c.imag.hex(), m) for c, m in pairs]


def _cluster_inputs():
    """Seeded (points, ests) inputs of 1 to 300 points: scattered points
    with planted groups at relative gaps 1e-4 to 1e-12 and multiplicity
    estimates up to the group size; dyadic lattices, whose distances tie
    exactly; and the re-cluster input of poly_roots, each centroid repeated
    by its multiplicity after a run of zeros."""
    rng = np.random.default_rng(24)
    out = []
    for n in (1, 2, 3, 4, 5, 7, 12, 20, 33, 60, 110, 180, 300):
        for _ in range(3):
            scale = 10.0 ** rng.uniform(-2, 2)
            pts = list(scale * (rng.normal(size=n) + 1j * rng.normal(size=n)))
            ests = [1] * n
            for a in rng.choice(n, size=min(n, int(rng.integers(0, 12))), replace=False):
                size = int(rng.integers(2, 6))
                gap = 10.0 ** -rng.uniform(4, 12) * (1.0 + abs(pts[a]))
                ring = np.exp(2j * np.pi * (rng.uniform() + np.arange(1, size) / size))
                pts += list(pts[a] + gap * ring)
                ests[a] = size
                ests += [int(e) for e in rng.integers(1, size + 1, size=size - 1)]
            keep = rng.permutation(len(pts))[:n]
            out.append(([pts[k] for k in keep], [ests[k] for k in keep]))
        for _ in range(4 if n <= 60 else 1):
            # steps 2^-20 to 2^-14: the coarsest straddle the merge radius at m = 2
            side = int(rng.integers(1, max(2, int(np.sqrt(n))) + 1))
            step = 2.0 ** -int(rng.integers(14, 21))
            lattice = [complex(a, b) * step for a, b in rng.integers(-side, side + 1, size=(n, 2))]
            out.append((lattice, None))
            out.append((lattice, [int(e) for e in rng.integers(1, 5, size=n)]))
    for pts, ests in list(out):
        if len(pts) <= 60:
            found = _reference_cluster(pts, ests) + [(0j, int(rng.integers(1, 8)))]
            out.append(([r for r, m in found for _ in range(m)], None))
    return out


def test_cluster_decides_as_the_all_pairs_scan():
    inputs = _cluster_inputs()
    assert max(len(p) for p, _ in inputs) >= 300
    merged = 0
    for pts, ests in inputs:
        got = fatou.sphere._cluster(pts, ests)
        assert _bits(got) == _bits(_reference_cluster(pts, ests))
        merged += len(pts) - len(got)
    assert merged > 500  # the inputs exercise the merge updates, not only the first pass


def test_cluster_blocks_of_rows_decide_as_one_block(monkeypatch):
    # blocks of one row up to whole blocks: the first pass finds the same
    # neighbours however the rows are split
    inputs = [(p, e) for p, e in _cluster_inputs() if len(p) <= 60]
    want = [_bits(_reference_cluster(p, e)) for p, e in inputs]
    for block in (1, 5, 64):
        monkeypatch.setattr(fatou.sphere, "_PAIR_BLOCK", block)
        assert [_bits(fatou.sphere._cluster(p, e)) for p, e in inputs] == want


def _roots_or_error(p):
    try:
        return _bits(poly_roots(p))
    except RootFindingError as exc:
        return str(exc), [(r.real.hex(), r.imag.hex()) for r in exc.best]


def test_poly_roots_decides_as_the_all_pairs_scan(monkeypatch):
    # every catalog Wronskian, and the polynomial periodic_points solves for
    # every distinct catalog map at every period with d^p <= 729: the same
    # roots and multiplicities bit for bit, or the same RootFindingError
    from fatou.catalog import CATALOG_NAMES, by_name
    from fatou.orbits import LEAD_TRIM
    from fatou.ratmap import compose_self
    maps = {}
    for name in CATALOG_NAMES:
        f = by_name(name)
        maps.setdefault((f.num.coeffs, f.den.coeffs), f)
    polys = [by_name(name).wronskian() for name in CATALOG_NAMES]
    for f in maps.values():
        p = 1
        while f.degree ** p <= 729:
            fp = compose_self(f, p)
            polys.append((fp.num - poly(0.0, 1.0) * fp.den).trimmed(LEAD_TRIM))
            p += 1
    got = [_roots_or_error(p) for p in polys]
    monkeypatch.setattr(fatou.sphere, "_cluster", _reference_cluster)
    want = [_roots_or_error(p) for p in polys]
    assert got == want
    assert sum(isinstance(g[0], str) for g in got) == 7  # the d^p >= 243 solves raise


@pytest.mark.xfail(strict=True, reason="the re-cluster after deflating the zeros "
                   "merges 0 and 1 (ROADMAP item 7)")
def test_deflated_zeros_keep_their_neighbouring_root():
    p = poly(0.0, 1.0).pow(7) * poly(-1.0, 1.0).pow(6)
    roots = poly_roots(p)
    assert {round(r.real): m for r, m in roots} == {0: 7, 1: 6}


def test_poly_roots_rejects_constant():
    with pytest.raises(ValueError):
        poly_roots(poly(3.0))


def test_compose_square_of_shift():
    n = hom_compose(poly(0.0, 0.0, 1.0), poly(1.0, 1.0), poly(1.0), 2)
    assert np.allclose(n.coeffs, (1.0, 2.0, 1.0))


def test_compose_rational_inner():
    # outer 2z^3 - 3z^2 + 1, inner (z - 1)/z: outer(u/v) = n / v^3
    outer = poly(1.0, 0.0, -3.0, 2.0)
    n = hom_compose(outer, poly(-1.0, 1.0), poly(0.0, 1.0), 3)
    rng = np.random.default_rng(4)
    for _ in range(5):
        z = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        lhs = n(z) / z ** 3
        rhs = outer((z - 1.0) / z)
        assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(rhs))


def test_resultant_and_coprime():
    # shared root at 1
    assert not coprime(poly(-1.0, 1.0), poly(1.0, -2.0, 1.0))
    assert coprime(poly(1.0, 1.0), poly(-1.0, 1.0))


def test_moebius_inverse_round_trip():
    m = MoebiusTransform(1.0 + 0.5j, -2.0, 0.3j, 1.5)
    mi = m.inverse()
    rng = np.random.default_rng(11)
    for _ in range(10):
        z = as_sphere(complex(rng.normal(), rng.normal()))
        assert mi.apply(m.apply(z)).chordal(z) < 1e-9
    assert m.apply(SpherePoint.infinity()).chordal(
        as_sphere((1.0 + 0.5j) / 0.3j)) < 1e-12


def test_moebius_conjugate_inversion_fixes_square():
    # 1/(1/z)^2 = z^2
    inv = MoebiusTransform.inversion()
    n, d = moebius_conjugate(poly(0.0, 0.0, 1.0), poly(1.0), inv)
    nn, dd = n.trimmed(), d.trimmed()
    assert nn.degree == 2 and dd.degree == 0
    assert abs(nn.coeffs[2] / dd.coeffs[0]) == pytest.approx(1.0)
    assert abs(nn.coeffs[0]) < 1e-15 and abs(nn.coeffs[1]) < 1e-15


def test_moebius_degenerate_rejected():
    with pytest.raises(ValueError):
        MoebiusTransform(1.0, 2.0, 2.0, 4.0)
