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


def _outcome(solve, *args):
    """Bits of what solve(*args) returns, or the type, text and best iterate
    of what it raises."""
    try:
        got = solve(*args)
    except (RootFindingError, OverflowError, ZeroDivisionError) as exc:
        best = getattr(exc, "best", None) or []
        return type(exc).__name__, str(exc), [(r.real.hex(), r.imag.hex()) for r in best]
    if got is None or isinstance(got[0], int):
        return got
    return _bits(got)


def _roots_or_error(p):
    return _outcome(poly_roots, p)


@pytest.fixture(scope="module")
def catalog_polys():
    """Every catalog Wronskian, and the polynomial periodic_points solves for
    every distinct catalog map at every period with d^p <= 729."""
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
    return polys


def test_poly_roots_decides_as_the_all_pairs_scan(monkeypatch, catalog_polys):
    # the same roots and multiplicities bit for bit, or the same
    # RootFindingError
    got = [_roots_or_error(p) for p in catalog_polys]
    monkeypatch.setattr(fatou.sphere, "_cluster", _reference_cluster)
    want = [_roots_or_error(p) for p in catalog_polys]
    assert got == want
    assert sum(isinstance(g[0], str) for g in got) == 7  # the d^p >= 243 solves raise


def _planted_polys():
    """Seeded polynomials of degree 1 to 300 about the unit circle: distinct
    roots at jittered angles, some repeated up to 4 times, times a random
    leading coefficient; and real polynomials, products of conjugate pairs,
    whose zero imaginary parts are given random signs."""
    rng = np.random.default_rng(25)
    out = []
    for deg in (1, 2, 3, 5, 8, 13, 21, 40, 63, 64, 65, 66, 80, 120, 180, 300):
        for _ in range(2 if deg <= 120 else 1):
            mults = []
            while sum(mults) < deg:
                mults.append(min(deg - sum(mults), int(rng.choice([1, 1, 1, 1, 2, 3, 4]))))
            k = len(mults)
            turns = (np.arange(k) + 0.4 * rng.uniform(size=k)) / k
            roots = (1.0 + rng.normal(size=k) / deg) * np.exp(2j * np.pi * turns)
            p = poly(complex(rng.normal(), rng.normal()))
            for m, r in zip(mults, roots.tolist()):
                p = p * poly(-r, 1.0).pow(m)
            out.append(p)
        real = poly(rng.normal()) if deg % 2 == 0 else poly(rng.normal(), 1.0)
        turns = (np.arange(deg // 2) + 0.5 + 0.4 * rng.uniform(size=deg // 2)) / (deg + 1)
        for r in ((1.0 + rng.normal(size=deg // 2) / deg) * np.exp(2j * np.pi * turns)).tolist():
            real = real * poly(abs(r) ** 2, -2.0 * r.real, 1.0)
        signs = rng.choice([-0.0, 0.0], size=deg + 1)
        out.append(Polynomial(tuple(complex(c.real, s) for c, s in zip(real.coeffs, signs))))
    return out


def test_poly_roots_arrays_decide_as_the_scalar_loops(monkeypatch, catalog_polys):
    # every root in arrays (crossover 0) against every root in scalar loops:
    # the same roots, multiplicities and order bit for bit, or the same error
    polys = catalog_polys + _planted_polys()
    assert max(p.degree for p in polys) >= 300
    monkeypatch.setattr(fatou.sphere, "_ARRAY_DEGREE", 10 ** 9)
    want = [_roots_or_error(p) for p in polys]
    monkeypatch.setattr(fatou.sphere, "_ARRAY_DEGREE", 0)
    got = [_roots_or_error(p) for p in polys]
    assert got == want
    solved = [w for w, p in zip(want, polys) if not isinstance(w[0], str) and p.degree > 64]
    assert len(solved) >= 10  # large solves that reach the end, not only errors
    assert any(m > 1 for w in solved for *_, m in w)


def test_multiplicity_estimates_take_python_complex_points(monkeypatch, catalog_polys):
    # the estimates poly_roots computes equal those of the numpy complex
    # scalars it used to pass (without their warnings), in scalar loops and
    # in arrays
    scalar, planes = fatou.sphere._mult_estimates, fatou.sphere._mult_estimates_planes
    seen = []

    def spy(real):
        def estimates(cs, points):
            if real is scalar:
                assert all(type(z) is complex for z in points)
            seen.append((list(cs), np.array(points, dtype=complex)))
            return real(cs, points)
        return estimates
    monkeypatch.setattr(fatou.sphere, "_mult_estimates", spy(scalar))
    monkeypatch.setattr(fatou.sphere, "_mult_estimates_planes", spy(planes))
    for p in catalog_polys:
        _roots_or_error(p)
    assert len(seen) == len(catalog_polys) - 1  # pseudo-basilica:2's Wronskian is 2z
    for cs, z in seen:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            numpy_scalars = scalar(cs, list(z))
        assert scalar(cs, z.tolist()) == planes(cs, z) == numpy_scalars


def test_arrays_only_above_the_crossover(monkeypatch, catalog_polys):
    # degree is the one input of the choice: nothing at or below
    # _ARRAY_DEGREE reaches the array helpers, everything above does
    calls = []
    real = fatou.sphere._horner_planes

    def spy(*args):
        calls.append(len(args[1]))
        return real(*args)
    monkeypatch.setattr(fatou.sphere, "_horner_planes", spy)
    cut = fatou.sphere._ARRAY_DEGREE
    polys = catalog_polys + _planted_polys()
    for p in polys:
        del calls[:]
        _roots_or_error(p)
        degree = p.trimmed(fatou.sphere.ZERO_TOL).degree
        assert bool(calls) == (degree > cut), degree
    assert any(p.degree == cut for p in polys)


INF, NAN = math.inf, math.nan


def test_plane_arithmetic_rounds_as_cpython():
    # quotients and moduli of the array passes against CPython's complex
    # scalars, over signed zeros, subnormal and overflowing magnitudes,
    # infinities and NaN; bits compare through float.hex
    rng = np.random.default_rng(251)
    parts = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-300, -1e-170, 5e-324, 1e154, 1.3e308,
             -1.7e308, INF, -INF, NAN] + rng.normal(size=6).tolist()
    zs = [complex(a, b) for a in parts for b in parts]
    a = np.array([x for x in zs for y in zs if y != 0])
    b = np.array([y for x in zs for y in zs if y != 0])
    want = [(x / y).real.hex() + (x / y).imag.hex() for x, y in zip(a.tolist(), b.tolist())]
    with np.errstate(all="ignore"):
        re, im = fatou.sphere._quot(a.real, a.imag, b.real, b.imag)
    assert [x.hex() + y.hex() for x, y in zip(re.tolist(), im.tolist())] == want
    for z in zs:
        try:
            want = abs(z).hex()
        except OverflowError as exc:
            want = str(exc)
        try:
            with np.errstate(all="ignore"):
                got = fatou.sphere._modulus(np.array([z.real]), np.array([z.imag]))[0].hex()
        except OverflowError as exc:
            got = str(exc)
        assert got == want, z


def _scalar_polish(chain, found):
    return [(fatou.sphere._polish(*chain[m], r), m) for r, m in found]


def test_polish_edge_cases_in_arrays_as_in_scalar_loops():
    q = poly(-1.0, 0.0, 1.0)
    p = poly(-1.0, 1.0).pow(3) * poly(2.0, 1.0, 1.0)
    huge = complex(1.3e308, 1.3e308)
    signed = Polynomial((complex(-2.0, -0.0), complex(0.0, -0.0), complex(1.0, -0.0)))
    # the signs of zero of the polished roots show whether Horner starts from
    # 0j and keeps a product's -0.0
    linear = Polynomial((complex(1.4, -0.0), complex(1.0, -0.0)))
    turn = Polynomial((complex(-0.0, -0.0), complex(-0.0, 1.0)))
    cases = [
        # a zero derivative at the start (both signs of zero), roots that
        # converge, a step that wanders past 1e-2, a start whose value
        # overflows into NaN iterates, NaN and infinite starts
        ({1: (q, q.deriv())},
         [(0j, 1), (complex(-0.0, -0.0), 1), (0.9 + 0.01j, 1), (-1.0 + 1e-9j, 1), (1e-3j, 1),
          (1e200, 1), (complex(NAN, 0.0), 1), (complex(INF, 0.0), 1), (complex(0.0, -INF), 1),
          (3.0 + 4.0j, 1)]),
        # two multiplicity classes, interleaved, against their own derivatives
        ({1: (p, p.deriv()), 3: (p.deriv().deriv(), p.deriv().deriv().deriv())},
         [(-0.5 + 1.3j, 1), (1.0 + 1e-5j, 3), (-0.5 - 1.3j, 1), (1.0 - 1e-5, 3), (0.2, 1)]),
        # zero imaginary parts of both signs, in coefficients and roots
        ({1: (signed, signed.deriv())},
         [(complex(1.4, -0.0), 1), (complex(-1.4, 0.0), 1), (complex(1.5, 0.0), 1),
          (complex(-1.5, -0.0), 1), (complex(0.0, -0.0), 1)]),
        ({1: (linear, linear.deriv())}, [(complex(-1.4, -0.0), 1), (complex(-1.4, 0.0), 1)]),
        ({1: (turn, turn.deriv())}, [(complex(-0.0, 0.0), 1), (complex(0.0, -0.0), 1)]),
        # a step exactly at the stop bound 1e-16 (1 + |z|) stops there
        ({1: (poly(1e-16, 1.0, 1.0), poly(1.0, 2.0))}, [(0j, 1)]),
        # abs() overflows on a finite step, and on a finite derivative value
        ({1: (poly(huge, 1.0), poly(1.0))}, [(1.0, 1), (0j, 1)]),
        ({1: (poly(0.0, huge), poly(huge))}, [(1.0, 1)]),
    ]
    for chain, found in cases:
        want = _outcome(_scalar_polish, chain, found)
        assert _outcome(fatou.sphere._polish_planes, chain, found) == want
    assert _outcome(_scalar_polish, *cases[-1])[0] == "OverflowError"


def test_multiplicity_estimate_edge_cases_in_arrays_as_in_scalar_loops():
    unit = [1.0 + 0j, 0j, 1.0 + 0j]  # z^2 + 1
    tilted = [2.0 + 2.0j, 0j, 1.0 + 0j]
    double = [1.0 + 0j, -2.0 + 0j, 1.0 + 0j]  # (z - 1)^2
    tiny = 1e-170  # p'(z)^2 underflows to 0 while |p'(z)| > 0: estimate 1
    big = complex(0.75e308, 0.75e308)  # abs() of p'(z) = 2z overflows
    cases = [
        (unit, [1j + 1e-9, -1j, 0.5, complex(-0.0, -0.0), 0j, 1e200, 1e154,
                complex(NAN, 0.0), complex(INF, 1.0), complex(0.0, -INF)]),
        (double, [1.0 + 1e-8j, 1.0 - 1e-8, 1.0, 3.0]),
        ([complex(-2.0, -0.0), complex(0.0, -0.0), complex(1.0, -0.0)],
         [complex(1.4, -0.0), complex(-1.4, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0)]),
        (unit, [0.5, tiny]),
        (unit, [0.5, tiny, big]),
        (unit, [0.5, big, tiny]),
        (tilted, [0.5, 7.461626139128733e-155]),  # abs(1 - p p'' / p'^2) overflows
    ]
    for cs, points in cases:
        want = _outcome(fatou.sphere._mult_estimates, cs, points)
        z = np.array(points, dtype=complex)
        assert _outcome(fatou.sphere._mult_estimates_planes, cs, z) == want
    outcomes = [_outcome(fatou.sphere._mult_estimates, cs, pts) for cs, pts in cases[-4:]]
    assert outcomes[0] == [1, 1]
    assert [out[0] for out in outcomes[1:]] == ["OverflowError", "OverflowError", "OverflowError"]


def test_residual_check_edge_cases_in_arrays_as_in_scalar_loops():
    q = poly(-1.0, 0.0, 1.0)
    huge = poly(0.0, complex(1e308, 1e308))
    cases = [
        (q, [(complex(NAN, 0.0), 1), (-1.0, 1), (0.5, 2), (1.0 + 1e-3, 1), (2.0, 1)]),
        (q, [(-1.0, 1), (1.0, 1)]),
        (huge, [(1e-300, 1), (1.3, 1)]),  # a failing root before abs(p(r)) overflows
        (huge, [(1.3, 1), (1e-300, 1)]),
        (poly(1.0, 1e-300), [(complex(1.5e308, 1.5e308), 2)]),  # abs(r) overflows
        # sum |a_k| |r|^k below 1e-300 counts as 1e-300
        (poly(-1e-305, 0.0, 1e-305), [(1.0 - 1e-6, 1), (complex(-1.0, -0.0), 1)]),
    ]
    got = []
    for p, out in cases:
        want = _outcome(fatou.sphere._check_residuals, p, out)
        assert _outcome(fatou.sphere._check_residuals_planes, p, out) == want
        got.append(want if want is None else want[0])
    assert got == ["RootFindingError", None, "RootFindingError", "OverflowError",
                   "OverflowError", None]


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
