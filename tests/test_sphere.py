"""Sphere points, polynomial arithmetic, and the root finder."""

import hashlib
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


def _periodic_polys(max_degree):
    """(map name, period, polynomial) for every polynomial periodic_points
    solves for a distinct catalog map at a period with d^p <= max_degree."""
    from fatou.catalog import CATALOG_NAMES, by_name
    from fatou.orbits import LEAD_TRIM
    from fatou.ratmap import compose_self
    maps = {}
    for name in CATALOG_NAMES:
        f = by_name(name)
        maps.setdefault((f.num.coeffs, f.den.coeffs), (name, f))
    out = []
    for name, f in maps.values():
        p = 1
        while f.degree ** p <= max_degree:
            fp = compose_self(f, p)
            out.append((name, p, (fp.num - poly(0.0, 1.0) * fp.den).trimmed(LEAD_TRIM)))
            p += 1
    return out


def _wronskians():
    from fatou.catalog import CATALOG_NAMES, by_name
    return [by_name(name).wronskian() for name in CATALOG_NAMES]


@pytest.fixture(scope="module")
def catalog_polys():
    """Every catalog Wronskian, and the polynomial periodic_points solves for
    every distinct catalog map at every period with d^p <= 729."""
    return _wronskians() + [q for *_, q in _periodic_polys(729)]


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


def test_planted_polynomials_keep_their_multiplicities():
    # the multiplicity list of every solve, in the order of the sorted
    # roots, pinned by digest; the four largest clustered and real
    # polynomials fail the residual test. The planted multiplicities are
    # not all recovered: close roots of degree 21 and up merge or split.
    outcomes = []
    for p in _planted_polys():
        try:
            outcomes.append([m for _, m in poly_roots(p)])
        except RootFindingError:
            outcomes.append(None)
    assert len(outcomes) == 46
    assert [k for k, o in enumerate(outcomes) if o is None] == [42, 43, 44, 45]
    counts = np.bincount([m for o in outcomes if o for m in o]).tolist()
    assert counts == [0, 1544, 22, 15, 5]
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16] == "44cfc3aa2c24d180"


class _Recorded:
    """A polynomial that records the points it is evaluated at: _polish
    evaluates q once for every Newton step it computes."""

    def __init__(self, q):
        self.q, self.points = q, []

    def __call__(self, z):
        self.points.append(z)
        return self.q(z)


def test_polish_takes_few_newton_steps_on_the_catalog(monkeypatch, catalog_polys):
    # the polish stops once its steps stop halving; a loop that stops only
    # on a step below 1e-16 (1 + |z|) computes 27.4 steps per root here, as
    # most roots of a dense f^p bounce at its rounding floor until the cap
    real = fatou.sphere._polish
    steps = []

    def counted(q, dq, root):
        spy = _Recorded(q)
        z = real(spy, dq, root)
        steps.append(len(spy.points))
        return z
    monkeypatch.setattr(fatou.sphere, "_polish", counted)
    for p in catalog_polys:
        _roots_or_error(p)
    assert len(steps) == 1960
    assert sum(steps) <= 3 * len(steps)


def test_polish_stops_before_the_first_step_that_does_not_halve():
    # the expanded product of z - k, k = 1..12, evaluates near its root 5
    # with rounding noise far above 1e-16: from 5.001 the Newton steps shrink
    # as 1e-3, 5e-7, 5e-11 and then stall near 6e-10
    q = poly(1.0)
    for k in range(1, 13):
        q = q * poly(-float(k), 1.0)
    dq = q.deriv()
    spy = _Recorded(q)
    got = fatou.sphere._polish(spy, dq, 5.001)
    sizes = [abs(q(z) / dq(z)) for z in spy.points]
    assert len(sizes) == 4
    assert all(b < 0.5 * a for a, b in zip(sizes, sizes[1:-1]))
    assert sizes[-1] >= 0.5 * sizes[-2]
    assert sizes[-1] > 1e-16 * (1.0 + abs(got))  # not the small-step stop
    assert got == spy.points[-1]  # the iterate before the step refused
    assert abs(got - 5.0) < 1e-9


def test_poly_roots_against_an_mpmath_oracle():
    # every simple root within 1e-9 (1 + |z|) of a root mpmath finds at 60
    # digits, and every m-fold root with exactly m of them within the
    # cluster radius 3 ROOT_TOL^(1/m) (1 + |z|)
    mpmath = pytest.importorskip("mpmath")
    from fatou.catalog import pseudo_rabbit_condition
    polys = _wronskians() + [q for *_, q in _periodic_polys(16)]
    polys += [pseudo_rabbit_condition(3), poly(2.0, -3.0, 0.0, 1.0)]  # (z - 1)^2 (z + 2)
    tol = fatou.sphere.ROOT_TOL
    multiple = 0
    for p in polys:
        got = poly_roots(p)
        with mpmath.workdps(60):
            # an m-fold root carries 1/m of the working digits: 250 extra
            # bits keep the double roots of the rabbit condition to 60
            true = mpmath.polyroots([mpmath.mpc(c) for c in reversed(p.coeffs)],
                                    maxsteps=2000, extraprec=250)
            for r, m in got:
                dist = [abs(mpmath.mpc(r) - t) / (1.0 + abs(r)) for t in true]
                if m == 1:
                    assert min(dist) <= 1e-9, (p, r)
                else:
                    multiple += 1
                    assert sum(d <= 3.0 * tol ** (1.0 / m) for d in dist) == m, (p, r, m)
    assert multiple == 7 + 4 + 1  # in the Wronskians, the rabbit condition, the pinch


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_poly_roots_refuses_non_finite_coefficients(bad, at):
    cs = [2.0, -3.0, 1.0]
    cs[at] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="coefficients must be finite"):
            poly_roots(poly(*cs))


def test_multiplicity_estimates_take_python_complex_points(monkeypatch, catalog_polys):
    # the estimates poly_roots computes equal those of the numpy complex
    # scalars it used to pass, without their warnings
    real = fatou.sphere._mult_estimates
    seen = []

    def spy(cs, points):
        assert all(type(z) is complex for z in points)
        seen.append((list(cs), list(points)))
        return real(cs, points)
    monkeypatch.setattr(fatou.sphere, "_mult_estimates", spy)
    for p in catalog_polys:
        _roots_or_error(p)
    assert len(seen) == len(catalog_polys) - 1  # pseudo-basilica:2's Wronskian is 2z
    for cs, z in seen:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            numpy_scalars = real(cs, np.array(z, dtype=complex))
        assert real(cs, z) == numpy_scalars


INF, NAN = math.inf, math.nan
OVERFLOW = ("OverflowError", "absolute value too large", [])


def _scalar_polish(chain, found):
    return [(fatou.sphere._polish(*chain[m], r), m) for r, m in found]


def test_polish_edge_cases():
    q = poly(-1.0, 0.0, 1.0)
    p = poly(-1.0, 1.0).pow(3) * poly(2.0, 1.0, 1.0)
    huge = complex(1.3e308, 1.3e308)
    signed = Polynomial((complex(-2.0, -0.0), complex(0.0, -0.0), complex(1.0, -0.0)))
    # the signs of zero of the polished roots show whether Horner starts from
    # 0j and keeps a product's -0.0
    linear = Polynomial((complex(1.4, -0.0), complex(1.0, -0.0)))
    turn = Polynomial((complex(-0.0, -0.0), complex(-0.0, 1.0)))
    sqrt2, sqrt7_4 = 1.414213562373095, 1.3228756555322954  # sqrt(2) one ulp low
    cases = [
        # a zero derivative at the start (both signs of zero), roots that
        # converge, a step that wanders past 1e-2, a start whose value
        # overflows into NaN iterates, NaN and infinite starts
        ({1: (q, q.deriv())},
         [(0j, 1), (complex(-0.0, -0.0), 1), (0.9 + 0.01j, 1), (-1.0 + 1e-9j, 1), (1e-3j, 1),
          (1e200, 1), (complex(NAN, 0.0), 1), (complex(INF, 0.0), 1), (complex(0.0, -INF), 1),
          (3.0 + 4.0j, 1)],
         [0j, complex(-0.0, -0.0), 0.9 + 0.01j, -1.0 + 0j, 1e-3j, 1e200 + 0j,
          complex(NAN, 0.0), complex(INF, 0.0), complex(0.0, -INF), 3.0 + 4.0j]),
        # two multiplicity classes, interleaved, against their own derivatives
        ({1: (p, p.deriv()), 3: (p.deriv().deriv(), p.deriv().deriv().deriv())},
         [(-0.5 + 1.3j, 1), (1.0 + 1e-5j, 3), (-0.5 - 1.3j, 1), (1.0 - 1e-5, 3), (0.2, 1)],
         [complex(-0.5, sqrt7_4), 1.0 + 0j, complex(-0.5, -sqrt7_4), 1.0 + 0j, 0.2 + 0j]),
        # zero imaginary parts of both signs, in coefficients and roots
        ({1: (signed, signed.deriv())},
         [(complex(1.4, -0.0), 1), (complex(-1.4, 0.0), 1), (complex(1.5, 0.0), 1),
          (complex(-1.5, -0.0), 1), (complex(0.0, -0.0), 1)],
         [complex(sqrt2, -0.0), complex(-sqrt2, 0.0), complex(1.5, 0.0), complex(-1.5, -0.0),
          complex(0.0, -0.0)]),
        ({1: (linear, linear.deriv())}, [(complex(-1.4, -0.0), 1), (complex(-1.4, 0.0), 1)],
         [complex(-1.4, -0.0), complex(-1.4, 0.0)]),
        ({1: (turn, turn.deriv())}, [(complex(-0.0, 0.0), 1), (complex(0.0, -0.0), 1)],
         [complex(0.0, 0.0), complex(0.0, -0.0)]),
        # a step exactly at the stop bound 1e-16 (1 + |z|) stops there
        ({1: (poly(1e-16, 1.0, 1.0), poly(1.0, 2.0))}, [(0j, 1)], [complex(-1e-16, 0.0)]),
        # abs() overflows on a finite step, and on a finite derivative value
        ({1: (poly(huge, 1.0), poly(1.0))}, [(1.0, 1), (0j, 1)], OVERFLOW),
        ({1: (poly(0.0, huge), poly(huge))}, [(1.0, 1)], OVERFLOW),
    ]
    for chain, found, want in cases:
        if want is not OVERFLOW:
            want = _bits([(w, m) for w, (_, m) in zip(want, found)])
        assert _outcome(_scalar_polish, chain, found) == want, found


def test_multiplicity_estimate_edge_cases():
    unit = [1.0 + 0j, 0j, 1.0 + 0j]  # z^2 + 1
    tilted = [2.0 + 2.0j, 0j, 1.0 + 0j]
    double = [1.0 + 0j, -2.0 + 0j, 1.0 + 0j]  # (z - 1)^2
    tiny = 1e-170  # p'(z)^2 underflows to 0 while |p'(z)| > 0: estimate 1
    big = complex(0.75e308, 0.75e308)  # abs() of p'(z) = 2z overflows
    cases = [
        (unit, [1j + 1e-9, -1j, 0.5, complex(-0.0, -0.0), 0j, 1e200, 1e154,
                complex(NAN, 0.0), complex(INF, 1.0), complex(0.0, -INF)], [1] * 10),
        (double, [1.0 + 1e-8j, 1.0 - 1e-8, 1.0, 3.0], [1, 1, 1, 2]),
        ([complex(-2.0, -0.0), complex(0.0, -0.0), complex(1.0, -0.0)],
         [complex(1.4, -0.0), complex(-1.4, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0)],
         [1, 1, 1, 1]),
        (unit, [0.5, tiny], [1, 1]),
        (unit, [0.5, tiny, big], OVERFLOW),
        (unit, [0.5, big, tiny], OVERFLOW),
        (tilted, [0.5, 7.461626139128733e-155], OVERFLOW),  # abs(1 - p p'' / p'^2) overflows
    ]
    for cs, points, want in cases:
        assert _outcome(fatou.sphere._mult_estimates, cs, points) == want, points


def test_residual_check_edge_cases():
    q = poly(-1.0, 0.0, 1.0)
    huge = poly(0.0, complex(1e308, 1e308))

    def failed(text, out):
        return "RootFindingError", text, [(r.real.hex(), r.imag.hex()) for r, _ in out]
    first = [(complex(NAN, 0.0), 1), (-1.0, 1), (0.5, 2), (1.0 + 1e-3, 1), (2.0, 1)]
    cases = [
        (q, first, failed("root residual 0.002 above 2e-10 at 1.001", first)),
        (q, [(-1.0, 1), (1.0, 1)], None),
        # a failing root before abs(p(r)) overflows
        (huge, [(1e-300, 1), (1.3, 1)],
         failed("root residual 1.41e+08 above 0.0141 at 1e-300", [(1e-300, 1), (1.3, 1)])),
        (huge, [(1.3, 1), (1e-300, 1)], OVERFLOW),
        (poly(1.0, 1e-300), [(complex(1.5e308, 1.5e308), 2)], OVERFLOW),  # abs(r) overflows
        # sum |a_k| |r|^k below 1e-300 counts as 1e-300
        (poly(-1e-305, 0.0, 1e-305), [(1.0 - 1e-6, 1), (complex(-1.0, -0.0), 1)], None),
    ]
    for p, out, want in cases:
        assert _outcome(fatou.sphere._check_residuals, p, out) == want, out


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
