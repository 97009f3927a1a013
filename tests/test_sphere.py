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
