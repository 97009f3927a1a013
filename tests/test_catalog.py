import numpy as np
import pytest

import fatou.catalog

from fatou.catalog import (
    ALIASES,
    CATALOG_NAMES,
    FAMILY_MAX_DEGREE,
    SELECTORS,
    by_name,
    hom_compose,
    paper_g,
    pseudo_basilica,
    pseudo_rabbit_condition,
    pseudo_rabbit_map,
    pseudo_rabbit_roots,
    solve_pinch_params,
)
from fatou.orbits import critical_portrait, detect_cycle
from fatou.ratmap import Polynomial, eval_sphere, normalize
from fatou.sphere import SpherePoint


def _cross_identity_error(f, g, rng, n=20):
    # |p_f q_g - p_g q_f| at random points, normalized; zero iff same map
    worst = 0.0
    for _ in range(n):
        z = complex(rng.normal(), rng.normal())
        lhs = f.num(z) * g.den(z)
        rhs = g.num(z) * f.den(z)
        scale = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def test_names_resolve_with_expected_degrees():
    degrees = {
        "paper-g": 3,
        "paper-degree4": 4,
        "pseudo-basilica:2": 2,
        "pseudo-basilica:3": 3,
        "pseudo-basilica:4": 4,
        "pseudo-rabbit:3:0": 3,
    }
    assert set(SELECTORS) == set(degrees) == set(CATALOG_NAMES) | set(ALIASES)
    for name in SELECTORS:
        assert by_name(name).degree == degrees[name]


def _coefficients(name):
    """The map's coefficients as bytes, so equal means equal bit for bit."""
    f = by_name(name)
    return tuple(np.array(p.coeffs, dtype=complex).tobytes() for p in (f.num, f.den))


def test_no_two_catalog_names_are_one_map():
    # a map the catalog lists twice would run twice in every consumer of
    # CATALOG_NAMES; a second name for a map belongs in ALIASES
    maps = {}
    for name in CATALOG_NAMES:
        maps.setdefault(_coefficients(name), []).append(name)
    assert [names for names in maps.values() if len(names) > 1] == []


def test_each_alias_is_its_map_bit_for_bit():
    assert set(ALIASES.values()) <= set(CATALOG_NAMES)
    assert not set(ALIASES) & set(CATALOG_NAMES)
    for alias, name in ALIASES.items():
        assert _coefficients(alias) == _coefficients(name), alias


def test_by_name_unknown():
    with pytest.raises(KeyError):
        by_name("does-not-exist")
    with pytest.raises(KeyError):
        by_name("pseudo-basilica:x")
    with pytest.raises(KeyError):
        by_name("pseudo-basilica:1")  # family starts at degree 2
    with pytest.raises(KeyError):
        by_name("pseudo-rabbit:3:99")


def test_family_selectors_extend_past_the_listed_names():
    # the enumerated names are the curated subset; the family selector
    # itself accepts any valid degree
    f = by_name("pseudo-basilica:7")
    assert f.degree == 7


def test_paper_g_matches_displayed_formula():
    # (z + 2)(z - 1)^2 / (1.5 z - 1), expanded by hand
    shown = normalize(Polynomial((2.0, -3.0, 0.0, 1.0)),
                      Polynomial((-1.0, 1.5)))
    rng = np.random.default_rng(871)
    assert _cross_identity_error(paper_g(), shown, rng) < 1e-12
    assert paper_g().degree == 3


def test_paper_degree4_matches_displayed_formula():
    # 3 (z - 1)^3 (z + 3) / (3 - 8 z + 6 z^2), expanded by hand
    shown = normalize(Polynomial((-9.0, 24.0, -18.0, 0.0, 3.0)),
                      Polynomial((3.0, -8.0, 6.0)))
    rng = np.random.default_rng(872)
    assert _cross_identity_error(by_name("paper-degree4"), shown, rng) < 1e-12


def test_family_two_cycle_through_zero():
    for d in range(2, FAMILY_MAX_DEGREE + 1):
        f = pseudo_basilica(d)
        assert f.degree == d
        rep = detect_cycle(f, 0.0)
        assert rep.period == 2
        assert rep.preperiod == 0
        assert rep.classification == "superattracting"
        partner = [p for p in rep.cycle if p.chordal(SpherePoint(0.0, 1.0)) > 1e-9]
        assert len(partner) == 1
        assert abs(partner[0].to_complex() - (1.0 - d)) < 1e-9


def test_family_critical_structure():
    for d in range(2, FAMILY_MAX_DEGREE + 1):
        port = critical_portrait(pseudo_basilica(d))
        crit = {("inf" if c.point.is_infinity
                 else round(c.point.to_complex().real, 6)): c.local_degree
                for c in port.critical_points}
        want = {0.0: d, "inf": 2}
        if d > 2:
            want[1.0] = d - 1
        assert crit == want
        assert port.critically_finite is True
        assert port.hyperbolic is True
        assert port.all_postcritical_periodic is True


def test_degree_two_member_behaves_like_quadratic_two_cycle():
    # smallest family member: critical orbit 0 <-> -1, same combinatorics
    # as the quadratic with a superattracting two-cycle
    f = pseudo_basilica(2)
    port = critical_portrait(f)
    post = {"inf" if p.is_infinity else round(p.to_complex().real, 9)
            for p in port.postcritical}
    assert post == {0.0, -1.0, "inf"}


def test_rabbit_condition_roots():
    cond = pseudo_rabbit_condition(3)
    assert cond.degree == 12
    roots = pseudo_rabbit_roots(3)
    assert len(roots) == 8
    # sorted by (re, im)
    assert roots == sorted(roots, key=lambda r: (r.real, r.imag))
    # the catalog's target parameter appears, with its conjugate
    target = 1.347810384779 + 1.028852254137j
    assert min(abs(r - target) for r in roots) < 1e-9
    assert min(abs(r - target.conjugate()) for r in roots) < 1e-9
    # r = 0 solves the raw condition but makes 0 fixed, so it is excluded
    assert all(abs(r) > 1e-8 for r in roots)


def test_rabbit_parameters_make_zero_preperiodic():
    for r in pseudo_rabbit_roots(3):
        g = pseudo_rabbit_map(3, r)
        x = SpherePoint(0.0, 1.0)
        first = eval_sphere(g, x)
        assert first.chordal(x) > 1e-6  # not fixed
        y = first
        for _ in range(2):
            y = eval_sphere(g, y)
        assert y.chordal(x) < 1e-8  # third iterate returns to 0


def test_rabbit_catalog_selector_picks_indexed_root():
    picked = by_name("pseudo-rabbit:3:0")
    built = pseudo_rabbit_map(3, pseudo_rabbit_roots(3)[0])
    rng = np.random.default_rng(873)
    assert _cross_identity_error(picked, built, rng) < 1e-12


def test_rabbit_selector_builds_the_family_pair_once(monkeypatch):
    calls = []
    real = fatou.catalog._family_pair

    def counted(d):
        calls.append(d)
        return real(d)
    monkeypatch.setattr(fatou.catalog, "_family_pair", counted)
    picked = by_name("pseudo-rabbit:3:0")
    assert calls == [3]
    monkeypatch.undo()
    built = pseudo_rabbit_map(3, pseudo_rabbit_roots(3)[0])
    assert picked.num.coeffs == built.num.coeffs
    assert picked.den.coeffs == built.den.coeffs


def test_pinch_parameters_are_unique():
    sol = solve_pinch_params()
    assert abs(sol.a - 1.5) < 1e-12
    c = sol.denominator.coeffs
    assert len(c) == 2
    assert abs(c[1] / c[0] + 1.5) < 1e-12
    assert max(abs(r) for r in sol.residuals) < 1e-12
    # the solved denominator reproduces the catalog map
    rebuilt = normalize(Polynomial((2.0, -3.0, 0.0, 1.0)), sol.denominator)
    rng = np.random.default_rng(874)
    assert _cross_identity_error(rebuilt, paper_g(), rng) < 1e-12


def test_hom_compose_hand_case():
    # (z + 1)^2 + z^2 as a degree-2 homogeneous substitution
    outer = Polynomial((1.0, 0.0, 1.0))
    u = Polynomial((0.0, 1.0))
    v = Polynomial((1.0, 1.0))
    got = hom_compose(outer, u, v, 2)
    assert np.allclose(got.coeffs, (1.0, 2.0, 2.0))


def test_catalog_maps_are_fresh_instances():
    a = by_name("paper-g")
    b = by_name("paper-g")
    assert a.num.coeffs == b.num.coeffs
    assert a.den.coeffs == b.den.coeffs
