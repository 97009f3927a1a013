"""Named example maps and the parameter solves that produce them.

The degree-d family is built by composing three exact-integer pieces:

    M(z) = (z - 1)/z
    p_d(z) = (d - 1) z^d - d z^(d-1) + 1
    N_d(z) = (1 - d)(z - 1)/z

The composite N_d(p_d(M(z))) has small integer coefficients, so the family is
assembled symbolically and normalized exactly once at the end. It fixes
infinity with local degree d - 1, sends 1 to 0 with local degree d - 1 there
collapsing, and carries the superattracting two-cycle 0 <-> (1 - d).
"""

from __future__ import annotations

from dataclasses import dataclass

from .sphere import ParameterError, Polynomial, hom_compose, poly_roots
from .ratmap import RationalMap, eval_sphere, critical_points, normalize

# From degree 8 on, poly_roots merges the critical points 0 and 1 of the
# family member (local degrees d and d - 1) into one wrong point.
FAMILY_MAX_DEGREE = 7
# From degree 7 on, poly_roots fails on the rabbit condition polynomial
# (degree d(d + 1), 56 at d = 7) with a RootFindingError.
RABBIT_MAX_DEGREE = 6


def _family_pair(d: int) -> tuple[Polynomial, Polynomial]:
    """Integer numerator/denominator of the degree-d family member; a degree
    outside 2..FAMILY_MAX_DEGREE raises ParameterError."""
    if not 2 <= d <= FAMILY_MAX_DEGREE:
        raise ParameterError("degree", f"must be between 2 and {FAMILY_MAX_DEGREE}")
    # p_d coefficients ascending: 1, 0, ..., 0, -d, d-1
    p_d = Polynomial(tuple([1.0] + [0.0] * (d - 2) + [float(-d), float(d - 1)]))
    u = Polynomial((-1.0, 1.0))  # z - 1
    v = Polynomial((0.0, 1.0))  # z
    inner = hom_compose(p_d, u, v, d)  # p_d(M(z)) over z^d
    z_d = v.pow(d)
    # N_d(A/B) = (1 - d)(A - B)/A
    num = (inner - z_d).scale(float(1 - d))
    den = inner
    return num, den


def pseudo_basilica(d: int) -> RationalMap:
    """Degree-d map with a superattracting two-cycle through 0 and 1 - d."""
    num, den = _family_pair(d)
    return normalize(num, den)


def pseudo_rabbit_condition(d: int = 3) -> Polynomial:
    """Polynomial in r whose roots make 0 strictly preperiodic into itself
    after three steps of g_r = (r/(d-1)) * family_d.

    Derivation with exact coefficients: g_r(0) = -r always, so the condition
    g_r^3(0) = 0 becomes num(z2) = 0 for z2 = r * num(-r) / ((d-1) den(-r)),
    with num/den the integer family pair. Clearing denominators gives the
    returned polynomial in r.
    """
    return _rabbit_condition(_family_pair(d), d)


def _rabbit_condition(pair, d: int) -> Polynomial:
    num, den = pair

    def at_neg(p: Polynomial) -> Polynomial:
        return Polynomial(tuple(c * (-1.0) ** k for k, c in enumerate(p.coeffs)))

    a = Polynomial((0.0, 1.0)) * at_neg(num)  # r * num(-r)
    b = at_neg(den.scale(float(d - 1)))
    # num(a/b) cleared: sum c_k a^k b^(deg num - k)
    return hom_compose(num, a, b, num.degree)


def pseudo_rabbit_roots(d: int = 3) -> list[complex]:
    """Parameters r with g_r^3(0) = 0 and g_r(0) != 0, sorted by (re, im).

    Each candidate root of the cleared condition polynomial is validated
    against the actual orbit of 0 before being accepted. A degree past
    RABBIT_MAX_DEGREE raises ParameterError before the solve.
    """
    return _rabbit_roots(_rabbit_pair(d), d)


def _rabbit_pair(d: int) -> tuple[Polynomial, Polynomial]:
    """The family pair the rabbit parameters are solved from. A degree the
    family takes but past RABBIT_MAX_DEGREE raises ParameterError before
    anything is composed; others outside the family, _family_pair's."""
    if RABBIT_MAX_DEGREE < d <= FAMILY_MAX_DEGREE:
        raise ParameterError("degree", f"must be at most {RABBIT_MAX_DEGREE} for pseudo-rabbit: "
                             f"its condition polynomial, of degree {d * (d + 1)}, "
                             f"is past what poly_roots solves")
    return _family_pair(d)


def _rabbit_roots(pair, d: int) -> list[complex]:
    roots = []
    for r, _ in poly_roots(_rabbit_condition(pair, d)):
        if abs(r) < 1e-6:
            continue  # g_r(0) = -r must be nonzero
        g = _rabbit_map(pair, d, r)
        x = eval_sphere(g, 0.0)
        if x.is_infinity or abs(x.to_complex()) < 1e-6:
            continue
        y = eval_sphere(g, eval_sphere(g, x))
        if y.is_infinity or abs(y.to_complex()) > 1e-6:
            continue
        roots.append(r)
    roots.sort(key=lambda z: (z.real, z.imag))
    return roots


def pseudo_rabbit_map(d: int, r: complex) -> RationalMap:
    return _rabbit_map(_family_pair(d), d, r)


def _rabbit_map(pair, d: int, r: complex) -> RationalMap:
    """g_r from the family pair of degree d, which the callers build once."""
    num, den = pair
    return normalize(num.scale(complex(r)), den.scale(float(d - 1)))


@dataclass(frozen=True)
class PinchSolution:
    a: complex
    denominator: Polynomial
    residuals: tuple  # (|g'(0)|, |g''(0)|, |g(g(0))|)


def solve_pinch_params() -> PinchSolution:
    """Solve for a, b in g(z) = (z - 1)^2 (z + 2) / (a z - b).

    Conditions: g'(0) = g''(0) = 0 (local degree three at the origin) and
    g(g(0)) = 0 (the critical value returns to the origin). The derivative
    conditions reduce to 3b = 2a since the second one holds identically.
    g(g(0)) = 0 leaves two candidates, b in {1, -2}; the branch where g(0)
    collides with the critical point 1 is discarded, because the target
    combinatorics needs the image of 0 to be a regular point.
    """
    num = Polynomial((2.0, -3.0, 0.0, 1.0))  # (z-1)^2 (z+2)
    survivors = []
    for w, _ in poly_roots(num):  # candidates for g(0) among roots of num
        b = -2.0 / w
        a = 1.5 * b
        den = Polynomial((-b, a))
        g = normalize(num, den)
        # residuals of the defining conditions
        wr = g.wronskian()
        g1 = abs(wr(0.0) / g.den(0.0) ** 2)
        g2 = abs((wr.deriv()(0.0) * g.den(0.0) - 2.0 * wr(0.0) * g.den.deriv()(0.0))
                 / g.den(0.0) ** 3)
        v = eval_sphere(g, 0.0)
        gg0 = eval_sphere(g, v)
        g3 = 2.0 if gg0.is_infinity else abs(gg0.to_complex())
        if max(g1, g2, g3) > 1e-8:
            continue
        crit = [c.point for c in critical_points(g)]
        if any(v.chordal(c) < 1e-6 for c in crit):
            continue  # image of 0 must be a regular point
        survivors.append(PinchSolution(complex(a), den, (g1, g2, g3)))
    if len(survivors) != 1:
        raise ArithmeticError(f"expected a unique parameter pair, got {len(survivors)}")
    return survivors[0]


# --- named catalog ----------------------------------------------------------


def paper_g() -> RationalMap:
    """(z + 2)(z - 1)^2 / (1.5 z - 1), the main degree-3 example."""
    return pseudo_basilica(3)


# Each distinct map once, under the paper's name where it has one.
CATALOG_NAMES = ("paper-g", "paper-degree4", "pseudo-basilica:2", "pseudo-rabbit:3:0")
# Family selectors that name a catalog map: the paper's two maps are the
# pseudo-basilica members of degrees 3 and 4, coefficients bit for bit.
# paper-degree4, the degree-4 sibling, is 3 (z - 1)^3 (z + 3) / (3 - 8 z + 6 z^2).
ALIASES = {"pseudo-basilica:3": "paper-g", "pseudo-basilica:4": "paper-degree4"}
# Every selector `fatou catalog` lists: the paper's names, then the family
# selectors in order, the aliases among them.
SELECTORS = CATALOG_NAMES[:2] + tuple(sorted(CATALOG_NAMES[2:] + tuple(ALIASES)))
_FAMILY_SELECTORS = {name: alias for alias, name in ALIASES.items()}


def by_name(name: str) -> RationalMap:
    """Resolve a catalog selector; raises KeyError on unknown names."""
    parts = _FAMILY_SELECTORS.get(name, name).split(":")
    try:
        if parts[0] == "pseudo-basilica" and len(parts) == 2:
            return pseudo_basilica(int(parts[1]))
        if parts[0] == "pseudo-rabbit" and len(parts) == 3:
            d = int(parts[1])
            pair = _rabbit_pair(d)
            roots = _rabbit_roots(pair, d)
            idx = int(parts[2])
            if not 0 <= idx < len(roots):
                raise KeyError(f"root index {idx} out of range (have {len(roots)})")
            return _rabbit_map(pair, d, roots[idx])
    except ValueError as exc:
        # malformed or out-of-family selectors are name errors to callers
        raise KeyError(f"bad catalog selector {name!r}: {exc}") from exc
    raise KeyError(f"unknown catalog map {name!r}")
