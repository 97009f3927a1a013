"""Rational maps on the sphere: evaluation, critical points, preimages, iteration."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sphere import (ROOT_TOL, STOP_TOL, ZERO_TOL, ParameterError, Polynomial,
                     SpherePoint, MoebiusTransform, _horner_rows, as_sphere, coprime, hom_compose,
                     moebius_conjugate, poly_roots)

COMPOSE_DEGREE_BOUND = 4096
LEAD_TRIM = 1e-12  # top coefficients this small (relative) stand for roots at infinity


@dataclass(frozen=True)
class CriticalPoint:
    point: SpherePoint
    local_degree: int


@dataclass(frozen=True)
class RationalMap:
    """f = num/den in lowest terms, degree = max(deg num, deg den) >= 2.

    Build through normalize(); the raw constructor trusts its inputs.
    """

    num: Polynomial
    den: Polynomial

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    @cached_property
    def pair(self) -> tuple[tuple, tuple]:
        """num and den padded to d + 1 coefficients (a, b), ascending: the
        homogeneous pair P = sum a_k z^k w^(d-k), Q = sum b_k z^k w^(d-k)."""
        n = self.degree + 1
        return tuple(p.coeffs + (0j,) * (n - len(p.coeffs)) for p in (self.num, self.den))

    @cached_property
    def real(self) -> bool:
        """Whether every coefficient has imaginary part exactly 0, so that f
        commutes with conjugation."""
        return all(c.imag == 0.0 for p in (self.num, self.den) for c in p.coeffs)

    def __call__(self, x) -> SpherePoint:
        return eval_sphere(self, x)

    def wronskian(self) -> Polynomial:
        return self.num.deriv() * self.den - self.num * self.den.deriv()

    def conjugate_by(self, m: MoebiusTransform) -> "RationalMap":
        n, d = moebius_conjugate(self.num, self.den, m)
        return normalize(n, d)

    def __repr__(self):
        return f"RationalMap(num={self.num!r}, den={self.den!r})"


def _cancel_common_roots(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide out shared roots, matched within a chordal-scale tolerance.

    Explicit root matching is the deciding evidence for coprimality: rank
    tests on the Sylvester matrix go blind past degree ten or so, where the
    nearest non-coprime coefficient vector sits within double precision of
    honest input. Returns the inputs untouched when nothing matches.
    """
    rn = poly_roots(num) if num.degree >= 1 else []
    rd = poly_roots(den) if den.degree >= 1 else []
    used = [False] * len(rn)
    keep_den = []
    total_cancelled = 0
    for r, m in rd:
        cancelled = 0
        for i, (s, ms) in enumerate(rn):
            if used[i]:
                continue
            if abs(r - s) <= 1e-8 * (1.0 + abs(r)):
                k = min(m, ms)
                rn[i] = (s, ms - k)
                used[i] = ms - k == 0
                cancelled = k
                break
        total_cancelled += cancelled
        if m - cancelled > 0:
            keep_den.append((r, m - cancelled))
    if total_cancelled == 0:
        return num, den
    keep_num = [(r, m) for r, m in rn if m > 0]

    def rebuild(lead: complex, roots) -> Polynomial:
        out = Polynomial((lead,))
        for r, m in roots:
            factor = Polynomial((-r, 1.0))
            for _ in range(m):
                out = out * factor
        return out

    lead_n = num.coeffs[-1] if not num.is_zero else 0j
    lead_d = den.coeffs[-1] if not den.is_zero else 0j
    return rebuild(lead_n, keep_num), rebuild(lead_d, keep_den)


def normalize(raw_num: Polynomial, raw_den: Polynomial) -> RationalMap:
    """Reduce to lowest terms and validate; rejects non-finite coefficients
    and maps of degree < 2."""
    if not all(cmath.isfinite(c) for c in raw_num.coeffs + raw_den.coeffs):
        raise ValueError("coefficients must be finite")
    num = raw_num.trimmed(ZERO_TOL)
    den = raw_den.trimmed(ZERO_TOL)
    if num.is_zero or den.is_zero:
        raise ValueError("numerator and denominator must both be nonzero")
    deg = max(num.degree, den.degree)
    if deg < 2:
        trim = ("" if deg == max(raw_num.degree, raw_den.degree) else
                f" after dropping coefficients at most {ZERO_TOL:g} times the largest")
        raise ValueError(f"map has degree {deg}{trim}; need >= 2")
    if not coprime(num, den):
        # rank test is suspicious; root matching settles it either way
        num, den = _cancel_common_roots(num, den)
    # scale jointly so the largest coefficient has modulus near 1; powers of
    # two keep binary-exact coefficients exact
    scale = 2.0 ** round(math.log2(max(num.max_abs_coeff(), den.max_abs_coeff())))
    num = num.scale(1.0 / scale)
    den = den.scale(1.0 / scale)
    deg = max(num.degree, den.degree)
    if deg < 2:
        raise ValueError(f"map has degree {deg} after cancellation; need >= 2")
    return RationalMap(num, den)


def from_coeffs(num, den) -> RationalMap:
    return normalize(Polynomial(tuple(num)), Polynomial(tuple(den)))


def eval_sphere(f: RationalMap, x) -> SpherePoint:
    """Total evaluation: poles go to infinity, infinity through the other chart.

    Horner on the pair (P, Q) in whichever affine chart the input lies in:
    (P, Q)(t, 1) with t = z/w when |t| <= 1, else (P, Q)(1, t) with t = w/z.
    """
    pt = as_sphere(x)
    a, b = f.pair
    if abs(pt.w) >= abs(pt.z):
        t, a, b = pt.z / pt.w, reversed(a), reversed(b)
    else:
        t = pt.w / pt.z
    pv = qv = 0j
    for c in a:
        pv = pv * t + c
    for c in b:
        qv = qv * t + c
    if pv == 0 and qv == 0:
        raise ArithmeticError("indeterminate evaluation; map not in lowest terms")
    return SpherePoint(pv, qv)


def hom_eval(f: RationalMap, z, w, partials: bool = False):
    """(P, Q) at (z, w) by homogeneous Horner, P and Q the homogenizations of
    num and den to degree d; with partials, (P, Q, P_z, P_w, Q_z, Q_w).

    z and w are complex scalars or numpy arrays of one shape; the same body
    serves both. Unlike eval_sphere this neither normalizes nor picks a chart.
    The accumulators start as scalars, so their first augmented assignment
    makes a fresh array and the later ones update it in place: z and w are
    never written, and a step allocates only its coefficient terms.
    """
    d = f.degree
    a, b = f.pair
    p, q, wk = a[d], b[d], 1.0  # wk = w^(d-k) after step k
    pz = pw = qz = qw = 0j
    for k in range(d - 1, -1, -1):
        if partials:
            # d/dz and d/dw of acc*z + c*w^(d-k), with wk still w^(d-k-1)
            pz *= z
            pz += p
            pw *= z
            pw += (d - k) * a[k] * wk
            qz *= z
            qz += q
            qw *= z
            qw += (d - k) * b[k] * wk
        wk *= w
        p *= z
        p += a[k] * wk
        q *= z
        q += b[k] * wk
    return (p, q, pz, pw, qz, qw) if partials else (p, q)


def iterate_degree(d: int, n: int) -> int:
    """d^n for d >= 2, multiplied up only as far as COMPOSE_DEGREE_BOUND (at
    most 12 steps, whatever n is); raises ParameterError, under the name
    period, past the bound."""
    dn = 1
    for _ in range(n):
        dn *= d
        if dn > COMPOSE_DEGREE_BOUND:
            raise ParameterError("period", f"degree {d}^{n} exceeds bound {COMPOSE_DEGREE_BOUND}")
    return dn


def compose_self(f: RationalMap, n: int) -> RationalMap:
    """The n-th iterate as an explicit map, coefficients rescaled each step to
    keep magnitudes tame. Degree d^n capped at 4096.

    An iterate of a coprime pair is coprime (a common root would map to 0 and
    to infinity at once), so the raw constructor applies.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    iterate_degree(f.degree, n)
    num, den = f.num, f.den
    d = f.degree
    for _ in range(n - 1):
        new_num = hom_compose(f.num, num, den, d)
        new_den = hom_compose(f.den, num, den, d)
        scale = max(new_num.max_abs_coeff(), new_den.max_abs_coeff())
        num = new_num.scale(1.0 / scale)
        den = new_den.scale(1.0 / scale)
    return RationalMap(num, den)


def critical_points(f: RationalMap) -> list[CriticalPoint]:
    """Critical points with local degrees; sum of (local_degree - 1) is 2d - 2.

    Finite critical points are the Wronskian roots (a pole of order k shows up
    with multiplicity k - 1 there, which is its correct local degree). In the
    chart s = 1/z the Wronskian of 1/f(1/s) is s^(2d-2) W(1/s), so the order
    of infinity is 2d - 2 minus the degree of W after the LEAD_TRIM trim that
    also decides which finite roots there are.
    """
    d = f.degree
    out: list[CriticalPoint] = []
    w = f.wronskian().trimmed(LEAD_TRIM)
    if w.is_zero:
        raise ValueError("degenerate map: vanishing Wronskian")
    if w.degree >= 1:
        for r, m in poly_roots(w):
            out.append(CriticalPoint(SpherePoint.of(r), m + 1))
    order = 2 * d - 2 - w.degree
    if order >= 1:
        out.append(CriticalPoint(SpherePoint.infinity(), order + 1))
    total = sum(cp.local_degree - 1 for cp in out)
    if total != 2 * d - 2:
        raise ArithmeticError(
            f"critical multiplicities sum to {total}, expected {2 * d - 2}")
    return out


class _Ambiguous(Exception):
    """A fiber point has no clear continuation: pick a branch or refine."""


MATCH_RATIO = 0.5


def nearest(points, guide: complex) -> int:
    """Index of the point nearest guide: the continuation of guide through a
    fiber, shared by ray tracing and curve lifting.

    Raises _Ambiguous unless that distance is at most MATCH_RATIO times the
    runner-up's, or at most 1e-12. Among equal distances the first point wins.
    """
    best, d_best, d_second = 0, math.inf, math.inf
    for i, z in enumerate(points):
        d = abs(z - guide)
        if d < d_best:
            best, d_best, d_second = i, d, d_best
        elif d < d_second:
            d_second = d
    if d_best > MATCH_RATIO * d_second and d_best > 1e-12:
        raise _Ambiguous(f"ambiguous continuation near {guide}")
    return best


def preimages(f: RationalMap, v) -> list[tuple[SpherePoint, int]]:
    """Solutions of f(x) = v with multiplicities summing to deg(f)."""
    target = as_sphere(v)
    d = f.degree
    phi = Polynomial(tuple(target.w * ak - target.z * bk for ak, bk in zip(*f.pair)))
    phi = phi.trimmed(LEAD_TRIM)
    if phi.is_zero:
        raise ArithmeticError("degenerate fiber; map not in lowest terms")
    out: list[tuple[SpherePoint, int]] = []
    if phi.degree >= 1:
        for r, m in poly_roots(phi):
            out.append((SpherePoint.of(r), m))
    inf_mult = d - phi.degree
    if inf_mult > 0:
        out.append((SpherePoint.infinity(), inf_mult))
    assert sum(m for _, m in out) == d
    return out


FIBER_MAX_ITER = 60
# Roots closer than this (relative to 1 + modulus) are left to poly_roots,
# whose cluster radius for a double root is 3e-5.
FIBER_SEPARATION = 1e-3


def _cold_start(mono: np.ndarray) -> np.ndarray:
    """Points on the circle whose radius is the geometric mean of the root
    moduli of each monic row, at the fixed angular offset of poly_roots.
    The power and exp are math scalars, as in sphere._initial_guesses, so the
    start does not depend on numpy's CPU dispatch."""
    d = mono.shape[1] - 1
    r = np.array([x ** (1.0 / d) for x in np.abs(mono[:, 0]).tolist()])
    ang = 2.0 * np.pi * (np.arange(d) + 0.5) / d + 0.45
    return r[:, None] * np.array([cmath.exp(1j * t) for t in ang.tolist()])[None, :]


def fibers(f: RationalMap, targets, warm=None) -> tuple[np.ndarray, np.ndarray]:
    """Finite fibers over many finite targets in one vectorized Aberth run.

    Row k of the (K, d) root array solves num - targets[k] * den = 0 and is
    sorted by (re, im) as poly_roots sorts its roots. certified[k] holds only
    when the row is d simple roots that preimages would also return: the
    leading and constant coefficients survive the trims of preimages and
    poly_roots, every root converged, passes the backward-error test of
    poly_roots after a Newton polish, and stays FIBER_SEPARATION clear of the
    others. Other rows hold unspecified values; solve those with preimages.

    warm, shape (K, d), seeds each row, e.g. with the fiber over a nearby
    target; rows of warm with a non-finite entry start cold.
    """
    z = np.asarray(targets, dtype=complex).reshape(-1)
    d = f.degree
    a, b = np.array(f.pair)
    phi = a[None, :] - z[:, None] * b[None, :]
    mag = np.abs(phi)
    size = mag.max(axis=1)
    ok = np.isfinite(size) & (mag[:, d] > LEAD_TRIM * size) & (mag[:, 0] > ZERO_TOL * size)
    mono = np.where(ok[:, None], phi / np.where(ok, phi[:, d], 1.0)[:, None], 1.0)
    mono_abs = np.abs(mono)
    dmono = mono[:, 1:] * np.arange(1, d + 1)
    if warm is None:
        x = _cold_start(mono)
    else:
        x = np.array(warm, dtype=complex).reshape(len(z), d)
        fresh = ~np.isfinite(x).all(axis=1)
        if fresh.any():
            x[fresh] = _cold_start(mono[fresh])
    diag = np.arange(d)
    with np.errstate(all="ignore"):
        done = np.zeros(x.shape, dtype=bool)
        for _ in range(FIBER_MAX_ITER):
            pv = _horner_rows(mono, x)
            # a non-finite iterate stops too; the residual test rejects it below
            done |= (np.abs(pv) <= STOP_TOL * _horner_rows(mono_abs, np.abs(x))) | ~np.isfinite(pv)
            if done.all():
                break
            newton = pv / _horner_rows(dmono, x)
            diff = x[:, :, None] - x[:, None, :]
            diff[:, diag, diag] = np.inf
            x = np.where(done, x, x - newton / (1.0 - newton * (1.0 / diff).sum(axis=2)))
        x = x - _horner_rows(mono, x) / _horner_rows(dmono, x)
        mod = np.abs(x)
        residual = np.abs(_horner_rows(mono, x))
        gap = np.abs(x[:, :, None] - x[:, None, :])
        gap[:, diag, diag] = np.inf
        ok &= (done.all(axis=1)
               & (residual <= ROOT_TOL * _horner_rows(mono_abs, mod)).all(axis=1)
               & (gap > FIBER_SEPARATION * (1.0 + np.maximum(mod[:, :, None], mod[:, None, :])))
               .all(axis=(1, 2)))
    return np.sort(x, axis=1), ok


# --- serialization ----------------------------------------------------------


def map_to_jsonable(f: RationalMap) -> dict:
    return {
        "num": [[c.real, c.imag] for c in f.num.coeffs],
        "den": [[c.real, c.imag] for c in f.den.coeffs],
    }


def map_from_jsonable(obj: dict) -> RationalMap:
    try:
        num, den = (Polynomial(tuple(complex(re, im) for re, im in obj[key]))
                    for key in ("num", "den"))
        if any(type(x) is bool for key in ("num", "den") for c in obj[key] for x in c):
            raise TypeError("coefficients must be numbers, not booleans")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed map object: {exc}") from None
    return normalize(num, den)
