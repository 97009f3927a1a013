"""Riemann sphere points, dense complex polynomials, and simultaneous root finding.

Everything downstream (critical points, fibers, periodic points) reduces to
polynomial root extraction with correct multiplicities, so the root finder here
is the load-bearing wall: Aberth-Ehrlich iteration with deterministic circle
initialization, cluster-based multiplicity detection, and a Newton polish of
each cluster against the appropriate derivative.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# |w| below this (after max-modulus normalization) counts as the point at infinity.
_INF_TOL = 1e-11
# Root finding: coefficients at most ZERO_TOL times the largest are trimmed at
# the top and deflated as roots at the origin; an Aberth iterate stops at
# backward error STOP_TOL within MAX_ITER sweeps; a root is kept at ROOT_TOL.
ZERO_TOL = 1e-14
STOP_TOL = 1e-13
ROOT_TOL = 1e-10
MAX_ITER = 600
COPRIME_TOL = 1e-10  # least over largest Sylvester singular value of a coprime pair


class ParameterError(ValueError):
    """An argument outside the range a function accepts, raised before any
    work. names holds the parameters, spelled as the command-line flags with
    underscores for dashes, and message what they accept."""

    def __init__(self, names, message: str):
        self.names = (names,) if isinstance(names, str) else tuple(names)
        self.message = message
        super().__init__(f"{'/'.join(self.names)}: {message}")


class RootFindingError(ArithmeticError):
    """Raised when the Aberth iteration fails to converge.

    The best iterate so far is attached as ``best`` so callers can inspect
    how far the solve got.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# sphere points


@dataclass(frozen=True)
class SpherePoint:
    """Point of the Riemann sphere in homogeneous coordinates (z : w).

    Stored max-modulus normalized: max(|z|, |w|) == 1. The point at infinity
    is (1 : 0); finite points with |z| <= 1 are stored as (z : 1) scaled.
    """

    z: complex
    w: complex

    def __post_init__(self):
        z = complex(self.z)
        w = complex(self.w)
        s = max(abs(z), abs(w))
        if s == 0.0 or not math.isfinite(s):
            raise ValueError(f"invalid homogeneous pair ({self.z!r}, {self.w!r})")
        object.__setattr__(self, "z", z / s)
        object.__setattr__(self, "w", w / s)

    @classmethod
    def of(cls, z: complex) -> "SpherePoint":
        z = complex(z)
        if cmath.isinf(z):
            return cls.infinity()
        return cls(z, 1.0)

    @classmethod
    def infinity(cls) -> "SpherePoint":
        return cls(1.0, 0.0)

    @property
    def is_infinity(self) -> bool:
        return abs(self.w) < _INF_TOL

    def to_complex(self) -> complex:
        if self.is_infinity:
            raise ValueError("point at infinity has no finite coordinate")
        return self.z / self.w

    def chordal(self, other: "SpherePoint") -> float:
        """Chordal distance, range [0, 2]."""
        num = 2.0 * abs(self.z * other.w - other.z * self.w)
        n1 = math.hypot(abs(self.z), abs(self.w))
        n2 = math.hypot(abs(other.z), abs(other.w))
        return num / (n1 * n2)

    def __repr__(self):
        if self.is_infinity:
            return "SpherePoint(inf)"
        return f"SpherePoint({self.to_complex():.12g})"


def as_sphere(x) -> SpherePoint:
    """Coerce a complex number or SpherePoint to a SpherePoint."""
    if isinstance(x, SpherePoint):
        return x
    return SpherePoint.of(x)


def chordal(a, b) -> float:
    return as_sphere(a).chordal(as_sphere(b))


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with complex coefficients, ascending degree order.

    Trailing (highest-degree) exact zeros are stripped on construction; the
    zero polynomial has empty coefficients and degree -1.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = [complex(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def eval_abs(self, r: float) -> float:
        """sum |a_k| r^k, the natural scale for backward-error tests."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * r + abs(c)
        return acc

    def deriv(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Polynomial(tuple(out))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial(())
            conv = np.convolve(np.asarray(self.coeffs), np.asarray(other.coeffs))
            return Polynomial(tuple(conv))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s: complex) -> "Polynomial":
        return Polynomial(tuple(s * c for c in self.coeffs))

    def pow(self, n: int) -> "Polynomial":
        out = Polynomial((1.0,))
        for _ in range(n):
            out = out * self
        return out

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def trimmed(self, rel_tol: float = 1e-12) -> "Polynomial":
        """Strip high-order coefficients that are tiny relative to the largest."""
        scale = self.max_abs_coeff()
        if scale == 0.0:
            return Polynomial(())
        cs = list(self.coeffs)
        while cs and abs(cs[-1]) <= rel_tol * scale:
            cs.pop()
        return Polynomial(tuple(cs))

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        terms = ", ".join(f"{c:.6g}" for c in self.coeffs)
        return f"Polynomial([{terms}])"


def poly(*coeffs) -> Polynomial:
    """Convenience constructor, ascending coefficients."""
    return Polynomial(tuple(coeffs))


def hom_compose(outer: Polynomial, u: Polynomial, v: Polynomial, n: int) -> Polynomial:
    """sum a_k u^k v^(n-k) for outer = sum a_k z^k, homogenized to degree n."""
    if n < outer.degree:
        raise ValueError("homogenization degree below outer degree")
    u_pow = [Polynomial((1.0,))]
    v_pow = [Polynomial((1.0,))]
    for _ in range(n):
        u_pow.append(u_pow[-1] * u)
        v_pow.append(v_pow[-1] * v)
    acc = Polynomial(())
    for k, a in enumerate(outer.coeffs):
        if a != 0:
            acc = acc + (u_pow[k] * v_pow[n - k]).scale(a)
    return acc


def _sylvester(p: Polynomial, q: Polynomial) -> np.ndarray:
    m, n = p.degree, q.degree
    s = np.zeros((m + n, m + n), dtype=complex)
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(n):
        s[i, i:i + m + 1] = pc
    for i in range(m):
        s[n + i, i:i + n + 1] = qc
    return s


def coprime(p: Polynomial, q: Polynomial) -> bool:
    """Approximate coprimality by the numerical rank of the Sylvester matrix.

    A common factor makes the matrix rank-deficient, so the test compares the
    smallest singular value against the largest. The determinant itself is a
    bad signal here: its Hadamard bound outgrows honest resultants by orders
    of magnitude once the degrees reach the double digits.
    """
    m, n = p.degree, q.degree
    if m <= 0 or n <= 0:
        return not (p.is_zero or q.is_zero)
    sv = np.linalg.svd(_sylvester(p, q), compute_uv=False)
    if sv[0] == 0.0:
        return False
    return sv[-1] > COPRIME_TOL * sv[0]


# ---------------------------------------------------------------------------
# root finding


def _initial_guesses(a: np.ndarray) -> np.ndarray:
    """Starting points on circles whose radii come from the upper convex hull
    of (k, log|a_k|).

    One circle per hull edge, radius (|a_{k1}|/|a_{k2}|)^(1/(k2-k1)), which
    tracks the moduli of the root groups. A single bounding circle fails badly
    when the coefficient range spans many orders of magnitude (high iterates):
    its radius is astronomically large and evaluation overflows.
    """
    n = len(a) - 1
    # math, not numpy, transcendentals: numpy's SIMD log and exp round
    # differently per CPU target, and the start points seed every root
    logs = [math.log(m) if m > 0.0 else -math.inf for m in np.abs(a).tolist()]
    hull = [0]
    for k in range(1, n + 1):
        if not math.isfinite(logs[k]):
            continue
        while len(hull) >= 2:
            k1, k2 = hull[-2], hull[-1]
            if (logs[k] - logs[k1]) * (k2 - k1) >= (logs[k2] - logs[k1]) * (k - k1):
                hull.pop()
            else:
                break
        hull.append(k)
    z = np.empty(n, dtype=complex)
    pos = 0
    for i in range(len(hull) - 1):
        k1, k2 = hull[i], hull[i + 1]
        m = k2 - k1
        r = math.exp((logs[k1] - logs[k2]) / m)
        ang = 2.0 * math.pi * (np.arange(m) + 0.5) / m + 0.45 + 0.3 * i
        z[pos:pos + m] = [r * cmath.exp(1j * t) for t in ang.tolist()]
        pos += m
    return z


def _horner_rows(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row k of c (ascending coefficients) evaluated at every entry of row k
    of x; a 1-D c is one row, for a 1-D x. Rows of one coefficient (the
    derivative of a linear polynomial) come back as that constant, which
    broadcasts against x."""
    acc = c[..., -1:]
    for k in range(c.shape[-1] - 2, -1, -1):
        acc = acc * x + c[..., k:k + 1]
    return acc


def _aberth(coeffs: np.ndarray) -> np.ndarray:
    """Simultaneous root iteration for a polynomial with nonzero constant term.

    coeffs ascending, length n+1, monic not required. Deterministic: fixed
    initialization from the coefficient Newton polygon with fixed angular
    offsets.
    """
    n = len(coeffs) - 1
    a = coeffs / coeffs[-1]
    da = np.arange(1, n + 1) * a[1:]
    z = _initial_guesses(a)
    aa = np.abs(a)
    converged = np.zeros(n, dtype=bool)
    # an overflowing iterate is pulled inward, and the final test rejects one
    # left non-finite, so the warnings of both are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_ITER):
            pv = _horner_rows(a, z)
            bad = ~np.isfinite(pv)
            if bad.any():
                # evaluation overflowed: those iterates rocketed out, pull inward
                z = np.where(bad, 0.5 * z, z)
                continue
            scale = _horner_rows(aa, np.abs(z)).real
            converged = converged | (np.abs(pv) <= STOP_TOL * scale)
            if converged.all():
                return z
            dv = _horner_rows(da, z)
            dv = np.where(np.abs(dv) < 1e-300, 1e-300 + 0j, dv)
            newton = pv / dv
            diff = z[:, None] - z[None, :]
            diff.ravel()[::n + 1] = np.inf  # the diagonal
            s = (1.0 / diff).sum(axis=1)
            denom = 1.0 - newton * s
            denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
            step = newton / denom
            step = np.where(np.isfinite(step), step, newton)
            cap = 1.0 + np.abs(z)
            mag = np.abs(step)
            step = np.where(mag > cap, step * (cap / np.where(mag > 0, mag, 1.0)), step)
            z = np.where(converged, z, z - step)
        # Accept a looser backward error before giving up; multiple roots stall
        # the per-point test even though the cluster centroid is fine.
        pv = _horner_rows(a, z)
        scale = _horner_rows(aa, np.abs(z)).real
        if np.all(np.abs(pv) <= 1e-8 * scale):
            return z
    raise RootFindingError("Aberth iteration did not converge", best=z)


def _mult_estimates(cs: Sequence[complex], points: Sequence[complex]) -> list[int]:
    """Local multiplicity estimate 1 / (1 - p p'' / p'^2) at each point.

    Near an m-fold root the ratio p p'' / p'^2 tends to (m-1)/m, so the
    reciprocal tends to m. Tightly converged simple roots give p ~ 0 and the
    estimate collapses to 1, as does a point where p'(z)^2 underflows to 0.
    points are Python complex numbers: numpy complex scalars divide
    differently and warn.
    """
    p = Polynomial(tuple(cs))
    dp = p.deriv()
    ddp = dp.deriv()
    n = max(p.degree, 1)
    out = []
    for z in points:
        est = 1
        dv = dp(z)
        if abs(dv) > 0.0 and dv * dv:
            denom = 1.0 - (p(z) * ddp(z)) / (dv * dv)
            if abs(denom) > 1e-3:
                m = (1.0 / denom).real
                if math.isfinite(m):
                    est = int(min(max(round(m), 1), n))
        out.append(est)
    return out


# Pair distances the first pass of _cluster holds at once: rows per block
# times points. Every degree up to 256 is one all-pairs block.
_PAIR_BLOCK = 1 << 16


def _cluster(points: Sequence[complex],
             ests: Optional[Sequence[int]] = None) -> list[tuple[complex, int]]:
    """Agglomerate finite approximations into (centroid, multiplicity)
    clusters, in the order of their first points.

    The closest pair of clusters merges (the first pair (i, j), i < j, in
    row-major order on a tie) while their centroids sit within
    3 * ROOT_TOL^(1/m) of each other; the stall radius of the iteration near
    an m-fold root scales like ROOT_TOL^(1/m), the factor 3 is slack. m is
    the merged size, or the local multiplicity estimate when both sides agree
    it is larger: the iterates of an m-fold root stall on a circle whose
    radius already reflects m, so a size-based radius alone never starts the
    merge. The first pair that fails the test ends the pass.

    Every live cluster k keeps nn[k], the first other live cluster at the
    least distance dist[k]. The first k whose dist[k] is the least of all is
    the i of the row-major first closest pair, and nn[k] its j: a closest
    partner p < k would have put p first. One blockwise numpy pass finds
    every nn[k] (np.hypot rounds as abs() of a complex number does). A merge
    into i compares the new centroid with every live cluster, O(n) work:
    a cluster takes i when i is nearer than its neighbour, or as near and
    not after it. Only a cluster whose neighbour was i or j and that the new
    centroid left farther away is rescanned. Centroids and thresholds are
    Python scalars, as the merge rule defines them.
    """
    z = np.asarray(points, dtype=complex)
    cen = z.tolist()
    n = len(cen)
    if n < 2:
        return [(c, 1) for c in cen]
    mult = [1] * n
    est = [1] * n if ests is None else [int(e) for e in ests]
    nn: list[int] = []
    step = max(1, _PAIR_BLOCK // n)
    for s in range(0, n, step):
        dz = z[s:s + step, None] - z
        d = np.hypot(dz.real, dz.imag)
        d.ravel()[s::n + 1] = np.inf  # the diagonal: no cluster is its own neighbour
        nn += d.argmin(axis=1).tolist()
    dist = [abs(cen[k] - cen[j]) for k, j in enumerate(nn)]
    order = list(range(n))  # live clusters, ascending
    for _ in range(n - 1):
        d = min(dist)
        i = dist.index(d)
        j = nn[i]
        m = mult[i] + mult[j]
        m_eff = max(m, min(est[i], est[j]))
        local = 1.0 + max(abs(cen[i]), abs(cen[j]))
        if not d <= 3.0 * (ROOT_TOL ** (1.0 / m_eff)) * local:
            break
        ci = cen[i] = (cen[i] * mult[i] + cen[j] * mult[j]) / m
        mult[i], est[i] = m, max(est[i], est[j])
        order.remove(j)
        dist[j] = math.inf
        stale = []
        nn[i], dist[i] = -1, math.inf
        for k in order:
            if k == i:
                continue
            dk = abs(cen[k] - ci)
            if dk < dist[i]:
                nn[i], dist[i] = k, dk
            if dk < dist[k] or (dk == dist[k] and i <= nn[k]):
                nn[k], dist[k] = i, dk
            elif nn[k] == i or nn[k] == j:
                stale.append(k)
        for k in stale:
            ck = cen[k]
            ds = [abs(ck - cen[c]) if c != k else math.inf for c in order]
            dist[k] = min(ds)
            nn[k] = order[ds.index(dist[k])]
    return [(cen[k], mult[k]) for k in order]


def _polish(q: Polynomial, dq: Polynomial, root: complex) -> complex:
    """Newton-polish a root of multiplicity m against q, the (m-1)th
    derivative of the polynomial, with dq its derivative.

    The polish stops before the first step that is not under half the step
    before it: a step that no longer halves means the iteration has reached
    its rounding floor, or converges only linearly, and more steps would
    only bounce there."""
    z = root
    last = math.inf
    for _ in range(30):
        qv = q(z)
        dv = dq(z)
        if abs(dv) == 0.0:
            break
        step = qv / dv
        size = abs(step)
        if size >= 0.5 * last:
            break
        z_new = z - step
        if size <= 1e-16 * (1.0 + abs(z)):
            z = z_new
            break
        z, last = z_new, size
    # keep the polished value only if it did not wander off
    return z if abs(z - root) <= 1e-2 * (1.0 + abs(root)) else root


def _check_residuals(p: Polynomial, out: list[tuple[complex, int]]) -> None:
    """Backward-error acceptance: |p(r)| small relative to sum |a_k| |r|^k.
    Raises on the first simple root in the order of out that fails."""
    for r, m in out:
        res = abs(p(r))
        bound = ROOT_TOL * max(p.eval_abs(abs(r)), 1e-300)
        if res > bound and m == 1:
            raise RootFindingError(f"root residual {res:.3g} above {bound:.3g} at {r:.6g}",
                                   best=[r for r, _ in out])


def poly_roots(p: Polynomial) -> list[tuple[complex, int]]:
    """All roots of p with multiplicities; multiplicities sum to deg(p).

    Deterministic. Raises RootFindingError on non-convergence, and
    ValueError for a non-finite coefficient or degree < 1.
    """
    if not all(cmath.isfinite(c) for c in p.coeffs):
        raise ValueError("coefficients must be finite")
    work = p.trimmed(ZERO_TOL)
    if work.degree < 1:
        raise ValueError("root extraction needs degree >= 1")
    scale = work.max_abs_coeff()
    cs = [c / scale for c in work.coeffs]
    # deflate roots at the origin exactly: leading ascending near-zeros
    k0 = 0
    while k0 < len(cs) - 1 and abs(cs[k0]) <= ZERO_TOL:
        k0 += 1
    cs = cs[k0:]
    found: list[tuple[complex, int]] = []
    if len(cs) > 1:
        approx = _aberth(np.asarray(cs, dtype=complex))
        found.extend(_cluster(approx, _mult_estimates(cs, approx.tolist())))
    if k0:
        found.append((0j, k0))
        found = _cluster([r for r, m in found for _ in range(m)])
    # the (m-1)th derivative and the mth for each multiplicity m, built once
    # along one chain p, p', p'', ... that keeps only the pairs in use
    chain = {}
    q, dq, k = p, p.deriv(), 1
    for m in sorted({m for _, m in found}):
        while k < m:
            q, dq, k = dq, dq.deriv(), k + 1
        chain[m] = q, dq
    out = [(_polish(*chain[m], r), m) for r, m in found]
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    _check_residuals(p, out)
    assert sum(m for _, m in out) == work.degree
    return out


# ---------------------------------------------------------------------------
# Moebius transforms


@dataclass(frozen=True)
class MoebiusTransform:
    """z -> (a z + b) / (c z + d), determinant bounded away from zero."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for f in ("a", "b", "c", "d"):
            object.__setattr__(self, f, complex(getattr(self, f)))
        det = self.a * self.d - self.b * self.c
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if scale == 0.0 or abs(det) <= 1e-12 * scale * scale:
            raise ValueError("Moebius transform is singular")

    @classmethod
    def inversion(cls) -> "MoebiusTransform":
        return cls(0.0, 1.0, 1.0, 0.0)

    def inverse(self) -> "MoebiusTransform":
        return MoebiusTransform(self.d, -self.b, -self.c, self.a)

    def apply(self, x) -> SpherePoint:
        pt = as_sphere(x)
        return SpherePoint(self.a * pt.z + self.b * pt.w,
                           self.c * pt.z + self.d * pt.w)


def moebius_conjugate(f_num: Polynomial, f_den: Polynomial,
                      m: MoebiusTransform) -> tuple[Polynomial, Polynomial]:
    """Numerator/denominator of m o f o m^{-1}.

    The common homogenizing factor cancels, so the result is the raw
    conjugated pair; callers normalize if they need coprimality.
    """
    inv = m.inverse()
    u = Polynomial((inv.b, inv.a))
    v = Polynomial((inv.d, inv.c))
    n = max(f_num.degree, f_den.degree)
    n1 = hom_compose(f_num, u, v, n)
    n2 = hom_compose(f_den, u, v, n)
    num = n1.scale(m.a) + n2.scale(m.b)
    den = n1.scale(m.c) + n2.scale(m.d)
    return num, den
