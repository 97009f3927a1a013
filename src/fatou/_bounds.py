"""Bounds on a rational map over discs, with one rounding allowance, and
the two certificates built on them, each tried on one ladder of radii: the
escape disc of basins (contraction) and the landing discs of rays (the
argument principle on the disc's rim)."""

from __future__ import annotations

import cmath
import functools
import math
import operator
import sys

import numpy as np

from .ratmap import RationalMap

# A disc about z is tried at the radii (1 + |z|) DISC_LADDER^(-j),
# j = 0 .. DISC_RUNGS - 1, largest first (down to about 1e-9 (1 + |z|)).
DISC_LADDER = 1.05
DISC_RUNGS = 425
_UP, _DOWN = 1.0 + 1e-9, 1.0 - 1e-9  # cover the rounding of the bounds' own arithmetic


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """The polynomial with ascending coeffs at each x."""
    acc = np.zeros_like(x)
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def _taylor(coeffs, c) -> list:
    """The coefficients of p(c + h) in h, ascending, for the polynomial p with
    ascending coeffs, by repeated synthetic division."""
    a = list(coeffs)
    for j in range(len(a) - 1):
        for i in range(len(a) - 2, j - 1, -1):
            a[i] += c * a[i + 1]
    return a


class _LocalBound:
    """Bounds on f over the discs |x - z| <= r, from its Taylor coefficients at z.

    With N, D the numerator and denominator (padded to degree d), P = N - w D
    and W = N' D - N D', f - w = P / D and f' = W / D^2. On the disc |P| and
    |W - W(z)| are at most the sums of their coefficients' moduli times r^j,
    |D - D(z)| likewise, and |D| >= |D(z)| - that. So bounds(r) gives
    |f(x) - w| <= image and |f'(x)| <= H = |W(z) / D(z)^2| + deviation,
    deviation bounding |f'(x) - W(z) / D(z)^2|; both are inf where the lower
    bound on |D| is not positive.

    Rounding: the shifts, the products and the convolution are repeated on
    the coefficients' moduli at |z|, and each coefficient is widened by
    16 (d + 2) eps times its twin there, which bounds the rounding of a sum
    of at most 2d + 2 rounded complex terms (Higham, *Accuracy and Stability
    of Numerical Algorithms*, §3.1 and §3.6).
    """

    def __init__(self, f: RationalMap, z: complex, w: complex):
        (num, den), d = f.pair, f.degree
        n, q = np.array(_taylor(num, z)), np.array(_taylor(den, z))
        na = np.array(_taylor([abs(c) for c in num], abs(z)))
        qa = np.array(_taylor([abs(c) for c in den], abs(z)))
        j = np.arange(1, d + 1)
        wr = np.convolve(j * n[1:], q) - np.convolve(n, j * q[1:])
        wa = np.convolve(j * na[1:], qa) + np.convolve(na, j * qa[1:])
        slack = 16 * (d + 2) * sys.float_info.epsilon
        self.p = np.abs(n - w * q) + slack * (na + abs(w) * qa)
        self.q = np.abs(q) + slack * qa
        self.w = np.abs(wr) + slack * wa
        self.q0, self.w0 = abs(q[0]), abs(wr[0])
        self.q0_slack, self.w0_slack = slack * qa[0], slack * wa[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.slope = self.w0 / (self.q0 * self.q0)

    def bounds(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # elementwise real products and sums round alike on every SIMD target
        with np.errstate(all="ignore"):  # inf radii and poles give inf or nan, refused later
            dq = self.q0_slack + r * _horner(self.q[1:], r)
            dw = self.w0_slack + r * _horner(self.w[1:], r)
            low = self.q0 - dq * _UP
            image = _horner(self.p, r) / low
            spread = self.w0 * dq * (2.0 * self.q0 + dq) / (self.q0 * self.q0)
            deviation = (dw + spread) / (low * low)
            good = low > 0
            return (np.where(good, image * _UP, np.inf),
                    self.slope + np.where(good, deviation * _UP, np.inf))


# by Python's pow, so the rungs have the same bits whatever numpy dispatches to
_RUNGS = np.array([DISC_LADDER ** -j for j in range(DISC_RUNGS)])


def _ladder(z: complex) -> np.ndarray:
    return (1.0 + abs(z)) * _RUNGS


def _walk(f: RationalMap, path: list, end: complex, r: np.ndarray) -> tuple[list, list]:
    """Carries the radii r about z_0 = path[0] through the steps z_i ->
    z_(i+1) of path, the last one aimed at end, one _LocalBound each: f maps
    D(z_i, r_i) into D(z_(i+1), r_(i+1)), r_(i+1) = image(r_i), and there
    |f'| <= H_i. Returns the radii about every point of path and about end,
    and the H_i."""
    radii, highs = [r], []
    for z, w in zip(path, [*path[1:], end]):
        r, high = _LocalBound(f, z, w).bounds(r)
        radii.append(r)
        highs.append(high)
    return radii, highs


# The rim test (_rim) reads a disc's boundary circle at a power of two of
# points, from RIM_POINTS to RIM_MAX_POINTS. _rim_disc picks the rung to
# prove by a pre-check of RIM_POINTS points on each of _RIM_SCAN rungs at a
# time, every _RIM_STRIDE-th, and proves the largest whose slack fits in
# RIM_GOAL_POINTS points before any that needs more.
RIM_POINTS = 32
RIM_GOAL_POINTS = 512
RIM_MAX_POINTS = 8192
_RIM_STRIDE = 2
_RIM_SCAN = 24
_RIM_TRIES = 3  # proofs tried per disc
_EPS = sys.float_info.epsilon


@functools.cache
def _roots_of_unity() -> np.ndarray:
    """The RIM_MAX_POINTS-th roots of unity counterclockwise from 1: math.cos
    and math.sin on the first quadrant, and exact quarter turns for the
    rest, so they have the same bits whatever numpy dispatches to."""
    turn = [2.0 * math.pi * k / RIM_MAX_POINTS for k in range(RIM_MAX_POINTS // 4)]
    first = np.array([complex(math.cos(t), math.sin(t)) for t in turn])
    return np.concatenate((first, 1j * first, -first, -1j * first))


def _rim_points(n: int) -> np.ndarray:
    """The n-th roots of unity, n a power of two up to RIM_MAX_POINTS."""
    if not (0 < n <= RIM_MAX_POINTS and RIM_MAX_POINTS % n == 0):
        raise ValueError(f"rim of {n} points: not a power of two up to {RIM_MAX_POINTS}")
    return _roots_of_unity()[::RIM_MAX_POINTS // n]


def _winding(y: np.ndarray, w: complex) -> int:
    """The turns about w of the closed polygon y; 0 where it is not finite."""
    v = y - w
    with np.errstate(all="ignore"):
        turns = (np.angle(v[1:] / v[:-1]).sum() + cmath.phase(v[0] / v[-1])) / (2.0 * math.pi)
    return round(turns) if math.isfinite(turns) else 0


def _rounding(z: complex, r):
    """A bound on the distance of each computed rim point of D(z, r) from
    the circle: the roots of unity, the product by r and the sum with z."""
    return 16 * _EPS * (abs(z) + r)


def _image(f: RationalMap, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f at each x, and its denominator there."""
    num, den = f.pair
    q = _horner(den, x)
    return _horner(num, x) / q, q


def _rim(f: RationalMap, path: list, end: complex, r: float, cover: float, n: int,
         walk: tuple | None = None) -> bool:
    """Whether every point of D(end, cover) has exactly one preimage in
    D = D(path[0], r) under g = f^j, j = len(path), carried along path to
    end, by the argument principle on n points of the boundary circle.

    The walk (_walk, from (r + delta) _UP, delta the _rounding of the rim
    points) bounds |f'| by H_i on the disc about path[i], and g' by
    L = prod H_i on D; L is finite only where no disc holds a pole. Each
    point of the circle lies within pi r / n + delta of a rim point x_k, so
    g moves it by at most s = L (pi r / n + delta) from g(x_k). The x_k are
    carried through f with a bound E on the rounding: each step's numerator
    and denominator err by at most 16 (d + 2) eps times their eval_abs at
    max |x| (the allowance of _LocalBound), plus the quotient's rounding,
    plus H_i times the error carried in, which holds while every x stays in
    the disc about path[i]. The test passes when n >= 4 L, every image y_k
    has |y_k - end| > cover + s + 2 E, and the polygon of the y_k winds once
    about end. Then the image of each arc of the circle and the polygon's
    edge between its ends lie in two overlapping discs about g(x_k) and
    g(x_(k+1)) that miss D(end, cover), so for each w there g(circle)
    winds once about w, and g - w has one zero in D."""
    delta = _rounding(path[0], r)
    if walk is None:
        walk = _walk(f, path, end, np.array([(r + delta) * _UP]))
    radii, highs = walk
    bound = float(functools.reduce(operator.mul, highs)[0])
    if not 4.0 * bound <= n:  # also refuses an infinite or nan bound
        return False
    slack = 16 * (f.degree + 2) * _EPS
    x, err = path[0] + r * _rim_points(n), 0.0
    size = (abs(path[0]) + r) * _UP  # max |x|
    with np.errstate(all="ignore"):
        for i, (z, high) in enumerate(zip(path, highs)):
            if i and not (float(np.abs(x - z).max()) + err) * _UP <= float(radii[i][0]) * _DOWN:
                return False
            dp, dq = (slack * p.eval_abs(size) for p in (f.num, f.den))
            x, q = _image(f, x)
            size, low = float(np.abs(x).max()), float(np.abs(q).min()) - dq * _UP
            if not low > 0.0:
                return False
            err = ((dp + size * dq) / low + 16 * _EPS * size + float(high[0]) * err) * _UP
        spread = bound * (math.pi * r / n + delta)
        clear = float(np.abs(x - end).min()) * _DOWN > (cover + spread + 2.0 * err) * _UP
    return clear and _winding(x, end) == 1


def _rim_disc(f: RationalMap, path: list, end: complex | None = None,
              cover: float | None = None) -> float:
    """A rung r of the ladder about z = path[0] for which _rim proves
    D(z, r), else 0.0: with end None, g = f^j carried around the cycle path
    back to z must cover D(z, r) itself; otherwise g carried along path to
    end must cover D(end, cover).

    Rungs are taken from the largest whose bound L on g' is finite and at
    most RIM_MAX_POINTS / 4, _RIM_SCAN at a time, every _RIM_STRIDE-th. A
    rung passes the pre-check when its RIM_POINTS images clear the disc to
    cover by m > 0 and wind once; the proof then wants about 2 pi L r / m
    points, so that the slack s is at most half of m. Tried in order: the
    passing rungs that want at most RIM_GOAL_POINTS, largest first, then
    the others by the points they want, up to RIM_MAX_POINTS; at most
    _RIM_TRIES proofs."""
    z = path[0]
    end = z if end is None else end
    rungs = _ladder(z)
    radii, highs = _walk(f, path, end, (rungs + _rounding(z, rungs)) * _UP)
    with np.errstate(over="ignore"):  # an infinite bound is not usable below
        bound = functools.reduce(operator.mul, highs)
    usable = np.flatnonzero(4.0 * bound <= RIM_MAX_POINTS)[::_RIM_STRIDE]
    unit = _rim_points(RIM_POINTS)
    tries = 0
    for at in range(0, len(usable), _RIM_SCAN):
        idx = usable[at:at + _RIM_SCAN]
        r = rungs[idx]
        big = r if cover is None else np.full_like(r, cover)
        x = z + r[:, None] * unit
        with np.errstate(all="ignore"):
            for _ in path:
                x = _image(f, x)[0]
            gap = np.abs(x - end).min(axis=1) - big
            want = 2.0 * math.pi * bound[idx] * r / gap
        # the rungs that want at most RIM_GOAL_POINTS, largest first, then the
        # others by the points they want
        goal = want <= RIM_GOAL_POINTS
        rest = np.flatnonzero((gap > 0.0) & ~goal)
        for k in [*np.flatnonzero((gap > 0.0) & goal), *rest[np.argsort(want[rest])]]:
            n = 1 << math.ceil(math.log2(max(want[k], 4.0 * bound[idx[k]], RIM_POINTS)))
            if n > RIM_MAX_POINTS:
                break
            if _winding(x[k], end) != 1:
                continue
            walk = [a[idx[k]:idx[k] + 1] for a in radii], [h[idx[k]:idx[k] + 1] for h in highs]
            if _rim(f, path, end, float(r[k]), float(big[k]), n, walk):
                return float(r[k])
            tries += 1
            if tries == _RIM_TRIES:
                return 0.0
    return 0.0
