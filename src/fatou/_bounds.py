"""Bounds on a rational map over discs, with one rounding allowance: the
certificate of the landing discs of rays (expansion) and of the escape disc
of basins (contraction), each tried on one ladder of radii."""

from __future__ import annotations

import sys

import numpy as np

from .ratmap import RationalMap

# A disc about z is tried at the radii (1 + |z|) DISC_LADDER^(-j),
# j = 0 .. DISC_RUNGS - 1, largest first (down to about 1e-9 (1 + |z|)).
DISC_LADDER = 1.05
DISC_RUNGS = 425
_UP, _DOWN = 1.0 + 1e-9, 1.0 - 1e-9  # cover the rounding of the bounds' own arithmetic


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
    |f(x) - w| <= image and |f'(x) - W(z) / D(z)^2| <= deviation, both inf
    where the lower bound on |D| is not positive; slope is |W(z) / D(z)^2|.

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
        def horner(coeffs):  # elementwise products and sums round alike on every SIMD target
            acc = np.zeros_like(r)
            for c in coeffs[::-1]:
                acc = acc * r + c
            return acc
        with np.errstate(all="ignore"):  # inf radii and poles give inf or nan, refused later
            dq = self.q0_slack + r * horner(self.q[1:])
            dw = self.w0_slack + r * horner(self.w[1:])
            low = self.q0 - dq * _UP
            image = horner(self.p) / low
            spread = self.w0 * dq * (2.0 * self.q0 + dq) / (self.q0 * self.q0)
            deviation = (dw + spread) / (low * low)
            good = low > 0
            return (np.where(good, image * _UP, np.inf),
                    np.where(good, deviation * _UP, np.inf))


# by Python's pow, so the rungs have the same bits whatever numpy dispatches to
_RUNGS = np.array([DISC_LADDER ** -j for j in range(DISC_RUNGS)])


def _ladder(z: complex) -> np.ndarray:
    return (1.0 + abs(z)) * _RUNGS


def _walk(f: RationalMap, cycle: list, r: np.ndarray, end: complex | None = None) -> tuple:
    """Carries the radii r about z_0 through the steps z_i -> z_(i+1) of
    cycle, the last one aimed at end (z_0 when None, closing the cycle): f
    maps D(z_i, r_i) into D(z_(i+1), r_(i+1)), r_(i+1) = image(r_i), and
    there |f' - a_i| <= A_i, a_i the chain rule's factor at z_i
    (_LocalBound). Returns the radii about end, c = prod |a_i|, and lower
    and upper bounds prod max(|a_i| _DOWN - A_i, 0) and prod(|a_i| + A_i)
    on |(f^p)'| over D(z_0, r)."""
    c, low, high = 1.0, np.ones_like(r), np.ones_like(r)
    for zi, wi in zip(cycle, [*cycle[1:], cycle[0] if end is None else end]):
        local = _LocalBound(f, zi, wi)
        r, deviation = local.bounds(r)
        c *= local.slope
        low = low * np.maximum(local.slope * _DOWN - deviation, 0.0)
        high = high * (local.slope + deviation)
    return r, c, low, high
