"""Integer winding numbers and small polyline predicates on complex vertices.

Winding is computed by signed crossing counts, never by summing float angles,
so the result is an exact integer whenever the query point is off the curve.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _is_left(a: complex, b: complex, p: complex) -> float:
    """> 0 if p is left of the directed segment a -> b."""
    return (b.real - a.real) * (p.imag - a.imag) - (p.real - a.real) * (b.imag - a.imag)


def winding_number(vertices: Sequence[complex], p: complex) -> int:
    """Winding of the implicitly closed polyline around p (signed crossings)."""
    w = 0
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        if a.imag <= p.imag:
            if b.imag > p.imag and _is_left(a, b, p) > 0:
                w += 1
        elif b.imag <= p.imag and _is_left(a, b, p) < 0:
            w -= 1
    return w


def signed_area(vertices: Sequence[complex]) -> float:
    """Shoelace area; positive for counterclockwise orientation."""
    acc = 0.0
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        acc += a.real * b.imag - b.real * a.imag
    return 0.5 * acc


def point_segment_distance(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


def point_polyline_distance(p: complex, vertices: Sequence[complex]) -> float:
    """Distance from p to the implicitly closed polyline."""
    n = len(vertices)
    best = math.inf
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        best = min(best, point_segment_distance(p, a, b))
    return best


_PAIR_BLOCK = 4096  # edge pairs per vectorized pass; bounds the temporaries


def is_simple(vertices: Sequence[complex]) -> bool:
    """True when no two non-adjacent edges of the closed polyline intersect.

    Vectorized orientation tests over blocks of edge pairs, so memory stays
    bounded for long curves; adjacency (shared endpoints, including the
    wraparound pair) is masked out.
    """
    n = len(vertices)
    if n < 3:
        return False
    v = np.asarray(vertices, dtype=complex)
    a = v
    b = np.roll(v, -1)
    ax, ay = a.real, a.imag
    bx, by = b.real, b.imag

    def orient(px, py, qx, qy, rx, ry):
        return (qx - px) * (ry - py) - (rx - px) * (qy - py)

    def on_segment(px, py, qx, qy, rx, ry, d):
        return (d == 0) & (rx <= np.maximum(px, qx)) & (rx >= np.minimum(px, qx)) \
            & (ry <= np.maximum(py, qy)) & (ry >= np.minimum(py, qy))

    cols = np.arange(n)
    rows = max(1, _PAIR_BLOCK // n)
    for lo in range(0, n - 2, rows):
        # pair (i, j): edges i < j; mask |i - j| <= 1 mod n
        ii = np.arange(lo, min(lo + rows, n - 2))[:, None]
        i_idx, j_idx = np.nonzero((cols >= ii + 2) & ~((ii == 0) & (cols == n - 1)))
        i_idx += lo
        d1 = orient(ax[i_idx], ay[i_idx], bx[i_idx], by[i_idx], ax[j_idx], ay[j_idx])
        d2 = orient(ax[i_idx], ay[i_idx], bx[i_idx], by[i_idx], bx[j_idx], by[j_idx])
        d3 = orient(ax[j_idx], ay[j_idx], bx[j_idx], by[j_idx], ax[i_idx], ay[i_idx])
        d4 = orient(ax[j_idx], ay[j_idx], bx[j_idx], by[j_idx], bx[i_idx], by[i_idx])
        crossing = (d1 * d2 < 0) & (d3 * d4 < 0)
        if bool(crossing.any()):
            return False
        touch = on_segment(ax[i_idx], ay[i_idx], bx[i_idx], by[i_idx], ax[j_idx], ay[j_idx], d1) \
            | on_segment(ax[i_idx], ay[i_idx], bx[i_idx], by[i_idx], bx[j_idx], by[j_idx], d2) \
            | on_segment(ax[j_idx], ay[j_idx], bx[j_idx], by[j_idx], ax[i_idx], ay[i_idx], d3) \
            | on_segment(ax[j_idx], ay[j_idx], bx[j_idx], by[j_idx], bx[i_idx], by[i_idx], d4)
        if bool(touch.any()):
            return False
    return True
