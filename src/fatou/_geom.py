"""Integer winding numbers and small polyline predicates on complex vertices.

Every predicate is one numpy pass over the whole polyline. Winding is computed
by signed crossing counts, never by summing float angles, so the result is an
exact integer whenever the query point is off the curve.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Candidate edge pairs per vectorized pass of is_simple; bounds the
# temporaries when many bounding boxes meet.
_PAIR_BLOCK = 1 << 16


def _edges(vertices: Sequence[complex]):
    """Coordinates of each edge's start (ax, ay) and end (bx, by); the last
    edge joins the last vertex back to the first."""
    v = np.asarray(vertices, dtype=complex)
    b = np.concatenate((v[1:], v[:1]))
    return v.real, v.imag, b.real, b.imag


def winding_number(vertices: Sequence[complex], p: complex) -> int:
    """Winding of the implicitly closed polyline around p (signed crossings)."""
    ax, ay, bx, by = _edges(vertices)
    p = complex(p)
    left = (bx - ax) * (p.imag - ay) - (p.real - ax) * (by - ay)
    up = (ay <= p.imag) & (by > p.imag) & (left > 0)
    down = (ay > p.imag) & (by <= p.imag) & (left < 0)
    return int(np.count_nonzero(up)) - int(np.count_nonzero(down))


def signed_area(vertices: Sequence[complex]) -> float:
    """Shoelace area; positive for counterclockwise orientation. The terms are
    taken relative to the first vertex, so a small curve far from 0 keeps its
    area instead of cancelling, and summed left to right (a cumulative sum),
    as a scalar loop adds them."""
    v = np.asarray(vertices, dtype=complex)
    ax, ay, bx, by = _edges(v - v[0])
    return 0.5 * float(np.cumsum(ax * by - bx * ay)[-1])


def point_polyline_distance(p: complex, vertices: Sequence[complex]) -> float:
    """Distance from p to the implicitly closed polyline: the least distance
    to the nearest point of each edge, with a zero-length edge standing for
    its start. np.hypot rounds as abs() of a complex number does; the
    squared edge length is a product here where abs(ab) ** 2 calls pow, so
    the two ways can differ in the last bit."""
    ax, ay, bx, by = _edges(vertices)
    p = complex(p)
    ux, uy = bx - ax, by - ay
    px, py = p.real - ax, p.imag - ay
    denom = np.hypot(ux, uy) ** 2
    point = denom == 0.0
    t = np.clip((px * ux + py * uy) / np.where(point, 1.0, denom), 0.0, 1.0)
    t[point] = 0.0
    return float(np.hypot(p.real - (ax + t * ux), p.imag - (ay + t * uy)).min())


def _box_pairs(x0, x1, y0, y1):
    """Blocks of edge pairs (i, j), i < j, whose closed bounding boxes meet.

    Edges are sorted by x0; an edge's x-range meets those of the later edges
    whose x0 is at most its x1, which one searchsorted finds. Those
    candidates are then cut to the ones whose y-ranges meet too.
    """
    n = len(x0)
    order = np.argsort(x0, kind="stable")
    sx0 = x0[order]
    start = np.arange(1, n + 1)
    count = np.maximum(np.searchsorted(sx0, x1[order], side="right") - start, 0)
    total = np.cumsum(count)
    if total[-1] == 0:
        return
    cuts = np.searchsorted(total, np.arange(_PAIR_BLOCK, total[-1], _PAIR_BLOCK), side="left")
    bounds = [0, *(int(c) + 1 for c in cuts), n]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cnt = count[lo:hi]
        first = np.repeat(np.arange(lo, hi), cnt)
        if first.size == 0:
            continue
        offset = np.arange(first.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        ei, ej = order[first], order[start[first] + offset]
        meet = (y0[ei] <= y1[ej]) & (y0[ej] <= y1[ei])
        ei, ej = ei[meet], ej[meet]
        yield np.minimum(ei, ej), np.maximum(ei, ej)


def is_simple(vertices: Sequence[complex]) -> bool:
    """True when no two non-adjacent edges of the closed polyline intersect.

    Exact orientation and touch tests run only on the edge pairs whose
    bounding boxes meet (a crossing or a touch lies in both boxes), in
    blocks of at most _PAIR_BLOCK candidates; adjacent pairs (shared
    endpoints, including the wraparound pair) are masked out.
    """
    n = len(vertices)
    if n < 3:
        return False
    ax, ay, bx, by = _edges(vertices)

    def orient(px, py, qx, qy, rx, ry):
        return (qx - px) * (ry - py) - (rx - px) * (qy - py)

    def on_segment(px, py, qx, qy, rx, ry, d):
        return (d == 0) & (rx <= np.maximum(px, qx)) & (rx >= np.minimum(px, qx)) \
            & (ry <= np.maximum(py, qy)) & (ry >= np.minimum(py, qy))

    boxes = (np.minimum(ax, bx), np.maximum(ax, bx), np.minimum(ay, by), np.maximum(ay, by))
    for i_idx, j_idx in _box_pairs(*boxes):
        keep = (j_idx - i_idx >= 2) & ~((i_idx == 0) & (j_idx == n - 1))
        i_idx, j_idx = i_idx[keep], j_idx[keep]
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
