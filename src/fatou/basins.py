"""Grid classification of superattracting basins, component labeling, rendering.

Cells iterate until they enter a trap disk around a cycle point; the record
keeps which cycle, which point of it (the phase), and after how many steps.
Cells that never resolve within the iteration budget stay first-class
unresolved rather than being guessed.
"""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sphere import SpherePoint, as_sphere
from .ratmap import RationalMap, eval_sphere, hom_eval
from .orbits import CriticalPortrait

DEFAULT_TRAP_RADIUS = 1e-6
# classify_grid iterates the grid in flat tiles of this many cells, so its
# temporaries are a few MB whatever the resolution
TILE_CELLS = 16384
# Bytes per cell that render keeps at its peak, inside label_components: the
# grid's cycle_id, phase and steps (8), the int32 cell numbers and union-find
# parents (8), up to two equal-key edges per cell as int32 endpoint pairs
# (16), and the masks and copies made while the edges are gathered and
# compacted. tracemalloc measures 44 on a one-key 800x600 grid. classify_grid
# adds fixed-size tiles to the grid's 8, and render_ppm about 21 to the grid
# and the labels (12). Component records are one per component, not per
# cell, and come on top.
BYTES_PER_CELL = 64
MAX_GRID_BYTES = 2 ** 31  # for the arrays of one grid
# 33,554,432 cells; labels and union-find indices are int32, so this must
# stay below 2**31 - 1
MAX_CELLS = MAX_GRID_BYTES // BYTES_PER_CELL


@dataclass(frozen=True)
class Bounds:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("empty bounds")
        values = (self.xmin, self.xmax, self.ymin, self.ymax,
                  self.xmax - self.xmin, self.ymax - self.ymin)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("bounds and their spans must be finite")


@dataclass
class BasinGrid:
    """Classification of a rectangular grid of cell centers.

    Row 0 is the top of the image (ymax side); cycle_id -1 marks unresolved
    cells. cycles[i] is the tuple of cycle points for id i, in canonical
    rotation (lexicographically smallest point first, infinity ahead of all
    finite points).
    """

    bounds: Bounds
    width: int
    height: int
    cycles: tuple
    cycle_id: np.ndarray
    phase: np.ndarray
    steps: np.ndarray
    trap_radius: float
    max_iter: int

    def cell_center(self, row: int, col: int) -> complex:
        """The point classify_grid iterated for this cell, bit for bit."""
        return complex(*_center_coords(self.bounds, self.width, self.height, row, col))

    def cell_of(self, point: complex) -> tuple[int, int]:
        dx = (self.bounds.xmax - self.bounds.xmin) / self.width
        dy = (self.bounds.ymax - self.bounds.ymin) / self.height
        col = int(math.floor((point.real - self.bounds.xmin) / dx))
        row = int(math.floor((self.bounds.ymax - point.imag) / dy))
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise ValueError(f"point {point} outside grid bounds")
        return row, col


def _center_coords(bounds: Bounds, width: int, height: int, row, col):
    """(x, y) of cell centres; row and col are ints or index arrays."""
    x = bounds.xmin + (col + 0.5) * (bounds.xmax - bounds.xmin) / width
    y = bounds.ymax - (row + 0.5) * (bounds.ymax - bounds.ymin) / height
    return x, y


def point_key(p: SpherePoint):
    """Canonical order on the sphere: infinity first, then by (re, im)."""
    if p.is_infinity:
        return (0, 0.0, 0.0)
    z = p.to_complex()
    return (1, z.real, z.imag)


def superattracting_cycles(portrait: CriticalPortrait) -> list[tuple]:
    """Distinct superattracting cycles from a portrait, canonically rotated
    and ordered. Raises if the portrait has none."""
    cycles = []
    for rep in portrait.orbits:
        if rep is None or rep.classification != "superattracting":
            continue
        cyc = list(rep.cycle)
        keys = [point_key(p) for p in cyc]
        start = keys.index(min(keys))
        cyc = tuple(cyc[(start + i) % len(cyc)] for i in range(len(cyc)))
        if not any(len(c) == len(cyc) and all(a.chordal(b) < 1e-7 for a, b in zip(c, cyc))
                   for c in cycles):
            cycles.append(cyc)
    if not cycles:
        raise ValueError("portrait has no superattracting cycle")
    cycles.sort(key=lambda c: point_key(c[0]))
    return cycles


def _check_trap_disjoint(cycles, trap_radius: float):
    pts = [p for cyc in cycles for p in cyc]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i].chordal(pts[j]) <= 2.0 * trap_radius:
                raise ValueError("trap disks overlap; reduce trap_radius")


def classify_point(f: RationalMap, cycles, z0, trap_radius: float = DEFAULT_TRAP_RADIUS,
                   max_iter: int = 200) -> Optional[tuple[int, int, int]]:
    """(cycle_id, phase, steps) for one starting point, or None if unresolved."""
    x = as_sphere(z0)
    flat = [(ci, pi, p) for ci, cyc in enumerate(cycles) for pi, p in enumerate(cyc)]
    for n in range(max_iter + 1):
        for ci, pi, p in flat:
            if x.chordal(p) <= trap_radius:
                return ci, pi, n
        if n < max_iter:
            x = eval_sphere(f, x)
    return None


def classify_grid(f: RationalMap, portrait: CriticalPortrait, bounds: Bounds,
                  resolution: tuple[int, int], trap_radius: float = DEFAULT_TRAP_RADIUS,
                  max_iter: int = 200) -> BasinGrid:
    """Classify every cell center of the grid.

    Vectorized over tiles of TILE_CELLS cells in homogeneous coordinates,
    renormalized every step so poles and the point at infinity need no
    special casing. A tile's iterates shrink to its unresolved cells as they
    are trapped. More than MAX_CELLS cells is a ValueError.
    """
    if not (math.isfinite(trap_radius) and trap_radius > 0):
        raise ValueError("trap_radius must be a finite number > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    width, height = resolution
    if width < 1 or height < 1:
        raise ValueError("resolution must be positive")
    if width * height > MAX_CELLS:
        raise ValueError(f"resolution {width}x{height} has {width * height} cells; "
                         f"at most {MAX_CELLS} fit")
    cycles = superattracting_cycles(portrait)
    _check_trap_disjoint(cycles, trap_radius)

    n_cells = width * height
    cycle_id = np.full(n_cells, -1, dtype=np.int16)
    phase = np.full(n_cells, -1, dtype=np.int16)
    steps = np.full(n_cells, -1, dtype=np.int32)
    traps = [(ci, pi, p.z, p.w, math.hypot(abs(p.z), abs(p.w)))
             for ci, cyc in enumerate(cycles) for pi, p in enumerate(cyc)]

    for start in range(0, n_cells, TILE_CELLS):
        cells = np.arange(start, min(start + TILE_CELLS, n_cells))
        x, y = _center_coords(bounds, width, height, *np.divmod(cells, width))
        z = x + 1j * y
        w = np.ones(cells.size, dtype=complex)
        for n in range(max_iter + 1):
            norm = np.hypot(np.abs(z), np.abs(w))
            hit = np.zeros(cells.size, dtype=bool)
            for ci, pi, cz, cw, cn in traps:
                dist = 2.0 * np.abs(z * cw - w * cz) / (norm * cn)
                m = (~hit) & (dist <= trap_radius)
                if m.any():
                    idx = cells[m]
                    cycle_id[idx] = ci
                    phase[idx] = pi
                    steps[idx] = n
                    hit |= m
            if hit.any():
                keep = ~hit
                cells, z, w = cells[keep], z[keep], w[keep]
            if n == max_iter or cells.size == 0:
                break
            # max-modulus normalization keeps every Horner partial sum bounded
            pv, qv = hom_eval(f, z, w)
            s = np.maximum(np.abs(pv), np.abs(qv))
            s[s == 0] = 1.0  # indeterminate cells stay unresolved forever
            z, w = pv / s, qv / s

    return BasinGrid(bounds, width, height, tuple(cycles),
                     cycle_id.reshape(height, width),
                     phase.reshape(height, width),
                     steps.reshape(height, width), trap_radius, max_iter)


# --- component labeling -----------------------------------------------------


@dataclass(frozen=True)
class Component:
    label: int
    cycle_id: int
    phase: int
    representative: complex
    cells: int


@dataclass
class ComponentLabeling:
    grid: BasinGrid
    labels: np.ndarray  # -1 for unresolved cells
    components: tuple


def label_components(grid: BasinGrid) -> ComponentLabeling:
    """4-connected components of constant (cycle_id, phase), numbered in
    row-major order of their first cell, so numbering is deterministic.

    Union-find over the equal-key neighbour edges: every round hooks the
    larger root of each edge to the smaller (np.minimum.at), then pointer
    jumping flattens every tree, and edges inside one tree are dropped. A
    root is the smallest cell of its tree, i.e. the component's first cell.
    """
    h, w = grid.height, grid.width
    cid, ph = grid.cycle_id, grid.phase
    cells = np.arange(h * w, dtype=np.int32)
    idx = cells.reshape(h, w)
    right = (cid[:, :-1] >= 0) & (cid[:, :-1] == cid[:, 1:]) & (ph[:, :-1] == ph[:, 1:])
    down = (cid[:-1] >= 0) & (cid[:-1] == cid[1:]) & (ph[:-1] == ph[1:])
    a = np.concatenate([idx[:, :-1][right], idx[:-1][down]])
    b = np.concatenate([idx[:, 1:][right], idx[1:][down]])
    parent = cells.copy()
    while a.size:  # a < b, both roots
        np.minimum.at(parent, b, a)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        # one array at a time, so the edges are never held twice over
        a = parent[a]
        b = parent[b]
        apart = a != b
        a = a[apart]
        b = b[apart]
        a, b = np.minimum(a, b), np.maximum(a, b)

    flat_cid, flat_ph = cid.ravel(), ph.ravel()
    roots = np.flatnonzero((parent == cells) & (flat_cid >= 0))
    rank = np.full(h * w, -1, dtype=np.int32)
    rank[roots] = np.arange(roots.size, dtype=np.int32)
    labels = rank[parent]  # unresolved cells are their own, unranked, roots
    counts = np.bincount(labels[labels >= 0], minlength=roots.size)
    xs, ys = _center_coords(grid.bounds, w, h, *np.divmod(roots, w))
    comps = tuple(Component(k, ci, pi, complex(x, y), n) for k, (ci, pi, x, y, n) in
                  enumerate(zip(flat_cid[roots].tolist(), flat_ph[roots].tolist(),
                                xs.tolist(), ys.tolist(), counts.tolist())))
    return ComponentLabeling(grid, labels.reshape(h, w), comps)


def component_of(labeling: ComponentLabeling, point: complex) -> Component:
    """Component containing the cell under a point; errors for out-of-bounds
    or unresolved cells. This is a pixel query, not an analytic membership test."""
    row, col = labeling.grid.cell_of(complex(point))
    lab = int(labeling.labels[row, col])
    if lab < 0:
        raise ValueError(f"cell under {point} is unresolved")
    return labeling.components[lab]


# --- rendering --------------------------------------------------------------


def default_palette(grid: BasinGrid) -> dict:
    """Deterministic color per (cycle_id, phase); golden-angle hue walk."""
    palette = {}
    i = 0
    for ci, cyc in enumerate(grid.cycles):
        for pi in range(len(cyc)):
            hue = (0.13 + 0.61803398875 * i) % 1.0
            r, g, b = colorsys.hsv_to_rgb(hue, 0.58, 0.96)
            palette[(ci, pi)] = (round(r * 255), round(g * 255), round(b * 255))
            i += 1
    return palette


def render_ppm(grid: BasinGrid) -> bytes:
    """Binary PPM (P6) image of the grid in default_palette; unresolved cells
    are black. Byte-for-byte deterministic for a given grid.
    """
    n_cycles = len(grid.cycles)
    max_phase = max(len(c) for c in grid.cycles)
    lut = np.zeros((n_cycles + 1, max_phase, 3), dtype=np.uint8)
    for (ci, pi), rgb in default_palette(grid).items():
        lut[ci + 1, pi] = rgb
    cid = np.clip(grid.cycle_id.astype(np.int32) + 1, 0, n_cycles)
    ph = np.clip(grid.phase.astype(np.int32), 0, max_phase - 1)
    img = lut[cid, ph]
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + img.tobytes()
