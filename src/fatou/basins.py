"""Grid classification of superattracting basins, component labeling, rendering.

Cells iterate until they enter a trap disk around a cycle point; the record
keeps which cycle, which point of it (the phase), and after how many steps.
Cells that never resolve within the iteration budget stay first-class
unresolved rather than being guessed.
"""

from __future__ import annotations

import colorsys
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sphere import SpherePoint, as_sphere
from .ratmap import RationalMap, eval_sphere, hom_eval
from .orbits import CriticalPortrait

DEFAULT_TRAP_RADIUS = 1e-6


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
        dx = (self.bounds.xmax - self.bounds.xmin) / self.width
        dy = (self.bounds.ymax - self.bounds.ymin) / self.height
        return complex(self.bounds.xmin + (col + 0.5) * dx,
                       self.bounds.ymax - (row + 0.5) * dy)

    def cell_of(self, point: complex) -> tuple[int, int]:
        dx = (self.bounds.xmax - self.bounds.xmin) / self.width
        dy = (self.bounds.ymax - self.bounds.ymin) / self.height
        col = int(math.floor((point.real - self.bounds.xmin) / dx))
        row = int(math.floor((self.bounds.ymax - point.imag) / dy))
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise ValueError(f"point {point} outside grid bounds")
        return row, col


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

    Vectorized over the whole grid in homogeneous coordinates, renormalized
    every step so poles and the point at infinity need no special casing.
    """
    if not (math.isfinite(trap_radius) and trap_radius > 0):
        raise ValueError("trap_radius must be a finite number > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    width, height = resolution
    if width < 1 or height < 1:
        raise ValueError("resolution must be positive")
    cycles = superattracting_cycles(portrait)
    _check_trap_disjoint(cycles, trap_radius)

    xs = bounds.xmin + (np.arange(width) + 0.5) * (bounds.xmax - bounds.xmin) / width
    ys = bounds.ymax - (np.arange(height) + 0.5) * (bounds.ymax - bounds.ymin) / height
    zz = (xs[None, :] + 1j * ys[:, None]).ravel()

    n_cells = zz.size
    z = zz.astype(complex)
    w = np.ones(n_cells, dtype=complex)
    cycle_id = np.full(n_cells, -1, dtype=np.int16)
    phase = np.full(n_cells, -1, dtype=np.int16)
    steps = np.full(n_cells, -1, dtype=np.int32)
    active = np.arange(n_cells)

    flat_traps = [(ci, pi, p.z, p.w) for ci, cyc in enumerate(cycles)
                  for pi, p in enumerate(cyc)]

    for n in range(max_iter + 1):
        if active.size == 0:
            break
        za, wa = z[active], w[active]
        norm = np.hypot(np.abs(za), np.abs(wa))
        hit = np.zeros(active.size, dtype=bool)
        for ci, pi, cz, cw in flat_traps:
            cn = math.hypot(abs(cz), abs(cw))
            dist = 2.0 * np.abs(za * cw - wa * cz) / (norm * cn)
            m = (~hit) & (dist <= trap_radius)
            if m.any():
                idx = active[m]
                cycle_id[idx] = ci
                phase[idx] = pi
                steps[idx] = n
                hit |= m
        if hit.any():
            keep = ~hit
            active = active[keep]
            za, wa = za[keep], wa[keep]
        if n == max_iter or active.size == 0:
            break
        # max-modulus normalization keeps every Horner partial sum bounded
        pv, qv = hom_eval(f, za, wa)
        s = np.maximum(np.abs(pv), np.abs(qv))
        dead = s == 0
        if dead.any():
            s[dead] = 1.0  # indeterminate cells stay unresolved forever
        z[active] = pv / s
        w[active] = qv / s

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
    """4-connected components of constant (cycle_id, phase); labels are issued
    in row-major discovery order, so numbering is deterministic."""
    h, w = grid.height, grid.width
    labels = np.full((h, w), -1, dtype=np.int32)
    comps = []
    cid = grid.cycle_id
    ph = grid.phase
    next_label = 0
    for r0 in range(h):
        for c0 in range(w):
            if cid[r0, c0] < 0 or labels[r0, c0] >= 0:
                continue
            key = (cid[r0, c0], ph[r0, c0])
            count = 0
            queue = deque([(r0, c0)])
            labels[r0, c0] = next_label
            while queue:
                r, c = queue.popleft()
                count += 1
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= rr < h and 0 <= cc < w and labels[rr, cc] < 0 \
                            and cid[rr, cc] == key[0] and ph[rr, cc] == key[1]:
                        labels[rr, cc] = next_label
                        queue.append((rr, cc))
            comps.append(Component(next_label, int(key[0]), int(key[1]),
                                   grid.cell_center(r0, c0), count))
            next_label += 1
    return ComponentLabeling(grid, labels, tuple(comps))


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


def render_ppm(grid: BasinGrid, palette: Optional[dict] = None) -> bytes:
    """Binary PPM (P6) image of the grid; unresolved cells are black.

    Byte-for-byte deterministic for a given grid and palette.
    """
    palette = default_palette(grid) if palette is None else palette
    n_cycles = len(grid.cycles)
    max_phase = max(len(c) for c in grid.cycles)
    lut = np.zeros((n_cycles + 1, max_phase, 3), dtype=np.uint8)
    for (ci, pi), rgb in palette.items():
        lut[ci + 1, pi] = rgb
    cid = np.clip(grid.cycle_id.astype(np.int32) + 1, 0, n_cycles)
    ph = np.clip(grid.phase.astype(np.int32), 0, max_phase - 1)
    img = lut[cid, ph]
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + img.tobytes()
