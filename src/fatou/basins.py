"""Grid classification of superattracting basins, component labeling, rendering.

Cells iterate until they enter a trap disk around a cycle point; the record
keeps which cycle, which point of it (the phase), and after how many steps.
Cells that never resolve within the iteration budget stay first-class
unresolved rather than being guessed.

Where infinity is a superattracting fixed point, it also gets, where one
can be proved from the map's coefficients, a certified escape disc
(escape_disc): f maps it into itself, it misses every other trap disk, and
every orbit in it enters the trap disk at infinity within a proved number
of steps K. A cell that is in the disc at step n <= max_iter - K is
resolved there, with the cycle and phase 0 its trap would give, so the disc
changes when a cell resolves (its steps) but never how.
"""

from __future__ import annotations

import colorsys
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ._bounds import _LocalBound, _ladder
from .sphere import ParameterError, Polynomial, SpherePoint, point_key
from .ratmap import RationalMap, hom_eval
from .orbits import CriticalPortrait

DEFAULT_TRAP_RADIUS = 1e-6
# classify_grid iterates the grid in flat tiles of this many cells, so its
# temporaries are a few MB whatever the resolution
TILE_CELLS = 16384
# Bytes per cell that render keeps at its peak: the grid's cycle_id, phase and
# steps (8), the int32 labels (4) and render_ppm's 15: the int32 basin_key,
# turned into palette rows in place, the image and its bytes. classify_grid
# adds fixed-size tiles to the grid's 8. label_components holds the key and
# byte masks while it finds the row runs, then an int32 first cell, parent,
# label and length per run, with an int64 copy of the first cells while they
# are found. With the grid, tracemalloc measures 15 on a one-key 800x600 grid
# (a run per row) and 32 on an 800x600 checkerboard (a run and a component
# per cell). The labeling keeps an int32 root and count per component;
# Component records are built only when asked for.
BYTES_PER_CELL = 64
MAX_GRID_BYTES = 2 ** 31  # for the arrays of one grid
# 33,554,432 cells; labels and union-find indices are int32, so this must
# stay below 2**31 - 1
MAX_CELLS = MAX_GRID_BYTES // BYTES_PER_CELL
# Steps a cell may take before it is left unresolved, derived in the README
# from the time of a cell that never traps.
MAX_ITER = 10_000


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
    cells (phase and steps -1 too). cycles[i] is the tuple of cycle points
    for id i, in canonical rotation (lexicographically smallest point first,
    infinity ahead of all finite points). steps is the step at which a cell
    resolved: the first step its iterate was in a trap disk or, for a fixed
    point at infinity, in its escape disc while at least K steps of the
    budget were left. For those cells it is not the trap-entry step.
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
        """The point classify_grid iterated for this cell, bit for bit; on the
        rows a mirrored grid copies, the conjugate of the point it iterated
        for the twin row."""
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
    """(x, y) of cell centres; row and col are ints or index arrays.

    y is written about the frame's middle line with the integer factor
    height - 1 - 2 row, which changes sign between rows r and height - 1 - r.
    Rounding to nearest commutes with negation, so where ymin == -ymax the
    middle is 0.0 and those rows' y are exact negatives of each other.
    """
    x = bounds.xmin + (col + 0.5) * (bounds.xmax - bounds.xmin) / width
    y = ((bounds.ymax + bounds.ymin) / 2
         + ((height - 1 - 2 * row) * (bounds.ymax - bounds.ymin)) / (2 * height))
    return x, y


# A map of degree d has at most 2d - 2 superattracting cycles (each holds a
# critical point), of period at most orbits.CYCLE_WINDOW (64), so a basin key
# is below (2d - 2) * 64: int32 holds it for every degree below 2**24.
def basin_key(grid: BasinGrid, cells=slice(None)) -> np.ndarray:
    """The int32 key cycle_id * P + phase, P = _key_period(grid), of the flat
    cells (all by default), negative on exactly the unresolved ones. Labels,
    colours and the render report read it; divmod(key, P) decodes it."""
    key = np.multiply(grid.cycle_id.ravel()[cells], _key_period(grid), dtype=np.int32)
    key += grid.phase.ravel()[cells]
    return key


def _key_period(grid: BasinGrid) -> int:
    return max(len(c) for c in grid.cycles)  # the longest cycle's period


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


@dataclass(frozen=True)
class EscapeDisc:
    """A certified disc D = {|z| >= radius} about a superattracting fixed
    point at infinity, cycle 0 in canonical order.

    In the chart u = 1/z, f maps D into the disc of half its radius, D misses
    every other trap disk, and every orbit from D enters the trap disk at
    infinity within `steps` (K) steps, rounding included.
    """

    radius: float
    steps: int

    @property
    def rho2_min(self) -> float:
        """D is rho^2 >= R^2 / (1 + R^2), R = radius; the threshold is pulled
        inside D by far more than rounding."""
        big = self.radius
        return big * big / (1.0 + big * big) * (1.0 + 1e-9)


def escape_disc(f: RationalMap, cycles, trap_radius: float = DEFAULT_TRAP_RADIUS
                ) -> Optional[EscapeDisc]:
    """The EscapeDisc where the first of cycles is the fixed point infinity
    and a disc about it can be proved, else None. Cycles of period >= 2 get
    none: their phase is the first trap entered, which a disc about one
    point cannot tell.

    In u = 1/z, f is g(u) = N(u) / M(u) with N_k = b_(d-k), M_k = a_(d-k),
    the map's own coefficients reversed, so the chart is exact, and u = 0 is
    a fixed point of g. A rung r of the ladder about 0 passes when the
    bound of g over |u| <= r aimed at 0 (one _bounds._LocalBound, which
    serves every rung and step) maps it into |u| <= r / 2, the disc misses
    every other trap disk, and it is larger than the trap disk at infinity.
    K follows from stepping e -> image(e) from r until |u| <= e is inside
    the trap disk; an iteration that stops halving first gives no disc.
    """
    if not (len(cycles[0]) == 1 and cycles[0][0].is_infinity):
        return None
    a, b = f.pair
    chart = RationalMap(Polynomial(b[::-1]), Polynomial(a[::-1]))
    r = _ladder(0j)
    gap = min((cycles[0][0].chordal(p) for cyc in cycles[1:] for p in cyc), default=math.inf)
    chord = 2.0 * r / np.sqrt(1.0 + r * r)  # the chordal radius of |u| <= r
    local = _LocalBound(chart, 0j, 0j)
    ok = local.bounds(r)[0] <= 0.5 * r
    ok &= (chord + trap_radius) * (1.0 + 1e-9) < gap
    ok &= chord > trap_radius
    if not ok.any():
        return None
    r0 = float(r[np.argmax(ok)])
    # |u| <= e is inside the chordal disc of radius 2e about infinity
    target = 0.5 * trap_radius * (1.0 - 1e-6)
    e, n = r0, 0
    while e > target:
        e_next = float(local.bounds(np.array([e]))[0][0])
        if not e_next <= 0.5 * e:
            return None
        e, n = e_next, n + 1
    return EscapeDisc(1.0 / r0, n + 1)  # one step more for the rounding of the trap test


def _band(rho_c: float, trap_radius: float):
    """The mask of rho^2 = |z|^2 / (|z|^2 + |w|^2) values that may lie within
    trap_radius of a trap with |cz| / |(cz, cw)| = rho_c; outside it no cell
    can trap there.

    The chordal distance to 0 is 2 rho, so the triangle inequality gives
    d(x, c) >= 2 |rho - rho_c|. The half-width in rho is widened by far more
    than the rounding of rho, rho_c and the exact distance, so the band never
    drops a cell that the exact test would trap. A NaN rho^2 is outside.
    """
    half = 0.5 * trap_radius * (1.0 + 1e-6) + 1e-12
    lo = max(rho_c - half, 0.0) ** 2
    hi = (rho_c + half) ** 2
    if hi >= 1.0:  # rho^2 <= 1 always
        return lambda rho2: rho2 >= lo
    if lo == 0.0:
        return lambda rho2: rho2 <= hi
    return lambda rho2: (rho2 >= lo) & (rho2 <= hi)


def _normalize(ap, aq, z=None, w=None):
    """rho^2 of the points with moduli |z| = ap, |w| = aq; given z and w,
    also scale both in place so that max(|z|, |w|) is 1.

    Scaling by the reciprocal of the max modulus gives the bits of z / s
    except for the sign of zeros, which no trap distance reads. Reuses ap
    and aq. A cell with z = w = 0 is left at 0 and gets rho^2 = NaN, which
    no band admits, so it stays unresolved.
    """
    s = np.maximum(ap, aq)
    s[s == 0] = 1.0
    np.divide(1.0, s, out=s)
    if z is not None:
        z *= s
        w *= s
    ap *= s
    aq *= s
    ap *= ap
    aq *= aq
    aq += ap
    with np.errstate(invalid="ignore"):  # 0/0 on an indeterminate cell
        ap /= aq
    return ap


def _two(*arrays) -> tuple:
    """The arrays, each repeated twice over if it holds one element."""
    if arrays[0].size != 1:
        return arrays
    return tuple(np.repeat(a, 2) for a in arrays)


def _classifier(f: RationalMap, cycles, trap_radius: float, max_iter: int):
    """The classification rule of classify_grid and classify_points, as
    classify(z, w, cycle_id, phase, steps): iterate the points (z : w),
    leaving z and w as they are, and write the cycle, phase and step at
    which each resolves into the arrays the caller filled with -1.

    A point resolves at the first step n at which it is in a trap disk, or
    in the escape disc with n <= max_iter - K. In the disc it resolves as
    (0, 0, n): its orbit stays in the disc, which misses every other trap,
    and enters the trap at infinity within K steps, so the trap alone would
    give the same cycle and phase. Within the last K steps, for finite fixed
    points and for cycles of period >= 2, only the trap disks decide.

    Each step renormalizes the iterates, so poles and the point at infinity
    need no special casing, and drops the points that resolved. The exact
    chordal distance to a trap is taken only for the points in its _band,
    read from the moduli the normalization takes anyway; the disc is a
    threshold on the same rho^2, with no distance taken.

    No array the kernel computes on holds one element: numpy rounds a
    complex product of one-element arrays without the fused multiply-add it
    may use on longer ones, so a lone live point, or a lone point in a band,
    is carried as two copies. Every point then gets the bits it gets in a
    batch, whatever else is in the call.

    A trap_radius that is not a finite number > 0 or makes two trap disks
    overlap, or a max_iter outside 1..MAX_ITER, is a ParameterError.
    """
    if not (math.isfinite(trap_radius) and trap_radius > 0):
        raise ParameterError("trap_radius", "must be a finite number > 0")
    if not 1 <= max_iter <= MAX_ITER:
        raise ParameterError("max_iter", f"must be between 1 and {MAX_ITER}")
    pts = [p for cyc in cycles for p in cyc]
    if any(p.chordal(q) <= 2.0 * trap_radius for p, q in itertools.combinations(pts, 2)):
        raise ParameterError("trap_radius", "trap disks overlap; reduce it")
    # (cycle, phase, band, last step, trap centre z, w and norm); the escape
    # disc is its rho^2 threshold alone, with no centre and no distance
    tests = []
    for ci, cyc in enumerate(cycles):
        for pi, p in enumerate(cyc):
            cn = math.hypot(abs(p.z), abs(p.w))
            tests.append((ci, pi, _band(abs(p.z) / cn, trap_radius), max_iter, (p.z, p.w, cn)))
    disc = escape_disc(f, cycles, trap_radius)
    if disc is not None:
        lo = disc.rho2_min
        tests.insert(0, (0, 0, lambda rho2: rho2 >= lo, max_iter - disc.steps, None))

    def classify(z, w, cycle_id, phase, steps):
        cells, z, w = _two(np.arange(z.size), z, w)
        rho2 = _normalize(np.abs(z), np.abs(w))
        for n in range(max_iter + 1):
            hit = None
            for ci, pi, band, last, centre in tests:
                if n > last:
                    continue
                near = band(rho2)
                if hit is not None:
                    near &= ~hit
                k = np.flatnonzero(near)
                if k.size == 0:
                    continue
                if centre is not None:
                    cz, cw, cn = centre
                    k, = _two(k)
                    zk, wk = z[k], w[k]
                    norm = np.hypot(np.abs(zk), np.abs(wk))
                    k = k[2.0 * np.abs(zk * cw - wk * cz) / (norm * cn) <= trap_radius]
                if k.size:
                    idx = cells[k]
                    cycle_id[idx] = ci
                    phase[idx] = pi
                    steps[idx] = n
                    if hit is None:
                        hit = np.zeros(cells.size, dtype=bool)
                    hit[k] = True
            if hit is not None:
                keep = ~hit
                cells, z, w = _two(cells[keep], z[keep], w[keep])
            if n == max_iter or cells.size == 0:
                break
            z, w = hom_eval(f, z, w)
            # max-modulus normalization keeps every Horner partial sum bounded
            rho2 = _normalize(np.abs(z), np.abs(w), z, w)

    return classify


def _unresolved(n: int) -> tuple:
    """cycle_id, phase and steps of n points, all -1 (unresolved)."""
    return (np.full(n, -1, dtype=np.int16), np.full(n, -1, dtype=np.int16),
            np.full(n, -1, dtype=np.int32))


def classify_points(f: RationalMap, cycles, z, w, trap_radius: float = DEFAULT_TRAP_RADIUS,
                    max_iter: int = 200) -> tuple:
    """(cycle_id, phase, steps) arrays of the points (z : w) by classify_grid's
    rule (_classifier), -1 where unresolved. cycles are the map's
    superattracting_cycles. z and w broadcast to one shape, which the arrays
    take; infinity is w = 0, and the grid's cell centres are (x + iy, 1).
    The first step reads the coordinates as given: they must be finite (else
    ValueError) and not both 0 (else unresolved).
    """
    classify = _classifier(f, cycles, trap_radius, max_iter)
    z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    if not (np.isfinite(z).all() and np.isfinite(w).all()):
        raise ValueError("point coordinates must be finite")
    out = _unresolved(z.size)
    classify(z.ravel(), w.ravel(), *out)
    return tuple(a.reshape(z.shape) for a in out)


def _mirrored(f: RationalMap, cycles, bounds: Bounds) -> bool:
    """Whether classifying the grid commutes with conjugation, bit for bit:
    every coefficient and every trap centre has an imaginary part of exactly
    0, and ymin == -ymax, so row height - 1 - r holds the exact conjugates
    of row r's centres (_center_coords).

    With real coefficients and centres, each rounded operation of the kernel
    on a conjugate pair of inputs gives a conjugate pair of results: complex
    products and sums, fused or not, moduli, the max-modulus scaling and
    rho^2, as rounding to nearest commutes with negation. Only the signs of
    zeros may differ, and no modulus reads them. So a conjugate orbit
    resolves at the same step, in the same cycle and phase.
    """
    return (bounds.ymin == -bounds.ymax
            and f.real
            and all(p.z.imag == 0 and p.w.imag == 0 for cyc in cycles for p in cyc))


def classify_grid(f: RationalMap, portrait: CriticalPortrait, bounds: Bounds,
                  resolution: tuple[int, int], trap_radius: float = DEFAULT_TRAP_RADIUS,
                  max_iter: int = 200) -> BasinGrid:
    """Classify every cell center of the grid by _classifier's rule.

    The grid is iterated in flat tiles of TILE_CELLS cells, each classified
    into its slice of the grid's own arrays. Where the classification
    commutes with conjugation (_mirrored), only the upper ceil(height / 2)
    rows are iterated, and row height - 1 - r is a copy of row r.

    More than MAX_CELLS cells, and the arguments _classifier refuses, are a
    ParameterError, raised before any cell steps.
    """
    width, height = resolution
    if width < 1 or height < 1:
        raise ParameterError("resolution", "must be positive")
    if width * height > MAX_CELLS:
        raise ParameterError("resolution", f"{width}x{height} is {width * height} cells; "
                             f"at most {MAX_CELLS} fit")
    cycles = superattracting_cycles(portrait)
    classify = _classifier(f, cycles, trap_radius, max_iter)

    upper = (height + 1) // 2 if _mirrored(f, cycles, bounds) else height  # rows iterated
    n_cells = width * upper
    cycle_id, phase, steps = _unresolved(width * height)
    for start in range(0, n_cells, TILE_CELLS):
        cells = np.arange(start, min(start + TILE_CELLS, n_cells))
        x, y = _center_coords(bounds, width, height, *np.divmod(cells, width))
        tile = slice(start, start + cells.size)
        classify(x + 1j * y, np.ones(cells.size, dtype=complex),
                 cycle_id[tile], phase[tile], steps[tile])

    grids = [a.reshape(height, width) for a in (cycle_id, phase, steps)]
    for a in grids:
        a[upper:] = a[:height - upper][::-1]
    return BasinGrid(bounds, width, height, tuple(cycles), *grids, trap_radius, max_iter)


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
    """labels numbers the components; roots[k] is the first row-major cell
    (flat index) of component k and counts[k] its number of cells. Component
    records are built when asked for, so a grid of many small components
    costs arrays, not objects."""

    grid: BasinGrid
    labels: np.ndarray  # -1 for unresolved cells
    roots: np.ndarray
    counts: np.ndarray

    def component(self, label: int) -> Component:
        root = int(self.roots[label])
        cycle_id, phase = divmod(int(basin_key(self.grid, root)), _key_period(self.grid))
        return Component(label, cycle_id, phase,
                         self.grid.cell_center(*divmod(root, self.grid.width)),
                         int(self.counts[label]))

    @cached_property
    def components(self) -> tuple:
        return tuple(map(self.component, range(self.roots.size)))


def label_components(grid: BasinGrid) -> ComponentLabeling:
    """4-connected components of one basin_key, numbered in row-major order
    of their first cell, so numbering is deterministic.

    Union-find over row runs (He, Chao & Suzuki, IEEE TIP 17(5), 2008): each
    row splits into maximal runs of one key, numbered in row-major order of
    their first cell; runs of unresolved cells get no edge and no label. Two
    vertically adjacent runs of one key are joined by a single edge, at the
    column where their overlap begins, which is where one of them starts.
    Every round hooks the larger root of each edge to the smaller
    (np.minimum.at), then pointer jumping flattens every tree, and edges
    inside one tree are dropped. A root is the smallest run of its tree,
    whose first cell is the component's first cell. Labels and counts are
    per run, then spread over the run's cells.
    """
    h, w = grid.height, grid.width
    key = basin_key(grid)  # flat, so rows compare as one contiguous array
    # a run starts at column 0 and where the key changes
    start = np.empty(h * w, dtype=bool)
    np.not_equal(key[:-1], key[1:], out=start[1:])
    start.reshape(h, w)[:, 0] = True
    first = np.flatnonzero(start).astype(np.int32)  # first cell of each run
    n_runs = first.size
    down = key[:-w] == key[w:]
    down &= key[:-w] >= 0
    down &= start[:-w] | start[w:]
    del start
    resolved = key[first] >= 0
    del key
    top = np.flatnonzero(down).astype(np.int32)  # upper cell of each edge
    del down
    a = (np.searchsorted(first, top, side="right") - 1).astype(np.int32)
    top += w
    b = (np.searchsorted(first, top, side="right") - 1).astype(np.int32)
    del top
    parent = np.arange(n_runs, dtype=np.int32)
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

    root = parent == np.arange(n_runs, dtype=np.int32)
    root &= resolved
    roots = first[root]
    run_label = np.cumsum(root, dtype=np.int32)[parent]
    del root, parent
    run_label -= 1
    run_label[~resolved] = -1  # unresolved runs are their own, unranked, roots
    del resolved
    run_len = np.diff(first, append=np.int32(h * w))
    del first
    labels = np.repeat(run_label, run_len).reshape(h, w)
    run_label += 1  # unresolved runs count in slot 0
    counts = np.zeros(roots.size + 1, dtype=np.int32)
    np.add.at(counts, run_label, run_len)
    return ComponentLabeling(grid, labels, roots, counts[1:])


def component_of(labeling: ComponentLabeling, point: complex) -> Component:
    """Component containing the cell under a point; errors for out-of-bounds
    or unresolved cells. This is a pixel query, not an analytic membership test."""
    row, col = labeling.grid.cell_of(complex(point))
    lab = int(labeling.labels[row, col])
    if lab < 0:
        raise ValueError(f"cell under {point} is unresolved")
    return labeling.component(lab)


# --- rendering --------------------------------------------------------------


def default_palette(grid: BasinGrid) -> dict:
    """Deterministic color per (cycle_id, phase); golden-angle hue walk."""
    pairs = [(ci, pi) for ci, cyc in enumerate(grid.cycles) for pi in range(len(cyc))]
    return {pair: tuple(round(c * 255) for c in
                        colorsys.hsv_to_rgb((0.13 + 0.61803398875 * i) % 1.0, 0.58, 0.96))
            for i, pair in enumerate(pairs)}


def render_ppm(grid: BasinGrid) -> bytes:
    """Binary PPM (P6) image of the grid in default_palette, by basin_key;
    unresolved cells are black. Byte-for-byte deterministic for a given grid.
    """
    period, palette, black = _key_period(grid), default_palette(grid), (0, 0, 0)
    # row k + 1 holds the colour of key k, and row 0 is black
    lut = np.array([black] + [palette.get(divmod(k, period), black)
                              for k in range(len(grid.cycles) * period)], dtype=np.uint8)
    code = basin_key(grid)
    code += 1
    # a row gather, faster than lut[code]; unresolved cells clip to row 0
    img = np.take(lut, code, axis=0, mode="clip")
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + img.tobytes()
