import math
import os
import subprocess
import sys
import tracemalloc
import types
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import fatou._bounds
import fatou.basins
from fatou.basins import (
    MAX_CELLS,
    MAX_ITER,
    BasinGrid,
    Bounds,
    Component,
    classify_grid,
    classify_points,
    component_of,
    default_palette,
    label_components,
    render_ppm,
    superattracting_cycles,
)
from fatou.catalog import CATALOG_NAMES, by_name, paper_g
from fatou.orbits import critical_portrait
from fatou.ratmap import Polynomial, RationalMap, eval_sphere, normalize
from fatou.sphere import MoebiusTransform, SpherePoint, as_sphere


def _cube():
    return normalize(Polynomial((0.0, 0.0, 0.0, 1.0)), Polynomial((1.0,)))


WIDE = Bounds(-2.8, 2.8, -2.1, 2.1)
ZOOM = Bounds(-1.2908, -1.2708, -0.01, 0.01)  # at the landing point of R_1/3 on paper-g


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(1.0, 1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        Bounds(0.0, 1.0, 2.0, -2.0)


def test_superattracting_cycles_ordering():
    cycles = superattracting_cycles(critical_portrait(_cube()))
    assert len(cycles) == 2
    assert cycles[0][0].is_infinity
    assert abs(cycles[1][0].to_complex()) < 1e-12

    g = paper_g()
    cycles = superattracting_cycles(critical_portrait(g))
    assert [len(c) for c in cycles] == [1, 2]
    assert cycles[0][0].is_infinity
    # canonical rotation starts the finite cycle at -2
    assert abs(cycles[1][0].to_complex() + 2.0) < 1e-9
    assert abs(cycles[1][1].to_complex()) < 1e-9


def _classify_one(f, cycles, x):
    """classify_points at one point (a complex number or SpherePoint): its
    (cycle_id, phase, steps), or None if unresolved."""
    x = as_sphere(x)
    cid, ph, st = (int(a) for a in classify_points(f, cycles, x.z, x.w))
    return None if cid < 0 else (cid, ph, st)


def test_classify_point_cube():
    f = _cube()
    cycles = superattracting_cycles(critical_portrait(f))
    inside = _classify_one(f, cycles, 0.2)
    outside = _classify_one(f, cycles, 10.0)
    assert inside[0] == 1 and inside[1] == 0
    assert outside[0] == 0 and outside[1] == 0
    # closer seeds trap sooner
    assert _classify_one(f, cycles, 0.01)[2] <= inside[2]
    # repelling fixed point on the unit circle never traps
    assert _classify_one(f, cycles, 1.0) is None
    # starting on a trap point costs zero steps
    assert _classify_one(f, cycles, SpherePoint.infinity()) == (0, 0, 0)
    # the first step reads the coordinates as given, so they must be finite
    with pytest.raises(ValueError, match="finite"):
        classify_points(f, cycles, [0.2, math.inf], 1.0)


def test_trap_disks_must_be_disjoint():
    g = paper_g()
    port = critical_portrait(g)
    # chordal distance between 0 and -2 is about 1.789, so radius 0.95
    # makes the two trap disks overlap
    with pytest.raises(ValueError):
        classify_grid(g, port, Bounds(-1, 1, -1, 1), (8, 8), trap_radius=0.95)
    with pytest.raises(ValueError):
        classify_grid(g, port, Bounds(-1, 1, -1, 1), (8, 8), trap_radius=-1.0)
    with pytest.raises(ValueError, match="trap_radius"):
        classify_grid(g, port, Bounds(-1, 1, -1, 1), (8, 8), trap_radius=float("nan"))
    for max_iter in (-5, MAX_ITER + 1):
        with pytest.raises(ValueError, match="max_iter"):
            classify_grid(g, port, Bounds(-1, 1, -1, 1), (8, 8), max_iter=max_iter)


def _sample_cells(grid, rng, n):
    """n (row, col) index arrays drawn at random, so in no grid order."""
    cells = [(int(rng.integers(0, grid.height)), int(rng.integers(0, grid.width)))
             for _ in range(n)]
    return tuple(np.array(a) for a in zip(*cells))


def test_grid_matches_pointwise_classification():
    g = paper_g()
    port = critical_portrait(g)
    grid = classify_grid(g, port, Bounds(-2.8, 2.8, -2.1, 2.1), (60, 45))
    rows, cols = _sample_cells(grid, np.random.default_rng(5), 120)
    centres = np.array(list(map(grid.cell_center, rows, cols)))
    got = classify_points(g, grid.cycles, centres, 1.0)
    want = (grid.cycle_id, grid.phase, grid.steps)
    for name, a, b in zip(("cycle_id", "phase", "steps"), got, want):
        assert np.array_equal(a, b[rows, cols]), name


def test_each_cell_classified_alone_equals_its_grid_cell(monkeypatch):
    g = paper_g()
    grid = classify_grid(g, critical_portrait(g), WIDE, (40, 30))
    sizes = []
    hom_eval = fatou.basins.hom_eval

    def spy(f, z, w):
        sizes.append(z.size)
        return hom_eval(f, z, w)
    monkeypatch.setattr(fatou.basins, "hom_eval", spy)
    for r in range(grid.height):
        for c in range(grid.width):
            got = classify_points(g, grid.cycles, grid.cell_center(r, c), 1.0)
            want = grid.cycle_id[r, c], grid.phase[r, c], grid.steps[r, c]
            assert tuple(map(int, got)) == tuple(map(int, want)), (r, c)
    # a lone point is stepped as two copies, never as a one-element array
    assert min(sizes) == 2


def test_phase_advances_under_the_map():
    # entry phase minus entry step is constant along an orbit up to the
    # shift by one application of f
    g = paper_g()
    port = critical_portrait(g)
    grid = classify_grid(g, port, Bounds(-2.8, 2.8, -2.1, 2.1), (60, 45))
    rows, cols = _sample_cells(grid, np.random.default_rng(17), 200)
    resolved = grid.cycle_id[rows, cols] >= 0
    zs = list(map(grid.cell_center, rows[resolved], cols[resolved]))
    images = [eval_sphere(g, as_sphere(z)) for z in zs]
    before = classify_points(g, grid.cycles, zs, 1.0)
    after = classify_points(g, grid.cycles, [x.z for x in images], [x.w for x in images])
    checked = 0
    for ci, ph, st, cj, qh, su in zip(*before, *after):
        if ci < 0 or cj < 0:
            continue
        k = len(grid.cycles[ci])
        assert cj == ci
        assert (qh - su) % k == (ph - st + 1) % k
        checked += 1
    assert checked > 100


def test_cell_roundtrip_and_bounds_errors():
    grid = classify_grid(_cube(), critical_portrait(_cube()),
                         Bounds(-2.0, 2.0, -2.0, 2.0), (24, 18), max_iter=8)
    rng = np.random.default_rng(23)
    for _ in range(50):
        r = int(rng.integers(0, grid.height))
        c = int(rng.integers(0, grid.width))
        assert grid.cell_of(grid.cell_center(r, c)) == (r, c)
    with pytest.raises(ValueError):
        grid.cell_of(5.0 + 0j)
    with pytest.raises(ValueError):
        grid.cell_of(0.0 - 3.0j)


def test_unresolved_cells_near_julia_circle():
    # few iterations leave a ring of undecided cells around |z| = 1
    f = _cube()
    grid = classify_grid(f, critical_portrait(f), Bounds(-2, 2, -2, 2),
                         (24, 24), max_iter=4)
    unresolved = grid.cycle_id < 0
    assert unresolved.any()
    labeling = label_components(grid)
    assert (labeling.labels[unresolved] == -1).all()
    row, col = np.argwhere(unresolved)[0]
    center = grid.cell_center(int(row), int(col))
    assert 0.5 < abs(center) < 1.5
    with pytest.raises(ValueError):
        component_of(labeling, center)


def test_component_labels_cube():
    f = _cube()
    grid = classify_grid(f, critical_portrait(f), Bounds(-2, 2, -2, 2),
                         (24, 24))
    labeling = label_components(grid)
    assert len(labeling.components) == 2
    assert sum(c.cells for c in labeling.components) == 24 * 24
    inner = component_of(labeling, 0j)
    outer = component_of(labeling, 1.8 + 0j)
    assert inner.label != outer.label
    assert inner.cycle_id != outer.cycle_id
    # representative cells belong to their own component
    for comp in labeling.components:
        assert component_of(labeling, comp.representative).label == comp.label


def test_two_cycle_lobes_get_distinct_components():
    g = paper_g()
    port = critical_portrait(g)
    grid = classify_grid(g, port, Bounds(-2.8, 2.8, -2.1, 2.1), (120, 90))
    labeling = label_components(grid)
    c0 = component_of(labeling, 0j)
    c2 = component_of(labeling, -2.0 + 0j)
    cinf = component_of(labeling, 2.5 + 1.9j)
    assert c0.cycle_id == c2.cycle_id == 1
    assert cinf.cycle_id == 0
    assert c0.label != c2.label
    assert len({c0.label, c2.label, cinf.label}) == 3


def test_grid_and_render_deterministic():
    g = paper_g()
    port = critical_portrait(g)
    bounds = Bounds(-2.8, 2.8, -2.1, 2.1)
    a = classify_grid(g, port, bounds, (60, 45))
    b = classify_grid(g, port, bounds, (60, 45))
    assert (a.cycle_id == b.cycle_id).all()
    assert (a.phase == b.phase).all()
    assert (a.steps == b.steps).all()
    assert render_ppm(a) == render_ppm(b)
    la = label_components(a)
    lb = label_components(b)
    assert (la.labels == lb.labels).all()
    assert la.components == lb.components


def test_render_ppm_format():
    f = _cube()
    grid = classify_grid(f, critical_portrait(f), Bounds(-2, 2, -2, 2),
                         (24, 18), max_iter=4)
    img = render_ppm(grid)
    header = b"P6\n24 18\n255\n"
    assert img.startswith(header)
    assert len(img) == len(header) + 24 * 18 * 3
    pixels = np.frombuffer(img[len(header):], dtype=np.uint8).reshape(18, 24, 3)
    unresolved = grid.cycle_id < 0
    assert unresolved.any()
    assert (pixels[unresolved] == 0).all()
    assert (pixels[~unresolved].sum(axis=1) > 0).all()


def test_render_ppm_matches_a_pixel_by_pixel_reference():
    # cycles of lengths 1, 3 and 2: every (cycle, phase) pair and unresolved
    # cells, at a width that is not the palette's size
    cycles = ((None,), (None, None, None), (None, None))
    pairs = [(-1, -1)] + [(ci, pi) for ci, cyc in enumerate(cycles) for pi in range(len(cyc))]
    rng = np.random.default_rng(23)
    k = rng.integers(len(pairs), size=(11, 17))
    k[0, :len(pairs)] = np.arange(len(pairs))
    cid = np.array([pairs[i][0] for i in k.ravel()], dtype=np.int16).reshape(11, 17)
    ph = np.array([pairs[i][1] for i in k.ravel()], dtype=np.int16).reshape(11, 17)
    grid = BasinGrid(Bounds(-1.0, 1.0, -1.0, 1.0), 17, 11, cycles, cid, ph,
                     np.zeros((11, 17), dtype=np.int32), 1e-6, 1)
    palette = default_palette(grid)
    want = bytearray(b"P6\n17 11\n255\n")
    for r in range(11):
        for c in range(17):
            ci, pi = int(cid[r, c]), int(ph[r, c])
            want += bytes(palette[ci, pi]) if ci >= 0 else bytes(3)
    assert render_ppm(grid) == bytes(want)


# --- cell centres and the resolution cap --------------------------------------


def _first_steps(f, bounds: Bounds, resolution, monkeypatch) -> tuple:
    """The grid with max_iter=1 and the starting points classify_grid handed
    to the map: every tile is evaluated once, so in row-major order the
    centres of all its cells but those trapped at step 0."""
    seen = []
    hom_eval = fatou.basins.hom_eval

    def spy(f, z, w):
        seen.append(z.copy())
        return hom_eval(f, z, w)
    monkeypatch.setattr(fatou.basins, "hom_eval", spy)
    grid = classify_grid(f, critical_portrait(f), bounds, resolution, max_iter=1)
    monkeypatch.undo()
    return grid, np.concatenate(seen)


def test_mirrored_grid_iterates_the_upper_rows_only(monkeypatch):
    g = paper_g()
    centres = {}
    for bounds, rows in ((WIDE, 300), (Bounds(-2.8, 2.8, -2.1, 2.2), 600)):
        grid, iterated = _first_steps(g, bounds, (800, 600), monkeypatch)
        assert (grid.steps != 0).all()  # no cell left before its first step
        c = np.array([[grid.cell_center(r, c) for c in range(800)] for r in range(600)])
        # on the symmetric frame the upper 300 rows, else all 600
        assert np.array_equal(iterated, c[:rows].ravel()), bounds
        # cell_of inverts cell_center on every column and every row
        assert [grid.cell_of(grid.cell_center(0, c)) for c in range(800)] == \
            [(0, c) for c in range(800)]
        assert [grid.cell_of(grid.cell_center(r, 0)) for r in range(600)] == \
            [(r, 0) for r in range(600)]
        centres[rows] = c
    # row 599 - r holds the exact conjugates of row r's centres
    c = centres[300]
    assert np.array_equal(c[::-1].real, c.real)
    assert np.array_equal(c[::-1].imag, -c.imag)
    assert (c.imag != 0).all()


def test_resolution_cap():
    # a portrait without superattracting cycles fails right after the
    # resolution check, so neither call allocates a grid
    no_cycles = types.SimpleNamespace(orbits=())
    f, bounds = paper_g(), Bounds(-1, 1, -1, 1)
    with pytest.raises(ValueError, match="no superattracting cycle"):
        classify_grid(f, no_cycles, bounds, (MAX_CELLS, 1))
    with pytest.raises(ValueError, match=f"at most {MAX_CELLS} fit"):
        classify_grid(f, no_cycles, bounds, (MAX_CELLS + 1, 1))
    with pytest.raises(ValueError, match=f"at most {MAX_CELLS} fit"):
        classify_grid(f, no_cycles, bounds, (1, MAX_CELLS + 1))
    assert MAX_CELLS * fatou.basins.BYTES_PER_CELL <= fatou.basins.MAX_GRID_BYTES
    assert MAX_CELLS < 2 ** 31 - 1


def _labeling_bytes_per_cell(grid: BasinGrid) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        labeling = label_components(grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert "components" not in vars(labeling)  # no records built
    grid_bytes = grid.cycle_id.nbytes + grid.phase.nbytes + grid.steps.nbytes
    return (grid_bytes + peak) / (grid.height * grid.width)


def test_labeling_memory_stays_within_bytes_per_cell():
    # one key everywhere gives the most union-find edges: two per cell
    h, w = 300, 400
    grid = _grid(np.zeros((h, w)), np.zeros((h, w)))
    assert _labeling_bytes_per_cell(grid) <= fatou.basins.BYTES_PER_CELL


def test_checkerboard_labeling_stays_within_bytes_per_cell():
    # a component per cell: 480,000 components, kept as arrays
    h, w = 600, 800
    rows, cols = np.indices((h, w))
    grid = _grid(np.ones((h, w)), (rows + cols) % 2)
    assert _labeling_bytes_per_cell(grid) <= fatou.basins.BYTES_PER_CELL
    labeling = label_components(grid)
    assert labeling.roots.size == h * w
    assert (labeling.counts == 1).all()
    assert component_of(labeling, grid.cell_center(599, 799)) == \
        Component(h * w - 1, 1, 0, grid.cell_center(599, 799), 1)


def test_tiling_does_not_change_the_grid(monkeypatch):
    cases = [(paper_g(), Bounds(-2.8, 2.8, -2.1, 2.1), (40, 30), 200),
             (_cube(), Bounds(-2, 2, -2, 2), (24, 18), 4)]  # with unresolved cells
    for f, bounds, res, max_iter in cases:
        port = critical_portrait(f)
        want = classify_grid(f, port, bounds, res, max_iter=max_iter)
        monkeypatch.setattr(fatou.basins, "TILE_CELLS", 7)
        got = classify_grid(f, port, bounds, res, max_iter=max_iter)
        monkeypatch.undo()
        for name in ("cycle_id", "phase", "steps"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert render_ppm(got) == render_ppm(want)


# --- component labeling against a BFS reference ------------------------------


def _bfs_labeling(grid: BasinGrid) -> tuple[np.ndarray, tuple]:
    """Breadth-first flood fill from each unlabeled resolved cell in row-major
    order: the reference labels and components label_components must
    reproduce."""
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
    return labels, tuple(comps)


def _grid(cycle_id, phase) -> BasinGrid:
    cycle_id = np.asarray(cycle_id, dtype=np.int16)
    phase = np.where(cycle_id < 0, -1, np.asarray(phase)).astype(np.int16)
    h, w = cycle_id.shape
    return BasinGrid(Bounds(-1.0, 1.0, -0.75, 0.75), w, h, ((None,), (None, None)),
                     cycle_id, phase, np.zeros((h, w), dtype=np.int32), 1e-6, 1)


def _assert_labels_match_bfs(grid: BasinGrid):
    got, (labels, comps) = label_components(grid), _bfs_labeling(grid)
    assert got.labels.dtype == labels.dtype
    assert np.array_equal(got.labels, labels)
    assert got.components == comps


def _spiral(n: int) -> np.ndarray:
    """A one-cell-wide square spiral of 1s in 0s, arms one cell apart."""
    a = np.zeros((n, n), dtype=int)
    r = c = 0
    dr, dc = 0, 1
    a[0, 0] = 1
    turns = 0
    while turns < 2:
        nr, nc, r2, c2 = r + dr, c + dc, r + 2 * dr, c + 2 * dc
        if 0 <= nr < n and 0 <= nc < n and not a[nr, nc] \
                and not (0 <= r2 < n and 0 <= c2 < n and a[r2, c2]):
            r, c, turns = nr, nc, 0
            a[r, c] = 1
        else:
            dr, dc, turns = dc, -dr, turns + 1
    return a


def _comb(h: int, w: int) -> np.ndarray:
    """Teeth on even columns pointing up from a spine along the bottom row,
    so each tooth's top cell comes first but the teeth join last."""
    a = np.zeros((h, w), dtype=int)
    a[:, ::2] = 1
    a[-1] = 1
    return a


def _staircase(h: int, step: int) -> np.ndarray:
    """Runs of `step` cells, each row's run starting where the run above
    ends, so consecutive runs touch only at a corner."""
    a = np.zeros((h, h * step), dtype=int)
    for r in range(h):
        a[r, r * step:(r + 1) * step] = 1
    return a


def _one_column_overlaps(h: int, step: int) -> np.ndarray:
    """Row r holds the run of columns r * step .. (r + 1) * step, so the runs
    of consecutive rows overlap in exactly one column, where the lower run
    starts (mirrored left to right: where the upper one starts)."""
    a = np.zeros((h, h * step + 1), dtype=int)
    for r in range(h):
        a[r, r * step:(r + 1) * step + 1] = 1
    return a


_rows, _cols = np.indices((9, 12))
_wall = np.zeros((9, 12), dtype=int)
_wall[:, 5] = -1
_wall[4, :] = -1
_wall[1, 1] = -1
HAND_BUILT = {
    # (cycle_id, phase)
    "spiral": (np.ones((31, 31)), _spiral(31)),
    "spiral-by-cycle": (_spiral(30), np.zeros((30, 30))),
    "comb": (np.ones((12, 17)), _comb(12, 17)),
    "comb-upside-down": (np.ones((12, 17)), _comb(12, 17)[::-1]),
    "checkerboard": (np.ones((9, 12)), (_rows + _cols) % 2),
    "checkerboard-by-cycle": ((_rows + _cols) % 2, np.zeros((9, 12))),
    "same-key-split-by-unresolved": (_wall, np.zeros((9, 12))),
    "1xN": ([[0, 0, 1, 1, -1, 0, 0, 1, 0, 0, -1, -1, 1]],
            [[0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1]]),
    "Nx1": ([[0], [0], [1], [1], [-1], [0], [0], [1], [0]],
            [[0], [0], [0], [1], [0], [0], [0], [1], [1]]),
    "1xN-one-run": (np.ones((1, 40)), np.ones((1, 40))),
    "Nx1-one-key": (np.ones((40, 1)), np.ones((40, 1))),
    "staircase": (np.ones((8, 24)), _staircase(8, 3)),
    "staircase-of-cells": (np.ones((10, 10)), _staircase(10, 1)),
    "staircase-upside-down": (np.ones((8, 24)), _staircase(8, 3)[::-1]),
    "wide-comb": (np.ones((9, 23)), np.repeat(_comb(9, 12), 2, axis=1)[:, :23]),
    "one-column-overlaps": (np.ones((9, 37)), _one_column_overlaps(9, 4)),
    "one-column-overlaps-mirrored": (np.ones((9, 37)), _one_column_overlaps(9, 4)[:, ::-1]),
    "one-column-overlaps-of-cells": (np.ones((9, 10)), _one_column_overlaps(9, 1)),
    "1x1": ([[1]], [[1]]),
    "1x1-unresolved": ([[-1]], [[0]]),
    "all-unresolved": (-np.ones((4, 5)), np.zeros((4, 5))),
}


@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_labels_match_bfs_on_hand_built_grids(name):
    grid = _grid(*HAND_BUILT[name])
    _assert_labels_match_bfs(grid)


def test_hand_built_component_counts():
    counts = {name: len(label_components(_grid(*HAND_BUILT[name])).components)
              for name in ("spiral", "comb", "comb-upside-down", "checkerboard",
                           "same-key-split-by-unresolved", "1x1-unresolved")}
    assert counts == {"spiral": 2, "comb": 1 + 8, "comb-upside-down": 1 + 8,
                      "checkerboard": 9 * 12, "same-key-split-by-unresolved": 4,
                      "1x1-unresolved": 0}
    counts = {name: len(label_components(_grid(*HAND_BUILT[name])).components)
              for name in ("1xN-one-run", "Nx1-one-key", "staircase",
                           "staircase-of-cells", "wide-comb", "one-column-overlaps")}
    # a staircase keeps its runs apart between two pieces of background; runs
    # that overlap in one column join
    assert counts == {"1xN-one-run": 1, "Nx1-one-key": 1, "staircase": 8 + 2,
                      "staircase-of-cells": 10 + 2, "wide-comb": 1 + 6,
                      "one-column-overlaps": 1 + 2}


def test_labels_match_bfs_on_random_grids():
    rng = np.random.default_rng(11)
    for shape in [(1, 40), (40, 1), (17, 23), (30, 30)]:
        for _ in range(3):
            cid = rng.integers(-1, 2, size=shape)
            ph = rng.integers(0, 2, size=shape)
            _assert_labels_match_bfs(_grid(cid, ph))


@pytest.mark.parametrize("shape", [(1, 64), (64, 1), (2, 2), (7, 61), (61, 7), (33, 47)])
def test_labels_match_bfs_on_random_three_key_grids(shape):
    # keys (0, 0), (1, 0) and (1, 1) and unresolved cells; stretching a
    # grid along its rows makes runs longer than one cell
    rng = np.random.default_rng(sum(shape))
    keys = np.array([(-1, -1), (0, 0), (1, 0), (1, 1)])
    for p_unresolved in (0.05, 0.3):
        p = [p_unresolved] + [(1 - p_unresolved) / 3] * 3
        for stretch in (1, 3):
            h, w = shape
            k = rng.choice(4, size=(h, -(-w // stretch)), p=p)
            k = np.repeat(k, stretch, axis=1)[:, :w]
            _assert_labels_match_bfs(_grid(keys[k, 0], keys[k, 1]))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_labels_match_bfs_and_scipy_on_catalog_maps(name):
    f = by_name(name)
    grid = classify_grid(f, critical_portrait(f), Bounds(-2.8, 2.8, -2.1, 2.1), (200, 150))
    _assert_labels_match_bfs(grid)
    ndimage = pytest.importorskip("scipy.ndimage")
    comps = label_components(grid).components
    for ci, cyc in enumerate(grid.cycles):
        for pi in range(len(cyc)):
            mask = (grid.cycle_id == ci) & (grid.phase == pi)
            want = ndimage.label(mask)[1]  # 4-connected by default
            assert sum(c.cycle_id == ci and c.phase == pi for c in comps) == want


# --- the trap test against the exact loop it replaced ------------------------


def _reference_grid(f, cycles, bounds: Bounds, resolution, trap_radius: float,
                    max_iter: int = 200, disc=None) -> tuple:
    """(cycle_id, phase, steps) of every cell, shape (3, h, w), by the exact
    trap loop without a band or a disc: each step takes every live cell's
    chordal distance to every trap, and evaluates the map out of place and
    divides by the max modulus. The reference classify_grid must reproduce.

    Alongside, shape (h, w): the first step at which each cell was in the
    given escape disc, by its rho^2 threshold, or -1."""
    width, height = resolution
    cells = np.arange(width * height)
    x, y = fatou.basins._center_coords(bounds, width, height, *np.divmod(cells, width))
    z, w = x + 1j * y, np.ones(cells.size, dtype=complex)
    out = np.full((3, cells.size), -1)
    entered = np.full(cells.size, -1)
    traps = [(ci, pi, p.z, p.w, math.hypot(abs(p.z), abs(p.w)))
             for ci, cyc in enumerate(cycles) for pi, p in enumerate(cyc)]
    d, (a, b) = f.degree, f.pair
    for n in range(max_iter + 1):
        norm = np.hypot(np.abs(z), np.abs(w))
        with np.errstate(invalid="ignore"):  # 0/0 on an indeterminate cell
            rho2 = np.abs(z) ** 2 / norm ** 2
        if disc is not None:
            inside = (rho2 >= disc.rho2_min) & (entered[cells] < 0)
            entered[cells[inside]] = n
        hit = np.zeros(cells.size, dtype=bool)
        for ci, pi, cz, cw, cn in traps:
            m = (~hit) & (2.0 * np.abs(z * cw - w * cz) / (norm * cn) <= trap_radius)
            out[:, cells[m]] = [[ci], [pi], [n]]
            hit |= m
        cells, z, w = cells[~hit], z[~hit], w[~hit]
        if n == max_iter or cells.size == 0:
            break
        p, q, wk = a[d], b[d], 1.0
        for k in range(d - 1, -1, -1):
            wk = wk * w
            p = p * z + a[k] * wk
            q = q * z + b[k] * wk
        s = np.maximum(np.abs(p), np.abs(q))
        s[s == 0] = 1.0
        z, w = p / s, q / s
    return out.reshape(3, height, width), entered.reshape(height, width)


def _disc_rule_steps(trap_step: int, entry_step: int, k: int, max_iter: int) -> int:
    """The step at which a cell of the fixed point infinity with an escape
    disc resolves: its disc entry where at least k steps of the budget are left,
    else its trap entry (-1 if it never traps)."""
    if 0 <= entry_step <= max_iter - k and (trap_step < 0 or entry_step <= trap_step):
        return entry_step
    return trap_step


def _assert_grid_matches_reference(f, bounds, resolution, trap_radius, max_iter=200):
    """cycle_id and phase equal the all-cells trap loop's. steps equals its
    trap-entry step on cells of cycles without a disc and on unresolved
    cells, and the disc rule on the cells of infinity where it has an escape
    disc, whose trap entry follows its disc entry within K steps."""
    grid = classify_grid(f, critical_portrait(f), bounds, resolution,
                         trap_radius=trap_radius, max_iter=max_iter)
    disc = fatou.basins.escape_disc(f, grid.cycles, trap_radius)
    want, first = _reference_grid(f, grid.cycles, bounds, resolution, trap_radius,
                                  max_iter, disc)
    assert np.array_equal(grid.cycle_id, want[0]), ("cycle_id", trap_radius)
    assert np.array_equal(grid.phase, want[1]), ("phase", trap_radius)
    steps = want[2].copy()
    if disc is not None:
        inside = first >= 0
        mine = want[0] == 0
        # an orbit in the disc enters the trap at infinity within K steps, or
        # runs out of budget, and never enters another trap
        assert (mine | (want[0] < 0))[inside].all()
        assert (want[2] - first < disc.steps)[inside & mine].all()
        assert (first > max_iter - disc.steps)[inside & ~mine].all()
        steps[mine] = [_disc_rule_steps(t, e, disc.steps, max_iter)
                       for t, e in zip(want[2][mine], first[mine])]
    assert np.array_equal(grid.steps, steps), ("steps", trap_radius)
    return grid


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("trap_radius", [1e-6, 1e-3, 0.2])
def test_band_prefilter_keeps_every_trapping_decision(name, trap_radius):
    _assert_grid_matches_reference(by_name(name), WIDE, (61, 47), trap_radius)


def test_band_prefilter_on_a_zoom_and_a_grid_of_several_tiles():
    g = paper_g()
    grid = _assert_grid_matches_reference(g, WIDE, (173, 101), 1e-6)
    assert grid.width * grid.height > fatou.basins.TILE_CELLS
    grid = _assert_grid_matches_reference(g, ZOOM, (64, 64), 1e-6)
    assert (grid.steps > 20).mean() > 0.5  # slow escape near the Julia set
    # few iterations leave unresolved cells
    _assert_grid_matches_reference(_cube(), Bounds(-2, 2, -2, 2), (40, 30), 1e-3, max_iter=4)


def _conjugates() -> dict:
    """Two rotations of the sphere applied to paper-g, so the trap disks stay
    disjoint: `finite` moves the basin of infinity to a finite centre,
    `rotated` makes every coefficient non-real."""
    return {"finite": paper_g().conjugate_by(MoebiusTransform(1.0, -0.3, 0.3, 1.0)),
            "rotated": paper_g().conjugate_by(MoebiusTransform(np.exp(0.7j), 0.0, 0.0, 1.0))}


@pytest.mark.parametrize("trap_radius", [1e-6, 1e-3, 0.2])
def test_band_prefilter_without_a_trap_at_infinity_and_with_complex_coefficients(trap_radius):
    finite, rotated = _conjugates().values()
    assert not any(p.is_infinity for cyc in superattracting_cycles(critical_portrait(finite))
                   for p in cyc)
    assert all(c.imag != 0 for c in rotated.num.coeffs if c != 0)
    for f in (finite, rotated):
        _assert_grid_matches_reference(f, Bounds(-3.1, 3.3, -2.4, 2.2), (57, 43), trap_radius)


def _quadratic(c: complex) -> RationalMap:
    return normalize(Polynomial((c, 0.0, 1.0)), Polynomial((1.0,)))


MIRRORED_MAPS = dict(
    {name: (lambda name=name: by_name(name)) for name in CATALOG_NAMES},
    basilica=lambda: _quadratic(-1.0),
    airplane=lambda: _quadratic(-1.7548776662466927),  # 0 has period 3
    no_infinity=lambda: normalize(Polynomial((0.0, 0.0, 0.0, 1.0)),
                                  Polynomial((1.0, 0.0, 3.0))),  # z^3 / (3 z^2 + 1)
)


@pytest.mark.parametrize("name", MIRRORED_MAPS)
@pytest.mark.parametrize("resolution", [(53, 40), (53, 41)])
def test_mirrored_grids_equal_the_all_cells_reference(name, resolution):
    # real coefficients, real trap centres and ymin == -ymax: classify_grid
    # iterates the upper rows only, and must still give every cell of the
    # reference, which iterates them all
    f = MIRRORED_MAPS[name]()
    assert fatou.basins._mirrored(f, superattracting_cycles(critical_portrait(f)), WIDE)
    grid = _assert_grid_matches_reference(f, WIDE, resolution, 1e-6)
    assert (grid.cycle_id >= 0).mean() > 0.5


def test_inputs_that_break_the_symmetry_take_the_full_path(monkeypatch):
    # Newton's map of z^2 + 1 is real, but its traps are +-i, whose basins
    # are the two half planes: a mirrored copy would swap them
    newton = normalize(Polynomial((-1.0, 0.0, 1.0)), Polynomial((0.0, 2.0)))
    cases = [(newton, WIDE), (_quadratic(-1.0 + 0.05j), WIDE),  # one complex coefficient
             (paper_g(), Bounds(-2.8, 2.8, -2.1, 2.2))]
    for f, bounds in cases:
        assert not fatou.basins._mirrored(f, superattracting_cycles(critical_portrait(f)),
                                          bounds)
        grid, iterated = _first_steps(f, bounds, (41, 31), monkeypatch)
        assert iterated.size == 41 * 31
        grid = _assert_grid_matches_reference(f, bounds, (41, 31), 1e-6)
        if f is newton:  # the real axis is its Julia set
            resolved = grid.cycle_id >= 0
            assert resolved.mean() > 0.9
            assert (grid.cycle_id[::-1][resolved] == 1 - grid.cycle_id[resolved]).all()


def _points_at_chordal_distance(c: SpherePoint, dist: np.ndarray, rng) -> tuple:
    """Homogeneous representatives, of random phase and scale, of points at
    the given chordal distances from c. Half of them lie on the great circle
    through c and 0, where |rho - rho_c| is largest."""
    r = dist / np.sqrt(4.0 - dist * dist)  # chordal distance of r from 0
    theta = rng.uniform(0.0, 2.0 * np.pi, dist.size)
    radial = rng.random(dist.size) < 0.5
    if c.is_infinity:  # the isometry t -> 1/t takes 0 to c
        t = r * np.exp(1j * theta)
        z, w = np.ones_like(t), t
    else:  # the isometry t -> (t + c) / (1 - conj(c) t) takes 0 to c
        cc = c.to_complex()
        theta[radial] = np.angle(cc) + np.pi * rng.integers(0, 2, radial.sum())
        t = r * np.exp(1j * theta)
        z, w = t + cc, 1.0 - np.conj(cc) * t
    scale = 10.0 ** rng.uniform(-30, 30, dist.size) * np.exp(1j * rng.uniform(0, 7, dist.size))
    return z * scale, w * scale


def test_band_never_rejects_a_point_the_exact_test_accepts():
    rng = np.random.default_rng(2024)
    traps = [p for name in CATALOG_NAMES
             for cyc in superattracting_cycles(critical_portrait(by_name(name))) for p in cyc]
    traps += [SpherePoint.of(complex(*v))
              for v in rng.normal(size=(20, 2)) * rng.choice([1e-3, 1.0, 1e3], (20, 1))]
    accepted = 0
    for c in traps:
        cn = np.hypot(abs(c.z), abs(c.w))
        for trap_radius in (1e-9, 1e-6, 1e-3, 0.2, 0.9):
            band = fatou.basins._band(abs(c.z) / cn, trap_radius)
            dist = trap_radius * (1.0 + 1e-12 * rng.choice([-1.0, 1.0], 400))
            z, w = _points_at_chordal_distance(c, dist, rng)
            # the first step's band reads unscaled moduli, the later ones
            # scale the iterate in place
            rho2 = fatou.basins._normalize(np.abs(z), np.abs(w))
            z1, w1 = z.copy(), w.copy()
            rho2_1 = fatou.basins._normalize(np.abs(z1), np.abs(w1), z1, w1)
            for zz, ww, r2 in ((z, w, rho2), (z1, w1, rho2_1)):
                norm = np.hypot(np.abs(zz), np.abs(ww))
                exact = 2.0 * np.abs(zz * c.w - ww * c.z) / (norm * cn) <= trap_radius
                assert not (exact & ~band(r2)).any(), (c, trap_radius)
                accepted += exact.sum()
    assert accepted > 0.3 * 2 * 400 * 5 * len(traps)


def test_an_indeterminate_cell_stays_unresolved_without_a_warning():
    # (z^3 - z^2) / (z - 1) built raw keeps the common root 1, where P and Q
    # both vanish; the cell centred on 1 must neither trap nor warn (numpy
    # warnings are errors in this suite)
    f = RationalMap(Polynomial((0.0, 0.0, -1.0, 1.0)), Polynomial((-1.0, 1.0)))
    portrait = types.SimpleNamespace(orbits=tuple(
        types.SimpleNamespace(classification="superattracting", cycle=(p,))
        for p in (SpherePoint.infinity(), SpherePoint.of(0.0))))
    grid = classify_grid(f, portrait, Bounds(0.0, 2.0, -1.0, 1.0), (3, 1), max_iter=5)
    assert grid.cell_center(0, 1) == 1.0
    assert grid.cycle_id.tolist() == [[1, -1, 0]]
    # also where the escape disc is in use: z = w = 0 has no rho^2, so the
    # disc does not admit it
    disc = fatou.basins.escape_disc(f, superattracting_cycles(portrait))
    assert disc is not None and disc.steps < 200
    grid = classify_grid(f, portrait, Bounds(0.0, 2.0, -1.0, 1.0), (3, 1), max_iter=200)
    assert grid.cycle_id.tolist() == [[1, -1, 0]]
    assert grid.steps[0, 1] == -1


# --- the escape disc at a superattracting fixed point at infinity -------------


def _in_disc(disc, x: SpherePoint) -> bool:
    """The disc's rho^2 >= rho2_min threshold at one point."""
    az2, aw2 = abs(x.z) ** 2, abs(x.w) ** 2
    return az2 / (az2 + aw2) >= disc.rho2_min


@pytest.mark.parametrize("name", CATALOG_NAMES + ("rotated",))
def test_escape_disc_maps_into_itself_with_the_stated_growth(name):
    f = by_name(name) if name in CATALOG_NAMES else _conjugates()[name]
    cycles = superattracting_cycles(critical_portrait(f))
    # infinity is a superattracting fixed point of every catalog map and of
    # the rotated conjugate, and its disc is certified
    assert len(cycles[0]) == 1 and cycles[0][0].is_infinity
    disc = fatou.basins.escape_disc(f, cycles)
    assert disc is not None
    others = [p for cyc in cycles[1:] for p in cyc]
    rng = np.random.default_rng(41)
    r = 1.0 / disc.radius
    s = np.concatenate([np.ones(64), 10.0 ** rng.uniform(-6, 0, 448)])
    for u in r * s * np.exp(1j * rng.uniform(0, 2 * np.pi, s.size)):
        x = SpherePoint(1.0, u)  # z = 1 / u
        if abs(u) <= r * (1 - 1e-6):
            assert _in_disc(disc, x)  # the threshold is all of D but its rim
        assert all(x.chordal(p) > 1e-6 for p in others)
        image = eval_sphere(f, x)
        assert abs(image.w / image.z) <= 0.5 * abs(u)
        # the orbit enters the trap disk within K steps of the disc
        for _ in range(disc.steps - 1):
            if x.chordal(SpherePoint.infinity()) <= 1e-6:
                break
            x = eval_sphere(f, x)
        assert x.chordal(SpherePoint.infinity()) <= 1e-6
    # what the threshold admits lies in the disc
    for u in r * rng.uniform(0.5, 2.0, 512) * np.exp(1j * rng.uniform(0, 7, 512)):
        assert not _in_disc(disc, SpherePoint(1.0, u)) or abs(u) <= r


def test_escape_disc_radii_on_the_ladder():
    # the smallest R = 1.05^k with R^(d-e-1) (|a_d| - sum |a_k| R^(k-d)) /
    # (sum |b_k| R^(k-e)) >= 2
    for name, big in (("paper-g", 4.32), ("paper-degree4", 6.39), ("pseudo-basilica:2", 2.53)):
        f = by_name(name)
        disc = fatou.basins.escape_disc(f, superattracting_cycles(critical_portrait(f)))
        assert round(disc.radius, 2) == big
        k = round(math.log(disc.radius) / math.log(fatou._bounds.DISC_LADDER))
        assert math.isclose(disc.radius, fatou._bounds.DISC_LADDER ** k)
    # a larger trap disk is reached in fewer steps; one past the disc's size
    # needs no disc
    f = paper_g()
    cycles = superattracting_cycles(critical_portrait(f))
    ks = [fatou.basins.escape_disc(f, cycles, t).steps for t in (1e-6, 1e-3, 0.2)]
    assert ks == sorted(ks, reverse=True)
    assert fatou.basins.escape_disc(f, cycles, 0.5) is None


# the escape disc's rung k (R = 1 / 1.05^-k) and K at the trap radii 1e-6,
# 1e-3 and 0.2, None where no disc is proved
ESCAPE_DISCS = {
    "paper-g": (30, (6, 5, 3)),
    "pseudo-basilica:3": (30, (6, 5, 3)),
    "pseudo-rabbit:3:0": (30, (6, 5, 3)),
    "paper-degree4": (38, (5, 4, 2)),
    "pseudo-basilica:4": (38, (5, 4, 2)),
    "pseudo-basilica:2": (19, (6, 5, 3)),
    "pseudo-basilica:5": (43, (5, 4, 2)),
    "pseudo-basilica:6": (47, (5, 4, None)),
    "pseudo-basilica:7": (51, (5, 4, None)),
    "pseudo-rabbit:3:1": (37, (6, 5, 2)),
    "pseudo-rabbit:4:0": (39, (5, 4, 2)),
}


@pytest.mark.parametrize("name", ESCAPE_DISCS)
def test_escape_disc_rung_and_steps_on_every_map(name, monkeypatch):
    # the ladder and every step of K read one _LocalBound
    built = []

    class Counted(fatou._bounds._LocalBound):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)
    monkeypatch.setattr(fatou.basins, "_LocalBound", Counted)
    k, steps = ESCAPE_DISCS[name]
    f = by_name(name)
    cycles = superattracting_cycles(critical_portrait(f))
    for trap_radius, want in zip((1e-6, 1e-3, 0.2), steps):
        built.clear()
        disc = fatou.basins.escape_disc(f, cycles, trap_radius)
        assert len(built) == 1, trap_radius
        if want is None:
            assert disc is None, trap_radius
        else:
            assert (disc.radius, disc.steps) == (1.0 / 1.05 ** -k, want), trap_radius


def test_the_certificate_and_the_basin_kernel_load_without_the_ray_tracer():
    # the basin kernel proves its discs with fatou._bounds; neither may pull
    # in the ray tracer or its decimal residuals
    code = ("import sys, fatou._bounds, fatou.basins\n"
            "print(*sorted(m for m in sys.modules if m == 'decimal' or m.startswith('fatou')))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "fatou.rays" not in loaded and "decimal" not in loaded, loaded


def _fixed_point_portrait(*points):
    return types.SimpleNamespace(orbits=tuple(
        types.SimpleNamespace(classification="superattracting", cycle=(p,)) for p in points))


def test_maps_without_an_escape_disc_give_the_trap_grid_bit_for_bit():
    # 1 / z^2 swaps 0 and infinity: no superattracting fixed point
    swap = normalize(Polynomial((1.0,)), Polynomial((0.0, 0.0, 1.0)))
    assert [len(c) for c in superattracting_cycles(critical_portrait(swap))] == [2]
    # z / 2 + z^2 fixes 0 with local degree 1 and multiplier 1/2; the portrait
    # claims it superattracting, and it is finite
    linear = normalize(Polynomial((0.0, 0.5, 1.0)), Polynomial((1.0,)))
    # paper-g's basin of infinity moved to a finite fixed point
    finite = _conjugates()["finite"]
    cases = [(swap, critical_portrait(swap), Bounds(-2, 2, -1.5, 1.5), 60),
             (linear, _fixed_point_portrait(SpherePoint.of(0.0)), Bounds(-1, 1, -1, 1), 80),
             (finite, critical_portrait(finite), Bounds(-3.1, 3.3, -2.4, 2.2), 200)]
    for f, portrait, bounds, max_iter in cases:
        cycles = superattracting_cycles(portrait)
        assert fatou.basins.escape_disc(f, cycles) is None
        grid = classify_grid(f, portrait, bounds, (41, 31), max_iter=max_iter)
        want, _ = _reference_grid(f, cycles, bounds, (41, 31), 1e-6, max_iter)
        assert (want[0] >= 0).any()
        for name, ref in zip(("cycle_id", "phase", "steps"), want):
            assert np.array_equal(getattr(grid, name), ref), name


@pytest.mark.parametrize("name", ["paper-g", "paper-degree4"])
def test_disc_rule_at_the_max_iter_boundary(name):
    # with max_iter a few steps above K, cells that enter the disc late are
    # left to the trap test, and exactly the reference's cells stay unresolved
    f = by_name(name)
    disc = fatou.basins.escape_disc(f, superattracting_cycles(critical_portrait(f)))
    used = 0
    for max_iter in (disc.steps, disc.steps + 1, disc.steps + 3):
        grid = _assert_grid_matches_reference(f, WIDE, (61, 47), 1e-6, max_iter)
        assert (grid.cycle_id < 0).any()
        used += ((grid.cycle_id == 0) & (grid.steps <= max_iter - disc.steps)).sum()
    assert used > 0
