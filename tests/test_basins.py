import math
import tracemalloc
import types
from collections import deque

import numpy as np
import pytest

import fatou.basins
from fatou.basins import (
    MAX_CELLS,
    BasinGrid,
    Bounds,
    Component,
    classify_grid,
    classify_point,
    component_of,
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


def test_classify_point_cube():
    f = _cube()
    cycles = superattracting_cycles(critical_portrait(f))
    inside = classify_point(f, cycles, 0.2)
    outside = classify_point(f, cycles, 10.0)
    assert inside[0] == 1 and inside[1] == 0
    assert outside[0] == 0 and outside[1] == 0
    # closer seeds trap sooner
    assert classify_point(f, cycles, 0.01)[2] <= inside[2]
    # repelling fixed point on the unit circle never traps
    assert classify_point(f, cycles, 1.0) is None
    # starting on a trap point costs zero steps
    assert classify_point(f, cycles, SpherePoint.infinity()) == (0, 0, 0)


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
    with pytest.raises(ValueError, match="max_iter"):
        classify_grid(g, port, Bounds(-1, 1, -1, 1), (8, 8), max_iter=-5)


def test_grid_matches_pointwise_classification():
    g = paper_g()
    port = critical_portrait(g)
    grid = classify_grid(g, port, Bounds(-2.8, 2.8, -2.1, 2.1), (60, 45))
    rng = np.random.default_rng(5)
    for _ in range(120):
        r = int(rng.integers(0, grid.height))
        c = int(rng.integers(0, grid.width))
        res = classify_point(g, grid.cycles, grid.cell_center(r, c))
        want = res if res is not None else (-1, -1, -1)
        got = (int(grid.cycle_id[r, c]), int(grid.phase[r, c]),
               int(grid.steps[r, c]))
        assert got == want


def test_phase_advances_under_the_map():
    # entry phase minus entry step is constant along an orbit up to the
    # shift by one application of f
    g = paper_g()
    port = critical_portrait(g)
    grid = classify_grid(g, port, Bounds(-2.8, 2.8, -2.1, 2.1), (60, 45))
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(200):
        r = int(rng.integers(0, grid.height))
        c = int(rng.integers(0, grid.width))
        if grid.cycle_id[r, c] < 0:
            continue
        z = grid.cell_center(r, c)
        before = classify_point(g, grid.cycles, z)
        after = classify_point(g, grid.cycles, eval_sphere(g, as_sphere(z)))
        if before is None or after is None:
            continue
        ci, ph, st = before
        cj, qh, su = after
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


# --- cell centres and the resolution cap --------------------------------------


def test_cell_center_is_the_point_the_grid_iterated(monkeypatch):
    # record the starting points classify_grid hands to the map: with
    # max_iter=1 every tile is evaluated once, in row-major order
    seen = []
    hom_eval = fatou.basins.hom_eval

    def spy(f, z, w):
        seen.append(z.copy())
        return hom_eval(f, z, w)
    monkeypatch.setattr(fatou.basins, "hom_eval", spy)
    g = paper_g()
    grid = classify_grid(g, critical_portrait(g), Bounds(-2.8, 2.8, -2.1, 2.1), (800, 600),
                         max_iter=1)
    assert (grid.steps != 0).all()  # no cell left before its first step
    iterated = np.concatenate(seen).reshape(600, 800)
    centers = np.array([[grid.cell_center(r, c) for c in range(800)] for r in range(600)])
    assert np.array_equal(centers, iterated)
    # cell_of inverts cell_center on every column and every row
    assert [grid.cell_of(grid.cell_center(0, c)) for c in range(800)] == \
        [(0, c) for c in range(800)]
    assert [grid.cell_of(grid.cell_center(r, 0)) for r in range(600)] == \
        [(r, 0) for r in range(600)]


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


def test_labels_match_bfs_on_random_grids():
    rng = np.random.default_rng(11)
    for shape in [(1, 40), (40, 1), (17, 23), (30, 30)]:
        for _ in range(3):
            cid = rng.integers(-1, 2, size=shape)
            ph = rng.integers(0, 2, size=shape)
            _assert_labels_match_bfs(_grid(cid, ph))


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
                    max_iter: int = 200) -> np.ndarray:
    """(cycle_id, phase, steps) of every cell, shape (3, h, w), by the exact
    trap loop without a band: each step takes every live cell's chordal
    distance to every trap, and evaluates the map out of place and divides
    by the max modulus. The reference classify_grid must reproduce."""
    width, height = resolution
    cells = np.arange(width * height)
    x, y = fatou.basins._center_coords(bounds, width, height, *np.divmod(cells, width))
    z, w = x + 1j * y, np.ones(cells.size, dtype=complex)
    out = np.full((3, cells.size), -1)
    traps = [(ci, pi, p.z, p.w, math.hypot(abs(p.z), abs(p.w)))
             for ci, cyc in enumerate(cycles) for pi, p in enumerate(cyc)]
    d, (a, b) = f.degree, f.pair
    for n in range(max_iter + 1):
        norm = np.hypot(np.abs(z), np.abs(w))
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
    return out.reshape(3, height, width)


def _assert_grid_matches_reference(f, bounds, resolution, trap_radius, max_iter=200):
    grid = classify_grid(f, critical_portrait(f), bounds, resolution,
                         trap_radius=trap_radius, max_iter=max_iter)
    want = _reference_grid(f, grid.cycles, bounds, resolution, trap_radius, max_iter)
    for name, ref in zip(("cycle_id", "phase", "steps"), want):
        assert np.array_equal(getattr(grid, name), ref), (name, trap_radius)
    return grid


WIDE = Bounds(-2.8, 2.8, -2.1, 2.1)
ZOOM = Bounds(-1.2908, -1.2708, -0.01, 0.01)  # at the landing point of R_1/3 on paper-g


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


@pytest.mark.parametrize("trap_radius", [1e-6, 1e-3, 0.2])
def test_band_prefilter_without_a_trap_at_infinity_and_with_complex_coefficients(trap_radius):
    # two rotations of the sphere, so the trap disks stay disjoint: the first
    # moves the basin of infinity to a finite centre, the second makes every
    # coefficient non-real
    finite = paper_g().conjugate_by(MoebiusTransform(1.0, -0.3, 0.3, 1.0))
    rotated = paper_g().conjugate_by(MoebiusTransform(np.exp(0.7j), 0.0, 0.0, 1.0))
    assert not any(p.is_infinity for cyc in superattracting_cycles(critical_portrait(finite))
                   for p in cyc)
    assert all(c.imag != 0 for c in rotated.num.coeffs if c != 0)
    for f in (finite, rotated):
        _assert_grid_matches_reference(f, Bounds(-3.1, 3.3, -2.4, 2.2), (57, 43), trap_radius)


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
