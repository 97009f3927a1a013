import numpy as np
import pytest

from fatou.basins import (
    Bounds,
    classify_grid,
    classify_point,
    component_of,
    label_components,
    render_ppm,
    superattracting_cycles,
)
from fatou.catalog import paper_g
from fatou.orbits import critical_portrait
from fatou.ratmap import Polynomial, eval_sphere, normalize
from fatou.sphere import SpherePoint, as_sphere


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
