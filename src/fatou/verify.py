"""Self-check suite: every headline numeric fact the package is built around.

Each check is an independent pass/fail item with a measured value and the
tolerance it was held to. The CLI prints one line per check; the test suite
runs the same registry. Checks are grouped so a single group can be run alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import basins as _basins
from .catalog import (CATALOG_NAMES, by_name, paper_g, pseudo_basilica,
                      pseudo_rabbit_roots, solve_pinch_params)
from .lifting import LiftError, circle, lift_curve, sign_change_sequence
from .orbits import critical_portrait, periodic_points
from .ratmap import RationalMap, critical_points, eval_sphere, normalize
from .rays import RayAngle, trace_orbit, separation_test
from .sphere import SpherePoint, as_sphere, chordal, poly


@dataclass(frozen=True)
class CheckResult:
    name: str
    group: str
    passed: bool
    measured: str
    tolerance: str


class Context:
    """Shared lazily-computed state so checks do not recompute the big rays
    and grids."""

    @cached_property
    def g(self) -> RationalMap:
        return paper_g()

    @cached_property
    def portrait(self):
        return critical_portrait(self.g)

    @cached_property
    def traces(self) -> dict:
        # orbit closure of {0, 1/6, 5/6} covers 1/3 and 2/3 as well
        return trace_orbit(self.g, SpherePoint.infinity(),
                           [RayAngle(0, 1), RayAngle(1, 6), RayAngle(5, 6)])

    def landing(self, num: int, den: int) -> complex:
        tr = self.traces[RayAngle(num, den)]
        if not tr.landed:
            raise RuntimeError(f"ray {tr.angle} did not land")
        return tr.landing

    @cached_property
    def grid(self) -> _basins.BasinGrid:
        bounds = _basins.Bounds(-2.8, 2.8, -2.1, 2.1)
        return _basins.classify_grid(self.g, self.portrait, bounds, (400, 400))


# ---------------------------------------------------------------------------
# checks


def check_portrait(ctx: Context):
    g, port = ctx.g, ctx.portrait
    expected = [(SpherePoint.of(0.0), 3), (SpherePoint.of(1.0), 2),
                (SpherePoint.infinity(), 2)]
    errs = []
    for pt, ld in expected:
        best = min(c.point.chordal(pt) for c in port.critical_points
                   if c.local_degree == ld)
        errs.append(best)
    # orbit 1 -> 0 -> -2 -> 0
    chain = [chordal(eval_sphere(g, SpherePoint.of(1.0)), 0.0),
             chordal(eval_sphere(g, SpherePoint.of(0.0)), -2.0),
             chordal(eval_sphere(g, SpherePoint.of(-2.0)), 0.0)]
    pc_expected = [SpherePoint.infinity(), SpherePoint.of(0.0), SpherePoint.of(-2.0)]
    pc_ok = (len(port.postcritical) == 3 and
             all(min(q.chordal(p) for q in port.postcritical) < 1e-9
                 for p in pc_expected))
    flags = (port.critically_finite, port.hyperbolic, port.all_postcritical_periodic)
    worst = max(errs + chain)
    ok = worst < 1e-9 and pc_ok and flags == (True, True, True)
    measured = (f"crit err {worst:.2e}, |P|={len(port.postcritical)}, "
                f"flags={tuple(bool(x) for x in flags)}")
    return ok, measured, "point locations 1e-9, flags all true"


def check_periodic(ctx: Context):
    pts = periodic_points(ctx.g, 2)
    total = sum(p.multiplicity for p in pts)
    at_inf = [p for p in pts if p.point.is_infinity]
    inf_count = sum(p.multiplicity for p in at_inf)
    finite = [p.point.to_complex() for p in pts if not p.point.is_infinity]
    max_im = max(abs(z.imag) for z in finite)
    want = [0.0, -2.0, 2.0]
    incl = max(min(abs(z - w) for z in finite) for w in want)
    ok = total == 10 and inf_count == 1 and max_im < 1e-8 and incl < 1e-9
    measured = (f"count {total}, at-infinity {inf_count}, max|Im| {max_im:.2e}, "
                f"{{0,-2,2}} err {incl:.2e}")
    return ok, measured, "count 10 exactly, |Im| 1e-8, inclusion 1e-9"


def check_rays(ctx: Context):
    g = ctx.g
    land0 = ctx.landing(0, 1)
    e0 = abs(land0 - 2.0)
    p13, p23 = ctx.landing(1, 3), ctx.landing(2, 3)
    gap_co = abs(p13 - p23)
    fixed_err = chordal(eval_sphere(g, as_sphere(p13)), p13)
    gap_16 = abs(ctx.landing(1, 6) - ctx.landing(5, 6))
    ok = e0 < 1e-12 and gap_co < 1e-12 and fixed_err < 1e-12 and gap_16 > 1e-2
    measured = (f"|R_0 - 2| {e0:.2e}, gap(1/3,2/3) {gap_co:.2e}, "
                f"fixed-point err {fixed_err:.2e}, gap(1/6,5/6) {gap_16:.3g}")
    return ok, measured, "landings 1e-12, distinctness gap > 1e-2"


def check_preimages(ctx: Context):
    g = ctx.g
    p = ctx.landing(1, 3)
    pre = [p, ctx.landing(1, 6), ctx.landing(5, 6)]
    min_sep = min(abs(a - b) for i, a in enumerate(pre) for b in pre[i + 1:])
    img_err = max(chordal(eval_sphere(g, as_sphere(z)), p) for z in pre)
    ok = min_sep > 1e-3 and img_err < 1e-12
    measured = f"3 preimages, min separation {min_sep:.3g}, image err {img_err:.2e}"
    return ok, measured, "separation > 1e-3, images within 1e-12 of p"


def check_separation(ctx: Context):
    sep = separation_test(ctx.g, SpherePoint.infinity(), RayAngle(1, 3),
                          RayAngle(2, 3), 0.0, -2.0)
    return bool(sep), f"separates 0 from -2: {sep}", "crossing parity odd"


def check_lifting(ctx: Context):
    g = ctx.g
    ls1 = lift_curve(g, circle(-2.0, 0.1), SpherePoint.infinity())
    one = (len(ls1.lifts) == 1 and ls1.lifts[0].degree == 3
           and ls1.lifts[0].curve.winding(0.0) != 0)
    ls2 = lift_curve(g, circle(0.0, 0.1), SpherePoint.infinity())
    degs = sorted(l.degree for l in ls2.lifts)
    enclose = {}
    for l in ls2.lifts:
        for target in (-2.0, 1.0):
            if l.curve.winding(target) != 0:
                enclose[target] = l.degree
    two = (len(ls2.lifts) == 2 and degs == [1, 2]
           and enclose.get(-2.0) == 1 and enclose.get(1.0) == 2)
    ok = one and two
    measured = (f"around -2: {len(ls1.lifts)} lift deg {[l.degree for l in ls1.lifts]}; "
                f"around 0: degrees {degs}, enclosing -2:deg{enclose.get(-2.0)}, "
                f"1:deg{enclose.get(1.0)}")
    return ok, measured, "exact lift counts, degrees, enclosures"


def check_signs(ctx: Context):
    g = ctx.g
    base = circle(-2.0, 0.1)
    seq_out = sign_change_sequence(g, base, 1e6 + 0j, n=3)
    seq_in = sign_change_sequence(g, base, 0.0, n=1)
    ok = seq_out.change_count == 0 and seq_in.signs[0] == -1
    measured = (f"omega in fixed basin: signs {list(seq_out.signs)} "
                f"({seq_out.change_count} changes); omega=0: first sign "
                f"{seq_in.signs[0]}")
    return ok, measured, "0 sign changes / negative first lift"


def _identity_error(f: RationalMap, ref: RationalMap, rng) -> float:
    worst = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = f.num(z) * ref.den(z)
        b = ref.num(z) * f.den(z)
        scale = max(abs(a), abs(b), 1e-300)
        worst = max(worst, abs(a - b) / scale)
    return worst


def check_catalog(ctx: Context):
    rng = np.random.default_rng(871)
    f3 = pseudo_basilica(3)
    ref3 = normalize(poly(2.0, -3.0, 0.0, 1.0), poly(-1.0, 1.5))
    e3 = _identity_error(f3, ref3, rng)
    f4 = pseudo_basilica(4)
    # 3(z-1)^3(z+3) = 3z^4 + 0z^3 - 18z^2 + 24z - 9
    ref4 = normalize(poly(-9.0, 24.0, -18.0, 0.0, 3.0), poly(3.0, -8.0, 6.0))
    e4 = _identity_error(f4, ref4, rng)
    ok = e3 < 1e-9 and e4 < 1e-9
    measured = f"cubic identity err {e3:.2e}, quartic identity err {e4:.2e}"
    return ok, measured, "cross-multiplied relative error 1e-9 at 20 points"


def check_rabbit(ctx: Context):
    roots = pseudo_rabbit_roots(3)
    target = 1.34781 + 1.02885j
    best = min(abs(r - target) for r in roots)
    ok = best < 1e-3
    return ok, f"{len(roots)} roots, nearest to target {best:.2e}", "1e-3"


def check_pinch(ctx: Context):
    sol = solve_pinch_params()
    c = sol.denominator.coeffs
    # proportional to 1.5 z - 1: ratio of coefficients must be -1.5
    ratio_err = abs(c[1] / c[0] + 1.5)
    res = max(sol.residuals)
    ok = ratio_err < 1e-9 and res < 1e-9
    measured = (f"denominator ratio err {ratio_err:.2e}, "
                f"max residual {res:.2e}")
    return ok, measured, "ratio 1e-9, residuals 1e-9"


def _random_map(rng, max_degree: int = 5) -> RationalMap:
    while True:
        d = int(rng.integers(2, max_degree + 1))
        dn = int(rng.integers(0, d + 1))
        dd = d if dn < d else int(rng.integers(0, d + 1))
        if max(dn, dd) < 2:
            continue
        num = rng.normal(size=dn + 1) + 1j * rng.normal(size=dn + 1)
        den = rng.normal(size=dd + 1) + 1j * rng.normal(size=dd + 1)
        try:
            return normalize(poly(*num), poly(*den))
        except (ValueError, ArithmeticError):
            continue


def check_properties(ctx: Context):
    parts = []
    ok = True

    rng = np.random.default_rng(4022)
    rh_bad = 0
    for _ in range(50):
        f = _random_map(rng)
        try:
            crit = critical_points(f)
        except ArithmeticError:
            rh_bad += 1
            continue
        if sum(c.local_degree - 1 for c in crit) != 2 * f.degree - 2:
            rh_bad += 1
    ok &= rh_bad == 0
    parts.append(f"branching-sum failures {rh_bad}/50")

    rng = np.random.default_rng(515)
    lift_ok = 0
    attempts = 0
    lift_bad = 0
    while lift_ok + lift_bad < 25 and attempts < 400:
        attempts += 1
        f = _random_map(rng, 4)
        center = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        radius = float(rng.uniform(0.2, 0.8))
        omega = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        try:
            ls = lift_curve(f, circle(center, radius, 48), omega)
        except (LiftError, ArithmeticError):
            continue
        if sum(l.degree for l in ls.lifts) == f.degree:
            lift_ok += 1
        else:
            lift_bad += 1
    ok &= lift_bad == 0 and lift_ok == 25
    parts.append(f"lift degree sums {lift_ok}/25 good, {lift_bad} bad")

    g = ctx.g
    worst_fun = 0.0
    for t, tr in ctx.traces.items():
        img = ctx.traces[t.times(2)]
        sub = tr.sublevels
        for q in range(sub, len(tr.samples)):
            w = eval_sphere(g, as_sphere(tr.samples[q]))
            worst_fun = max(worst_fun, chordal(w, img.samples[q - sub]))
    ok &= worst_fun < 1e-6
    parts.append(f"ray functoriality {worst_fun:.2e}")

    count_bad = []
    for name in CATALOG_NAMES:
        f = by_name(name)
        d = f.degree
        p = 1
        while d ** p <= 81:
            pts = periodic_points(f, p)
            total = sum(q.multiplicity for q in pts)
            if total != d ** p + 1:
                count_bad.append((name, p, total))
            p += 1
    ok &= not count_bad
    parts.append(f"periodic count failures {len(count_bad)}")

    bounds = _basins.Bounds(-2.8, 2.8, -2.1, 2.1)
    imgs = []
    for _ in range(2):
        grid = _basins.classify_grid(g, ctx.portrait, bounds, (120, 90))
        imgs.append(_basins.render_ppm(grid))
    ok &= imgs[0] == imgs[1]
    parts.append(f"render determinism {'ok' if imgs[0] == imgs[1] else 'BROKEN'}")

    return bool(ok), "; ".join(parts), "all sub-properties exact / 1e-6"


def check_basins(ctx: Context):
    g = ctx.g
    grid = ctx.grid
    lab = _basins.label_components(grid)
    c0 = _basins.component_of(lab, 0.0 + 0.0j)
    cm2 = _basins.component_of(lab, -2.0 + 0.0j)
    distinct = c0.label != cm2.label

    def image_classes(zs):
        """classify_points at the images f(z), z in zs, evaluated one by one."""
        pts = [eval_sphere(g, as_sphere(complex(z))) for z in zs]
        return _basins.classify_points(g, grid.cycles, [x.z for x in pts], [x.w for x in pts])

    rng = np.random.default_rng(97)
    rows, cols = np.nonzero(grid.cycle_id >= 0)
    idx = rng.choice(len(rows), size=500, replace=False)
    rows, cols = rows[idx], cols[idx]
    cid = grid.cycle_id[rows, cols]
    period = np.array([len(cyc) for cyc in grid.cycles])[cid]
    sync = (grid.phase[rows, cols] - grid.steps[rows, cols]) % period
    cid2, ph2, st2 = image_classes(map(grid.cell_center, rows, cols))
    good = int(((cid2 == cid) & ((ph2 - st2) % period == (sync + 1) % period)).sum())
    frac = good / 500.0

    inf_id = next(i for i, cyc in enumerate(grid.cycles) if cyc[0].is_infinity)
    x, y = rng.uniform(-4, 4, size=(4000, 2)).T
    starts = x + 1j * y
    escaping = starts[_basins.classify_points(g, grid.cycles, starts, 1.0)[0] == inf_id][:200]
    checked = escaping.size
    escaped_ok = int((image_classes(escaping)[0] == inf_id).sum())

    ok = distinct and frac >= 0.95 and checked == 200 and escaped_ok == 200
    measured = (f"components of 0/-2: {c0.label}/{cm2.label}, phase-shift "
                f"fraction {frac:.3f}, escaping images {escaped_ok}/{checked}")
    return ok, measured, "distinct labels, fraction >= 0.95, 200/200"


_REGISTRY = (
    ("critical-portrait", "portrait", check_portrait),
    ("periodic-points", "periodic", check_periodic),
    ("ray-landings", "rays", check_rays),
    ("boundary-preimages", "preimages", check_preimages),
    ("ray-separation", "separation", check_separation),
    ("lift-degrees", "lifting", check_lifting),
    ("sign-dichotomy", "signs", check_signs),
    ("catalog-identities", "catalog", check_catalog),
    ("rabbit-parameter", "rabbit", check_rabbit),
    ("pinch-solver", "pinch", check_pinch),
    ("property-suites", "properties", check_properties),
    ("basin-dynamics", "basins", check_basins),
)


def groups() -> tuple:
    return tuple(g for _, g, _ in _REGISTRY)


def run_checks(only: Optional[str] = None) -> list[CheckResult]:
    if only is not None and only not in groups():
        raise ValueError(f"unknown check group {only!r}; known: {', '.join(groups())}")
    ctx = Context()
    results = []
    for name, group, fn in _REGISTRY:
        if only is not None and group != only:
            continue
        try:
            ok, measured, tol = fn(ctx)
        except Exception as exc:  # a crashed check is a failed check
            ok, measured, tol = False, f"raised {type(exc).__name__}: {exc}", "n/a"
        results.append(CheckResult(name, group, bool(ok), measured, tol))
    return results
