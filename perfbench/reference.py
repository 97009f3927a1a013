"""Reference figures quoted in README.md, measured afresh.

    python3 perfbench/reference.py

Prints: one `trace_orbit` call for {0, 1/6, 5/6} on paper-g with its
poly_roots calls and kept samples; classify/label times of a 400x400 render
and the mean steps of the wide view against the zoom; the share of a
`lift --steps 4` tower spent in `outermost_lifts`; and the pass/fail table of
the periodic workload.
"""

from __future__ import annotations

import sys
import time

import numpy as np

import run
import tracer
import workloads
from checks import CheckFailed


def _timed(fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return out, time.perf_counter() - t0


def main() -> int:
    cli = run.load_package()
    from fatou import basins, rays
    from fatou.catalog import by_name
    from fatou.orbits import critical_portrait
    from fatou.sphere import SpherePoint

    g = by_name("paper-g")
    tr = tracer.Tracer()
    tr.install()
    try:
        res, dt = _timed(rays.trace_orbit, g, SpherePoint.infinity(), ["0", "1/6", "5/6"])
    finally:
        tr.uninstall()
    roots = sum(1 for s in tr.spans if s[0].startswith("sphere.poly_roots"))
    kept = sum(len(t.samples) - t.sublevels for t in res.values())
    print(f"trace_orbit paper-g {{0, 1/6, 5/6}}: {dt:.2f} s, {len(res)} rays traced, "
          f"{roots} poly_roots calls for {kept} kept samples")

    port = critical_portrait(g)
    for label, bounds in (("wide", workloads.WIDE), ("zoom", workloads.ZOOM)):
        grid, t_cls = _timed(basins.classify_grid, g, port, basins.Bounds(*bounds), (400, 400))
        _, t_lab = _timed(basins.label_components, grid)
        steps = np.where(grid.cycle_id < 0, grid.max_iter, grid.steps).mean()
        print(f"render paper-g 400x400 {label}: classify {t_cls:.2f} s, label {t_lab:.2f} s, "
              f"mean steps {steps:.1f}")

    tr = tracer.Tracer()
    tr.install()
    span = tr.root_span("cli.dispatch")
    try:
        run.call(cli, ["lift", "--map", "paper-g", "--center=-2.0,0", "--radius", "0.1",
                       "--steps", "4", "--omega", "inf"])
    finally:
        tr.end(span)
        tr.uninstall()
    outer = sum(s[2] - s[1] for s in tr.spans if s[0] == "lifting.outermost_lifts")
    total = span[2] - span[1]
    print(f"lift paper-g --steps 4 omega inf: {total:.2f} s, {outer / total:.0%} in "
          f"outermost_lifts")

    maps = run.load_maps(cli)
    print("periodic workload (map, period, d^p, expected fault, outcome):")
    for op in workloads.periodic(maps):
        rc, out, err, _ = run.call(cli, op.argv)
        if rc != 0:
            outcome = "exit %s: %s" % (rc, err.strip().splitlines()[-1].split(":")[1].strip())
        else:
            try:
                op.check(out)
                outcome = "pass"
            except CheckFailed as exc:
                outcome = f"check: {exc}"
        name, period = op.argv[2], int(op.argv[4])
        print(f"  {name:18s} {period}  {maps[name].degree ** period:4d}  {op.fault or '-'}  "
              f"{outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
