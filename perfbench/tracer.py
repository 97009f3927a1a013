"""Spans around calls into the package's public functions, from outside it.

Python resolves a module global at call time, so replacing the name
`preimages` in `fatou.rays` catches the calls `trace_orbit` makes inside the
package. Nothing under `src/` changes. A span is [name, start, end, parent,
note]; parents are kept per thread, and a span opened on a thread with no
open span (the `ray` command's worker pool) hangs under the current root,
the `cli.dispatch` span of the command being run.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict

import numpy as np

SMALL_DEGREE = 8

# span name -> places the function is called through (module, attribute)
SITES = {
    "jsonio.dumps": [("fatou._jsonio", "dumps")],
    "sphere.poly_roots": [("fatou.ratmap", "poly_roots"), ("fatou.orbits", "poly_roots"),
                          ("fatou.catalog", "poly_roots")],
    "ratmap.preimages": [("fatou.rays", "preimages"), ("fatou.lifting", "preimages")],
    "ratmap.compose_self": [("fatou.orbits", "compose_self")],
    "ratmap.critical_points": [("fatou.rays", "critical_points"),
                               ("fatou.lifting", "critical_points"),
                               ("fatou.orbits", "critical_points"),
                               ("fatou.catalog", "critical_points")],
    "orbits.critical_portrait": [("fatou.cli", "critical_portrait")],
    "orbits.periodic_points": [("fatou.cli", "periodic_points")],
    "rays.trace_orbit": [("fatou.rays", "trace_orbit")],
    "basins.classify_grid": [("fatou.basins", "classify_grid")],
    "basins.label_components": [("fatou.basins", "label_components")],
    "basins.render_ppm": [("fatou.basins", "render_ppm")],
    "lifting.lift_curve": [("fatou.cli", "lift_curve"), ("fatou.lifting", "lift_curve")],
    "lifting.sign_change_sequence": [("fatou.cli", "sign_change_sequence")],
    "lifting.outermost_lifts": [("fatou.lifting", "outermost_lifts")],
    "geom.point_polyline_distance": [("fatou.lifting", "point_polyline_distance"),
                                     ("fatou.rays", "point_polyline_distance")],
}


def _poly_roots_name(args, kwargs) -> str:
    p = args[0] if args else kwargs["p"]
    return "sphere.poly_roots." + ("small" if p.degree <= SMALL_DEGREE else "large")


def _trace_note(result):
    """(rays traced, fiber samples kept) of one trace_orbit call."""
    return [len(result), sum(len(tr.samples) - tr.sublevels for tr in result.values())]


def _cell_steps(grid):
    return int(np.where(grid.cycle_id < 0, grid.max_iter, grid.steps).sum())


NAMERS = {"sphere.poly_roots": _poly_roots_name}
NOTES = {
    "rays.trace_orbit": _trace_note,
    "basins.classify_grid": _cell_steps,
    "lifting.lift_curve": lambda ls: len(ls.base_refined),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.root = None
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name: str, fn):
        namer = NAMERS.get(name)
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            span = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                    stack[-1] if stack else self.root, None]
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = "error:" + type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if note:
                span[4] = note(result)
            return result
        return traced

    def install(self):
        """Wrap every site. A site that no longer exists raises, so that a
        renamed function breaks the traced run instead of reading 0."""
        for name, sites in SITES.items():
            for mod_name, attr in sites:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    self.uninstall()
                    raise RuntimeError(f"trace site {mod_name}.{attr} ({name}) is missing")
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def root_span(self, name: str):
        """Open a root span on the calling thread; close it with end()."""
        span = [name, time.perf_counter(), 0.0, None, None]
        self.root = span
        self._stack().append(span)
        return span

    def end(self, span):
        span[2] = time.perf_counter()
        self._stack().pop()
        self.root = None
        self.spans.append(span)

    def write(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s[0], s[1], s[2], index.get(id(s[3])) if s[3] is not None else None, s[4]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"], "spans": rows}, fh)


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _ancestor(span, name: str) -> bool:
    p = span[3]
    while p is not None:
        if p[0] == name:
            return True
        p = p[3]
    return False


def layer_metrics(spans, rounds: int, rays_reported: int) -> dict:
    """Per-layer figures per traced round. Times are self times: a span's
    duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[id(s[3])].append((s[1], s[2]))
    calls = defaultdict(int)
    self_s = defaultdict(float)
    dispatch_total = 0.0
    for s in spans:
        dur = s[2] - s[1]
        calls[s[0]] += 1
        self_s[s[0]] += dur - _union_length(children.get(id(s), ()), s[1], s[2])
        if s[0] == "cli.dispatch":
            dispatch_total += dur

    def by_name(name):
        return [s for s in spans if s[0] == name]

    traces = by_name("rays.trace_orbit")
    traced_rays = sum(s[4][0] for s in traces if s[4])
    kept_samples = sum(s[4][1] for s in traces if s[4])
    pre = by_name("ratmap.preimages")
    fibers_in_rays = sum(1 for s in pre if _ancestor(s, "rays.trace_orbit"))
    fibers_in_lifts = sum(1 for s in pre if _ancestor(s, "lifting.lift_curve"))
    refined = sum(s[4] for s in by_name("lifting.lift_curve") if s[4])
    errors = sum(1 for s in spans if s[0].startswith("sphere.poly_roots")
                 and isinstance(s[4], str) and s[4].startswith("error"))
    cell_steps = sum(s[4] for s in by_name("basins.classify_grid") if s[4])

    def ratio(a, b):
        return a / b if b else 0.0

    per_round = {
        "cli.dispatch.s": (dispatch_total, "s"),
        "cli.self.s": (self_s["cli.dispatch"], "s"),
        "jsonio.dumps.s": (self_s["jsonio.dumps"], "s"),
        "sphere.poly_roots.small.calls": (calls["sphere.poly_roots.small"], "count"),
        "sphere.poly_roots.small.s": (self_s["sphere.poly_roots.small"], "s"),
        "sphere.poly_roots.large.calls": (calls["sphere.poly_roots.large"], "count"),
        "sphere.poly_roots.large.s": (self_s["sphere.poly_roots.large"], "s"),
        "sphere.poly_roots.errors": (errors, "count"),
        "ratmap.preimages.calls": (calls["ratmap.preimages"], "count"),
        "ratmap.preimages.s": (self_s["ratmap.preimages"], "s"),
        "ratmap.compose_self.s": (self_s["ratmap.compose_self"], "s"),
        "ratmap.critical_points.s": (self_s["ratmap.critical_points"], "s"),
        "orbits.critical_portrait.s": (self_s["orbits.critical_portrait"], "s"),
        "orbits.periodic_points.s": (self_s["orbits.periodic_points"], "s"),
        "rays.trace_orbit.calls": (calls["rays.trace_orbit"], "count"),
        "rays.trace_orbit.s": (self_s["rays.trace_orbit"], "s"),
        "basins.classify_grid.s": (self_s["basins.classify_grid"], "s"),
        "basins.cell_steps": (cell_steps, "count"),
        "basins.label_components.s": (self_s["basins.label_components"], "s"),
        "basins.render_ppm.s": (self_s["basins.render_ppm"], "s"),
        "lifting.lift_curve.calls": (calls["lifting.lift_curve"], "count"),
        "lifting.lift_curve.s": (self_s["lifting.lift_curve"], "s"),
        "lifting.sign_change_sequence.s": (self_s["lifting.sign_change_sequence"], "s"),
        "lifting.outermost_lifts.s": (self_s["lifting.outermost_lifts"], "s"),
        "geom.point_polyline_distance.calls": (calls["geom.point_polyline_distance"], "count"),
        "geom.point_polyline_distance.s": (self_s["geom.point_polyline_distance"], "s"),
    }
    out = {k: {"value": v / rounds, "unit": u} for k, (v, u) in per_round.items()}
    out["rays.traced_per_reported"] = {"value": ratio(traced_rays, rays_reported),
                                       "unit": "ratio"}
    out["rays.fibers_per_sample"] = {"value": ratio(fibers_in_rays, kept_samples),
                                     "unit": "ratio"}
    out["lifting.fibers_per_vertex"] = {"value": ratio(fibers_in_lifts, refined),
                                        "unit": "ratio"}
    return out
