"""The benchmark's traced run wraps package functions by (module, attribute)
name; a refactor that drops one of those names must fail here, not only in a
traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_trace_site_resolves_to_a_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = [site for group in tracer.SITES.values() for site in group]
    assert sites
    missing = [f"{mod}.{attr}" for mod, attr in sites
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
