"""The benchmark keys its maps by the names `fatou catalog --coeffs` prints
(perfbench/run.py, load_maps); a catalog change that drops or renames a map
a workload runs must fail here, not only in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

from fatou.cli import dispatch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # workloads imports checks
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_map_is_in_the_catalog(monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    _load("checks", monkeypatch)
    wl = _load("workloads", monkeypatch)
    used = set(wl.CATALOG) | {row[0] for table in (wl.RAYS, wl.BASINS, wl.TOWERS)
                              for row in table}
    assert dispatch(["catalog", "--coeffs"]) == 0
    names = {m["name"] for m in json.loads(capsys.readouterr().out)["maps"]}
    assert sorted(used - names) == []
    assert "paper-g" in used
