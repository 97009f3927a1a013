"""The benchmark's output checks (perfbench/checks.py) refuse a wrong output:
each takes a real `fatou` output that it passes, then the same output with
one field corrupted, which it must refuse with CheckFailed. A check that no
corruption can fail would count wrong work as work done."""

import copy
import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from fatou.cli import dispatch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WIDE = (-2.8, 2.8, -2.1, 2.1)


@pytest.fixture(scope="module")
def checks():
    sys.dont_write_bytecode, was = True, sys.dont_write_bytecode
    try:
        spec = importlib.util.spec_from_file_location("checks", PERFBENCH / "checks.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = was
    return module


def _run(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert dispatch(argv) == 0, argv
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def maps(checks):
    """The catalog as the benchmark reads it, from `catalog --coeffs`."""
    return {m["name"]: checks.Map(m["num"], m["den"])
            for m in _run(["catalog", "--coeffs"])["maps"]}


def _refused(checks, check, good: dict, corrupt, match: str, **kw):
    """check passes good and refuses the copy that corrupt changes, with a
    message that matches."""
    assert check(copy.deepcopy(good), **kw) > 0
    bad = copy.deepcopy(good)
    corrupt(bad)
    assert bad != good
    with pytest.raises(checks.CheckFailed, match=match):
        check(bad, **kw)


def test_check_ray_refuses_a_moved_landing(checks, maps):
    doc = _run(["ray", "--map", "paper-g", "--angle", "1/3", "--angle", "2/3", "--samples"])

    def corrupt(d):
        d["rays"][1]["landing"][1] += 1e-4  # R_2/3 off R_1/3's landing
    _refused(checks, checks.check_ray, doc, corrupt, "misses landing 2/3", f=maps["paper-g"],
             map_name="paper-g", angles=("1/3", "2/3"), samples=True, colanding=True)


def test_check_render_refuses_a_wrong_component_count(checks, maps, tmp_path):
    ppm = tmp_path / "basins.ppm"
    doc = _run(["render", "--map", "paper-g", "--out", str(ppm), "--resolution", "60x45"])
    cls = checks.colour_classes(checks.read_ppm(ppm, 60, 45))

    def corrupt(d):
        d["components"] += 1
    _refused(checks, lambda d, **kw: checks.check_render(d, rng=np.random.default_rng(1), **kw),
             doc, corrupt, "components", f=maps["paper-g"], cls=cls, bounds=WIDE)


def test_check_lift_refuses_a_flipped_sign(checks, maps):
    doc = _run(["lift", "--map", "paper-g", "--center=-2.0,0", "--radius", "0.1",
                "--segments", "64"])

    def corrupt(d):
        d["lifts"][0]["sign"] *= -1
    _refused(checks, checks.check_lift, doc, corrupt, "lift sign", f=maps["paper-g"],
             center=-2 + 0j, radius=0.1, segments=64, omega=None)


def test_check_tower_refuses_a_miscounted_sign_change(checks, maps):
    doc = _run(["lift", "--map", "paper-g", "--center=-2.0,0", "--radius", "0.1",
                "--steps", "3", "--omega", "0.0,0.0"])

    def corrupt(d):
        d["sign_changes"] += 1
    _refused(checks, checks.check_tower, doc, corrupt, "sign_changes", f=maps["paper-g"],
             steps=3, omega_at_infinity=False)


def test_check_periodic_refuses_a_moved_point(checks, maps):
    doc = _run(["periodic", "--map", "pseudo-basilica:2", "--period", "3"])

    def corrupt(d):
        finite = next(p for p in d["points"] if p["point"] != "inf")
        finite["point"][0] += 1e-6  # Newton distance about 1e-6, above 1e-9
    _refused(checks, checks.check_periodic, doc, corrupt, "Newton distance",
             f=maps["pseudo-basilica:2"], period=3)
