import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fatou.basins
import fatou.catalog
import fatou.rays
from fatou.catalog import by_name, paper_g
from fatou.cli import build_parser, dispatch
from fatou.ratmap import map_to_jsonable
from fatou.sphere import Polynomial, SpherePoint


def _run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_portrait_output(capsys):
    code, out, err = _run(capsys, ["portrait", "--map", "paper-g"])
    assert code == 0
    assert out.count("\n") == 1  # single line of JSON
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["map"] == "paper-g"
    assert doc["degree"] == 3
    pts = {tuple(e["point"]) if isinstance(e["point"], list) else e["point"]:
           e["local_degree"] for e in doc["critical_points"]}
    assert pts == {"inf": 2, (0.0, 0.0): 3, (1.0, 0.0): 2}
    assert doc["critically_finite"] is True
    assert doc["hyperbolic"] is True
    assert doc["all_postcritical_periodic"] is True
    post = doc["postcritical"]
    assert "inf" in post and len(post) == 3


def test_json_output_is_deterministic(capsys):
    _, a, _ = _run(capsys, ["portrait", "--map", "paper-g"])
    _, b, _ = _run(capsys, ["portrait", "--map", "paper-g"])
    assert a == b
    _, a, _ = _run(capsys, ["periodic", "--map", "paper-g", "--period", "2"])
    _, b, _ = _run(capsys, ["periodic", "--map", "paper-g", "--period", "2"])
    assert a == b


def test_periodic_output(capsys):
    code, out, _ = _run(capsys, ["periodic", "--map", "paper-g",
                                 "--period", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["period"] == 2
    assert doc["count"] == 10
    assert sum(p["multiplicity"] for p in doc["points"]) == 10
    assert {p["minimal_period"] for p in doc["points"]} == {1, 2}
    infs = [p for p in doc["points"] if p["point"] == "inf"]
    assert len(infs) == 1 and infs[0]["multiplicity"] == 1


def test_ray_output_dedupes_angles(capsys):
    code, out, _ = _run(capsys, ["ray", "--map", "paper-g", "--angle", "1/3",
                                 "--angle", "1/3", "--angle", "2/3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["basin"] == "inf"
    assert [r["angle"] for r in doc["rays"]] == ["1/3", "2/3"]
    for r in doc["rays"]:
        assert r["landed"] is True
        assert abs(r["landing"][0] + 1.2807764064044149) < 1e-6
        assert r["landing"][1] == 0.0  # a real landing of a real map
        assert r["residual"] < 1e-6
        assert r["certified"] is True
        assert abs(r["multiplier"] - 1.7301234236026384) < 1e-12  # |g'(alpha)|^2
        assert 0.3 < r["disc_radius"] < 0.5  # the rim-proved disc of f about alpha
        assert "samples" not in r
    # a depth too shallow to certify: the tail rule, and no multiplier
    code, out, _ = _run(capsys, ["ray", "--map", "paper-g", "--angle", "1/3",
                                 "--depth", "3"])
    assert code == 0
    r = json.loads(out)["rays"][0]
    assert (r["landed"], r["certified"], r["multiplier"], r["disc_radius"]) \
        == (False, False, None, None)


def test_dispatches_share_one_parser_and_no_state(capsys):
    assert build_parser() is build_parser()
    _, first, _ = _run(capsys, ["ray", "--map", "paper-g", "--angle", "1/3"])
    assert [r["angle"] for r in json.loads(first)["rays"]] == ["1/3"]
    code, out, _ = _run(capsys, ["ray", "--map", "paper-g", "--angle", "0",
                                 "--angle", "1/2"])
    assert code == 0
    assert [r["angle"] for r in json.loads(out)["rays"]] == ["0/1", "1/2"]
    code, out, err = _run(capsys, ["ray", "--map", "paper-g", "--angle", "0.25"])
    assert (code, out) == (2, "") and "--angle" in err
    assert _run(capsys, ["ray", "--map", "paper-g", "--angle", "1/3"]) == (0, first, "")


def test_ray_samples_flag(capsys):
    code, out, _ = _run(capsys, ["ray", "--map", "paper-g", "--angle", "0",
                                 "--samples"])
    assert code == 0
    doc = json.loads(out)
    ray = doc["rays"][0]
    assert len(ray["samples"]) == len(ray["potentials"])
    assert ray["potentials"][0] == 100.0
    # first sample is far out, near the r0 circle
    x, y = ray["samples"][0]
    assert abs(complex(x, y)) > 10.0


def test_ray_traces_the_request_in_one_orbit_call_in_request_order(capsys, monkeypatch):
    calls = []
    real = fatou.rays.trace_orbit

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(fatou.rays, "trace_orbit", counted)
    for angles, reported in ((["1/6", "5/6", "1/6"], ["1/6", "5/6"]),
                             (["5/6", "1/6", "5/6"], ["5/6", "1/6"])):
        calls.clear()
        argv = ["ray", "--map", "paper-g"]
        for t in angles:
            argv += ["--angle", t]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert len(calls) == 1
        rays = json.loads(out)["rays"]
        assert [r["angle"] for r in rays] == reported
        assert all(r["landed"] for r in rays)


def test_lift_report(capsys):
    code, out, _ = _run(capsys, ["lift", "--map", "paper-g",
                                 "--center=-2,0", "--radius", "0.1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total_degree"] == 3
    assert doc["monodromy"] == [1, 2, 0]
    assert [l["degree"] for l in doc["lifts"]] == [3]
    assert doc["lifts"][0]["sign"] == 1


def test_sign_sequence_report(capsys):
    code, out, _ = _run(capsys, ["lift", "--map", "paper-g", "--center=-2,0",
                                 "--radius", "0.1", "--steps", "2",
                                 "--omega", "0,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["base_sign"] == 1
    assert doc["signs"] == [-1, 1]
    assert doc["sign_changes"] == 2
    assert doc["outermost_counts"] == [1, 2]


def test_tower_whose_lifts_shrink_far_from_zero(capsys):
    # the chosen lifts shrink toward 0.78 - 0.18i, to a diameter of 2.5e-8
    # at step 6; the shoelace sum at absolute coordinates cancels to 0.0 at
    # step 7 and the tower failed with "degenerate curve with zero area"
    code, out, _ = _run(capsys, ["lift", "--map", "paper-degree4", "--center=0,0",
                                 "--radius", "0.1", "--steps", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["signs"] == [1] * 8
    assert doc["outermost_counts"] == [2, 4, 4, 4, 4, 4, 4, 4]


def test_catalog_listing(capsys):
    code, out, _ = _run(capsys, ["catalog"])
    assert code == 0
    doc = json.loads(out)
    names = {m["name"]: m["degree"] for m in doc["maps"]}
    assert names["paper-g"] == 3
    assert names["paper-degree4"] == 4
    assert "num" not in doc["maps"][0]
    code, out, _ = _run(capsys, ["catalog", "--coeffs"])
    doc = json.loads(out)
    assert all("num" in m and "den" in m for m in doc["maps"])
    g = next(m for m in doc["maps"] if m["name"] == "paper-g")
    assert len(g["num"]) == 4 and len(g["den"]) == 2


def test_map_loading_from_json_file(capsys, tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(map_to_jsonable(paper_g())))
    code, out, _ = _run(capsys, ["portrait", "--map", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 3
    assert doc["critically_finite"] is True


@pytest.mark.parametrize("text, message", [
    (None, "Is a directory"),
    ("{not json", "Expecting property name"),
    ("[" * 100000, "recursion depth"),
    ('{"num": [[1, 0]]}', "malformed map object"),
    ('{"num": [[1' + "0" * 400 + ', 0], [0, 0], [1, 0]], "den": [[1, 0]]}', "too large"),
    ('{"num": [[NaN, 0], [0, 0], [1, 0]], "den": [[1, 0]]}', "coefficients must be finite"),
    ('{"num": [[0, 0], [0, 0], [1, 0]], "den": [[Infinity, 0]]}', "coefficients must be finite"),
    ('{"num": [[0, 0], [1, 0]], "den": [[1, 0]]}', "degree 1"),
    ('{"num": [[1e300, 0], [0, 0], [1, 0]], "den": [[1, 0]]}', "after dropping coefficients"),
    ('{"num": [[true, false], [0, 0], [1, 0]], "den": [[1, 0]]}', "malformed map object"),
], ids=["unreadable", "not-json", "too-deep", "malformed", "huge", "nan", "infinity", "degree-1",
        "coefficient-range", "booleans"])
def test_bad_map_files_are_usage_errors(capsys, tmp_path, text, message):
    path = tmp_path / "bad.json"
    if text is None:
        path.mkdir()  # exists, but cannot be opened as a file
    else:
        path.write_text(text)
    code, out, err = _run(capsys, ["portrait", "--map", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: --map: ")
    assert message in err


@pytest.mark.parametrize("argv", [
    ["ray", "--angle", "0"],
    ["portrait"],
    ["periodic", "--period", "2"],
    ["lift", "--center=0,0", "--radius", "0.5"],
    ["render", "--resolution", "8x8", "--out", "out.ppm"],
], ids=lambda argv: argv[0])
def test_a_map_whose_denominator_scales_to_zero_is_a_usage_error(
        capsys, tmp_path, monkeypatch, argv):
    # scaling 1e300 to modulus 1 takes the denominator 1e-300 to 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "range.json").write_text(
        '{"num": [[0,0],[0,0],[1e300,0]], "den": [[1e-300,0]]}')
    code, out, err = _run(capsys, argv[:1] + ["--map", "range.json"] + argv[1:])
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.startswith("usage error: --map: ") and "to 0 or to infinity" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["range.json"]


def test_a_ray_disc_whose_derivative_bound_overflows_warns_nothing(capsys, tmp_path, monkeypatch):
    # on z^3 about its basin at 0 the walk's derivative bounds multiply past
    # the float range; that bound is refused, and the product may not warn
    # (the suite turns a RuntimeWarning into an error)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cube.json").write_text('{"num": [[0,0],[0,0],[0,0],[1,0]], "den": [[1,0]]}')
    code, out, err = _run(capsys, ["ray", "--map", "cube.json", "--basin", "0,0",
                                   "--angle", "1/7", "--angle", "1/2"])
    assert (code, err) == (0, "")
    assert out == (
        '{"schema": 1, "map": "cube.json", "basin": [0.0, 0.0], "depth": 96, "r0": 100.0, '
        '"rays": [{"angle": "1/7", "landed": true, "landing": [0.6234898018587335, '
        '-0.7818314824680298], "certified": true, "multiplier": 728.9999999999754, '
        '"disc_radius": 0.0013906571056709711, "residual": 4.743320116959011e-17, '
        '"potential_sublevels": 4}, {"angle": "1/2", "landed": true, "landing": [-1.0, 0.0], '
        '"certified": true, "multiplier": 3.0, "disc_radius": 0.45386267656367346, '
        '"residual": 0.0, "potential_sublevels": 4}]}\n')


def test_render_writes_ppm(capsys, tmp_path):
    out_path = tmp_path / "basins.ppm"
    args = ["render", "--map", "paper-g", "--resolution", "80x60",
            "--out", str(out_path)]
    code, out, _ = _run(capsys, args)
    assert code == 0
    doc = json.loads(out)
    assert doc["resolution"] == [80, 60]
    assert doc["out"] == str(out_path)
    data = out_path.read_bytes()
    assert data.startswith(b"P6\n80 60\n255\n")
    assert len(data) == len(b"P6\n80 60\n255\n") + 80 * 60 * 3
    # byte-identical on a second run
    code, _, _ = _run(capsys, args)
    assert code == 0
    assert out_path.read_bytes() == data


def _no_classification(*args, **kwargs):
    raise AssertionError("render classified a grid it should have refused")


@pytest.mark.parametrize("out_arg", ["missing-dir/x.ppm", "."])
def test_render_refuses_an_unwritable_out_before_classifying(
        capsys, tmp_path, monkeypatch, out_arg):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(fatou.basins, "classify_grid", _no_classification)
    code, out, err = _run(capsys, ["render", "--map", "paper-g", "--out", out_arg])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: --out: ")
    assert list(tmp_path.iterdir()) == []


def test_render_resolution_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cap = fatou.basins.MAX_CELLS
    monkeypatch.setattr(fatou.basins, "superattracting_cycles", _no_classification)
    code, out, err = _run(capsys, ["render", "--map", "paper-g", "--out", "x.ppm",
                                   "--resolution", f"{cap + 1}x1"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: --resolution: {cap + 1}x1 is {cap + 1} cells")

    # at the cap the command goes on to classify (stubbed: nothing large is made)
    seen = []

    def stub(f, portrait, bounds, resolution, **kwargs):
        seen.append(resolution)
        raise ValueError("stub classifier")
    monkeypatch.setattr(fatou.basins, "classify_grid", stub)
    code, out, err = _run(capsys, ["render", "--map", "paper-g", "--out", "x.ppm",
                                   "--resolution", f"{cap}x1"])
    assert seen == [(cap, 1)]
    assert code == 1
    assert "stub classifier" in err
    assert list(tmp_path.iterdir()) == []


def test_usage_errors_exit_two(capsys):
    cases = [
        ["portrait", "--map", "no-such-map"],
        ["ray", "--map", "paper-g", "--angle", "0.25"],
        ["ray", "--map", "paper-g"],  # missing required --angle
        ["ray", "--map", "paper-g", "--angle", "0", "--depth", "0"],
        ["ray", "--map", "paper-g", "--angle", "0", "--r0", "-5"],
        ["render", "--map", "paper-g", "--resolution", "axb",
         "--out", "/tmp/x.ppm"],
        ["verify", "--only", "bogus-group"],
        ["no-such-command"],
        [],
    ]
    for argv in cases:
        code, out, err = _run(capsys, argv)
        assert code == 2, f"argv {argv} gave {code}"


@pytest.mark.parametrize("flag, argv", [
    ("--segments", ["lift", "--map", "paper-g", "--center=-2,0",
                    "--radius", "0.1", "--segments", "2"]),
    ("--steps", ["lift", "--map", "paper-g", "--center=-2,0",
                 "--radius", "0.1", "--steps=-1"]),
    ("--max-iter", ["render", "--map", "paper-g", "--max-iter=-5",
                    "--out", "unused.ppm"]),
    ("--segments", ["lift", "--map", "paper-g", "--center=-2,0",
                    "--radius", "0.1", "--segments", "20001"]),  # MAX_SEGMENTS + 1
    ("--steps", ["lift", "--map", "paper-g", "--center=-2,0",
                 "--radius", "0.1", "--steps", "65"]),  # MAX_STEPS + 1
    ("--max-iter", ["render", "--map", "paper-g", "--max-iter", "10001",
                    "--out", "unused.ppm"]),  # MAX_ITER + 1
    ("--period", ["periodic", "--map", "paper-g", "--period", "9"]),  # 3^9 > 4096
    ("--period", ["periodic", "--map", "paper-g", "--period", "30000000"]),
])
def test_out_of_range_counts_are_usage_errors(capsys, tmp_path, monkeypatch, flag, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: {flag}")
    assert not (tmp_path / "unused.ppm").exists()


_FINITE = "bounds and their spans must be finite"
_EXPECTS = "expects four numbers 'xmin,xmax,ymin,ymax', got "


@pytest.mark.parametrize("bounds, message", [
    pytest.param("-inf,inf,-1,1", _FINITE, id="-inf,inf,-1,1-finite"),
    pytest.param("-1,1,-1,inf", _FINITE, id="-1,1,-1,inf-finite"),
    # the x span overflows
    pytest.param("-1e308,1e308,-1,1", _FINITE, id="-1e308,1e308,-1,1-finite"),
    pytest.param("-1,1,-1e308,1e308", _FINITE, id="-1,1,-1e308,1e308-finite"),
    pytest.param("nan,1,-1,1", "empty bounds", id="nan,1,-1,1-empty"),
    pytest.param("1,1,-1,1", "empty bounds", id="1,1,-1,1-empty"),
    pytest.param("-1,1,1,-1", "empty bounds", id="-1,1,1,-1-empty"),
    pytest.param("-1,1,-1", _EXPECTS + "'-1,1,-1'", id="-1,1,-1-xmin,xmax,ymin,ymax"),
    pytest.param("a,1,-1,1", _EXPECTS + "'a,1,-1,1'", id="a,1,-1,1-float"),
])
def test_unusable_bounds_are_usage_errors(capsys, tmp_path, monkeypatch, bounds, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, ["render", "--map", "paper-g", "--resolution", "4x4",
                                   "--out", "unused.ppm", "--bounds=" + bounds])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == f"fatou render: error: argument --bounds: {message}"
    assert not (tmp_path / "unused.ppm").exists()


_LIFT = ["lift", "--map", "paper-g", "--center=-2,0", "--radius", "0.1"]
_RAY = ["ray", "--map", "paper-g", "--angle", "1/3"]


@pytest.mark.parametrize("flag, argv", [
    ("--trap-radius", ["render", "--map", "paper-g", "--out", "unused.ppm",
                       "--trap-radius", "nan"]),
    ("--eps", _LIFT + ["--eps", "nan"]),
    ("--eps", _LIFT + ["--eps", "inf"]),
    ("--r0", _RAY + ["--r0", "inf"]),
    ("--r0", _RAY + ["--r0", "nan"]),
    ("--r0", _RAY + ["--r0", "5"]),  # below the smallest trusted starting potential
    ("--radius", ["lift", "--map", "paper-g", "--center=-2,0", "--radius", "nan"]),
    ("--radius", ["lift", "--map", "paper-g", "--center=-2,0", "--radius", "inf"]),
    ("--center", ["lift", "--map", "paper-g", "--center=nan,0", "--radius", "0.1"]),
    ("--omega", _LIFT + ["--omega", "inf,0"]),
    ("--basin", _RAY + ["--basin", "0,nan"]),
    ("--angle", ["ray", "--map", "paper-g", "--angle", "1/1000003"]),  # orbit too long
    ("--center", ["lift", "--map", "paper-g", "--center", "inf", "--radius", "0.1"]),
    # vertices past the float range, or rounded together next to the center
    ("--center/--radius", ["lift", "--map", "paper-g", "--center=1e308,0", "--radius", "1e308"]),
    ("--center/--radius", ["lift", "--map", "paper-g", "--center=1e200,0", "--radius", "1"]),
    ("--center/--radius", ["lift", "--map", "paper-g", "--center=1e100,0", "--radius", "1"]),
    ("--r0", _RAY + ["--r0", repr(math.nextafter(fatou.rays.MAX_R0, math.inf))]),
])
def test_unusable_flag_values_are_usage_errors(capsys, tmp_path, monkeypatch, flag, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    last = err.splitlines()[-1]
    assert last.startswith(f"usage error: {flag}: ") or f"argument {flag}: " in last
    assert not (tmp_path / "unused.ppm").exists()


@pytest.mark.parametrize("argv", [
    _RAY + ["--r0", repr(fatou.rays.MAX_R0)],
    ["render", "--map", "paper-g", "--resolution", "1x1", "--out", "x.ppm",
     "--max-iter", str(fatou.basins.MAX_ITER)],
], ids=["--r0", "--max-iter"])
def test_flag_values_at_their_caps_are_accepted(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["map"] == "paper-g"


@pytest.mark.parametrize("center, radius, message", [
    ("1e308,0", "1e308", "the circle reaches |z| = inf; vertices must stay within |z| <= 1e+150"),
    ("1e200,0", "1", "the circle reaches |z| = 1e+200; vertices must stay within |z| <= 1e+150"),
    ("1.5e308,1.5e308", "1", "the circle reaches |z| = inf; vertices must stay within "
                             "|z| <= 1e+150"),  # abs() of the center overflows
    ("1e100,0", "1", "radius 1 is below 1e-09 times |center| = 1e+100; "
                     "the vertices would round together"),
])
def test_unrepresentable_circles_are_refused_cleanly(capsys, center, radius, message):
    code, out, err = _run(capsys, ["lift", "--map", "paper-g", f"--center={center}",
                                   "--radius", radius])
    assert (code, out) == (2, "")
    assert err == f"usage error: --center/--radius: {message}\n"


def test_depth_beyond_the_bound_is_refused_before_tracing(capsys, monkeypatch):
    def no_trace(*args, **kwargs):
        raise AssertionError("traced a ray despite an out-of-range --depth")
    monkeypatch.setattr(fatou.rays, "_trace_at_infinity", no_trace)
    for depth in (fatou.rays.MAX_DEPTH + 1, 100000):
        code, out, err = _run(capsys, _RAY + ["--depth", str(depth)])
        assert code == 2
        assert out == ""
        assert err == f"usage error: --depth: must be at most {fatou.rays.MAX_DEPTH}\n"


def test_family_members_past_the_degree_cap_exit_two_at_once(capsys, monkeypatch):
    def no_compose(*args):
        raise AssertionError("composed a family member past the degree cap")
    monkeypatch.setattr(fatou.catalog, "hom_compose", no_compose)
    for name in ("pseudo-basilica:8", "pseudo-basilica:1000000", "pseudo-rabbit:8:0"):
        code, out, err = _run(capsys, ["portrait", "--map", name])
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: --map: not a file, and bad catalog selector "
                              f"{name!r}: degree: must be between 2 and 7; catalog: ")


def test_rabbit_members_answer_up_to_degree_six_and_refuse_seven_before_solving(
        capsys, monkeypatch):
    for d in range(2, fatou.catalog.RABBIT_MAX_DEGREE + 1):
        code, out, err = _run(capsys, ["portrait", "--map", f"pseudo-rabbit:{d}:0"])
        assert (code, err) == (0, "")
        assert json.loads(out)["degree"] == d

    def no_solve(*args):
        raise AssertionError("solved the rabbit condition past its degree cap")
    monkeypatch.setattr(fatou.catalog, "poly_roots", no_solve)
    code, out, err = _run(capsys, ["portrait", "--map", "pseudo-rabbit:7:0"])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --map: not a file, and bad catalog selector "
                          "'pseudo-rabbit:7:0': degree: must be at most 6 for pseudo-rabbit: "
                          "its condition polynomial, of degree 56, is past what poly_roots "
                          "solves; catalog: ")


def test_unknown_map_error_names_the_flag_and_catalog(capsys):
    code, _, err = _run(capsys, ["portrait", "--map", "no-such-map"])
    assert code == 2
    assert "--map" in err
    assert "paper-g" in err


def test_computational_failures_exit_one(capsys):
    # base curve passes through a critical value
    code, _, err = _run(capsys, ["lift", "--map", "paper-g",
                                 "--center=-1.9,0", "--radius", "0.1"])
    assert code == 1


def test_verify_single_group(capsys):
    code, out, _ = _run(capsys, ["verify", "--only", "rays"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("PASS ray-landings")
    assert "measured:" in lines[0]
    assert "tolerance:" in lines[0]
    assert lines[-1] == "1/1 checks passed"


def test_verify_detects_a_tampered_map(capsys, monkeypatch):
    # swap the flagship map for another catalog member; the ray landing
    # facts no longer hold, so the gate must fail loudly
    import fatou.verify as verify_mod

    monkeypatch.setattr(verify_mod, "paper_g",
                        lambda: by_name("pseudo-basilica:4"))
    code, out, _ = _run(capsys, ["verify", "--only", "rays"])
    assert code == 1
    assert "FAIL ray-landings" in out
    assert out.strip().endswith("0/1 checks passed")


@pytest.mark.parametrize("angle, measured", [
    ((0, 1), "|R_0 - 2| 1.00e-09"),
    ((2, 3), "gap(1/3,2/3) 1.00e-09"),
])
def test_verify_fails_on_a_landing_moved_by_1e_9(capsys, monkeypatch, angle, measured):
    # a planted fault: one landing of the traced orbit moved by 1e-9
    import fatou.verify as verify_mod
    real = verify_mod.trace_orbit

    def moved(*args, **kw):
        traces = real(*args, **kw)
        t = fatou.rays.RayAngle(*angle)
        traces[t] = dataclasses.replace(traces[t], landing=traces[t].landing + 1e-9)
        return traces
    monkeypatch.setattr(verify_mod, "trace_orbit", moved)
    code, out, _ = _run(capsys, ["verify", "--only", "rays"])
    assert code == 1
    line, = [x for x in out.splitlines() if "ray-landings" in x]
    assert line.startswith("FAIL ray-landings") and measured in line


def _periodic_points_changed(monkeypatch, change):
    import fatou.verify as verify_mod
    real = verify_mod.periodic_points
    monkeypatch.setattr(verify_mod, "periodic_points", lambda *a, **kw: change(real(*a, **kw)))


def _moved(pts, target, by):
    near = min(pts, key=lambda q: q.point.chordal(SpherePoint.of(target)))
    return [dataclasses.replace(q, point=SpherePoint.of(q.point.to_complex() + by))
            if q is near else q for q in pts]


@pytest.mark.parametrize("change, measured", [
    (lambda pts: [q for q in pts
                  if q.point.chordal(SpherePoint.of(0.7807764064044151)) > 1e-9],
     "count 9"),
    (lambda pts: _moved(pts, 2.0, 1e-8), "{0,-2,2} err 1.00e-08"),
    (lambda pts: _moved(pts, -2.172001619, 1e-8), "Newton distance 3.15e-09"),
], ids=["point-dropped", "two-moved-by-1e-8", "period-two-point-moved-by-1e-8"])
def test_verify_fails_on_a_periodic_point_dropped_or_moved(capsys, monkeypatch, change, measured):
    # planted faults: one period-2 point of paper-g dropped, the fixed point 2
    # moved by 1e-8, and the period-2 point -2.172002 moved by 1e-8, which the
    # count and the inclusion of {0, -2, 2} cannot see
    _periodic_points_changed(monkeypatch, change)
    code, out, _ = _run(capsys, ["verify", "--only", "periodic"])
    assert code == 1
    line, = [x for x in out.splitlines() if "periodic-points" in x]
    assert line.startswith("FAIL periodic-points") and measured in line


def test_verify_fails_on_a_flipped_separation(capsys, monkeypatch):
    # a planted fault: the separation test answers the opposite
    import fatou.verify as verify_mod
    real = verify_mod.separation_test
    monkeypatch.setattr(verify_mod, "separation_test", lambda *a, **kw: not real(*a, **kw))
    code, out, _ = _run(capsys, ["verify", "--only", "separation"])
    assert code == 1
    line, = [x for x in out.splitlines() if "ray-separation" in x]
    assert line.startswith("FAIL ray-separation")
    assert "separates 0 from -2: False" in line


def test_verify_fails_on_a_critical_point_moved_by_1e_8(capsys, monkeypatch):
    # a planted fault: the portrait's critical point at 0 moved by 1e-8
    import fatou.verify as verify_mod
    real = verify_mod.critical_portrait

    def moved(*args, **kw):
        port = real(*args, **kw)
        crit = tuple(dataclasses.replace(c, point=SpherePoint.of(c.point.to_complex() + 1e-8))
                     if c.point.chordal(SpherePoint.of(0.0)) == 0.0 else c
                     for c in port.critical_points)
        return dataclasses.replace(port, critical_points=crit)
    monkeypatch.setattr(verify_mod, "critical_portrait", moved)
    code, out, _ = _run(capsys, ["verify", "--only", "portrait"])
    assert code == 1
    line, = [x for x in out.splitlines() if "critical-portrait" in x]
    assert line.startswith("FAIL critical-portrait") and "crit err 2.00e-08" in line


def test_verify_fails_on_two_lift_degrees_swapped(capsys, monkeypatch):
    # a planted fault: the two lifts of the circle about 0 trade degrees
    import fatou.verify as verify_mod
    real = verify_mod.lift_curve

    def swapped(*args, **kw):
        ls = real(*args, **kw)
        if len(ls.lifts) != 2:
            return ls
        a, b = ls.lifts
        lifts = (dataclasses.replace(a, degree=b.degree), dataclasses.replace(b, degree=a.degree))
        return dataclasses.replace(ls, lifts=lifts)
    monkeypatch.setattr(verify_mod, "lift_curve", swapped)
    code, out, _ = _run(capsys, ["verify", "--only", "lifting"])
    assert code == 1
    line, = [x for x in out.splitlines() if "lift-degrees" in x]
    assert line.startswith("FAIL lift-degrees") and "enclosing -2:deg2, 1:deg1" in line


def test_verify_fails_on_image_phases_shifted_by_one(capsys, monkeypatch):
    # a planted fault: the classified images' phases shifted by one within
    # their cycles, which only the 64 sampled cells of the 2-cycle's basin
    # can show (the other 436 lie in the basin of infinity)
    real = fatou.basins.classify_points

    def shifted(f, cycles, *args, **kw):
        cycle_id, phase, steps = real(f, cycles, *args, **kw)
        period = np.array([len(cyc) for cyc in cycles])[cycle_id]
        return cycle_id, np.where(cycle_id >= 0, (phase + 1) % period, phase), steps
    monkeypatch.setattr(fatou.basins, "classify_points", shifted)
    code, out, _ = _run(capsys, ["verify", "--only", "basins"])
    assert code == 1
    line, = [x for x in out.splitlines() if "basin-dynamics" in x]
    assert line.startswith("FAIL basin-dynamics") and "phase-shift fraction 0.872" in line


def test_verify_fails_on_a_preimage_landing_moved_by_1e_9(capsys, monkeypatch):
    # a planted fault: the landing of R_1/6, a preimage of the landing of
    # R_1/3, moved by 1e-9
    import fatou.verify as verify_mod
    real = verify_mod.trace_orbit

    def moved(*args, **kw):
        traces = real(*args, **kw)
        t = fatou.rays.RayAngle(1, 6)
        traces[t] = dataclasses.replace(traces[t], landing=traces[t].landing + 1e-9)
        return traces
    monkeypatch.setattr(verify_mod, "trace_orbit", moved)
    code, out, _ = _run(capsys, ["verify", "--only", "preimages"])
    assert code == 1
    line, = [x for x in out.splitlines() if "boundary-preimages" in x]
    assert line.startswith("FAIL boundary-preimages") and "image err 1.98e-09" in line


def test_verify_fails_on_the_first_sign_flipped(capsys, monkeypatch):
    # a planted fault: the first sign of the tower about omega = 0 flipped
    import fatou.verify as verify_mod
    real = verify_mod.sign_change_sequence

    def flipped(f, curve, omega, **kw):
        seq = real(f, curve, omega, **kw)
        if omega != 0:
            return seq
        first = dataclasses.replace(seq.steps[0], sign=-seq.steps[0].sign)
        return dataclasses.replace(seq, steps=(first,) + seq.steps[1:])
    monkeypatch.setattr(verify_mod, "sign_change_sequence", flipped)
    code, out, _ = _run(capsys, ["verify", "--only", "signs"])
    assert code == 1
    line, = [x for x in out.splitlines() if "sign-dichotomy" in x]
    assert line.startswith("FAIL sign-dichotomy") and "omega=0: first sign 1" in line


def test_verify_fails_on_a_catalog_coefficient_moved_by_1e_8(capsys, monkeypatch):
    # a planted fault: the constant coefficient of pseudo_basilica(3)'s
    # numerator moved by 1e-8
    import fatou.verify as verify_mod
    real = verify_mod.pseudo_basilica

    def perturbed(d):
        f = real(d)
        if d != 3:
            return f
        cs = (f.num.coeffs[0] + 1e-8,) + tuple(f.num.coeffs[1:])
        return dataclasses.replace(f, num=Polynomial(cs))
    monkeypatch.setattr(verify_mod, "pseudo_basilica", perturbed)
    code, out, _ = _run(capsys, ["verify", "--only", "catalog"])
    assert code == 1
    line, = [x for x in out.splitlines() if "catalog-identities" in x]
    assert line.startswith("FAIL catalog-identities") and "cubic identity err 3.15e-08" in line


def test_verify_fails_on_rabbit_roots_moved_by_2e_3(capsys, monkeypatch):
    # a planted fault: every rabbit parameter moved by 2e-3
    import fatou.verify as verify_mod
    real = verify_mod.pseudo_rabbit_roots
    monkeypatch.setattr(verify_mod, "pseudo_rabbit_roots",
                        lambda d=3: [r + 2e-3 for r in real(d)])
    code, out, _ = _run(capsys, ["verify", "--only", "rabbit"])
    assert code == 1
    line, = [x for x in out.splitlines() if "rabbit-parameter" in x]
    assert line.startswith("FAIL rabbit-parameter") and "nearest to target 2.00e-03" in line


def test_verify_fails_on_a_pinch_denominator_ratio_perturbed(capsys, monkeypatch):
    # a planted fault: the z coefficient of the pinch denominator scaled by
    # 1 + 1e-8, which moves the ratio to the constant off -1.5
    import fatou.verify as verify_mod
    real = verify_mod.solve_pinch_params

    def perturbed():
        sol = real()
        c0, c1 = sol.denominator.coeffs
        return dataclasses.replace(sol, denominator=Polynomial((c0, c1 * (1.0 + 1e-8))))
    monkeypatch.setattr(verify_mod, "solve_pinch_params", perturbed)
    code, out, _ = _run(capsys, ["verify", "--only", "pinch"])
    assert code == 1
    line, = [x for x in out.splitlines() if "pinch-solver" in x]
    assert line.startswith("FAIL pinch-solver") and "denominator ratio err 1.50e-08" in line


@pytest.mark.parametrize("name, radius", [("pseudo-basilica:7", 0.3934),
                                          ("pseudo-rabbit:6:0", 0.0611)])
def test_ray_render_and_lift_at_the_family_caps(name, radius, tmp_path):
    # the largest members the degree caps admit, each command in a fresh
    # interpreter that turns a numpy RuntimeWarning into an error: a landing
    # disc and an escape disc at the top degrees
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*argv):
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "fatou",
                               *argv, "--map", name], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        return json.loads(proc.stdout)
    ray, = run("ray", "--angle", "1/3")["rays"]
    assert ray["certified"] and round(ray["disc_radius"], 4) == radius
    assert run("render", "--resolution", "80x60", "--out", "out.ppm")["unresolved_cells"] == 0
    assert run("lift", "--center=0.0,0", "--radius", "0.1")["total_degree"] == by_name(name).degree


_ENTRY_MODULES = ["fatou", "fatou._jsonio", "fatou.catalog", "fatou.cli", "fatou.ratmap",
                  "fatou.sphere"]


@pytest.mark.parametrize("argv, more", [
    (None, []),
    (["catalog"], []),
    (["portrait", "--map", "paper-g"], ["fatou.orbits"]),
    (["periodic", "--map", "paper-g", "--period", "2"], ["fatou.orbits"]),
    (["lift", "--map", "paper-g", "--center=-2,0", "--radius", "0.1"],
     ["fatou._geom", "fatou.lifting"]),
    (["render", "--map", "paper-g", "--resolution", "16x12", "--out", "out.ppm"],
     ["fatou._bounds", "fatou.basins", "fatou.orbits"]),
    (["ray", "--map", "paper-g", "--angle", "1/3"],
     ["decimal", "fatou._bounds", "fatou._geom", "fatou.orbits", "fatou.rays", "fractions"]),
], ids=["import", "catalog", "portrait", "periodic", "lift", "render", "ray"])
def test_each_command_loads_only_its_own_modules(argv, more, tmp_path):
    # start-up is most of a command's wall time: importing fatou.cli loads what
    # parsing and map loading need, and each command what it runs
    code = ("import contextlib, io, sys\nimport fatou.cli\n"
            f"argv = {argv!r}\n"
            "if argv is not None:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert fatou.cli.dispatch(argv) == 0\n"
            "print(*sorted(m for m in sys.modules\n"
            "              if m.startswith('fatou') or m in ('decimal', 'fractions')))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(_ENTRY_MODULES + more)


def test_an_unknown_verify_group_is_a_usage_error_before_any_check(capsys, monkeypatch):
    import fatou.verify as verify_mod

    def no_checks():
        raise AssertionError("a check ran for an unknown group")
    monkeypatch.setattr(verify_mod, "Context", no_checks)
    code, out, err = _run(capsys, ["verify", "--only", "bogus"])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --only: unknown check group 'bogus'; known: portrait, ")


def test_commands_fill_in_the_library_defaults(capsys, tmp_path):
    code, out, _ = _run(capsys, ["render", "--map", "paper-g", "--resolution", "8x6",
                                 "--out", str(tmp_path / "out.ppm")])
    assert code == 0
    assert json.loads(out)["bounds"] == [-2.8, 2.8, -2.1, 2.1]
    code, out, _ = _run(capsys, ["ray", "--map", "paper-g", "--angle", "1/3"])
    doc = json.loads(out)
    assert (doc["depth"], doc["r0"]) == (fatou.rays.DEFAULT_DEPTH, fatou.rays.DEFAULT_R0)
