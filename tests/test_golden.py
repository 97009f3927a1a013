"""Byte-for-byte stdout of a fixed set of `fatou` commands.

The fixture tests/golden/stdout.json maps each command line to its stdout.
Any change to it must be deliberate: regenerate it with

    PYTHONPATH=src python3 tests/test_golden.py

and say why in CHANGES.md. Regenerating lists each changed entry as `text`
(every line parses to the same values, floats compared bit for bit),
`zero signs` (only the signs of zeros differ) or `values`, and under each
changed `ray` entry the old and new `disc_radius` and sample count of each
ray whose values changed. A `render` entry
is its stdout followed by a line with the sha256 of the PPM it wrote.
`verify` is covered with its measured values, so a change in any check's
figures shows here. `periodic` is left out because its output is known to
be wrong from d^p = 27.

The same bytes must come out whether numpy dispatches to its AVX512 loops or
to its AVX2 ones; a second test reruns the commands with AVX512 dispatch off.
"""

import contextlib
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from fatou.catalog import CATALOG_NAMES, by_name, paper_g
from fatou.cli import dispatch
from fatou.ratmap import map_to_jsonable
from fatou.sphere import MoebiusTransform

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "golden" / "stdout.json"
FINITE_BASIN_MAP = "paper-g-conjugated.json"  # relative: the report echoes --map

RAYS = (
    ("paper-g", ("1/3", "2/3"), True),
    ("paper-g", ("0", "1/6", "5/6"), False),
    ("paper-degree4", ("1/3", "2/3"), False),
    ("pseudo-basilica:2", ("1/7", "2/7", "4/7"), False),
    ("pseudo-basilica:3", ("1/3", "2/3"), False),
    ("pseudo-rabbit:3:0", ("1/3", "2/3"), False),
)
TOWERS = (  # map, centre, omega, steps
    ("paper-g", -2.0, "inf", 4),
    ("paper-g", -2.0, "0.0,0.0", 3),
    ("paper-degree4", 0.0, "inf", 4),
    ("paper-degree4", 0.0, "0.0,0.0", 3),
)
LONG_LIFTS = (  # a long base curve of 1,000 segments, and an 8-step tower
    ["lift", "--map", "paper-g", "--center=-2,0", "--radius", "0.1", "--segments", "1000"],
    ["lift", "--map", "paper-g", "--center=-2,0", "--radius", "0.1", "--steps", "8",
     "--omega", "0,0"],
)
RENDERS = (  # map, bounds, resolution
    ("paper-g", "-2.8,2.8,-2.1,2.1", "120x90"),
    ("paper-g", "-1.2908,-1.2708,-0.01,0.01", "80x80"),  # around the landing of R_1/3
    ("pseudo-rabbit:3:0", "-2.8,2.8,-2.1,2.1", "96x72"),
    ("paper-g", "-2.8,2.8,-2.1,2.1", "300x200"),  # 60,000 cells: crosses tile boundaries
)
PPM = "render.ppm"  # relative, in the test's working directory
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"  # for NPY_DISABLE_CPU_FEATURES


def commands() -> list[list[str]]:
    cmds = []
    for name, angles, samples in RAYS:
        argv = ["ray", "--map", name] + [a for t in angles for a in ("--angle", t)]
        cmds.append(argv + ["--samples"] if samples else argv)
    # paper-g with its basin of infinity moved to 0 by z -> 1/z
    cmds.append(["ray", "--map", FINITE_BASIN_MAP, "--basin", "0,0", "--angle", "1/3",
                  "--angle", "2/3", "--samples"])
    for name in CATALOG_NAMES:
        for c in (0.0, 1.0 - by_name(name).degree):
            cmds.append(["lift", "--map", name, f"--center={c!r},0", "--radius", "0.1",
                         "--segments", "64"])
    for name, c, omega, steps in TOWERS:
        cmds.append(["lift", "--map", name, f"--center={c!r},0", "--radius", "0.1",
                     "--steps", str(steps), "--omega", omega])
    cmds += [list(argv) for argv in LONG_LIFTS]
    cmds += [["portrait", "--map", name] for name in CATALOG_NAMES]
    cmds.append(["catalog", "--coeffs"])
    cmds.append(["verify"])
    for name, bounds, resolution in RENDERS:
        cmds.append(["render", "--map", name, "--out", PPM, f"--bounds={bounds}",
                     "--resolution", resolution])
    return cmds


def write_finite_basin_map(directory: Path) -> None:
    g0 = paper_g().conjugate_by(MoebiusTransform(0, 1, 1, 0))
    (directory / FINITE_BASIN_MAP).write_text(json.dumps(map_to_jsonable(g0)))


def run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(argv)
    assert code == 0, f"{' '.join(argv)} exited {code}"
    if argv[0] == "render":
        digest = hashlib.sha256(Path(PPM).read_bytes()).hexdigest()
        return out.getvalue() + f"sha256({PPM}) {digest}\n"
    return out.getvalue()


def test_stdout_matches_the_golden_fixture(tmp_path, monkeypatch):
    golden = json.loads(FIXTURE.read_text())
    write_finite_basin_map(tmp_path)
    monkeypatch.chdir(tmp_path)
    cmds = commands()
    assert sorted(" ".join(c) for c in cmds) == sorted(golden)
    for argv in cmds:
        label = " ".join(argv)
        got, want = run(argv), golden[label]
        if got != want:
            at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                      min(len(got), len(want)))
            raise AssertionError(f"stdout of `{label}` differs from the fixture at "
                                 f"offset {at}: {got[at:at + 40]!r} vs {want[at:at + 40]!r}")


def test_ray_changes_list_radii_and_sample_counts():
    def entry(radius, samples, landing=(-1.28, 0.0)):
        ray = {"angle": "1/3", "landing": list(landing), "disc_radius": radius}
        if samples is not None:
            ray["samples"] = [[1.0, 0.0]] * samples
        return json.dumps({"rays": [ray, dict(ray, angle="2/3")]}) + "\n"
    assert ray_changes(entry(0.0256, 80), entry(0.3938, 40)) == [
        "1/3: disc_radius 0.0256 -> 0.3938, samples 80 -> 40",
        "2/3: disc_radius 0.0256 -> 0.3938, samples 80 -> 40"]
    assert ray_changes(entry(0.5, None), entry(0.5, None, (-1.28, -0.0))) == [
        "1/3: disc_radius 0.5 -> 0.5", "2/3: disc_radius 0.5 -> 0.5"]
    assert ray_changes(entry(0.5, 9), entry(0.5, 9)) == []


def test_change_kind_tells_text_from_values():
    report = '{"radius": 0.10000000000000001, "landing": [0.0, 2]}\n'
    assert change_kind(report, '{"radius": 0.1, "landing": [0.0, 2]}\n') == "text"
    assert change_kind(report, '{"radius": 0.1, "landing": [-0.0, 2]}\n') == "zero signs"
    assert change_kind(report, '{"radius": 0.1, "landing": [0.0, 2.0]}\n') == "values"
    assert change_kind("PASS a  measured: 1\n", "PASS a  measured: 1.0\n") == "values"


def _dispatches_x86_v4() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x names the module differently
        return False
    return "X86_V4" in __cpu_dispatch__ and bool(__cpu_features__.get("X86_V4"))


@pytest.mark.skipif(not _dispatches_x86_v4(),
                    reason="numpy has no X86_V4 (AVX512) dispatch target on this CPU")
def test_stdout_is_the_same_with_avx512_dispatch_off():
    # numpy's AVX512 and AVX2 loops round exp, log and power differently
    code = ("import json, sys\n"
            "from numpy._core._multiarray_umath import __cpu_features__\n"
            "assert not __cpu_features__['X86_V4'], 'AVX512 dispatch is still on'\n"
            "import test_golden\n"
            "json.dump(test_golden.outputs(), sys.stdout)\n")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_OFF,
               PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got, golden = json.loads(proc.stdout), json.loads(FIXTURE.read_text())
    assert sorted(got) == sorted(golden)
    assert [label for label in golden if got[label] != golden[label]] == []


def outputs() -> dict:
    """stdout of every command, run in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        write_finite_basin_map(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            return {" ".join(argv): run(argv) for argv in commands()}
        finally:
            os.chdir(here)


def _parsed(text: str) -> list:
    """Each line of an entry, parsed as JSON where it parses, else as text."""
    lines = []
    for line in text.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            lines.append(line)
    return lines


def _exact(value, signed_zeros: bool):
    """A comparable form of a parsed value: floats by their bits, so 0.1 and
    0.10000000000000001 agree while 0.0 and -0.0 do unless signed_zeros is off."""
    if isinstance(value, float):
        return struct.pack("<d", value if signed_zeros else value + 0.0)
    if isinstance(value, dict):
        return tuple((k, _exact(v, signed_zeros)) for k, v in value.items())
    if isinstance(value, list):
        return tuple(_exact(v, signed_zeros) for v in value)
    return type(value).__name__, value


def change_kind(old: str, new: str) -> str:
    """How an entry's stdout changed: 'text' when every line parses to the
    same values (floats exactly, sign of zero included), 'zero signs' when only
    the signs of zeros differ, else 'values'."""
    old_v, new_v = _parsed(old), _parsed(new)
    if _exact(old_v, True) == _exact(new_v, True):
        return "text"
    if _exact(old_v, False) == _exact(new_v, False):
        return "zero signs"
    return "values"


def ray_changes(old: str, new: str) -> list:
    """For a `ray` entry: `angle: disc_radius old -> new`, with `samples
    old -> new` when the entry prints them, for each ray whose report
    changed in any value."""
    lines = []
    for a, b in zip(json.loads(old)["rays"], json.loads(new)["rays"]):
        if _exact(a, True) == _exact(b, True):
            continue
        line = f"{b['angle']}: disc_radius {a['disc_radius']!r} -> {b['disc_radius']!r}"
        if "samples" in a and "samples" in b:
            line += f", samples {len(a['samples'])} -> {len(b['samples'])}"
        lines.append(line)
    return lines


def regenerate() -> None:
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    golden = outputs()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} commands to {FIXTURE}", file=sys.stderr)
    kinds: dict = {}
    for label in sorted(set(old) | set(golden)):
        if label not in old or label not in golden:
            kind = "added" if label in golden else "removed"
        elif old[label] == golden[label]:
            continue
        else:
            kind = change_kind(old[label], golden[label])
        kinds[kind] = kinds.get(kind, 0) + 1
        print(f"{kind}: {label}", file=sys.stderr)
        if label.startswith("ray ") and label in old and label in golden:
            for line in ray_changes(old[label], golden[label]):
                print(f"    {line}", file=sys.stderr)
    print(f"changed entries: {kinds or 'none'}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
