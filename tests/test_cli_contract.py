"""The exit-code contract under generated commands.

Seeded `random` draws 300 `portrait`, `periodic`, `ray`, `lift` and `render`
commands: each command on each map with valid flags, over the catalog's
selectors and aliases, family selectors out of range and hand-made `--map`
files; then as many commands that each take one edge value (0, +-inf, NaN,
1e-320, 1e308, a malformed point or angle) in one flag. Each runs through
the in-process `dispatch` and must:

- exit 0, 1 or 2, and exit 2 only with a usage message (argparse's, or
  `usage error: --flag: ...`), exit 1 only with `error: ...`;
- print no traceback and raise no RuntimeWarning;
- print one JSON document on exit 0 and nothing on stdout otherwise.

The valid values keep each command cheap: `--max-iter` and the resolution
stay under the sizes whose cost the README gives, and the periods at d^p
<= 4096, so the 300 commands take about a second of the 15 s budget.
"""

import contextlib
import io
import json
import random
import time
import warnings

from fatou.catalog import SELECTORS
from fatou.cli import dispatch

SEED = 19
BUDGET_S = 15.0

MAP_FILES = {
    "square.json": '{"num": [[0,0],[0,0],[1,0]], "den": [[1,0]]}',
    "cube.json": '{"num": [[0,0],[0,0],[0,0],[1,0]], "den": [[1,0]]}',
    "basilica.json": '{"num": [[-1,0],[0,0],[1,0]], "den": [[1,0]]}',
    "rotated.json": '{"num": [[0,0],[0.3,0.4],[0,0],[0.6,-0.8]], "den": [[1,0],[0,0],[0,1]]}',
    "subnormal.json": '{"num": [[0,0],[0,0],[1e-320,0]], "den": [[1e-320,0]]}',
    "top.json": '{"num": [[1,0],[0,0],[1e308,0]], "den": [[1e308,0]]}',
    "range.json": '{"num": [[0,0],[0,0],[1e300,0]], "den": [[1e-300,0]]}',
    "nan.json": '{"num": [[0,0],[0,0],[NaN,0]], "den": [[1,0]]}',
    "inf.json": '{"num": [[0,0],[0,0],[Infinity,0]], "den": [[1,0]]}',
    "linear.json": '{"num": [[0,0],[2,0]], "den": [[1,0]]}',
    "common.json": '{"num": [[-1,0],[0,0],[1,0]], "den": [[-1,0],[1,0]]}',
    "zero.json": '{"num": [[0,0],[0,0],[1,0]], "den": [[0,0]]}',
    "empty.json": '{"num": [], "den": [[1,0]]}',
    "shape.json": '{"num": [[1,2,3]], "den": [[1,0]]}',
    "list.json": "[1, 2, 3]",
    "broken.json": '{"num": [[0,0],',
}
# Each flag's values as (valid, edge). A command takes at most one edge
# value, so that no other refusal hides what that value does.
NUMBERS = ("0", "-0.0", "-1", "inf", "-inf", "nan", "1e-320", "1e308", "-1e308", "x", "")
POINTS = ("inf", "-inf", "nan,0", "0,nan", "1e308,1e308", "1e-320,0", "2,1e-320", "1,",
          ",", "1,2,3", "x", "")
MAPS = (SELECTORS + ("square.json", "cube.json", "basilica.json", "rotated.json",
                     "subnormal.json", "top.json"),
        ("range.json", "nan.json", "inf.json", "linear.json", "common.json", "zero.json",
         "empty.json", "shape.json", "list.json", "broken.json", "missing.json",
         "pseudo-basilica:1", "pseudo-basilica:8", "pseudo-basilica:x", "pseudo-rabbit:3:7",
         "pseudo-rabbit:7:0", "paper-h", ""))
# command -> (flag, values, how often it appears); --angle appears 1-3 times
FLAGS = {
    "portrait": (),
    "periodic": (("--period", (("1", "2", "3"),
                               ("-1", "0", "6", "13", "1e308", "nan", "x", "")), 1.0),),
    "ray": (("--angle", (("1/3", "2/3", "0", "1/6", "5/6", "1/7", "1/2"),
                         ("1/63", "3/2", "-1/3", "1/0", "1/1000003", "nan", "inf", "1e308",
                          "1e-320", "x/y", "")), 1.0),
            ("--basin", (("inf", "0,0"), POINTS[1:] + ("-2,0",)), 0.5),
            ("--depth", (("1", "4", "96"), ("0", "-1", "1024", "1025", "nan", "x")), 0.5),
            ("--r0", (("10", "100", "1e10"), ("9", "1e11") + NUMBERS), 0.5)),
    "lift": (("--center", (("-2,0", "0,0", "0.5,0.5", "1e-320,0"), POINTS), 1.0),
             ("--radius", (("0.1", "0.5", "1", "1e-9"), NUMBERS), 1.0),
             ("--segments", (("3", "8", "64"), ("0", "2", "-1", "20001", "nan")), 0.5),
             ("--omega", (("inf", "0,0", "-2,0"), POINTS[1:]), 0.5),
             ("--eps", (("1e-3", "0.1"), NUMBERS), 0.5),
             ("--steps", (("0", "1", "3"), ("-1", "65", "nan")), 0.5)),
    "render": (("--out", (("out.ppm",), ("missing/out.ppm", ".", "")), 1.0),
               ("--resolution", (("8x6", "20x15", "1x1"),
                                 ("0x5", "-1x3", "5x-1", "x", "", "100000x100000")), 1.0),
               ("--bounds", (("-2.8,2.8,-2.1,2.1", "-1,1,-1,1", "-1.2908,-1.2708,-0.01,0.01"),
                             ("0,0,0,0", "1,-1,0,1", "nan,0,0,1", "-inf,inf,-1,1",
                              "-1e308,1e308,-1e308,1e308", "0,1e-320,0,1e-320", "1,2,3",
                              "")), 0.5),
               ("--max-iter", (("1", "50", "200"), ("0", "-1", "10001", "nan")), 0.5),
               ("--trap-radius", (("1e-6", "1e-3", "0.1"), NUMBERS + ("1e300",)), 0.5)),
}


def _command(rng: random.Random, command: str, selector=None, edge=None) -> list:
    """A command line with valid values but for one edge value of the flag
    named edge, on the given map or a valid one."""
    argv = [command, f"--map={selector or rng.choice(MAPS[edge == '--map'])}"]
    for flag, values, share in FLAGS[command]:
        if flag == edge or rng.random() < share:
            count = rng.randint(1, 3) if flag == "--angle" else 1
            for i in range(count):
                argv.append(f"{flag}={rng.choice(values[flag == edge and i == 0])}")
    if command == "ray" and rng.random() < 0.5:
        argv.append("--samples")
    return argv


def commands(seed: int) -> list:
    """Every command on every map with valid flags, then as many commands
    that each take one edge value, of a flag drawn at random."""
    rng = random.Random(seed)
    swept = [_command(rng, command, selector) for selector in sum(MAPS, ())
             for command in FLAGS]
    edged = []
    for _ in range(len(swept)):
        command = rng.choice(tuple(FLAGS))
        edge = rng.choice(("--map",) + tuple(flag for flag, *_ in FLAGS[command]))
        edged.append(_command(rng, command, edge=edge))
    return swept + edged


def _run(argv) -> tuple:
    """The command's exit code and what it does against the contract, as
    text (an empty list if nothing)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = dispatch(argv)
        except Exception as exc:  # escaped dispatch: a traceback for the user
            return None, [f"raised {type(exc).__name__}: {exc}"]
    out, err = out.getvalue(), err.getvalue()
    problems = [f"warned {w.category.__name__}: {w.message}" for w in caught]
    if "Traceback" in err or "Warning" in err:
        problems.append(f"stderr {err!r}")
    if code == 0:
        try:
            json.loads(out)
        except ValueError:
            problems.append(f"stdout is not one JSON document: {out[:80]!r}")
        if out.count("\n") != 1 or not out.endswith("\n"):
            problems.append(f"stdout is not one line: {out[:80]!r}")
    elif out:
        problems.append(f"exit {code} with stdout {out[:80]!r}")
    if code == 1 and not err.startswith("error: "):
        problems.append(f"exit 1 with stderr {err!r}")
    if code == 2 and not err.startswith(("usage: ", "usage error: --")):
        problems.append(f"exit 2 with stderr {err!r}")
    if code not in (0, 1, 2):
        problems.append(f"exit {code!r}")
    return code, problems


def test_generated_commands_keep_the_exit_code_contract(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in MAP_FILES.items():
        (tmp_path / name).write_text(text)
    drawn = commands(SEED)
    codes, failures = [], []
    start = time.perf_counter()
    for argv in drawn:
        code, problems = _run(argv)
        codes.append(code)
        failures += [(" ".join(argv), p) for p in problems]
    elapsed = time.perf_counter() - start
    assert failures == []
    assert len(drawn) == 300 and elapsed < BUDGET_S
    assert set(codes) == {0, 1, 2}
