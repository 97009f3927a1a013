"""The report encoder: standard JSON, shortest round-trip floats, no NaN."""

import json
import math
import random
import struct
import sys

import pytest

from fatou import _jsonio


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_are_refused(x):
    with pytest.raises(ValueError):
        _jsonio.dumps({"residual": x})
    with pytest.raises(ValueError):
        _jsonio.dumps([[0.0, x]])


def test_keys_keep_insertion_order():
    assert _jsonio.dumps({"z": 1, "a": [True, None], "m": "é"}) == \
        '{"z": 1, "a": [true, null], "m": "\\u00e9"}'


def test_negative_zero_keeps_its_sign():
    assert _jsonio.dumps([-0.0, 0.0]) == "[-0.0, 0.0]"


def test_floats_round_trip_bit_for_bit():
    rng = random.Random(15)
    xs = [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(2000)]
    xs = [x for x in xs if math.isfinite(x)]
    xs += [rng.uniform(-10.0, 10.0) for _ in range(500)]
    xs += [0.1, 1e16, 5e-324, 2.0**53 + 2, sys.float_info.max, -sys.float_info.max,
           -0.0, 0.0]
    back = json.loads(_jsonio.dumps(xs))
    assert [struct.pack("<d", x) for x in back] == [struct.pack("<d", x) for x in xs]
    assert _jsonio.dumps(0.1) == "0.1"
