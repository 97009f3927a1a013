"""Deterministic JSON emission: insertion key order, shortest round-trip floats.

Reports double as golden test fixtures, so two runs with the same inputs must
produce byte-identical output. The standard encoder gives that: keys in
insertion order, ASCII strings, and each float as its `repr`, the shortest
text that reads back as the same double (sign of zero included). Non-finite
floats are rejected rather than smuggled out as bare words.
"""

from __future__ import annotations

import json


def complex_pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def sphere_jsonable(p) -> object:
    """Finite point -> [re, im]; point at infinity -> the string "inf"."""
    if p.is_infinity:
        return "inf"
    return complex_pair(p.to_complex())


def dumps(obj) -> str:
    return json.dumps(obj, allow_nan=False)
