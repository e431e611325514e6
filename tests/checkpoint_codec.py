"""The checkpoint.v2 array encoding, written out independently of
`qvuln.trainer` so that tests can build and damage checkpoint files: an
array's `data` is the base64 of its little-endian IEEE-754 float64 bytes
in C order."""
from __future__ import annotations

import base64

import numpy as np


def encode(values) -> str:
    """The `data` string of `values` (any array-like of numbers)."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes(order="C")).decode("ascii")


def decode(data: str) -> np.ndarray:
    """The flat float64 values of a `data` string, as a writable copy."""
    return np.frombuffer(base64.b64decode(data, validate=True), "<f8").copy()


def array_entry(values) -> dict:
    """A whole `params` entry, `{"shape": [...], "data": ...}`, of `values`."""
    arr = np.asarray(values, dtype=float)
    return {"shape": list(arr.shape), "data": encode(arr)}
