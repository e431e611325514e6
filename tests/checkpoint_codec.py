"""The array encoding of `checkpoint.v2` and `encoded.v2` files, written
out independently of `qvuln.fileio` so that tests can build and damage
checkpoints and encoded splits: an array's `data` is the base64 of its
little-endian bytes in C order, IEEE-754 float64 (`"<f8"`) in checkpoints
and int64 (`"<i8"`) in encoded splits."""
from __future__ import annotations

import base64

import numpy as np


def encode(values, dtype: str = "<f8") -> str:
    """The `data` string of `values` (any array-like of numbers)."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes(order="C")).decode("ascii")


def decode(data: str, dtype: str = "<f8") -> np.ndarray:
    """The flat values of a `data` string, as a writable copy."""
    return np.frombuffer(base64.b64decode(data, validate=True), dtype).copy()


def array_entry(values, dtype: str = "<f8") -> dict:
    """A whole array entry, `{"shape": [...], "data": ...}`, of `values`."""
    arr = np.asarray(values, dtype=dtype)
    return {"shape": list(arr.shape), "data": encode(arr, dtype)}
