"""The array encoding of `checkpoint.v3` and `encoded.v3` files, written
out independently of `qvuln.fileio` so that tests can build and damage
checkpoints and encoded splits: an array entry is `{"shape", "dtype",
"data"}`, and `data` is the lower-case hex of the array's bytes in C order
as `dtype`: IEEE-754 float64 (`"<f8"`) in checkpoints; in encoded splits
the narrowest of `"<u2"` and `"<u4"` that holds every token index, and
`"|u1"` for the labels."""
from __future__ import annotations

import numpy as np


def encode(values, dtype: str = "<f8") -> str:
    """The `data` string of `values` (any array-like of numbers)."""
    return np.asarray(values, dtype=dtype).tobytes(order="C").hex()


def decode(data: str, dtype: str = "<f8") -> np.ndarray:
    """The flat values of a `data` string, as a writable copy."""
    return np.frombuffer(bytes.fromhex(data), dtype).copy()


def array_entry(values, dtype: str = "<f8") -> dict:
    """A whole array entry of `values`."""
    arr = np.asarray(values, dtype=dtype)
    return {"shape": list(arr.shape), "dtype": np.dtype(dtype).str, "data": encode(arr, dtype)}


def entry_values(entry: dict) -> np.ndarray:
    """The array of an entry, read as its recorded dtype."""
    return decode(entry["data"], entry["dtype"]).reshape(entry["shape"])


def index_entry(values) -> dict:
    """An entry of token indices as `preprocess` stores them: `"<u2"` up to
    65,535 (and when there are none), else `"<u4"`; as `"<i8"` when neither
    holds them (a negative index, or one past 2**32 - 1), a dtype no split
    may use."""
    values = np.asarray(values, dtype=np.int64)
    low, high = (values.min(), values.max()) if values.size else (0, 0)
    dtype = "<i8" if low < 0 or high >= 2**32 else "<u2" if high <= 65_535 else "<u4"
    return array_entry(values, dtype)
