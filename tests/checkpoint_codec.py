"""The `checkpoint.v4` container and the array encoding of `encoded.v3`
splits, written out independently of `qvuln.fileio` so that tests can
build and damage checkpoints and encoded splits.

A checkpoint is an 8-byte little-endian header length N, N bytes of
standard-JSON header (sorted keys, padded with spaces to a multiple of 8
bytes), then the payload: each array's C-order IEEE-754 float64 (`"<f8"`)
bytes, back to back in header order.  The header's `params` object gives
each array's `dtype`, `shape` and `offsets` `[begin, end]` into the
payload.

In an encoded split an array entry is `{"shape", "dtype", "data"}`, and
`data` is the lower-case hex of the array's bytes in C order as `dtype`:
the narrowest of `"<u2"` and `"<u4"` that holds every token index, and
`"|u1"` for the labels."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# --- checkpoint.v4 ---


def pack(header: dict, payload: bytes = b"") -> bytes:
    """A whole file: the length prefix, `header` as the writer lays it out,
    and `payload` as given."""
    text = json.dumps(header, sort_keys=True, allow_nan=False, separators=(",", ":")).encode()
    text += b" " * (-len(text) % 8)
    return len(text).to_bytes(8, "little") + text + payload


def unpack(blob: bytes) -> tuple[dict, bytes]:
    """The header and the payload of a whole file."""
    size = int.from_bytes(blob[:8], "little")
    return json.loads(blob[8:8 + size].decode()), blob[8 + size:]


def load(path: Path) -> dict:
    """The header of a container, with each `params` entry replaced by its
    array: a writable copy of the bytes at its offsets, in its shape."""
    header, payload = unpack(path.read_bytes())
    header["params"] = {
        name: np.frombuffer(payload[begin:end], "<f8").reshape(entry["shape"]).copy()
        for name, entry in header["params"].items() for begin, end in [entry["offsets"]]}
    return header


def save(path: Path, doc: dict) -> None:
    """A well-formed container of `doc`, whose `params` maps each name to an
    array-like of numbers: the arrays go in sorted name order."""
    params, chunks, end = {}, [], 0
    for name in sorted(doc["params"]):
        arr = np.asarray(doc["params"][name], "<f8")
        chunks.append(arr.tobytes(order="C"))
        params[name] = {"dtype": "<f8", "offsets": [end, end + arr.nbytes],
                        "shape": list(arr.shape)}
        end += arr.nbytes
    path.write_bytes(pack({**doc, "params": params}, b"".join(chunks)))


# --- encoded.v3 array entries ---


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
