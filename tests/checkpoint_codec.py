"""The container that checkpoints (`checkpoint.v4`) and encoded splits
(`encoded.v4`) share, and the hex array entries of the older JSON formats
(`checkpoint.v3`, `encoded.v3`), written out independently of
`qvuln.fileio` so that tests can build and damage checkpoints and encoded
splits, and build the old files that the readers must refuse.

A container is an 8-byte little-endian header length N, N bytes of
standard-JSON header (sorted keys, padded with spaces to a multiple of 8
bytes), then the payload: each array's C-order little-endian bytes, back
to back in header order.  The header's `params` object gives each array's
`dtype`, `shape` and `offsets` `[begin, end]` into the payload.  A
checkpoint's arrays are `"<f8"`; a split's `labels` are `"|u1"` and its
`sequences` the narrowest of `"<u2"` and `"<u4"` that holds every token
index.

In a v3 JSON file an array entry is `{"shape", "dtype", "data"}`, and
`data` is the lower-case hex of the array's bytes in C order as `dtype`."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# --- the v4 container ---


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


def loads(blob: bytes) -> dict:
    """The header of a whole file, with each `params` entry replaced by its
    array: a writable copy of the bytes at its offsets, read as its
    recorded dtype, in its shape."""
    header, payload = unpack(blob)
    header["params"] = {
        name: np.frombuffer(payload[begin:end], entry["dtype"]).reshape(entry["shape"]).copy()
        for name, entry in header["params"].items() for begin, end in [entry["offsets"]]}
    return header


def load(path: Path) -> dict:
    """`loads` of the file at `path`."""
    return loads(path.read_bytes())


def dumps(doc: dict) -> bytes:
    """A well-formed container of `doc`, whose `params` maps each name to an
    array, stored as its own dtype, or to a list of numbers, stored as
    `"<f8"`: the arrays go in sorted name order."""
    params, chunks, end = {}, [], 0
    for name in sorted(doc["params"]):
        values = doc["params"][name]
        arr = values if isinstance(values, np.ndarray) else np.asarray(values, "<f8")
        arr = arr.astype(arr.dtype.newbyteorder("<"))
        chunks.append(arr.tobytes(order="C"))
        params[name] = {"dtype": arr.dtype.str, "offsets": [end, end + arr.nbytes],
                        "shape": list(arr.shape)}
        end += arr.nbytes
    return pack({**doc, "params": params}, b"".join(chunks))


def save(path: Path, doc: dict) -> None:
    """`dumps` of `doc`, written to `path`."""
    path.write_bytes(dumps(doc))


def index_dtype(values) -> str:
    """The dtype `preprocess` stores the token indices `values` as: `"<u2"`
    up to 65,535 (and when there are none), else `"<u4"`; `"<i8"` when
    neither holds them (a negative index, or one past 2**32 - 1), a dtype
    no split may use."""
    values = np.asarray(values, dtype=np.int64)
    low, high = (values.min(), values.max()) if values.size else (0, 0)
    return "<i8" if low < 0 or high >= 2**32 else "<u2" if high <= 65_535 else "<u4"


# --- v3 array entries ---


def array_entry(values, dtype: str | None = None) -> dict:
    """The entry of `values` as `dtype`, by default their own (`"<f8"` for
    a list of floats)."""
    arr = np.asarray(values, dtype)
    arr = arr.astype(arr.dtype.newbyteorder("<"))
    return {"shape": list(arr.shape), "dtype": arr.dtype.str, "data": arr.tobytes().hex()}


def entry_values(entry: dict) -> np.ndarray:
    """The array of an entry, read as its recorded dtype."""
    return np.frombuffer(bytes.fromhex(entry["data"]), entry["dtype"]).reshape(entry["shape"])


def v3_split(doc: dict) -> dict:
    """The `encoded.v3` JSON document of a split that `load` read: its
    header, retagged, with each array as an entry at the top level."""
    header = {key: value for key, value in doc.items() if key != "params"}
    entries = {name: array_entry(arr) for name, arr in doc["params"].items()}
    return {**header, "format": "encoded.v3", **entries}
