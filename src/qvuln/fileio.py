"""The pipeline's file boundary: every input file is opened, decoded and,
for JSON, parsed here, and every JSON document is written here, with the
one encoding of a numeric array inside a document.  The callers keep only
their own schema checks."""
from __future__ import annotations

import base64
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import DataError


@contextmanager
def open_input(path: str | Path, what: str, error=DataError) -> Iterator[TextIO]:
    """Open `path` as UTF-8 text with `newline=""` (the csv module's
    setting; line iteration still splits on any line ending).  A missing
    file, and bytes that are not UTF-8 anywhere the block reads, raise
    `error` with a one-line message naming the file."""
    path = Path(path)
    if not path.is_file():
        raise error(f"{what} not found: {path}")
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None


def read_json(path: str | Path, what: str, fmt: str, error=DataError) -> dict:
    """The JSON object in `path`, whose `format` tag must be `fmt`; invalid
    JSON, a document that is not an object and another tag raise `error`."""
    with open_input(path, what, error) as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError:
            raise
        # a number with too many digits raises a plain ValueError, deep
        # nesting a RecursionError
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: not a JSON object")
    if doc.get("format") != fmt:
        raise error(f"{path}: unsupported format {doc.get('format')!r}, expected {fmt!r}")
    return doc


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open a temporary file beside `path` for UTF-8 text.  When the block
    ends normally the file replaces `path` in one rename, so a reader sees
    the old file or the whole new one; when it raises, the temporary file
    is removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(doc: dict, path: str | Path) -> None:
    """Standard JSON, written atomically and streamed to the file: a NaN or
    infinite value raises ValueError, instead of being written as a bare
    NaN/Infinity token, and leaves `path` as it was."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def encode_array(arr: np.ndarray, dtype: str) -> dict:
    """`{"shape": [...], "data": ...}` of `arr`: `data` is the base64 of its
    C-order buffer as `dtype` (`"<f8"`, `"<i8"`), with no `tobytes` copy."""
    data = base64.b64encode(np.ascontiguousarray(arr, dtype=dtype)).decode("ascii")
    return {"shape": list(arr.shape), "data": data}


def decode_array(entry, dtype: str, what: str, error=DataError) -> np.ndarray:
    """The array of one `encode_array` entry: `shape` a list of non-negative
    integers, `data` the base64 of itemsize x prod(shape) bytes of `dtype`.
    Returns a writable native-order copy; any other entry raises `error`
    with a one-line message that starts with `what`."""
    try:
        if not isinstance(entry, dict):
            raise ValueError("not a JSON object")
        shape, data = entry.get("shape"), entry.get("data")
        # numpy would take a null shape as "keep it", true as 1 and -1 as "infer it"
        if not isinstance(shape, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape
        ):
            raise ValueError(f"shape must be a list of non-negative integers, got {shape!r}")
        if not isinstance(data, str):
            raise ValueError(f"data must be a base64 string, got {type(data).__name__}")
        # non-ASCII text raises a plain ValueError, the rest binascii.Error
        raw = base64.b64decode(data, validate=True)
        dtype = np.dtype(dtype)
        n_bytes = dtype.itemsize * math.prod(shape)
        if len(raw) != n_bytes:
            raise ValueError(f"data holds {len(raw)} bytes, shape {shape} needs {n_bytes}")
        return np.frombuffer(raw, dtype).astype(dtype.newbyteorder("=")).reshape(shape)
    except ValueError as exc:
        raise error(f"{what}: {exc}") from None


def check_output_paths(
    outputs: Iterable[str | Path | None], inputs: Iterable[str | Path | None] = ()
) -> None:
    """Raise DataError unless every output path names a file that can be
    written: its directory exists, it is not itself a directory, and it is
    not the same file as an input or another output.  None stands for a
    file that is not asked for.  Commands check their outputs before any
    work, so a bad path fails at once, not after a training run."""
    seen = {Path(p).resolve(): f"input {p}" for p in inputs if p is not None}
    for path in (Path(p) for p in outputs if p is not None):
        if path.is_dir():
            raise DataError(f"output path is a directory: {path}")
        if not path.parent.is_dir():
            raise DataError(f"output directory does not exist: {path.parent}")
        resolved = path.resolve()
        if resolved in seen:
            raise DataError(f"output {path} is the same file as {seen[resolved]}")
        seen[resolved] = f"output {path}"
