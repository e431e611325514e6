"""The pipeline's file boundary: every input file is opened, decoded and,
for JSON, parsed here, and every JSON document is written here.  A JSON
object that names one key twice is refused, not read as its last value.

Two array encodings live here.  Inside a JSON document (an encoded split)
an array is its shape, its dtype and the hex of its bytes: hex, not
base64, because CPython's `binascii.a2b_hex` decodes 2-5x faster per byte
than `a2b_base64` on 3.10-3.13.  A checkpoint is a binary container laid
out like safetensors: an 8-byte little-endian header length N, N bytes of
standard-JSON header (sorted keys, padded with spaces to a multiple of 8
bytes) whose `params` object gives each array's `shape`, `dtype` `"<f8"`
and `offsets` `[begin, end]` into the payload, then the arrays' C-order
little-endian float64 bytes, back to back in header order, to the end of
the file.  So a checkpoint loads with no text decoding of its arrays.
The callers keep only their own schema checks.  Every refusal here, of a
checkpoint as of any other file, is a one-line DataError that names the
file."""
from __future__ import annotations

import binascii
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from .errors import DataError

# a container's header length prefix, in bytes, and the one dtype of its arrays
_PREFIX = 8
_F8 = "<f8"


@contextmanager
def open_input(path: str | Path, what: str) -> Iterator[TextIO]:
    """Open `path` as UTF-8 text with `newline=""` (the csv module's
    setting; line iteration still splits on any line ending).  A leading
    byte-order mark, as spreadsheet programs write, is skipped.  A missing
    file, and bytes that are not UTF-8 anywhere the block reads, raise
    DataError with a one-line message naming the file."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{what} not found: {path}")
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key named twice raises ValueError."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen: set[str] = set()
        twice = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"key {twice!r} appears twice in one object")
    return doc


def _json_object(text: str, path: Path, fmt: str) -> dict:
    """The JSON object `text` read from `path`, whose `format` tag must be
    `fmt`; invalid JSON, a key named twice in one object, a document that is
    not an object and another tag raise DataError."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    # a number with too many digits raises a plain ValueError, deep nesting
    # a RecursionError
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a JSON object")
    if doc.get("format") != fmt:
        raise DataError(f"{path}: unsupported format {doc.get('format')!r}, expected {fmt!r}")
    return doc


def read_json(path: str | Path, what: str, fmt: str) -> dict:
    """The JSON object in `path`, checked as `_json_object` checks it."""
    with open_input(path, what) as fh:
        text = fh.read()
    return _json_object(text, Path(path), fmt)


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[TextIO | BinaryIO]:
    """Open a temporary file beside `path` for UTF-8 text, or for bytes when
    `binary`.  When the block ends normally the file replaces `path` in one
    rename, so a reader sees the old file or the whole new one; when it
    raises, the temporary file is removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
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


def _sizes(value) -> bool:
    """Whether `value` is a list of non-negative integers: numpy would take a
    null shape as "keep it", true as 1 and -1 as "infer it"."""
    return isinstance(value, list) and all(type(n) is int and n >= 0 for n in value)


def encode_array(arr: np.ndarray, dtype: str) -> dict:
    """`{"shape": [...], "dtype": dtype, "data": ...}` of `arr`: `data` is
    the lower-case hex of its C-order buffer as `dtype` (a split's `"<u2"`,
    `"<u4"` or `"|u1"`), with no `tobytes` copy."""
    data = binascii.b2a_hex(np.ascontiguousarray(arr, dtype=dtype)).decode("ascii")
    return {"shape": list(arr.shape), "dtype": np.dtype(dtype).str, "data": data}


def decode_array(entry, dtypes: tuple[str, ...], what: str) -> np.ndarray:
    """The array of one `encode_array` entry: `shape` a list of non-negative
    integers, `dtype` one of `dtypes` (the types the caller's field allows)
    and `data` the hex of itemsize x prod(shape) bytes of it.  Returns a
    writable native-order copy; any other entry raises DataError with a
    one-line message that starts with `what`."""
    try:
        if not isinstance(entry, dict):
            raise ValueError("not a JSON object")
        shape, dtype, data = entry.get("shape"), entry.get("dtype"), entry.get("data")
        if not _sizes(shape):
            raise ValueError(f"shape must be a list of non-negative integers, got {shape!r}")
        if dtype not in dtypes:
            raise ValueError(f"dtype must be one of {', '.join(map(repr, dtypes))}, "
                             f"got {dtype!r}")
        if not isinstance(data, str):
            raise ValueError(f"data must be a hex string, got {type(data).__name__}")
        # odd length and a non-hex digit raise binascii.Error, non-ASCII
        # text a plain ValueError
        raw = binascii.a2b_hex(data)
        dtype = np.dtype(dtype)
        n_bytes = dtype.itemsize * math.prod(shape)
        if len(raw) != n_bytes:
            raise ValueError(f"data holds {len(raw)} bytes, shape {shape} needs {n_bytes}")
        return np.frombuffer(raw, dtype).astype(dtype.newbyteorder("=")).reshape(shape)
    except ValueError as exc:
        raise DataError(f"{what}: {exc}") from None


def write_container(doc: dict, arrays: dict[str, np.ndarray], path: str | Path) -> None:
    """`doc` and the float64 `arrays` as one binary container (the module
    docstring gives the layout), written atomically: the header is `doc`
    plus a `params` object, and the arrays go in sorted name order, the
    header's own.  A NaN or infinite value in `doc` raises ValueError and
    leaves `path` as it was; the arrays' bytes are written as they are."""
    names = sorted(arrays)
    data = [np.asarray(arrays[name], _F8, order="C") for name in names]
    params, end = {}, 0
    for name, arr in zip(names, data):
        params[name] = {"dtype": _F8, "offsets": [end, end + arr.nbytes], "shape": list(arr.shape)}
        end += arr.nbytes
    header = json.dumps({**doc, "params": params}, sort_keys=True, allow_nan=False,
                        separators=(",", ":")).encode("ascii")
    header += b" " * (-len(header) % 8)  # the payload starts 8-byte aligned
    with atomic_write(path, binary=True) as fh:
        fh.write(len(header).to_bytes(_PREFIX, "little"))
        fh.write(header)
        for arr in data:
            fh.write(arr.data)


def _utf8(data: bytes, path: Path) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def read_container(path: str | Path, what: str, fmt: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The header (without `params`) and the arrays of the container in
    `path`, whose `format` tag must be `fmt`.  The length prefix must fit
    the file; the header must be UTF-8 text and pass `_json_object`, and
    its `params` must be an object.  Each array's `shape` must be a list of
    non-negative integers, its `dtype` `"<f8"` and its `offsets` the next
    8 x prod(shape) bytes of the payload, from 0 on, and the last array
    must end where the file does.  Each array comes back as a writable
    native-order copy; any other file raises DataError naming `path`."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{what} not found: {path}")
    blob = path.read_bytes()
    if blob[:1] == b"{":
        # an older checkpoint is one JSON document, refused by its format tag;
        # the writer pads a header to a multiple of 8 bytes, so the first byte
        # of its length is never "{" (123)
        _json_object(_utf8(blob, path), path, fmt)
        raise DataError(f"{path}: a JSON document, not a {fmt} file")
    if len(blob) < _PREFIX:
        raise DataError(f"{path}: not a {fmt} file: {len(blob)} bytes, too short for the "
                        f"{_PREFIX}-byte header length")
    size = int.from_bytes(blob[:_PREFIX], "little")
    if size > len(blob) - _PREFIX:
        raise DataError(f"{path}: not a {fmt} file: a header of {size} bytes runs past "
                        f"the file's end at {len(blob)} bytes")
    doc = _json_object(_utf8(blob[_PREFIX:_PREFIX + size], path), path, fmt)
    params = doc.pop("params", None)
    if not isinstance(params, dict):
        raise DataError(f"{path}: params must be a JSON object")
    payload = memoryview(blob)[_PREFIX + size:]
    arrays, end = {}, 0
    for name, entry in params.items():
        try:
            if not isinstance(entry, dict):
                raise ValueError("not a JSON object")
            shape, offsets = entry.get("shape"), entry.get("offsets")
            if not _sizes(shape):
                raise ValueError(f"shape must be a list of non-negative integers, got {shape!r}")
            if entry.get("dtype") != _F8:
                raise ValueError(f"dtype must be {_F8!r}, got {entry.get('dtype')!r}")
            count = math.prod(shape)
            span = [end, end + 8 * count]
            if not (_sizes(offsets) and offsets == span):
                raise ValueError(f"offsets must be {span}, got {offsets!r}")
            if span[1] > len(payload):
                raise ValueError(f"offsets {span} run past the payload's {len(payload)} bytes")
        except ValueError as exc:
            raise DataError(f"{path}: malformed parameter array {name!r}: {exc}") from None
        arrays[name] = np.frombuffer(payload, _F8, count, end).astype("=f8").reshape(shape)
        end = span[1]
    if end != len(payload):
        raise DataError(f"{path}: the payload holds {len(payload)} bytes, its arrays end at "
                        f"{end}")
    return doc, arrays


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
