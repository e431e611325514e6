"""The pipeline's file boundary: every input file is opened, decoded and,
for JSON, parsed here, and every JSON document is written here.  A JSON
object that names one key twice is refused, not read as its last value.

Arrays have one encoding, a binary container laid out like safetensors:
an 8-byte little-endian header length N, N bytes of standard-JSON header
(sorted keys, padded with spaces to a multiple of 8 bytes) whose `params`
object gives each array's `shape`, `dtype` and `offsets` `[begin, end]`
into the payload, then the arrays' C-order little-endian bytes, back to
back in header order, to the end of the file.  Checkpoints hold `"<f8"`
arrays, encoded splits `"<u2"` or `"<u4"` token indices and `"|u1"`
labels; each reader names the dtypes it allows.  So no array is decoded
from text.  The callers keep only their own schema checks.  Every
refusal here, of a container as of any other file, is a one-line
DataError that names the file."""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from .errors import DataError

# a container's header length prefix, in bytes
_PREFIX = 8


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


def write_container(doc: dict, arrays: dict[str, np.ndarray], path: str | Path) -> None:
    """`doc` and `arrays` as one container (the module docstring gives the
    layout), written atomically: the header is `doc` plus a `params`
    object, and the arrays go in sorted name order, the header's own, each
    in its own dtype, little-endian.  A NaN or infinite value in `doc`
    raises ValueError and leaves `path` as it was; the arrays' bytes are
    written as they are."""
    names = sorted(arrays)
    data = [np.asarray(arrays[n], arrays[n].dtype.newbyteorder("<"), order="C") for n in names]
    params, end = {}, 0
    for name, arr in zip(names, data):
        params[name] = {"dtype": arr.dtype.str, "offsets": [end, end + arr.nbytes],
                        "shape": list(arr.shape)}
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


def read_container(
    path: str | Path, what: str, fmt: str, dtypes: tuple[str, ...] | dict[str, tuple[str, ...]]
) -> tuple[dict, dict[str, np.ndarray]]:
    """The header (without `params`) and the arrays of the container in
    `path`, whose `format` tag must be `fmt`.  The length prefix must fit
    the file; the header must be UTF-8 text and pass `_json_object`, and
    its `params` must be an object.  `dtypes` holds the dtypes an array
    may take: a tuple, for an array of any name, or a dict that names
    exactly the arrays the file must hold, each with its own tuple.  Each
    array's `shape` must be a list of non-negative integers, its `dtype`
    one it may take and its `offsets` the next itemsize x prod(shape)
    bytes of the payload, from 0 on, and the last array must end where the
    file does.  Each array comes back as a writable native-order copy; any
    other file raises DataError naming `path`, worded from `what`: "not a
    checkpoint container", and "malformed parameter array" for a
    checkpoint's arrays, which are a model's parameters, else "malformed
    array"."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{what} not found: {path}")
    container = f"{'an' if what[0] in 'aeiou' else 'a'} {what} container"
    blob = path.read_bytes()
    if blob[:1] == b"{":
        # an older checkpoint or split is one JSON document, refused by its
        # format tag; the writer pads a header to a multiple of 8 bytes, so
        # the first byte of its length is never "{" (123)
        _json_object(_utf8(blob, path), path, fmt)
        raise DataError(f"{path}: a JSON document, not {container}")
    if len(blob) < _PREFIX:
        raise DataError(f"{path}: not {container}: {len(blob)} bytes, too short for the "
                        f"{_PREFIX}-byte header length")
    size = int.from_bytes(blob[:_PREFIX], "little")
    if size > len(blob) - _PREFIX:
        raise DataError(f"{path}: not {container}: a header of {size} bytes runs past "
                        f"the file's end at {len(blob)} bytes")
    doc = _json_object(_utf8(blob[_PREFIX:_PREFIX + size], path), path, fmt)
    params = doc.pop("params", None)
    if not isinstance(params, dict):
        raise DataError(f"{path}: params must be a JSON object")
    if isinstance(dtypes, dict) and params.keys() != dtypes.keys():
        raise DataError(f"{path}: params must hold the arrays {sorted(dtypes)}, "
                        f"got {sorted(params)}")
    payload = memoryview(blob)[_PREFIX + size:]
    array = "parameter array" if what == "checkpoint" else "array"
    arrays, end = {}, 0
    for name, entry in params.items():
        allowed = dtypes[name] if isinstance(dtypes, dict) else dtypes
        try:
            if not isinstance(entry, dict):
                raise ValueError("not a JSON object")
            shape, dtype, offsets = entry.get("shape"), entry.get("dtype"), entry.get("offsets")
            if not _sizes(shape):
                raise ValueError(f"shape must be a list of non-negative integers, got {shape!r}")
            if dtype not in allowed:
                raise ValueError(f"dtype must be {' or '.join(map(repr, allowed))}, "
                                 f"got {dtype!r}")
            dtype, count = np.dtype(dtype), math.prod(shape)
            span = [end, end + dtype.itemsize * count]
            if not (_sizes(offsets) and offsets == span):
                raise ValueError(f"offsets must be {span}, got {offsets!r}")
            if span[1] > len(payload):
                raise ValueError(f"offsets {span} run past the payload's {len(payload)} bytes")
        except ValueError as exc:
            raise DataError(f"{path}: malformed {array} {name!r}: {exc}") from None
        arrays[name] = (np.frombuffer(payload, dtype, count, end)
                        .astype(dtype.newbyteorder("=")).reshape(shape))
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
