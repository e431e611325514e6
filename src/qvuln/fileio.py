"""Atomic text-file output shared by every writer of the pipeline."""
from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

from .errors import DataError


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


def check_output_paths(*paths: str | Path | None) -> None:
    """Raise DataError unless every given path names a file that can be
    written: its directory exists and it is not itself a directory.  None
    stands for an output that is not asked for.  Commands check their
    outputs before any work, so a bad path fails at once, not after a
    training run."""
    for path in (Path(p) for p in paths if p is not None):
        if path.is_dir():
            raise DataError(f"output path is a directory: {path}")
        if not path.parent.is_dir():
            raise DataError(f"output directory does not exist: {path.parent}")
