"""Atomic text-file output shared by every writer of the pipeline."""
from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


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
