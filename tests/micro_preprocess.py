"""One `preprocess` of a 50,000-function corpus: `python tests/micro_preprocess.py TREE`.

It imports `qvuln` from TREE's `src`, writes
`generate_corpus(seed=7, train_per_class=25000, other_per_class=3125)` to a
temporary directory and times one `preprocess --max-len 100` of it.  It
prints the seconds, the process's peak RSS (`ru_maxrss`), and each output
file's size and sha256, so two trees can be compared for time and for
bytes.  Compare trees in alternating processes, since a shared host's
speed drifts.
"""
from __future__ import annotations

import hashlib
import resource
import sys
import tempfile
import time
from pathlib import Path

OUTPUTS = ("vocab.json", "train.json", "validation.json", "test.json")


def main(tree: str) -> None:
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import generate_corpus
    from qvuln.cli import main as qvuln_main

    with tempfile.TemporaryDirectory() as tmp:
        csv_dir, out_dir = Path(tmp) / "csv", Path(tmp) / "encoded"
        generate_corpus(csv_dir, seed=7, train_per_class=25000, other_per_class=3125)
        start = time.perf_counter()
        code = qvuln_main(["preprocess", "--data-dir", str(csv_dir), "--max-len", "100",
                           "--out", str(out_dir)])
        seconds = time.perf_counter() - start
        if code != 0:
            sys.exit(f"preprocess exited with code {code}")
        # ru_maxrss is in KiB on Linux
        print(f"preprocess {seconds:.3f} s, peak RSS "
              f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")
        for name in OUTPUTS:
            data = (out_dir / name).read_bytes()
            print(f"{name} {len(data)} bytes sha256 {hashlib.sha256(data).hexdigest()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/micro_preprocess.py TREE")
    main(sys.argv[1])
