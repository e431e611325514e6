"""The output-identity matrix: one fixed list of command-line runs on a tiny
generated corpus, each output reduced to its SHA-256 digest.

    python tests/identity_matrix.py TREE_A TREE_B

generates the corpus once, runs the list against each tree's `src`, each
tree in one fresh process, prints the outputs whose digests differ and exits
1 if any do (0 if none).  Under each differing output it prints how large
the difference is: max |a - b| / max |a| of each array (a checkpoint's
parameters, a split's arrays, a JSON list), column (of a curves file) or
number (a JSON value) that differs, and of the numbers of a differing
stdout in order, and a `format` tag that differs.  Arrays are compared by
value, so a v2 file (base64 int64 or float64), a v3 file (hex of the
recorded dtype) and a `checkpoint.v4` container (a JSON header and raw
float64 bytes) holding the same arrays show no difference but their
`format`; a v2 or v3 file's `version` says what its `format` says, so it
is not compared.  A checkpoint is named `.ckpt` whatever its format, and
is read as a container unless it starts like a JSON document.  Each
tree's digests are written to `digests-a.json` and `digests-b.json` in
the working directory.

The list: `preprocess` at `--max-len` 6, 20 and 1; `train` of the LSTM and
the QLSTM on classify (with `--eval-data`) and on sine, with `--curves` and
`--metrics`; a QLSTM sine run with `--no-sigma-hidden`; a classify run of
each model in `glove+fasttext` mode, on two vector files that `make_corpus`
writes with fixed seeds from the training split's tokens; a QLSTM classify
run on the 20-step splits in batches of 16, whose backward forms its
gradient rows in three windows; a QLSTM classify run on the one-step
splits, and one on the 6-step splits in batches of one sample, whose
backward forms all six steps' rows in one window; `eval` (with
`--metrics`) and `census` of each checkpoint; `gradcheck --trials 3`.
Every file a run writes and every run's stdout is an output.  In a metrics
file `wall_time_seconds` is masked, since it is the one value that differs
from run to run.

`test_identity_matrix.py` runs the list twice against this tree and requires
equal digests.  It pins no digest: OpenBLAS picks its kernels by CPU, so
another host may give other bits.
"""
from __future__ import annotations

import base64
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checkpoint_codec  # noqa: E402
CORPUS = {"seed": 5, "train_per_class": 8, "other_per_class": 4}
EPOCHS = "2"
# the encoded splits: output directory and --max-len of each preprocess run
ENCODED = {"enc": "6", "enc-long": "20", "enc-one": "1"}
# name: (model, task, encoded splits of a classify run, flags)
CHECKPOINTS = {
    "lstm-classify": ("lstm", "classify", "enc", []),
    "lstm-sine": ("lstm", "sine", None, []),
    "qlstm-classify": ("qlstm", "classify", "enc", []),
    "qlstm-sine": ("qlstm", "sine", None, []),
    "qlstm-sine-raw-hidden": ("qlstm", "sine", None, ["--no-sigma-hidden"]),
    "lstm-glove+fasttext": ("lstm", "classify", "enc", ["--embedding", "glove+fasttext"]),
    "qlstm-glove+fasttext": ("qlstm", "classify", "enc", ["--embedding", "glove+fasttext"]),
    # 20 steps at 16 samples: the backward's row windows of 8 steps are three,
    # the last of them partial
    "qlstm-classify-long": ("qlstm", "classify", "enc-long", ["--batch", "16"]),
    # one step: the first step is also the last, so its rows are vqc6's and
    # vqc2-4's only
    "qlstm-classify-one": ("qlstm", "classify", "enc-one", []),
    # one sample a batch: the backward forms all six steps' rows in one window
    "qlstm-classify-batch-1": ("qlstm", "classify", "enc", ["--batch", "1"]),
}
# the vector files of the glove+fasttext runs: (file, width, seed, stride),
# a vector for every stride-th token; the glove-like file covers every other
# token, so the out-of-vocabulary row is read too
VECTOR_FILES = (("glove.txt", 3, 31, 2), ("fasttext.txt", 2, 32, 1))


def make_corpus(out_dir: Path) -> Path:
    """The tiny generated corpus that the list runs on, with its vector
    files: seeded normal vectors for the sorted distinct tokens of the
    training split, as the reference tokenizer splits them."""
    from conftest import generate_corpus
    from tokenizer_oracle import tokenize

    corpus = generate_corpus(out_dir, **CORPUS)
    with open(corpus / "train.csv", newline="", encoding="utf-8") as fh:
        tokens = sorted({token for row in csv.DictReader(fh) for token in tokenize(row["code"])})
    for name, width, seed, stride in VECTOR_FILES:
        rng = np.random.default_rng(seed)
        (corpus / name).write_text("".join(
            " ".join([token, *map(repr, rng.normal(size=width).tolist())]) + "\n"
            for token in tokens[::stride]))
    return corpus


def runs(corpus: Path) -> list[tuple[str, list[str], list[str]]]:
    """(name, argv, files written) of each run, in order; the files are
    relative to the working directory."""
    out = [(f"preprocess {enc}" if enc != "enc" else "preprocess",
            ["preprocess", "--data-dir", str(corpus), "--max-len", max_len, "--max-vocab", "30",
             "--out", enc],
            [f"{enc}/{split}.json" for split in ("train", "validation", "test", "vocab")])
           for enc, max_len in ENCODED.items()]
    for name, (model, task, enc, flags) in CHECKPOINTS.items():
        if task == "classify":
            inputs = ["--data", f"{enc}/train.json", "--eval-data", f"{enc}/validation.json",
                      "--vocab", f"{enc}/vocab.json"]
            vectors = [arg for file, *_ in VECTOR_FILES
                       for arg in ("--vectors", str(corpus / file))]
            inputs += vectors if "--embedding" in flags else ["--d-basic", "2"]
        else:
            inputs = ["--n-points", "12", "--window", "3"]
        files = [f"{name}.ckpt", f"{name}-curves.json", f"{name}-metrics.json"]
        hidden = ["--hidden", "2"] if model == "lstm" else []
        out.append((f"train {name}", ["train", "--model", model, "--task", task, *inputs,
                                      "--epochs", EPOCHS, *hidden, *flags,
                                      "--out", files[0], "--curves", files[1],
                                      "--metrics", files[2]], files))
    for name, (_, task, enc, _) in CHECKPOINTS.items():
        data = ["--data", f"{enc}/test.json"] if task == "classify" else []
        out.append((f"eval {name}", ["eval", "--ckpt", f"{name}.ckpt", *data,
                                     "--metrics", f"{name}-eval-metrics.json"],
                    [f"{name}-eval-metrics.json"]))
        out.append((f"census {name}", ["census", "--ckpt", f"{name}.ckpt"], []))
    out.append(("gradcheck", ["gradcheck", "--trials", "3"], []))
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout_file(name: str) -> Path:
    return Path("stdout") / f"{name}.txt"


def run_matrix(corpus: Path) -> dict[str, str]:
    """Run the list in the working directory with the `qvuln` on sys.path;
    returns the digest of each output, keyed `<file>` or `<run>: stdout`.
    Each run's stdout is also kept in `stdout/<run>.txt`."""
    from qvuln.cli import main

    digests = {}
    _stdout_file("").parent.mkdir(exist_ok=True)
    for name, argv, files in runs(corpus):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        _stdout_file(name).write_text(stdout.getvalue())
        digests[f"{name}: stdout"] = _digest(stdout.getvalue().encode())
        for path in files:
            data = Path(path).read_bytes()
            if path.endswith("metrics.json"):
                data = re.sub(rb'"wall_time_seconds": [^,\n}]+', b'"wall_time_seconds": null',
                              data)
            digests[path] = _digest(data)
    return digests


def tree_digests(tree: Path, corpus: Path, work: Path | None = None) -> dict[str, str]:
    """The matrix's digests for `tree/src`, run in one fresh process in the
    directory `work`, which keeps the outputs (a temporary one if None)."""
    if work is None:
        with tempfile.TemporaryDirectory() as tmp:
            return tree_digests(tree, corpus, Path(tmp))
    src = (tree / "src").resolve()
    work.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    warnings = [f"-W{option}" for option in sys.warnoptions]
    subprocess.run([sys.executable, *warnings, __file__, "--run", str(corpus.resolve())],
                   cwd=work, env=env, check=True)
    return json.loads((work / "digests.json").read_text())


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _entry_array(entry: dict, v2_dtype: str) -> np.ndarray:
    """The array of an encoded entry: a v3 `{"shape", "dtype", "data"}`
    entry read as its recorded dtype, a v2 `{"shape", "data"}` entry (the
    base64 of its bytes) as `v2_dtype`."""
    if "dtype" in entry:
        return checkpoint_codec.entry_values(entry)
    raw = base64.b64decode(entry["data"], validate=True)
    return np.frombuffer(raw, v2_dtype).reshape(entry["shape"])


def _json_numbers(value, key: str, dtype: str, out: dict[str, np.ndarray]) -> None:
    """Each array (an encoded entry, a container's array or a list of
    numbers), each number and each `format` tag of a JSON value, keyed by
    its path; `dtype` is a v2 entry's."""
    if isinstance(value, np.ndarray):
        out[key] = value
    elif isinstance(value, dict) and set(value) - {"dtype"} == {"shape", "data"}:
        out[key] = _entry_array(value, dtype)
    elif isinstance(value, dict):
        for name, item in value.items():
            if name == "format":
                out[f"{key}.{name}" if key else name] = np.array(item)
            elif name not in ("wall_time_seconds", "version"):
                _json_numbers(item, f"{key}.{name}" if key else name, dtype, out)
    elif isinstance(value, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        out[key] = np.array(value, dtype=float)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[key] = np.array(float(value))


def output_numbers(work: Path, output: str) -> dict[str, np.ndarray]:
    """The named numbers of one output of a run of the list in `work`: the
    columns of a curves file (named by its `#` header), the arrays and
    numbers of a JSON file or of a container's header, the container's
    arrays, and the numbers of a stdout in order."""
    if output.endswith(": stdout"):
        text = (work / _stdout_file(output.removesuffix(": stdout"))).read_text()
        return {"numbers": np.array([float(v) for v in _NUMBER.findall(text)])}
    out: dict[str, np.ndarray] = {}
    if (work / output).read_bytes()[:1] not in (b"{", b"#"):
        _json_numbers(checkpoint_codec.load(work / output), "", "<f8", out)
        return out
    text = (work / output).read_text()
    if text.startswith("#"):
        header, *lines = text.splitlines()
        table = np.array([[float(v) for v in line.split()] for line in lines if line.strip()])
        return {name: table[:, k] for k, name in enumerate(header[1:].split())}
    doc = json.loads(text)
    _json_numbers(doc, "", "<i8" if doc.get("format") == "encoded.v2" else "<f8", out)
    return out


def relative_differences(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> list[str]:
    """One line per name whose values differ: max |a - b| / max |a|, both
    tags of a `format` that differs, or why the two cannot be compared."""
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            lines.append(f"{name}: only in {'a' if name in a else 'b'}")
        elif a[name].shape != b[name].shape:
            lines.append(f"{name}: shape {a[name].shape} against {b[name].shape}")
        elif a[name].dtype.kind == "U" or b[name].dtype.kind == "U":
            if a[name] != b[name]:
                lines.append(f"{name}: {a[name].item()!r} against {b[name].item()!r}")
        elif not np.array_equal(a[name], b[name]):
            diff = np.max(np.abs(a[name] - b[name].astype(float)))
            scale = np.max(np.abs(a[name]))
            size = f"{diff / scale:.3g}" if scale else f"{diff:.3g} (max |a| = 0)"
            lines.append(f"{name}: {size}")
    return lines


def _run_here(corpus: str) -> None:
    """The child process: the list in the working directory, its digests
    written to `digests.json` there."""
    import qvuln

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if src not in Path(qvuln.__file__).resolve().parents:
        raise SystemExit(f"qvuln imported from {qvuln.__file__}, not from {src}")
    _write(Path("digests.json"), run_matrix(Path(corpus)))


def _write(path: Path, digests: dict[str, str]) -> None:
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def compare(tree_a: Path, tree_b: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus = make_corpus(tmp / "csv")
        a = tree_digests(tree_a, corpus, tmp / "a")
        b = tree_digests(tree_b, corpus, tmp / "b")
        _write(Path("digests-a.json"), a)
        _write(Path("digests-b.json"), b)
        differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
        for name in differ:
            print(f"differs: {name}")
            if name in a and name in b:
                sizes = relative_differences(output_numbers(tmp / "a", name),
                                             output_numbers(tmp / "b", name))
                for line in sizes or ["no number differs"]:
                    print(f"    {line}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"] and len(sys.argv) == 3:
        _run_here(sys.argv[2])
    elif len(sys.argv) == 3:
        sys.exit(compare(Path(sys.argv[1]), Path(sys.argv[2])))
    else:
        sys.exit(f"usage: python {sys.argv[0]} TREE_A TREE_B")
