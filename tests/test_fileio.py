"""The file boundary: `qvuln.fileio` reads and writes every file, and a
seeded mutation fuzz drives damaged copies of each input kind through
`cli.main`, which must exit 2 with one `error:` line and no traceback."""
from __future__ import annotations

import ast
import json
import random
import shutil
from pathlib import Path

import numpy as np
import pytest

import qvuln
import checkpoint_codec
from checkpoint_codec import array_entry, decode, encode, entry_values, index_entry
from qvuln.cli import load_encoded_dataset, load_vocab_file, main, save_encoded_dataset
from qvuln.corpus import SPLITS
from qvuln.embedding import load_vectors
from qvuln.errors import DataError
from qvuln.fileio import decode_array, encode_array, read_json
from qvuln.trainer import ClassifyDataset, _record_keys

SRC = Path(qvuln.__file__).parent

# byte runs that are never valid UTF-8: a stray continuation byte, a byte
# UTF-8 never uses, and a lead byte followed by a non-continuation byte
NOT_UTF8 = (b"\x80", b"\xff", b"\xc3\x28")


def test_read_json_rejections_name_the_file(tmp_path):
    path = tmp_path / "doc.json"
    cases = [
        (b"", "not valid JSON"),
        (b"[" * 100_000 + b"]" * 100_000, "not valid JSON"),
        (b"[1, 2]", "not a JSON object"),
        (b'{"format": "thing.v2"}', "unsupported format 'thing.v2', expected 'thing.v1'"),
        (b'{"format": "thing.v1", "x": {"y": 1, "y": 1}}', "key 'y' appears twice in one object"),
        (b'{"format": "thing.v1", "x": "\xff"}', "not UTF-8 text"),
    ]
    for content, reason in cases:
        path.write_bytes(content)
        with pytest.raises(DataError, match=reason) as info:
            read_json(path, "thing", "thing.v1")
        assert str(path) in str(info.value)
    with pytest.raises(DataError, match="thing not found") as info:
        read_json(tmp_path / "absent.json", "thing", "thing.v1")
    assert type(info.value) is DataError


def test_a_leading_byte_order_mark_is_skipped(tiny_corpus_dir, tmp_path):
    # spreadsheet programs save "CSV UTF-8" with one; a file read with it
    # reads as its twin without it
    bom = b"\xef\xbb\xbf"
    bom_dir = tmp_path / "bom-csv"
    bom_dir.mkdir()
    for split in SPLITS:
        (bom_dir / f"{split}.csv").write_bytes(bom + (tiny_corpus_dir / f"{split}.csv").read_bytes())
    for data_dir, out in ((tiny_corpus_dir, "plain"), (bom_dir, "bom")):
        assert main(["preprocess", "--data-dir", str(data_dir), "--max-len", "6",
                     "--max-vocab", "30", "--out", str(tmp_path / out)]) == 0
    for name in ("vocab", *SPLITS):
        assert ((tmp_path / "bom" / f"{name}.json").read_bytes()
                == (tmp_path / "plain" / f"{name}.json").read_bytes()), name

    vocab = tmp_path / "vocab-bom.json"
    vocab.write_bytes(bom + (tmp_path / "plain" / "vocab.json").read_bytes())
    assert load_vocab_file(vocab) == load_vocab_file(tmp_path / "plain" / "vocab.json")
    for content in (b"strcpy 0.5 -1.0\nbuf 0.25 0.0\n", b"2 2\nstrcpy 0.5 -1.0\nbuf 0.25 0.0\n"):
        (tmp_path / "v.txt").write_bytes(content)
        (tmp_path / "v-bom.txt").write_bytes(bom + content)
        plain, with_bom = load_vectors(tmp_path / "v.txt"), load_vectors(tmp_path / "v-bom.txt")
        assert with_bom.dim == plain.dim == 2
        assert list(with_bom.entries) == list(plain.entries) == ["strcpy", "buf"]
        for token, vector in plain.entries.items():
            assert with_bom.entries[token].tobytes() == vector.tobytes()


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open"
    if isinstance(func, ast.Attribute):
        if func.attr in ("open", "read_bytes", "read_text", "write_bytes", "write_text"):
            return f".{func.attr}"
        if isinstance(func.value, ast.Name) and func.value.id in ("json", "binascii"):
            return f"{func.value.id}.{func.attr}"
    return None


def _calls_outside_fileio(names: tuple[str, ...]) -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fileio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _call_name(node) in names:
                found.append(f"{path.name}:{node.lineno}: {_call_name(node)}")
    return found


def test_only_fileio_opens_files_or_handles_json():
    names = ("open", ".open", ".read_bytes", ".read_text", ".write_bytes", ".write_text",
             "json.load", "json.loads", "json.dump", "json.dumps")
    assert _calls_outside_fileio(names) == []


def test_only_fileio_encodes_arrays():
    # one array codec: checkpoints and encoded splits both go through
    # fileio.encode_array and fileio.decode_array
    assert _calls_outside_fileio(("binascii.b2a_hex", "binascii.a2b_hex")) == []


# --- the array codec ---

CODEC_VALUES = {
    "<f8": [[-0.0, 5e-324, -1.7976931348623157e308], [0.1, np.nextafter(1.0, 2.0), 1e-310]],
    "<u2": [[0, 1, 65_535], [256, 255, 65_534]],
    "<u4": [[0, 65_536, 2**32 - 1], [2**31, 1, 16_777_216]],
    "|u1": [[0, 1, 255], [128, 127, 2]],
}


@pytest.mark.parametrize("dtype", sorted(CODEC_VALUES))
def test_codec_round_trips_each_dtype(dtype):
    for arr in (np.array(CODEC_VALUES[dtype], dtype), np.array(CODEC_VALUES[dtype], dtype).T,
                np.zeros((0, 3), dtype), np.array(CODEC_VALUES[dtype][0][2], dtype)):
        entry = json.loads(json.dumps(encode_array(arr, dtype)))
        # the independent codec writes the same text
        assert entry == array_entry(arr, dtype)
        back = decode_array(entry, (dtype,), "x")
        assert back.shape == arr.shape and back.dtype == np.dtype(dtype).newbyteorder("=")
        assert back.flags.writeable and back.flags.c_contiguous
        assert back.tobytes() == np.ascontiguousarray(arr).tobytes()


@pytest.mark.parametrize("largest, dtype", [(65_535, "<u2"), (65_536, "<u4"), (None, "<u2")],
                         ids=["65535", "65536", "empty"])
def test_split_indices_take_the_narrowest_type(largest, dtype, tmp_path):
    sequences = np.array([[2, 0], [largest, 1]]) if largest else np.zeros((0, 2), np.int64)
    labels = np.arange(len(sequences)) % 2
    path = tmp_path / "split.json"
    save_encoded_dataset(ClassifyDataset(sequences, labels, 2, "d"), "train", path)
    doc = json.loads(path.read_text())
    assert (doc["sequences"]["dtype"], doc["labels"]["dtype"]) == (dtype, "|u1")
    data = load_encoded_dataset(path)
    assert data.sequences.dtype == data.labels.dtype == np.int64
    assert np.array_equal(data.sequences, sequences) and np.array_equal(data.labels, labels)


def _damage(entry: dict, damage: str) -> None:
    data, dtype = entry["data"], entry["dtype"]
    entry.update({
        "odd length": {"data": data[:-1]},
        "non-hex digit": {"data": "g" + data[1:]},
        "non-ASCII text": {"data": "\u00e9" + data[1:]},
        "dtype not allowed": {"dtype": "<i8" if dtype != "<f8" else ">f8"},
        "byte count": {"data": data[:-2 * np.dtype(dtype).itemsize]},
    }[damage])


DAMAGE_REASONS = {
    "odd length": "Odd-length string",
    "non-hex digit": "Non-hexadecimal digit found",
    "non-ASCII text": "only ASCII characters",
    "dtype not allowed": "dtype must be one of",
    "byte count": "bytes, shape",
}


def _damage_checkpoint(blob: bytes, name: str, damage: str) -> bytes:
    """A checkpoint whose array `name` is damaged as `_damage` damages a
    split's hex entry: its span cut to part of a value (odd length) or one
    value short (byte count), a string among its offsets (non-hex digit),
    or another dtype (`"<f\u00e9"` for non-ASCII text, `">f8"`); the arrays
    after a cut span move up with it."""
    header, payload = checkpoint_codec.unpack(blob)
    entry = header["params"][name]
    begin, end = entry["offsets"]
    cut = {"odd length": 1, "byte count": 8}.get(damage)
    if cut:
        payload = payload[:end - cut] + payload[end:]
        for e in header["params"].values():
            e["offsets"] = [v - cut if v >= end else v for v in e["offsets"]]
    else:
        entry.update({"non-hex digit": {"offsets": [begin, str(end)]},
                      "non-ASCII text": {"dtype": "<f\u00e9"},
                      "dtype not allowed": {"dtype": ">f8"}}[damage])
    return checkpoint_codec.pack(header, payload)


CHECKPOINT_DAMAGE_REASONS = {
    "odd length": "offsets must be",
    "non-hex digit": "offsets must be",
    "non-ASCII text": "dtype must be '<f8'",
    "dtype not allowed": "dtype must be '<f8'",
    "byte count": "offsets must be",
}


@pytest.mark.parametrize("damage", DAMAGE_REASONS)
@pytest.mark.parametrize("kind", ["checkpoint-eval", "checkpoint-census", "split"])
def test_damaged_array_text_exits_2(kind, damage, good, tmp_path, capsys):
    # a split's arrays are hex text; a checkpoint's are raw bytes, damaged at
    # their span or their header entry the nearest way
    if kind == "split":
        doc = json.loads((good / "train.json").read_text())
        damaged = []
        for entry in (doc["sequences"], doc["labels"]):
            original = dict(entry)
            _damage(entry, damage)
            damaged.append(json.dumps(doc).encode())
            entry.update(original)
        reason = DAMAGE_REASONS[damage]
    else:
        blob = (good / "ckpt.json").read_bytes()
        names = sorted(checkpoint_codec.unpack(blob)[0]["params"])
        damaged = [_damage_checkpoint(blob, name, damage) for name in names]
        reason = CHECKPOINT_DAMAGE_REASONS[damage]
    path = tmp_path / "input"
    for k, content in enumerate(damaged):
        path.write_bytes(content)
        capsys.readouterr()
        assert main(_argv(kind, path, good, tmp_path, sine=False)) == 2, k
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (k, err)
        assert "malformed" in err and reason in err, (k, err)


def test_v2_files_exit_2_naming_the_expected_format(good, tmp_path, capsys):
    # old files are refused by their tag, whatever they hold; no reader
    # converts them.  Every older checkpoint is one JSON document
    for kind, source, tag, expected in (
            ("checkpoint-eval", "ckpt.json", "checkpoint", "checkpoint.v4"),
            ("checkpoint-census", "ckpt.json", "checkpoint", "checkpoint.v4"),
            ("split", "train.json", "encoded", "encoded.v3")):
        content = (good / source).read_bytes()
        doc = json.loads(content) if kind == "split" else checkpoint_codec.unpack(content)[0]
        path = tmp_path / f"{tag}-v2.json"
        path.write_text(json.dumps({**doc, "format": f"{tag}.v2"}))
        capsys.readouterr()
        assert main(_argv(kind, path, good, tmp_path, sine=False)) == 2, kind
        err = capsys.readouterr().err
        assert err == (f"error: {path}: unsupported format '{tag}.v2', "
                       f"expected '{expected}'\n"), err


def _header_text(text: bytes, payload: bytes) -> bytes:
    """A file of the header text `text`, as it is, and `payload`."""
    return len(text).to_bytes(8, "little") + text + payload


def _with_b_f(header: dict, **fields) -> dict:
    """`header` with `fields` set in the entry of array `b_f`, which holds
    the payload's bytes 16 to 32."""
    params = {**header["params"], "b_f": {**header["params"]["b_f"], **fields}}
    return {**header, "params": params}


def _v3_document(header: dict, payload: bytes) -> bytes:
    """The `checkpoint.v3` JSON document of a checkpoint's header and payload."""
    params = {name: array_entry(np.frombuffer(payload[begin:end], "<f8").reshape(e["shape"]))
              for name, e in header["params"].items() for begin, end in [e["offsets"]]}
    return json.dumps({**header, "format": "checkpoint.v3", "version": 3,
                       "params": params}).encode()


# name: (a damaged file made from a good checkpoint's (header, payload),
# words its one error line must hold)
DAMAGED_CONTAINERS = {
    "shorter-than-8-bytes": (lambda h, p: checkpoint_codec.pack(h, p)[:5],
                             "not a checkpoint.v4 file: 5 bytes"),
    "header-past-the-end": (lambda h, p: _header_text(json.dumps(h).encode(), p)[:-len(p) - 1],
                            "runs past the file's end"),
    "header-not-utf8": (lambda h, p: _header_text(b'{"format": "checkpoint.v4\xff"}', p),
                        "not UTF-8 text"),
    "header-not-json": (lambda h, p: _header_text(b"format: checkpoint.v4", p),
                        "not valid JSON"),
    "header-not-an-object": (lambda h, p: _header_text(b'["checkpoint.v4"]', p),
                             "not a JSON object"),
    "format-twice": (lambda h, p: _header_text(
                         b'{"format": "checkpoint.v4", ' + json.dumps(h).encode()[1:], p),
                     "key 'format' appears twice"),
    "another-format": (lambda h, p: checkpoint_codec.pack({**h, "format": "checkpoint.v5"}, p),
                       "unsupported format 'checkpoint.v5', expected 'checkpoint.v4'"),
    "v3-json-checkpoint": (_v3_document,
                           "unsupported format 'checkpoint.v3', expected 'checkpoint.v4'"),
    "bad-shape": (lambda h, p: checkpoint_codec.pack(_with_b_f(h, shape=[2, -1]), p),
                  "'b_f': shape must be a list of non-negative integers"),
    "bad-dtype": (lambda h, p: checkpoint_codec.pack(_with_b_f(h, dtype="<i8"), p),
                  "'b_f': dtype must be '<f8', got '<i8'"),
    "bad-offsets": (lambda h, p: checkpoint_codec.pack(_with_b_f(h, offsets=[16]), p),
                    "'b_f': offsets must be [16, 32], got [16]"),
    "gap": (lambda h, p: checkpoint_codec.pack(_with_b_f(h, offsets=[24, 40]), p),
            "'b_f': offsets must be [16, 32], got [24, 40]"),
    "overlap": (lambda h, p: checkpoint_codec.pack(_with_b_f(h, offsets=[8, 24]), p),
                "'b_f': offsets must be [16, 32], got [8, 24]"),
    "array-named-twice": (lambda h, p: _header_text(json.dumps(h).encode().replace(
                              b'"params": {', b'"params": {"b_f": {}, ', 1), p),
                          "key 'b_f' appears twice"),
    "trailing-payload-bytes": (lambda h, p: checkpoint_codec.pack(h, p + bytes(8)),
                               "the payload holds"),
    "missing-payload-bytes": (lambda h, p: checkpoint_codec.pack(h, p[:-8]),
                              "run past the payload's"),
}


@pytest.mark.parametrize("command", ["checkpoint-eval", "checkpoint-census"])
@pytest.mark.parametrize("damage", DAMAGED_CONTAINERS)
def test_damaged_container_exits_2(damage, command, good, tmp_path, capsys):
    make, reason = DAMAGED_CONTAINERS[damage]
    header, payload = checkpoint_codec.unpack((good / "ckpt.json").read_bytes())
    assert header["params"]["b_f"]["offsets"] == [16, 32]
    path = tmp_path / "damaged.ckpt"
    path.write_bytes(make(header, payload))
    capsys.readouterr()
    assert main(_argv(command, path, good, tmp_path, sine=False)) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert reason in err and captured.out == "", err


# --- seeded mutation fuzz ---

MUTATIONS = ("truncate", "drop-key", "reshape", "nan", "out-of-range", "wrong-type", "not-utf8")
KINDS = ("checkpoint-eval", "checkpoint-census", "split", "vocabulary", "csv", "vectors")
DRAWS = 3


@pytest.fixture(scope="module")
def good(tiny_corpus_dir, tmp_path_factory) -> Path:
    """A directory of valid inputs: the tiny corpus's encoded splits and
    vocabulary, a 3-column vector table over its tokens, a classify LSTM
    checkpoint trained on them, and a sine LSTM checkpoint."""
    root = tmp_path_factory.mktemp("good")
    assert main([
        "preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
        "--max-vocab", "30", "--out", str(root),
    ]) == 0
    rng = random.Random(0)
    tokens = json.loads((root / "vocab.json").read_text())["tokens"]
    (root / "vectors.txt").write_text("".join(
        f"{t} {' '.join(repr(rng.uniform(-1, 1)) for _ in range(3))}\n" for t in tokens
    ))
    assert main([
        "train", "--model", "lstm", "--task", "classify", "--data", str(root / "train.json"),
        "--vocab", str(root / "vocab.json"), "--epochs", "1", "--hidden", "2",
        "--d-basic", "2", "--out", str(root / "ckpt.json"),
    ]) == 0
    assert main([
        "train", "--model", "lstm", "--task", "sine", "--epochs", "1", "--n-points", "8",
        "--window", "2", "--hidden", "2", "--out", str(root / "sine.json"),
    ]) == 0
    return root


def _argv(kind: str, path: Path, good: Path, work: Path, sine: bool) -> list[str]:
    train = [
        "train", "--model", "lstm", "--task", "classify", "--epochs", "1", "--hidden", "2",
        "--out", str(work / "out.json"),
    ]
    basic = [*train, "--d-basic", "2"]  # a vector mode takes its width from its file
    data, vocab = ["--data", str(good / "train.json")], ["--vocab", str(good / "vocab.json")]
    return {
        "checkpoint-eval": ["eval", "--ckpt", str(path),
                            *([] if sine else ["--data", str(good / "test.json")])],
        "checkpoint-census": ["census", "--ckpt", str(path)],
        "split": [*basic, "--data", str(path), *vocab],
        "vocabulary": [*basic, *data, "--vocab", str(path)],
        "vectors": [*train, *data, *vocab, "--embedding", "glove", "--vectors", str(path)],
        "csv": ["preprocess", "--data-dir", str(path.parent), "--out", str(work / "enc")],
    }[kind]


def _checkpoint(rng: random.Random, blob: bytes, mutation: str, evaluated: bool) -> bytes:
    """A damaged checkpoint; `evaluated` says the command runs the model,
    so a finite payload that overflows its forward pass is damage too."""
    doc, payload = checkpoint_codec.unpack(blob)
    if mutation == "not-utf8":
        # bytes that are not UTF-8 inside the header text
        text = blob[8:8 + int.from_bytes(blob[:8], "little")]
        at = rng.randrange(1, len(text.rstrip()) - 1)
        return _header_text(text[:at] + rng.choice(NOT_UTF8) + text[at:], payload)
    if mutation == "truncate":
        # cut in the length prefix, in the header or in the payload
        return blob[:rng.randrange(len(blob))]
    params = doc["params"]
    name = rng.choice(sorted(params))
    entry = params[name]
    begin, end = entry["offsets"]
    values = np.frombuffer(payload[begin:end], "<f8").copy()
    hp = doc["hyperparameters"]
    # (object, key) of every field that eval and census both need, the record
    # keys as the check reads them: every one is required
    fields = [
        *((doc, k) for k in ("format", "model", "task", "hyperparameters", "params")),
        *((hp, k) for k in _record_keys(doc["model"], doc["task"])), (params, name),
        *((entry, k) for k in ("shape", "dtype", "offsets")),
    ]
    if mutation == "drop-key":
        where, key = rng.choice(fields)
        del where[key]
    elif mutation == "reshape":
        if rng.random() < 0.5:
            entry["shape"].append(1)
        else:
            payload = payload[:end - 8] + payload[end:]  # 8 bytes short
    elif mutation == "nan":
        values[rng.randrange(len(values))] = rng.choice(
            [float("nan"), float("inf"), -float("inf")]
        )
        payload = payload[:begin] + values.tobytes() + payload[end:]
    elif mutation == "out-of-range":
        if not evaluated or rng.random() < 0.5:
            hp[rng.choice(["d_in", "hidden"])] = rng.choice([0, -1, 10**12])
        else:
            # every weight at 1e308: the gate products and the logit overflow
            payload = np.full(len(payload) // 8, 1e308).tobytes()
    else:  # wrong-type
        choice = rng.randrange(3)
        if choice == 0:
            where, key = rng.choice(fields)
            where[key] = rng.choice(["7", 2.5, None, [], {"a": 1}])
        elif choice == 1:
            # v1's list of values, floats or strings where the offsets belong
            entry["offsets"] = rng.choice([values.tolist(), [float(begin), float(end)],
                                           [str(begin), str(end)]])
        else:
            entry["dtype"] = rng.choice(["<f4", ">f8", "float64", 8])
    return checkpoint_codec.pack(doc, payload)


def _split(rng: random.Random, doc: dict, mutation: str, n_rows: int) -> dict:
    """A damaged `encoded.v3` split; `n_rows` is the embedding's row count."""
    seq_entry, label_entry = doc["sequences"], doc["labels"]
    index = seq_entry["dtype"]
    seqs, labels = entry_values(seq_entry), entry_values(label_entry)
    row = rng.randrange(len(seqs))
    col = rng.randrange(seqs.shape[1])
    entry = rng.choice([seq_entry, label_entry])
    if mutation == "drop-key":
        where, key = rng.choice([
            *((doc, k) for k in ("format", "max_len", "vocab_digest", "sequences", "labels")),
            (entry, "shape"), (entry, "dtype"), (entry, "data"),
        ])
        del where[key]
    elif mutation == "reshape":
        choice = rng.randrange(5)
        if choice == 0:
            seq_entry["shape"] = [seqs.size]  # flattened
        elif choice == 1:
            # each row one token short or long, its shape to match
            width = seqs.shape[1] + rng.choice([-1, 1])
            doc["sequences"] = array_entry(np.resize(seqs, (len(seqs), width)), index)
        elif choice == 2:
            label_entry["shape"] = [len(labels), 1]
        elif choice == 3:
            doc["labels"] = array_entry(labels[:-1], "|u1")  # a label short
        else:
            # `data` one element short or long of its shape
            values = decode(entry["data"], entry["dtype"])
            entry["data"] = encode(values[:-1] if rng.random() < 0.5 else [*values, 0],
                                   entry["dtype"])
    elif mutation == "nan":
        # a float64 NaN's bit pattern where an index or a label belongs: its
        # most significant bytes, as many as the entry's type holds
        nan = np.array([rng.choice([float("nan"), -float("nan")])], "<f8")
        if rng.random() < 0.5:
            seqs[row, col] = nan.view(index)[-1]
            seq_entry["data"] = encode(seqs, index)
        else:
            labels[row] = nan.view("|u1")[-1]
            label_entry["data"] = encode(labels, "|u1")
    elif mutation == "out-of-range":
        choice = rng.randrange(3)
        if choice == 0:
            # in the narrowest type that holds it; a negative index or one
            # past 2**32 - 1 as int64, which a split may not use
            seqs = seqs.astype(np.int64)
            seqs[row, col] = rng.choice([-1, n_rows, n_rows + 7, 2**16, 2**63 - 1, -(2**63)])
            doc["sequences"] = index_entry(seqs)
        elif choice == 1:
            labels[row] = rng.choice([2, 255])  # 255 is -1's byte
            label_entry["data"] = encode(labels, "|u1")
        else:
            doc["max_len"] = rng.choice([0, -6, seqs.shape[1] + 1])
    else:  # wrong-type
        choice = rng.randrange(4)
        if choice == 0:
            where = rng.choice([doc, entry])
            key = rng.choice(["sequences", "labels", "max_len", "format", "vocab_digest"]
                             if where is doc else ["shape", "dtype", "data"])
            where[key] = rng.choice(["7", 6.5, True, None, {}])
        elif choice == 1:
            # a bool, a float, a string or null among the shape's sizes
            entry["shape"][rng.randrange(len(entry["shape"]))] = rng.choice(
                [True, False, 2.5, "3", None]
            )
        elif choice == 2:
            # v1's decimal list where the hex string belongs
            entry["data"] = (seqs if entry is seq_entry else labels).tolist()
        else:
            data = entry["data"]
            at = rng.randrange(len(data))
            entry["data"] = rng.choice([
                f"{data[:at]}{rng.choice('!*-_.~ ')}{data[at + 1:]}",  # not hex
                data + "a",  # an odd number of hex digits
            ])
    return doc


def _vocabulary(rng: random.Random, doc: dict, mutation: str, max_index: int) -> dict:
    tokens = doc["tokens"]
    if mutation == "drop-key":
        del doc[rng.choice(["format", "tokens"])]
    elif mutation == "reshape":
        doc["tokens"] = [tokens] if rng.random() < 0.5 else [[t] for t in tokens]
    elif mutation == "nan":
        tokens[rng.randrange(len(tokens))] = float("nan")
    elif mutation == "out-of-range":
        # too few tokens for the indices the split holds; the digest goes
        # too, so the index check, not the digest check, must catch it
        del tokens[rng.randrange(max_index - 1):]
        del doc["digest"]
    else:  # wrong-type
        if rng.random() < 0.5:
            tokens[rng.randrange(len(tokens))] = rng.choice([5, None, ["x"]])
        else:
            # (a null digest stands for none, so None is not among these)
            doc[rng.choice(["format", "tokens", "digest"])] = rng.choice([5, "abc", {}, ["x"]])
    return doc


def _csv(rng: random.Random, lines: list[str], mutation: str) -> list[str]:
    """`lines` holds the header, then one `"code",label` row per line."""
    k = rng.randrange(1, len(lines))
    code, label = lines[k].rsplit(",", 1)
    if mutation == "truncate":
        # end the file inside a row, before its label: that row is short
        return [*lines[:k], lines[k][: rng.randrange(1, len(code) + 2)]]
    if mutation == "drop-key":
        k = rng.randrange(len(lines))
        lines[k] = lines[k].rsplit(",", 1)[0]
    elif mutation == "reshape":
        lines[k] = f"{lines[k]},{label}"
    elif mutation == "nan":
        lines[k] = f"{code},nan"
    elif mutation == "out-of-range":
        lines[k] = f"{code},{rng.choice(['2', '-1', '10'])}"
    else:  # wrong-type
        lines[k] = rng.choice([f"{code},{rng.choice(['yes', '1.0', ''])}", f'"  ",{label}'])
    return lines


def _vectors(rng: random.Random, lines: list[str], mutation: str) -> list[str]:
    """`lines` holds `token v1 v2 v3` rows."""
    k = rng.randrange(1, len(lines))
    fields = lines[k].split(" ")
    if mutation == "truncate":
        # end the file inside row k, before its last value
        return [*lines[:k], lines[k][: rng.randrange(1, len(lines[k]) - len(fields[-1]) + 1)]]
    j = rng.randrange(1, len(fields))
    if mutation == "drop-key":
        del fields[j]
    elif mutation == "reshape":
        fields.append(fields[j])
    elif mutation == "nan":
        fields[j] = rng.choice(["nan", "NaN", "-nan"])
    elif mutation == "out-of-range":
        fields[j] = rng.choice(["1e400", "-1e999", "inf"])
    else:  # wrong-type
        fields[j] = rng.choice(["abc", "0x1A", "1,5", "None"])
    lines[k] = " ".join(fields)
    return lines


def _mutate(kind: str, mutation: str, rng: random.Random, good: Path, tiny_corpus_dir: Path,
            path: Path, sine: bool) -> None:
    """Write a damaged copy of `kind`'s good file to `path`; `sine` picks
    the sine checkpoint over the classify one."""
    checkpoint = good / ("sine.json" if sine else "ckpt.json")
    source = {
        "checkpoint-eval": checkpoint,
        "checkpoint-census": checkpoint,
        "split": good / "train.json",
        "vocabulary": good / "vocab.json",
        "vectors": good / "vectors.txt",
        "csv": tiny_corpus_dir / "train.csv",
    }[kind]
    content = source.read_bytes()
    if kind.startswith("checkpoint"):
        path.write_bytes(_checkpoint(rng, content, mutation, kind == "checkpoint-eval"))
    elif mutation == "not-utf8":
        at = rng.randrange(len(content))
        path.write_bytes(content[:at] + rng.choice(NOT_UTF8) + content[at:])
    elif mutation == "truncate" and kind in ("split", "vocabulary"):
        # a JSON object cut anywhere before its closing brace is invalid
        path.write_bytes(content[: rng.randrange(len(content.rstrip()) - 1)])
    elif kind == "csv":
        lines = content.decode("utf-8").split("\r\n")[:-1]
        path.write_text("".join(f"{line}\r\n" for line in _csv(rng, lines, mutation)),
                        newline="")
    elif kind == "vectors":
        lines = content.decode("utf-8").splitlines()
        path.write_text("\n".join(_vectors(rng, lines, mutation)) + "\n")
    else:
        doc = json.loads(content)
        split = json.loads((good / "train.json").read_text())
        if kind == "split":
            n_rows = len(json.loads((good / "vocab.json").read_text())["tokens"]) + 2
            doc = _split(rng, doc, mutation, n_rows)
        else:
            max_index = int(entry_values(split["sequences"]).max())
            doc = _vocabulary(rng, doc, mutation, max_index)
        path.write_text(json.dumps(doc))


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_mutated_input_exits_2(kind, mutation, good, tiny_corpus_dir, tmp_path, capsys):
    # eval and census share a seed, so they read the same damaged checkpoints
    # (all but out-of-range's, where eval may overflow its forward pass instead)
    rng = random.Random(f"{kind.split('-')[0]}/{mutation}")
    if kind == "csv":
        for split in ("validation", "test"):
            shutil.copy(tiny_corpus_dir / f"{split}.csv", tmp_path / f"{split}.csv")
    path = tmp_path / ("train.csv" if kind == "csv" else "input")
    for draw in range(DRAWS):
        # checkpoint draws alternate between the classify and the sine checkpoint
        sine = draw % 2 == 1
        _mutate(kind, mutation, rng, good, tiny_corpus_dir, path, sine)
        capsys.readouterr()
        code = main(_argv(kind, path, good, tmp_path, sine))
        captured = capsys.readouterr()
        assert code == 2, (draw, captured.err, path.read_bytes()[:2000])
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1, (draw, err)
        assert "Traceback" not in err and captured.out == "", (draw, err)
        if mutation == "not-utf8":
            assert f"{path}: not UTF-8 text" in err, err
