"""Run-to-run determinism of every command-line output: the identity matrix
(`identity_matrix.py`) run twice against this tree, each time in a fresh
process, gives the same digest for each output; and the matrix's report of
how large a difference is."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checkpoint_codec
import identity_matrix


def test_two_fresh_processes_give_equal_digests(tmp_path):
    tree = Path(identity_matrix.__file__).resolve().parents[1]
    corpus = identity_matrix.make_corpus(tmp_path / "csv")
    first = identity_matrix.tree_digests(tree, corpus)
    second = identity_matrix.tree_digests(tree, corpus)
    outputs = sum(1 + len(files) for _, _, files in identity_matrix.runs(corpus))
    assert len(first) == outputs
    assert first == second


def test_differing_outputs_report_each_array_column_and_number(tmp_path):
    # b's values sit 1e-12 (relative) off a's in one array of a checkpoint,
    # one column of a curves file, one list of a metrics file and one number
    # of a stdout; equal values and `wall_time_seconds` are not reported,
    # nor the arrays of a split whose v3 hex entries hold the values of its
    # v4 container's arrays, nor a v3 checkpoint's `version`; a's checkpoint
    # and split are v3 JSON documents and b's v4 containers, so each file's
    # `format` is
    outputs = {}
    for side, moved in (("a", 1.0), ("b", 1.0 + 1e-12)):
        work = tmp_path / side
        (work / "stdout").mkdir(parents=True)
        arrays = {"w": [2.0, -4.0 * moved], "b": [1.0]}
        hp = {"hidden": 2}
        if side == "a":
            params = {name: checkpoint_codec.array_entry(values) for name, values in arrays.items()}
            (work / "ck.ckpt").write_text(json.dumps(
                {"format": "checkpoint.v3", "version": 3, "hyperparameters": hp, "params": params}))
        else:
            checkpoint_codec.save(work / "ck.ckpt", {"format": "checkpoint.v4",
                                                     "hyperparameters": hp, "params": arrays})
        record = {"split": "train", "max_len": 2, "vocab_digest": "d"}
        split = {"sequences": np.array([[2, 65_535], [0, 1]], "<u2"),
                 "labels": np.array([1, 0], "|u1")}
        if side == "a":
            entries = {key: checkpoint_codec.array_entry(arr) for key, arr in split.items()}
            (work / "split.json").write_text(json.dumps(
                {"format": "encoded.v3", **record, **entries}))
        else:
            checkpoint_codec.save(work / "split.json",
                                  {"format": "encoded.v4", **record, "params": split})
        (work / "curves.json").write_text(f"# x actual predicted epoch\n0.5 1.0 {0.25 * moved!r} 1\n")
        (work / "metrics.json").write_text(json.dumps(
            {"format": "metrics.v1", "wall_time_seconds": moved, "loss_curve": [0.5, 0.5 * moved],
             "accuracy": 1.0}))
        (work / "stdout" / "eval x.txt").write_text(f"accuracy=0.5 loss={0.75 * moved!r}\n")
        outputs[side] = work
    sizes = {name: identity_matrix.relative_differences(
                 identity_matrix.output_numbers(outputs["a"], name),
                 identity_matrix.output_numbers(outputs["b"], name))
             for name in ("ck.ckpt", "split.json", "curves.json", "metrics.json", "eval x: stdout")}
    assert sizes == {"ck.ckpt": ["format: 'checkpoint.v3' against 'checkpoint.v4'",
                                 "params.w: 1e-12"],
                     "split.json": ["format: 'encoded.v3' against 'encoded.v4'"],
                     "curves.json": ["predicted: 1e-12"],
                     "metrics.json": ["loss_curve: 1e-12"], "eval x: stdout": ["numbers: 1e-12"]}
