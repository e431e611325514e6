"""Run-to-run determinism of every command-line output: the identity matrix
(`identity_matrix.py`) run twice against this tree, each time in a fresh
process, gives the same digest for each output; and the matrix's report of
how large a difference is."""
from __future__ import annotations

import base64
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
    # nor the arrays of a split whose v2 int64 arrays hold the values of its
    # v3 narrow ones, nor a v3 checkpoint's `version`; a's checkpoint is a v3
    # JSON document and b's a v4 container, so each file's `format` is
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
        sequences, labels = [[2, 65_535], [0, 1]], [1, 0]
        if side == "a":
            split = {"format": "encoded.v2", **{
                key: {"shape": list(np.shape(values)), "data": base64.b64encode(
                    np.array(values, "<i8").tobytes()).decode("ascii")}
                for key, values in (("sequences", sequences), ("labels", labels))}}
        else:
            split = {"format": "encoded.v3",
                     "sequences": checkpoint_codec.array_entry(sequences, "<u2"),
                     "labels": checkpoint_codec.array_entry(labels, "|u1")}
        (work / "split.json").write_text(json.dumps(split))
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
                     "split.json": ["format: 'encoded.v2' against 'encoded.v3'"],
                     "curves.json": ["predicted: 1e-12"],
                     "metrics.json": ["loss_curve: 1e-12"], "eval x: stdout": ["numbers: 1e-12"]}
