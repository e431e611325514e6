"""Run-to-run determinism of every command-line output: the identity matrix
(`identity_matrix.py`) run twice against this tree, each time in a fresh
process, gives the same digest for each output."""
from __future__ import annotations

from pathlib import Path

import identity_matrix


def test_two_fresh_processes_give_equal_digests(tmp_path):
    tree = Path(identity_matrix.__file__).resolve().parents[1]
    corpus = identity_matrix.make_corpus(tmp_path / "csv")
    first = identity_matrix.tree_digests(tree, corpus)
    second = identity_matrix.tree_digests(tree, corpus)
    outputs = sum(1 + len(files) for _, _, files in identity_matrix.runs(corpus))
    assert len(first) == outputs
    assert first == second
