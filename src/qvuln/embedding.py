"""Word-vector tables and embedding matrices.

Pretrained vectors load from the common text format (token followed by
whitespace-separated floats, optional `COUNT DIM` header).  Matrices align
row k with vocabulary index k: row 0 is the padding zero vector, row 1 the
shared out-of-vocabulary vector, rows 2.. the real tokens.  Columns are
standardized so every feature enters the models at a similar scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Vocabulary
from .errors import DataError
from .fileio import atomic_write, open_input

MODES = ("basic", "glove", "fasttext", "glove+fasttext")
D_BASIC_DEFAULT = 50
INIT_RANGE = 0.05


@dataclass
class VectorTable:
    dim: int
    entries: dict[str, np.ndarray]


@dataclass
class EmbeddingMatrix:
    """(V+2) x d matrix; trainable only in basic mode."""

    rows: np.ndarray
    trainable: bool
    source: str

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def load_vectors(path: str | Path) -> VectorTable:
    """Parse a text vector file; errors name the offending 1-based line."""
    dim = 0
    entries: dict[str, np.ndarray] = {}
    with open_input(path, "vector file") as fh:
        for line_num, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if line_num == 1 and len(fields) == 2:
                try:
                    int(fields[0]), int(fields[1])
                except ValueError:
                    pass
                else:
                    continue  # COUNT DIM header
            token, values = fields[0], fields[1:]
            if not values:
                raise DataError(f"{path}: line {line_num}: no vector values")
            if dim == 0:
                dim = len(values)
            elif len(values) != dim:
                raise DataError(
                    f"{path}: line {line_num}: expected {dim} values, got {len(values)}"
                )
            try:
                vector = np.array([float(v) for v in values])
            except ValueError:
                raise DataError(f"{path}: line {line_num}: unparseable float") from None
            if not np.isfinite(vector).all():
                raise DataError(f"{path}: line {line_num}: non-finite value")
            if token not in entries:
                entries[token] = vector
    if not entries:
        raise DataError(f"{path}: no vector lines")
    return VectorTable(dim=dim, entries=entries)


def save_vectors(table: VectorTable, path: str | Path) -> None:
    """Write the text format back out atomically (round-trips with
    load_vectors)."""
    with atomic_write(path) as fh:
        for token, vector in table.entries.items():
            fh.write(token + " " + " ".join(repr(float(v)) for v in vector) + "\n")


def _standardize_columns(rows: np.ndarray) -> np.ndarray:
    """Per-column standardization over non-padding rows (population std);
    constant columns become zero.  Row 0 is zeroed afterwards."""
    body = rows[1:]
    mean = body.mean(axis=0)
    std = body.std(axis=0)
    constant = std < 1e-12
    safe = np.where(constant, 1.0, std)
    rows = (rows - mean) / safe
    rows[:, constant] = 0.0
    rows[0] = 0.0
    return rows


def _lookup_rows(vocab: Vocabulary, table: VectorTable, rng: np.random.Generator) -> np.ndarray:
    """Rows 1.. for one table; unknown tokens share one random OOV vector."""
    oov = rng.uniform(-INIT_RANGE, INIT_RANGE, size=table.dim)
    rows = np.zeros((vocab.n_rows, table.dim))
    rows[1] = oov
    for k, token in enumerate(vocab.tokens):
        vector = table.entries.get(token)
        rows[k + 2] = oov if vector is None else vector
    return rows


def build_embedding_matrix(
    vocab: Vocabulary,
    tables: list[VectorTable],
    mode: str,
    seed: int,
    d_basic: int = D_BASIC_DEFAULT,
) -> EmbeddingMatrix:
    """Assemble the matrix for one source mode and standardize its columns."""
    if mode not in MODES:
        raise DataError(f"unknown embedding mode {mode!r}; expected one of {MODES}")
    rng = np.random.default_rng(seed)
    if mode == "basic":
        if tables:
            raise DataError("basic mode takes no vector tables")
        rows = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(vocab.n_rows, d_basic))
        trainable = True
    elif mode in ("glove", "fasttext"):
        if len(tables) != 1:
            raise DataError(f"{mode} mode requires exactly 1 vector table, got {len(tables)}")
        rows = _lookup_rows(vocab, tables[0], rng)
        trainable = False
    else:
        if len(tables) != 2:
            raise DataError(f"{mode} mode requires exactly 2 vector tables, got {len(tables)}")
        rows = np.concatenate(
            [_lookup_rows(vocab, tables[0], rng), _lookup_rows(vocab, tables[1], rng)], axis=1
        )
        trainable = False
    rows = _standardize_columns(rows)
    return EmbeddingMatrix(rows=rows, trainable=trainable, source=mode)


def embed(seq_indices: np.ndarray, matrix: EmbeddingMatrix) -> np.ndarray:
    """Map an index sequence to its row vectors (length preserved)."""
    indices = np.asarray(seq_indices)
    if indices.size and (indices.min() < 0 or indices.max() >= matrix.rows.shape[0]):
        raise DataError(
            f"sequence index out of range 0..{matrix.rows.shape[0] - 1}"
        )
    return matrix.rows[indices]
