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
from .fileio import open_input

# each source mode and the number of vector tables it reads
MODES = {"basic": 0, "glove": 1, "fasttext": 1, "glove+fasttext": 2}
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
    """Assemble the matrix for one source mode and standardize its columns:
    random rows in basic mode, the tables' rows side by side otherwise."""
    if mode not in MODES:
        raise DataError(f"unknown embedding mode {mode!r}; expected one of {tuple(MODES)}")
    if d_basic < 1:
        raise DataError(f"d_basic must be >= 1, got {d_basic}")
    if len(tables) != MODES[mode]:
        raise DataError(
            f"{mode} mode requires exactly {MODES[mode]} vector table(s), got {len(tables)}"
        )
    rng = np.random.default_rng(seed)
    if tables:
        rows = np.concatenate([_lookup_rows(vocab, table, rng) for table in tables], axis=1)
    else:
        rows = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(vocab.n_rows, d_basic))
    rows = _standardize_columns(rows)
    # only the basic mode's rows are the model's own to train
    return EmbeddingMatrix(rows=rows, trainable=not tables, source=mode)
