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

from .corpus import OOV_INDEX, PAD_INDEX, Vocabulary
from .errors import DataError, _check_settings
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
    constant columns, whose std is below 1e-12 in the table's units, become
    zero.  The padding row is zeroed afterwards.

    Each column is first divided by the power of two 2^e just above its
    largest |value|.  That division is exact, so where no intermediate is
    subnormal the scaled column's mean and std are the unscaled ones times
    2^-e bit for bit, and the standardized values are the same; but no sum
    or square of values below 1 overflows, so every finite table, up to
    +-1.8e308, gives a finite matrix."""
    _, exponent = np.frexp(np.abs(rows[PAD_INDEX + 1:]).max(axis=0))
    rows = np.ldexp(rows, -exponent)
    body = rows[PAD_INDEX + 1:]  # the padding row is the first
    mean = body.mean(axis=0)
    std = body.std(axis=0)
    # a column below 2^-1000 is constant in any case; the cap keeps the
    # threshold, 1e-12 in the table's units, finite
    constant = std < np.ldexp(1e-12, np.minimum(-exponent, 1000))
    safe = np.where(constant, 1.0, std)
    rows = (rows - mean) / safe
    rows[:, constant] = 0.0
    rows[PAD_INDEX] = 0.0
    return rows


def _lookup_rows(vocab: Vocabulary, table: VectorTable, rng: np.random.Generator) -> np.ndarray:
    """The rows of one table, each at its vocabulary index; the padding row
    is zero, and unknown tokens share one random OOV vector."""
    oov = rng.uniform(-INIT_RANGE, INIT_RANGE, size=table.dim)
    rows = np.zeros((vocab.n_rows, table.dim))
    rows[OOV_INDEX] = oov
    for token, k in vocab.token_to_index.items():
        vector = table.entries.get(token)
        rows[k] = oov if vector is None else vector
    return rows


def _check_table_count(mode: str, count: int) -> None:
    """Raises DataError unless `count`, the vector tables given (one per
    vector file), is the number source mode `mode` reads."""
    if count != MODES[mode]:
        raise DataError(f"embedding mode {mode!r} requires {MODES[mode]} vector table(s), "
                        f"got {count}")


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
    _check_settings({"d_basic": d_basic})
    _check_table_count(mode, len(tables))
    rng = np.random.default_rng(seed)
    if tables:
        rows = np.concatenate([_lookup_rows(vocab, table, rng) for table in tables], axis=1)
    else:
        rows = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(vocab.n_rows, d_basic))
    rows = _standardize_columns(rows)
    # only the basic mode's rows are the model's own to train
    return EmbeddingMatrix(rows=rows, trainable=not tables, source=mode)
