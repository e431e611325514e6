"""Vector-table parsing and embedding-matrix assembly: source modes, shared
OOV handling, column standardization, and the padding-row invariant."""
from __future__ import annotations

import re

import numpy as np
import pytest

from qvuln.corpus import Vocabulary
from qvuln.embedding import INIT_RANGE, MODES, VectorTable, build_embedding_matrix, load_vectors
from qvuln.errors import DataError
from qvuln.trainer import ClassifyDataset, TrainConfig, _check_split, train


def write_vectors(tmp_path, text: str, name: str = "vectors.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadVectors:
    def test_two_line_parse(self, tmp_path):
        # blank lines, the first one included, are skipped
        table = load_vectors(write_vectors(tmp_path, "\nif 0.1 0.2\n  \n\nfor 0.3 0.4\n\n"))
        assert table.dim == 2
        assert set(table.entries) == {"if", "for"}
        np.testing.assert_array_equal(table.entries["if"], [0.1, 0.2])

    def test_count_dim_header_skipped(self, tmp_path):
        plain = load_vectors(write_vectors(tmp_path, "if 0.1 0.2\nfor 0.3 0.4\n", "a.txt"))
        headed = load_vectors(write_vectors(tmp_path, "2 2\nif 0.1 0.2\nfor 0.3 0.4\n", "b.txt"))
        assert headed.dim == plain.dim
        assert set(headed.entries) == set(plain.entries)
        for token in plain.entries:
            np.testing.assert_array_equal(headed.entries[token], plain.entries[token])

    def test_dim_mismatch_names_line(self, tmp_path):
        path = write_vectors(tmp_path, "if 0.1 0.2\nfor 0.3 0.4\nx 0.1\n")
        with pytest.raises(DataError, match="line 3"):
            load_vectors(path)
        # a token with no values is refused, not read as a zero-width vector
        path = write_vectors(tmp_path, "if 0.1 0.2\nfor\n")
        with pytest.raises(DataError, match="line 2: no vector values"):
            load_vectors(path)

    def test_unparseable_float(self, tmp_path):
        with pytest.raises(DataError, match="line 2"):
            load_vectors(write_vectors(tmp_path, "if 0.1\nfor zero\n"))

    def test_duplicate_token_keeps_first(self, tmp_path):
        table = load_vectors(write_vectors(tmp_path, "if 1.0\nif 2.0\n"))
        np.testing.assert_array_equal(table.entries["if"], [1.0])

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="no vector lines"):
            load_vectors(write_vectors(tmp_path, ""))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_vectors(tmp_path / "absent.txt")

    def test_repr_text_round_trip(self, tmp_path):
        # repr() of a float is the shortest text that parses back to it
        rng = np.random.default_rng(3)
        table = VectorTable(dim=3, entries={f"t{k}": rng.uniform(-1, 1, 3) for k in range(5)})
        again = load_vectors(write_vectors(tmp_path, "".join(
            token + " " + " ".join(repr(float(v)) for v in vector) + "\n"
            for token, vector in table.entries.items()
        )))
        assert again.dim == 3
        for token, vector in table.entries.items():
            np.testing.assert_array_equal(again.entries[token], vector)


class TestBuildBasic:
    def test_shape_row0_trainable(self):
        vocab = Vocabulary(tokens=[f"t{k}" for k in range(100)])
        matrix = build_embedding_matrix(vocab, [], "basic", seed=1, d_basic=50)
        assert matrix.rows.shape == (102, 50)
        assert np.all(matrix.rows[0] == 0)
        assert matrix.trainable is True
        assert matrix.source == "basic"

    def test_standardized_columns(self):
        vocab = Vocabulary(tokens=[f"t{k}" for k in range(40)])
        matrix = build_embedding_matrix(vocab, [], "basic", seed=5, d_basic=8)
        body = matrix.rows[1:]
        np.testing.assert_allclose(body.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(body.std(axis=0), 1.0, atol=1e-9)

    def test_seed_controls_content(self):
        vocab = Vocabulary(tokens=["a", "b", "c"])
        one = build_embedding_matrix(vocab, [], "basic", seed=7, d_basic=4)
        two = build_embedding_matrix(vocab, [], "basic", seed=7, d_basic=4)
        other = build_embedding_matrix(vocab, [], "basic", seed=8, d_basic=4)
        assert np.array_equal(one.rows, two.rows)
        assert not np.array_equal(one.rows, other.rows)

    def test_d_basic_below_one_is_data_error(self):
        for d_basic in (0, -1):
            with pytest.raises(DataError, match=f"'d_basic' must be a positive integer, got {d_basic}"):
                build_embedding_matrix(Vocabulary(tokens=["a"]), [], "basic", seed=0,
                                       d_basic=d_basic)

    def test_tables_rejected(self):
        # every mode refuses any table count but its own
        table = VectorTable(dim=1, entries={"a": np.ones(1)})
        for mode, needed in MODES.items():
            for count in {0, 1, 2, 3} - {needed}:
                message = f"embedding mode {mode!r} requires {needed} vector table(s), got {count}"
                with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                    build_embedding_matrix(Vocabulary(tokens=["a"]), [table] * count, mode, seed=0)


class TestBuildPretrained:
    def table(self, rng: np.random.Generator, tokens: list[str], dim: int) -> VectorTable:
        return VectorTable(dim=dim, entries={t: rng.uniform(-1, 1, dim) for t in tokens})

    def test_present_token_row_is_standardized_vector(self):
        rng = np.random.default_rng(9)
        tokens = [f"t{k}" for k in range(6)]
        table = self.table(rng, tokens, 3)
        vocab = Vocabulary(tokens=tokens)
        seed = 13
        matrix = build_embedding_matrix(vocab, [table], "glove", seed=seed)

        oov = np.random.default_rng(seed).uniform(-INIT_RANGE, INIT_RANGE, size=3)
        pre = np.zeros((vocab.n_rows, 3))
        pre[1] = oov
        for k, token in enumerate(tokens):
            pre[k + 2] = table.entries[token]
        body = pre[1:]
        expected = (pre - body.mean(axis=0)) / body.std(axis=0)
        expected[0] = 0.0
        np.testing.assert_allclose(matrix.rows, expected, atol=1e-12)
        assert matrix.trainable is False

    def test_absent_tokens_share_oov_row(self):
        rng = np.random.default_rng(10)
        table = self.table(rng, ["known1", "known2", "known3"], 4)
        vocab = Vocabulary(tokens=["known1", "ghost1", "ghost2", "known2"])
        matrix = build_embedding_matrix(vocab, [table], "fasttext", seed=2)
        g1 = matrix.rows[vocab.index_of("ghost1")]
        g2 = matrix.rows[vocab.index_of("ghost2")]
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(matrix.rows[1], g1)

    def test_concat_mode_dims(self):
        rng = np.random.default_rng(11)
        tokens = [f"t{k}" for k in range(5)]
        glove = self.table(rng, tokens, 100)
        fasttext = self.table(rng, tokens, 300)
        vocab = Vocabulary(tokens=tokens)
        matrix = build_embedding_matrix(vocab, [glove, fasttext], "glove+fasttext", seed=3)
        assert matrix.rows.shape == (len(tokens) + 2, 400)
        assert np.all(matrix.rows[0] == 0)

    def test_constant_columns_become_zero(self):
        # every vocab token misses the table, so all non-padding rows are the
        # shared OOV vector: each column is constant and must zero out
        table = VectorTable(dim=3, entries={"elsewhere": np.ones(3)})
        vocab = Vocabulary(tokens=["ghost1", "ghost2", "ghost3"])
        matrix = build_embedding_matrix(vocab, [table], "glove", seed=4)
        assert np.all(matrix.rows == 0)
        assert np.all(np.isfinite(matrix.rows))

    def test_table_count_errors(self):
        vocab = Vocabulary(tokens=["a"])
        table = VectorTable(dim=2, entries={"a": np.zeros(2)})
        with pytest.raises(DataError):
            build_embedding_matrix(vocab, [], "glove", seed=0)
        with pytest.raises(DataError):
            build_embedding_matrix(vocab, [table, table], "glove", seed=0)
        with pytest.raises(DataError):
            build_embedding_matrix(vocab, [table], "glove+fasttext", seed=0)
        with pytest.raises(DataError):
            build_embedding_matrix(vocab, [table], "word2vec", seed=0)


class TestEmbed:
    """The pipeline embeds a batch as table[sequences], where the table that
    trainer._check_split returns for a classify split is the embedding."""

    def matrix(self):
        vocab = Vocabulary(tokens=["a", "b", "c"])
        return build_embedding_matrix(vocab, [], "basic", seed=6, d_basic=4)

    def embed(self, sequences, matrix) -> np.ndarray:
        sequences = np.array(sequences, dtype=np.int64)
        data = ClassifyDataset(sequences=sequences, labels=np.zeros(len(sequences), dtype=np.int64),
                               max_len=sequences.shape[1], vocab_digest="")
        return _check_split("classify", data, matrix.rows, data.max_len, None)[data.sequences]

    def test_all_padding_rows_zero(self):
        out = self.embed([[0] * 5], self.matrix())
        np.testing.assert_array_equal(out, np.zeros((1, 5, 4)))

    def test_lookup_and_padding_mix(self):
        matrix = self.matrix()
        out = self.embed([[2, 0, 0]], matrix)[0]
        np.testing.assert_array_equal(out[0], matrix.rows[2])
        np.testing.assert_array_equal(out[1:], np.zeros((2, 4)))

    def test_identical_sequences_identical_outputs(self):
        out = self.embed([[2, 3, 4, 1, 0], [2, 3, 4, 1, 0]], self.matrix())
        np.testing.assert_array_equal(out[0], out[1])

    def test_out_of_range(self):
        # train checks every index against the matrix before any lookup
        matrix = self.matrix()
        config = TrainConfig(model="lstm", task="classify", epochs=1, hidden=1)
        for index in (99, -1):
            data = ClassifyDataset(sequences=np.array([[2, index]]), labels=np.array([1]),
                                   max_len=2, vocab_digest="")
            with pytest.raises(DataError, match="outside the 5-row vocabulary"):
                train(config, data, matrix=matrix)
