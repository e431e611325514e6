"""Dataset loading, class balancing, C-style tokenization, vocabulary
construction, and fixed-length index encoding."""
from __future__ import annotations

import string

import numpy as np
import pytest

from qvuln.cli import encode_corpus
from qvuln.corpus import (
    OOV_INDEX,
    PAD_INDEX,
    SPLITS,
    LabeledCorpus,
    Vocabulary,
    balance,
    build_vocab,
    load_dataset,
    normalize_code,
    tokenize,
)
from qvuln.errors import DataError

import tokenizer_oracle


def write_csv(tmp_path, text: str):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_two_row_parse(self, tmp_path):
        path = write_csv(tmp_path, 'code,label\n"strcpy(buf,src);",1\n"return 0;",0\n')
        corpus = load_dataset(path, "train")
        assert corpus.samples == [("strcpy(buf,src);", 1), ("return 0;", 0)]
        assert corpus.split == "train"

    def test_header_only_is_empty(self, tmp_path):
        corpus = load_dataset(write_csv(tmp_path, "code,label\n"), "test")
        assert len(corpus) == 0

    def test_bad_label_names_row_one(self, tmp_path):
        path = write_csv(tmp_path, "code,label\nx = 1;,2\n")
        with pytest.raises(DataError, match="row 1"):
            load_dataset(path, "train")

    def test_bad_label_row_number_counts_data_rows(self, tmp_path):
        path = write_csv(tmp_path, "code,label\nx = 1;,0\ny = 2;,5\n")
        with pytest.raises(DataError, match="row 2"):
            load_dataset(path, "train")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "absent.csv", "train")

    def test_wrong_header(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_dataset(write_csv(tmp_path, "snippet,y\nfoo,1\n"), "train")
        with pytest.raises(DataError, match="empty file, expected header code,label"):
            load_dataset(write_csv(tmp_path, ""), "train")

    def test_wrong_field_count(self, tmp_path):
        path = write_csv(tmp_path, "code,label\nunquoted, with, commas,1\n")
        with pytest.raises(DataError, match="expected 2 fields"):
            load_dataset(path, "train")

    def test_quoted_multiline_cell(self, tmp_path):
        path = write_csv(tmp_path, 'code,label\n"int a;\nreturn a;",0\n')
        corpus = load_dataset(path, "validation")
        assert corpus.samples == [("int a;\nreturn a;", 0)]

    def test_escaped_newlines_normalized(self, tmp_path):
        path = write_csv(tmp_path, 'code,label\n"int a;\\nreturn a;",1\n')
        corpus = load_dataset(path, "train")
        assert corpus.samples == [("int a; return a;", 1)]

    def test_empty_code_rejected(self, tmp_path):
        path = write_csv(tmp_path, 'code,label\n"  \\n ",1\n')
        with pytest.raises(DataError, match="empty"):
            load_dataset(path, "train")

    def test_unknown_split(self, tmp_path):
        path = write_csv(tmp_path, "code,label\n")
        with pytest.raises(DataError, match="split"):
            load_dataset(path, "dev")


class TestNormalize:
    def test_backslash_n_to_space(self):
        assert normalize_code("a;\\nb;") == "a; b;"

    def test_strips_outer_whitespace(self):
        assert normalize_code("  x = 1;  ") == "x = 1;"


class TestBalance:
    def make(self, positives: int, negatives: int) -> LabeledCorpus:
        samples = [(f"pos{i};", 1) for i in range(positives)]
        samples += [(f"neg{i};", 0) for i in range(negatives)]
        return LabeledCorpus(samples=samples, split="train")

    def test_downsamples_majority(self):
        for positives, negatives in ((10, 4), (4, 10)):
            out = balance(self.make(positives, negatives), seed=7)
            labels = [y for _, y in out.samples]
            assert labels.count(1) == 4 and labels.count(0) == 4

    def test_already_balanced_keeps_multiset(self):
        corpus = self.make(5, 5)
        out = balance(corpus, seed=3)
        assert sorted(out.samples) == sorted(corpus.samples)

    def test_deterministic(self):
        corpus = self.make(9, 6)
        assert balance(corpus, seed=11).samples == balance(corpus, seed=11).samples

    def test_subset_of_input(self):
        corpus = self.make(12, 5)
        out = balance(corpus, seed=2)
        pool = list(corpus.samples)
        for sample in out.samples:
            pool.remove(sample)

    def test_single_class_error(self):
        with pytest.raises(DataError):
            balance(self.make(4, 0), seed=1)
        with pytest.raises(DataError):
            balance(LabeledCorpus(samples=[], split="train"), seed=1)


class TestTokenize:
    def test_keyword_statement(self):
        assert tokenize("if (x == 10) return;") == ["if", "(", "x", "==", "10", ")", "return", ";"]

    def test_comment_dropped_and_char_literal_emptied(self):
        assert tokenize("buf[i] = 'B'; // overrun") == ["buf", "[", "i", "]", "=", "''", ";"]

    def test_maximal_munch(self):
        assert tokenize("a<=b") == ["a", "<=", "b"]

    def test_adjacent_operators(self):
        assert tokenize("x<<=1") == ["x", "<<", "=", "1"]
        assert tokenize("p->q::r") == ["p", "->", "q", "::", "r"]
        assert tokenize("i++;--j") == ["i", "++", ";", "--", "j"]

    def test_block_comment_dropped(self):
        assert tokenize("a = /* note */ b;") == ["a", "=", "b", ";"]

    def test_string_literal_content_removed(self):
        assert tokenize('printf("%s fmt", s);') == ["printf", "(", '""', ",", "s", ")", ";"]

    def test_escaped_quote_inside_literal(self):
        assert tokenize('s = "a\\"b";') == ["s", "=", '""', ";"]

    def test_identifiers_kept_whole(self):
        assert tokenize("my_var2 = another_name;") == ["my_var2", "=", "another_name", ";"]

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   \t ") == []

    def test_retokenize_fixed_point(self):
        samples = [
            "if (x == 10) return;",
            "for (i = 0; i < n; ++i) { a[i] += b->c; }",
            'strcpy(dst, "payload"); /* copy */',
            "while (p != NULL && *p) p = p->next;",
        ]
        for code in samples:
            tokens = tokenize(code)
            assert tokenize(" ".join(tokens)) == tokens


class TestTokenizeEdgeCases:
    """Inputs where the comment and literal scanner runs off the end of the
    text, where one quote kind sits inside the other's literal, and where
    `/` and `/=` meet comments; each output is also checked against the
    character-loop tokenizer."""

    @pytest.mark.parametrize("code, tokens", [
        ("a /* b", ["a"]),
        ("a /*/ b", ["a"]),
        ("x = '\\", ["x", "=", "''"]),
        ('s = "abc', ["s", "=", '""']),
        ('c = "it\'s";', ["c", "=", '""', ";"]),
        ("q = '\"';", ["q", "=", "''", ";"]),
        ("c = '\\'';", ["c", "=", "''", ";"]),
        ('s = "a\\\\" + b;', ["s", "=", '""', "+", "b", ";"]),
        ('s = "ab\\', ["s", "=", '""']),
        ("a = b / c // d", ["a", "=", "b", "/", "c"]),
        ("a /= b /* c */ / d", ["a", "/=", "b", "/", "d"]),
        ("a/=b//c\nd", ["a", "/=", "b", "d"]),
        ("a//=b", ["a"]),
        ("x/*/=*/y/z", ["x", "y", "/", "z"]),
        ("a = '/*' / b;", ["a", "=", "''", "/", "b", ";"]),
        ("a /* b // c\n d", ["a"]),
        ('s = "x" /* "y"', ["s", "=", '""']),
    ], ids=["unterminated-block-comment", "comment-opener-slash", "literal-ends-in-backslash",
            "unterminated-string", "apostrophe-in-string", "double-quote-in-char",
            "escaped-quote-in-char", "escaped-backslash-ends-string",
            "unterminated-string-ends-in-backslash", "slash-before-line-comment",
            "slash-assign-and-slash-around-block-comment", "slash-assign-before-line-comment",
            "line-comment-swallows-slash-assign", "slash-assign-inside-block-comment",
            "comment-opener-inside-char", "unterminated-block-comment-over-lines",
            "unterminated-block-comment-after-string"])
    def test_golden(self, code, tokens):
        assert tokenize(code) == tokens
        assert tokenizer_oracle.tokenize(code) == tokens


def test_tokenize_matches_character_loop_oracle(corpus_dir):
    rng = np.random.default_rng(2024)
    alphabet = sorted(tokenizer_oracle.SINGLE_CHARS | set(
        string.ascii_letters + string.digits + " \t\n\\\"'"
    ))
    picks = rng.integers(0, len(alphabet), size=(20_000, 20))
    lengths = rng.integers(0, 21, size=20_000)
    codes = ["".join(alphabet[j] for j in row[:n]) for row, n in zip(picks, lengths)]
    for split in SPLITS:
        codes += [code for code, _ in load_dataset(corpus_dir / f"{split}.csv", split).samples]
    for code in codes:
        assert tokenize(code) == tokenizer_oracle.tokenize(code), repr(code)


class TestBuildVocab:
    def corpus(self, *codes: str) -> list[list[str]]:
        return [tokenize(c) for c in codes]

    def test_most_frequent_gets_index_two(self):
        vocab = build_vocab(self.corpus("a = b = c = d;", "x = y;"), max_vocab=10)
        assert vocab.token_to_index["="] == 2

    def test_max_vocab_one(self):
        vocab = build_vocab(self.corpus("a a a b b c"), max_vocab=1)
        assert len(vocab.tokens) == 1
        assert vocab.token_to_index == {"a": 2}
        assert encode_corpus([["a", "b"]], [0], vocab, 2).sequences.tolist() == [[2, OOV_INDEX]]

    def test_tie_broken_by_first_occurrence(self):
        vocab = build_vocab(self.corpus("zeta alpha zeta alpha"), max_vocab=2)
        assert vocab.token_to_index == {"zeta": 2, "alpha": 3}

    def test_n_rows_counts_pad_and_oov(self):
        vocab = build_vocab(self.corpus("a b c"), max_vocab=100)
        assert len(vocab.tokens) == 3
        assert vocab.n_rows == 5

    def test_ranking_is_count_then_first_occurrence(self):
        # a six-token alphabet makes ties common, and the cut often falls
        # inside one
        rng = np.random.default_rng(5)
        cuts_inside_a_tie = 0
        for _ in range(300):
            token_lists = [[f"t{k}" for k in rng.integers(0, 6, size=rng.integers(0, 7))]
                           for _ in range(rng.integers(1, 6))]
            flat = [token for tokens in token_lists for token in tokens]
            expected = sorted(set(flat), key=lambda t: (-flat.count(t), flat.index(t)))
            max_vocab = int(rng.integers(1, len(expected) + 2))
            assert build_vocab(token_lists, max_vocab).tokens == expected[:max_vocab]
            if 0 < max_vocab < len(expected):
                last_kept, first_cut = expected[max_vocab - 1], expected[max_vocab]
                cuts_inside_a_tie += flat.count(last_kept) == flat.count(first_cut)
        assert cuts_inside_a_tie >= 50

    def test_index_of_follows_token_order(self):
        vocab = build_vocab(self.corpus("a b c"), max_vocab=100)
        assert [vocab.token_to_index[t] for t in vocab.tokens] == list(range(2, vocab.n_rows))
        encoded = encode_corpus([[*vocab.tokens, "absent"]], [0], vocab, vocab.n_rows - 1)
        assert encoded.sequences.tolist() == [[*range(2, vocab.n_rows), OOV_INDEX]]


class TestVocabularySerialization:
    def test_round_trip(self):
        vocab = Vocabulary(tokens=["=", "if", "("])
        again = Vocabulary.from_dict(vocab.to_dict())
        assert again.tokens == vocab.tokens
        assert again.digest() == vocab.digest()

    def test_digest_detects_tampering(self):
        data = Vocabulary(tokens=["a", "b"]).to_dict()
        data["tokens"] = ["a", "c"]
        with pytest.raises(DataError, match="digest"):
            Vocabulary.from_dict(data)

    def test_unknown_format_rejected(self):
        with pytest.raises(DataError, match="format"):
            Vocabulary.from_dict({"format": "vocab.v9", "tokens": []})

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(DataError):
            Vocabulary(tokens=["a", "a"])


class TestEncodeAndPad:
    """Encoding and padding, as `cli.encode_corpus` writes each row."""

    def encode(self, tokens: list[str], vocab: Vocabulary, max_len: int) -> np.ndarray:
        return encode_corpus([tokens], [0], vocab, max_len).sequences[0]

    def test_pad_to_length(self):
        vocab = Vocabulary(tokens=["if", "(", "x"])
        enc = self.encode(["if", "(", "x"], vocab, max_len=5)
        assert enc.tolist() == [2, 3, 4, PAD_INDEX, PAD_INDEX]

    def test_truncation_keeps_tail(self):
        vocab = Vocabulary(tokens=[str(k) for k in range(7)])
        enc = self.encode([str(k) for k in range(7)], vocab, max_len=4)
        assert enc.tolist() == [vocab.token_to_index[str(k)] for k in (3, 4, 5, 6)]
        assert PAD_INDEX not in enc.tolist()

    def test_oov_maps_to_one(self):
        vocab = Vocabulary(tokens=["if"])
        enc = self.encode(["if", "mystery"], vocab, max_len=3)
        assert enc.tolist() == [2, OOV_INDEX, PAD_INDEX]

    def test_empty_tokens(self):
        enc = self.encode([], Vocabulary(tokens=["a"]), max_len=3)
        assert enc.tolist() == [PAD_INDEX] * 3

    def test_index_dtype_integral(self):
        data = encode_corpus([["a"]], [0], Vocabulary(tokens=["a"]), max_len=2)
        assert data.sequences.dtype == np.int64

    def test_rows_of_one_split_are_encoded_apart(self):
        vocab = Vocabulary(tokens=["a", "b", "c"])
        data = encode_corpus([["a", "b", "c"], [], ["c"]], [1, 0, 1], vocab, max_len=2)
        assert data.sequences.tolist() == [[3, 4], [PAD_INDEX] * 2, [4, PAD_INDEX]]
        assert data.labels.tolist() == [1, 0, 1]

    def test_max_len_below_one_is_data_error(self):
        with pytest.raises(DataError, match="'max_len' must be a positive integer, got 0"):
            encode_corpus([["a"]], [0], Vocabulary(tokens=["a"]), max_len=0)


def test_full_preprocess_reproducible(tmp_path):
    rows = ["code,label"]
    for k in range(6):
        rows.append(f'"strcpy(b{k}, s{k});",1')
    for k in range(4):
        rows.append(f'"return {k};",0')
    path = tmp_path / "train.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    def run():
        corpus = balance(load_dataset(path, "train"), seed=9)
        tokens = [tokenize(code) for code, _ in corpus.samples]
        vocab = build_vocab(tokens, max_vocab=50)
        labels = [y for _, y in corpus.samples]
        return vocab.digest(), encode_corpus(tokens, labels, vocab, max_len=8).sequences

    digest_a, enc_a = run()
    digest_b, enc_b = run()
    assert digest_a == digest_b
    assert np.array_equal(enc_a, enc_b)
