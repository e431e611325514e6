"""Labeled code corpora: CSV loading, class balancing, code-aware
tokenization and vocabulary construction.
"""
from __future__ import annotations

import csv
import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DataError, _check_settings
from .fileio import open_input

PAD_INDEX = 0
OOV_INDEX = 1
VOCAB_FORMAT = "vocab.v1"

SPLITS = ("train", "validation", "test")

# maximal-munch operator inventory: two-character operators first, then
# single punctuation characters; everything else stays a whole token
TWO_CHAR_OPS = ("==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
                "+=", "-=", "*=", "/=", "->", "::")
SINGLE_CHARS = set("(){}[];,.<>=+-*/%&|^!~?:#\"'")

# a line comment, a block comment (an unterminated one runs to the end), or
# a string or char literal (backslash escapes the next character; an
# unterminated one runs to the end)
_COMMENT_OR_LITERAL = re.compile(
    r"""//[^\n]*|/\*(?:.*?\*/|.*)|(["'])(?:\\.|\\$|(?!\1)[^\\])*\1?""", re.S
)
_SINGLE_CLASS = re.escape("".join(sorted(SINGLE_CHARS)))
# a literal placeholder, an operator (longest first), or a word: a run of
# characters that are neither whitespace nor punctuation
_TOKEN = re.compile("|".join([
    "''", '""', *map(re.escape, TWO_CHAR_OPS), f"[{_SINGLE_CLASS}]", rf"[^\s{_SINGLE_CLASS}]+",
]))


@dataclass
class LabeledCorpus:
    """Code samples with binary labels for one dataset split."""

    samples: list[tuple[str, int]]
    split: str

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class Vocabulary:
    """Token-to-index map; 0 is padding, 1 is out-of-vocabulary, real tokens
    start at 2 ranked by descending frequency (ties: first occurrence)."""

    tokens: list[str]
    token_to_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.token_to_index = {t: k + 2 for k, t in enumerate(self.tokens)}
        if len(self.token_to_index) != len(self.tokens):
            raise DataError("vocabulary tokens must be unique")

    @property
    def n_rows(self) -> int:
        """Row count for an aligned embedding matrix (V + 2)."""
        return len(self.tokens) + 2

    def index_of(self, token: str) -> int:
        return self.token_to_index.get(token, OOV_INDEX)

    def digest(self) -> str:
        """sha256 over the ordered token list; identifies the vocabulary."""
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {"format": VOCAB_FORMAT, "tokens": list(self.tokens), "digest": self.digest()}

    @classmethod
    def from_dict(cls, data: dict) -> Vocabulary:
        if data.get("format") != VOCAB_FORMAT:
            raise DataError(f"unsupported vocabulary format {data.get('format')!r}")
        tokens = data.get("tokens")
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise DataError("vocabulary tokens must be a list of strings")
        vocab = cls(tokens=tokens)
        digest = data.get("digest")
        if digest is not None and digest != vocab.digest():
            raise DataError("vocabulary digest mismatch")
        return vocab


def normalize_code(text: str) -> str:
    """Replace literal backslash-n escape artifacts with spaces and strip."""
    return text.replace("\\n", " ").strip()


def load_dataset(path: str | Path, split: str) -> LabeledCorpus:
    """Parse a `code,label` CSV into a corpus; data rows are numbered from 1
    in error messages."""
    if split not in SPLITS:
        raise DataError(f"unknown split {split!r}; expected one of {SPLITS}")
    samples: list[tuple[str, int]] = []
    with open_input(path, "dataset file") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if [h.strip() for h in header] != ["code", "label"]:
                raise DataError(f"{path}: expected header code,label, got {','.join(header)}")
            for row_num, row in enumerate(reader, start=1):
                if len(row) != 2:
                    raise DataError(f"{path}: row {row_num}: expected 2 fields, got {len(row)}")
                code = normalize_code(row[0])
                if not code:
                    raise DataError(f"{path}: row {row_num}: code is empty after normalization")
                label_text = row[1].strip()
                if label_text not in ("0", "1"):
                    raise DataError(f"{path}: row {row_num}: label must be 0 or 1, got {row[1]!r}")
                samples.append((code, int(label_text)))
        except StopIteration:
            raise DataError(f"{path}: empty file, expected header code,label") from None
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return LabeledCorpus(samples=samples, split=split)


def balance(corpus: LabeledCorpus, seed: int = 42) -> LabeledCorpus:
    """Down-sample the majority class to the minority count (seeded choice
    without replacement), then return a seeded shuffle of the result."""
    if len(corpus) == 0:
        raise DataError("cannot balance an empty corpus")
    pos = [k for k, (_, y) in enumerate(corpus.samples) if y == 1]
    neg = [k for k, (_, y) in enumerate(corpus.samples) if y == 0]
    if not pos or not neg:
        raise DataError(f"cannot balance a single-class corpus (split {corpus.split!r})")
    rng = np.random.default_rng(seed)
    n = min(len(pos), len(neg))
    if len(pos) > n:
        pos = sorted(rng.choice(np.array(pos), size=n, replace=False).tolist())
    if len(neg) > n:
        neg = sorted(rng.choice(np.array(neg), size=n, replace=False).tolist())
    kept = sorted(pos + neg)
    order = rng.permutation(len(kept))
    samples = [corpus.samples[kept[j]] for j in order]
    return LabeledCorpus(samples=samples, split=corpus.split)


def _placeholder(match: re.Match) -> str:
    """A comment becomes a space; a literal becomes a space-delimited empty
    literal of its own quote kind, so it stays one token."""
    quote = match[1]
    return f" {quote}{quote} " if quote else " "


def tokenize(code_text: str) -> list[str]:
    """Whitespace split after comment/literal stripping, then operator and
    punctuation separation; identifiers and numeric literals stay whole."""
    return _TOKEN.findall(_COMMENT_OR_LITERAL.sub(_placeholder, code_text))


def build_vocab(token_lists: list[list[str]], max_vocab: int) -> Vocabulary:
    """Rank the tokens of the tokenized functions by descending frequency
    (first occurrence breaks ties) and keep the top max_vocab."""
    _check_settings({"max_vocab": max_vocab})
    # most_common orders equal counts by first occurrence
    counts = Counter(chain.from_iterable(token_lists))
    return Vocabulary(tokens=[token for token, _ in counts.most_common(max_vocab)])
