"""Reference tokenizer: the character-by-character scanner that
`qvuln.corpus.tokenize` replaced, kept as the oracle its regexes are
checked against.  It shares no code with the package under test, so it
keeps its own copy of the operator inventory."""
from __future__ import annotations

TWO_CHAR_OPS = ("==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
                "+=", "-=", "*=", "/=", "->", "::")
SINGLE_CHARS = set("(){}[];,.<>=+-*/%&|^!~?:#\"'")


def _strip_comments_and_literals(text: str) -> str:
    """Drop comment text and string/char literal contents; literals become
    space-delimited placeholder tokens so later splitting keeps them whole."""
    out: list[str] = []
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        nxt = text[k + 1] if k + 1 < n else ""
        if ch == "/" and nxt == "/":
            while k < n and text[k] != "\n":
                k += 1
            out.append(" ")
        elif ch == "/" and nxt == "*":
            k += 2
            while k + 1 < n and not (text[k] == "*" and text[k + 1] == "/"):
                k += 1
            k = min(k + 2, n)
            out.append(" ")
        elif ch == '"' or ch == "'":
            quote = ch
            k += 1
            while k < n and text[k] != quote:
                k += 2 if text[k] == "\\" else 1
            k = min(k + 1, n)
            out.append(f" {quote}{quote} ")
        else:
            out.append(ch)
            k += 1
    return "".join(out)


def _split_chunk(chunk: str) -> list[str]:
    """Maximal-munch split of one whitespace-free chunk."""
    if chunk in ("''", '""'):
        return [chunk]
    tokens: list[str] = []
    word: list[str] = []
    k = 0
    n = len(chunk)
    while k < n:
        pair = chunk[k : k + 2]
        if pair in TWO_CHAR_OPS:
            if word:
                tokens.append("".join(word))
                word = []
            tokens.append(pair)
            k += 2
        elif chunk[k] in SINGLE_CHARS:
            if word:
                tokens.append("".join(word))
                word = []
            tokens.append(chunk[k])
            k += 1
        else:
            word.append(chunk[k])
            k += 1
    if word:
        tokens.append("".join(word))
    return tokens


def tokenize(code_text: str) -> list[str]:
    """Whitespace split after comment/literal stripping, then operator and
    punctuation separation; identifiers and numeric literals stay whole."""
    tokens: list[str] = []
    for chunk in _strip_comments_and_literals(code_text).split():
        tokens.extend(_split_chunk(chunk))
    return tokens
