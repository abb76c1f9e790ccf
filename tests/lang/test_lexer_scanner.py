"""The regex scanner against the per-character loop it replaced.

``tokenize`` used to walk the source one character at a time; it now
drives one compiled master pattern.  The old loop lives on here as the
oracle: token kinds, texts, line numbers and the ``LexError`` raised for
an unexpected character must be identical on every input.
"""

import glob
import os
import random

import pytest

from repro.lang.lexer import KEYWORDS, OPERATORS, LexError, Token, tokenize
from repro.workloads.multifile import build_multifile_subject
from repro.workloads.subjects import build_subject

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def loop_tokenize(source: str) -> list[Token]:
    """The per-character tokenizer, verbatim."""
    tokens: list[Token] = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line))
            i = j
            continue
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token(op, op, line))
                i += len(op)
                break
        else:
            raise LexError(f"line {line}: unexpected character {ch!r}")
    tokens.append(Token("eof", "", line))
    return tokens


def outcome(lexer, source: str):
    try:
        return lexer(source)
    except LexError as error:
        return str(error)


def assert_same(source: str) -> None:
    assert outcome(tokenize, source) == outcome(loop_tokenize, source)


def test_every_example_source():
    paths = sorted(
        glob.glob(os.path.join(EXAMPLES, "**", "*.mini"), recursive=True)
    )
    assert paths
    for path in paths:
        with open(path) as f:
            assert_same(f.read())


def test_generated_subjects():
    assert_same(build_subject("zookeeper", 1.0).source)
    for scale in (1, 4):
        sources = build_multifile_subject("gateway", scale).sources
        assert sources
        for text in sources.values():
            assert_same(text)


@pytest.mark.parametrize("source", [
    "",
    "\n\n",
    "x",
    "// only a comment",
    "a // trailing\nb",
    "a / b",  # a lone slash is not an operator
    "a /",
    "x=1;y==2;z<=3;w>=4;p!=q;r&&s;t||u;!v",
    "a & b",
    "a | b",
    "a\r\n\tb",
    "a\fb",  # form feed is not whitespace here
    "a\x0bb",
    "12ab 3_4 _5 __",
    "007 0x1F",
    "if iff else_ returnx return",
    "x # y",
    "s = \"str\";",
    "a\n\n\n$",
    "tab\tsep",
    "café = naïve + 1;",  # non-ASCII letters are identifier characters
    "x = ٣٤;",  # ...and non-ASCII decimal digits are number characters
    "1² 12²3 ²ab a² 1é 12½ ½",
    "x² = 2;",
    "a = Ⅷ;",  # a numeral that is neither digit nor letter
    "٣x x٣ _٣ 9٣9",
    "a b",  # no-break space is not whitespace here
    "a b",
])
def test_edge_cases(source):
    assert_same(source)


def test_unexpected_character_reports_its_line():
    with pytest.raises(LexError) as error:
        tokenize("a\nb\n  @ c")
    assert str(error.value) == "line 3: unexpected character '@'"


def test_random_character_soup():
    """Seeded soup over an alphabet that mixes every token class with
    characters on the edges of the str predicates."""
    alphabet = list("abz_09 \t\r\n/=!<>&|+-*(){};,.@#") + [
        "if", "return", "//", "==", "é", "²", "٣", "½", "Ⅷ", " ", "x1",
    ]
    rng = random.Random(41)
    for _ in range(3000):
        assert_same("".join(
            rng.choice(alphabet) for _ in range(rng.randint(0, 12))
        ))
