"""Tokenizer for the mini-language."""

from __future__ import annotations

import re
from dataclasses import dataclass

KEYWORDS = {
    "func",
    "module",
    "import",
    "var",
    "if",
    "else",
    "while",
    "return",
    "throw",
    "try",
    "catch",
    "new",
    "null",
    "true",
    "false",
    "input",
}

# Multi-character operators must be matched before their prefixes.
OPERATORS = ["==", "!=", "<=", ">=", "&&", "||", "<", ">", "=", "+", "-", "*",
              "!", "(", ")", "{", "}", ";", ",", "."]


class ParseError(Exception):
    """Raised on a syntax error; carries the offending line."""


class LexError(ParseError):
    """Raised on an unrecognised character: a syntax error like any
    other, so whoever handles a file's parse errors handles this too."""


# Not frozen: a frozen dataclass sets every field through
# ``object.__setattr__``, which cost ~30 % of lexing.  Nothing mutates a
# token, and nothing hashes one (a plain one is unhashable).
@dataclass(slots=True)
class Token:
    kind: str  # "ident", "int", "keyword", or the operator text itself
    text: str
    line: int

    def __repr__(self) -> str:
        return f"{self.kind}:{self.text}@{self.line}"


# One master pattern; alternatives are tried in order at each position.
# ``int`` and ``word`` are the ASCII fast classes.  The language's tokens
# are defined by the str predicates (``isdigit`` starts and continues a
# number; ``isalpha`` or ``_`` starts a name, ``isalnum`` or ``_`` -- which
# is exactly ``\w`` -- continues it), so a run of word characters the fast
# classes decline (it has a non-ASCII letter or digit at a token start)
# lands in ``odd`` and is split by the predicates themselves.
_SCANNER = re.compile(
    r"(?P<skip>[ \t\r]+|//[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<word>[A-Za-z_]\w*)"
    r"|(?P<op>" + "|".join(re.escape(op) for op in OPERATORS) + r")"
    r"|(?P<int>[0-9]+(?![0-9])(?![^\x00-\x7f]))"
    r"|(?P<odd>\w+)"
    r"|(?P<bad>.)"
)


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens; comments run from ``//`` to newline."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    for match in _SCANNER.finditer(source):
        group = match.lastgroup
        if group == "word":
            text = match.group()
            append(Token("keyword" if text in KEYWORDS else "ident", text, line))
        elif group == "op":
            text = match.group()
            append(Token(text, text, line))
        elif group == "skip":
            continue
        elif group == "newline":
            line += 1
        elif group == "int":
            append(Token("int", match.group(), line))
        elif group == "odd":
            _split_odd_run(match.group(), line, tokens)
        else:
            raise LexError(
                f"line {line}: unexpected character {match.group()!r}"
            )
    append(Token("eof", "", line))
    return tokens


def _split_odd_run(run: str, line: int, tokens: list[Token]) -> None:
    """Tokenise a run of word characters by the str predicates: numbers
    (``isdigit``) until a name starts, which takes the rest of the run."""
    i, n = 0, len(run)
    while i < n:
        ch = run[i]
        if ch.isdigit():
            j = i + 1
            while j < n and run[j].isdigit():
                j += 1
            tokens.append(Token("int", run[i:j], line))
            i = j
        elif ch.isalpha() or ch == "_":
            text = run[i:]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line))
            return
        else:
            raise LexError(f"line {line}: unexpected character {ch!r}")
