"""Lexer for the REFLEX concrete syntax.

The token stream feeds the recursive-descent parser in
:mod:`repro.frontend.parser`.  Tokens carry positions so that syntax errors
point at the offending source text.

One compiled regular expression (:data:`_SCAN`) does the scanning: at
each position it skips blanks and comments, then matches one newline,
string opening quote, number, word or operator.  String literals, with
their escapes, are scanned by hand.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple

from ..lang.errors import ReflexSyntaxError

#: Multi-character operators, longest first so maximal munch works.
OPERATORS = (
    "==", "!=", "<=", "<-", "=>", "++", "&&", "||",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", "=", "<", "+",
    "!", ".", "*", "_",
)

KEYWORDS = frozenset({
    "program", "components", "messages", "init", "handlers", "properties",
    "if", "else", "skip", "send", "spawn", "call", "lookup", "sender",
    "true", "false", "string", "num", "bool", "fdesc",
    "Enables", "Ensures", "Disables", "ImmBefore", "ImmAfter",
    "AtMostOnce",
    "NoInterference", "forall", "high", "highvars",
    "Send", "Recv", "Spawn", "Select", "Call",
})

#: Blanks and comments, then one token or nothing.  A number is decimal
#: digits only (``int`` reads every ``\d``; ``'²'.isdigit()`` is true,
#: but ``int('²')`` fails).  A word starts with a letter, or is ``_``
#: followed by a word character (a lone ``_`` is the wildcard
#: operator); ``[^\W\d_]`` also admits non-letter numerals such as
#: ``'²'``, so :func:`tokenize` rejects a word that starts with one.
_SCAN = re.compile(
    r"(?:[ \t\r]+|(?:#|//)[^\n]*)*"
    r"(?:(?P<newline>\n)"
    r"|(?P<string>\")"
    r"|(?P<number>\d+)"
    r"|(?P<word>[^\W\d_]\w*|_\w+)"
    r"|(?P<op>" + "|".join(map(re.escape, OPERATORS)) + r"))?"
)


class Token(NamedTuple):
    kind: str  # "ident" | "keyword" | "number" | "string" | "op" | "eof"
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        if self.kind == "eof":
            return "end of input"
        return repr(self.text)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; raises :class:`ReflexSyntaxError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    scan = _SCAN.match
    new = tuple.__new__  # Token(...) without the Python-level __new__
    line, line_start, pos = 1, 0, 0
    while True:
        match = scan(source, pos)
        kind = match.lastgroup
        if kind is None:
            pos = match.end()
            if pos == len(source):
                break
            raise ReflexSyntaxError(f"unexpected character {source[pos]!r}",
                                    line, pos - line_start + 1)
        start, pos = match.span(kind)
        if kind == "newline":
            line += 1
            line_start = pos
            continue
        col = start - line_start + 1
        if kind == "string":
            text, consumed = _scan_string(source, start, line, col)
            append(new(Token, ("string", text, line, col)))
            pos = start + consumed
            continue
        text = source[start:pos]
        if kind == "word":
            if text in KEYWORDS:
                kind = "keyword"
            elif text[0].isalpha() or text[0] == "_":
                kind = "ident"
            else:
                raise ReflexSyntaxError(
                    f"unexpected character {text[0]!r}", line, col
                )
        append(new(Token, (kind, text, line, col)))
    append(Token("eof", "", line, pos - line_start + 1))
    return tokens


def _scan_string(source: str, start: int, line: int,
                 col: int) -> Tuple[str, int]:
    """Scan a double-quoted string literal with ``\\"`` and ``\\\\``
    escapes; returns (unescaped text, characters consumed)."""
    i = start + 1
    out: List[str] = []
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            raise ReflexSyntaxError("unterminated string literal", line, col)
        if ch == "\\":
            if i + 1 >= len(source):
                raise ReflexSyntaxError("dangling escape", line, col)
            escape = source[i + 1]
            if escape == "n":
                out.append("\n")
            elif escape == "t":
                out.append("\t")
            elif escape in ('"', "\\"):
                out.append(escape)
            else:
                raise ReflexSyntaxError(
                    f"unknown escape \\{escape}", line, col
                )
            i += 2
            continue
        if ch == '"':
            return "".join(out), i - start + 1
        out.append(ch)
        i += 1
    raise ReflexSyntaxError("unterminated string literal", line, col)
