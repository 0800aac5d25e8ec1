"""Unit tests for the lexer."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.frontend import parse_program
from repro.frontend.lexer import Token, tokenize
from repro.lang import ReflexError, ReflexSyntaxError
from repro.systems import BENCHMARKS

ROOT = Path(__file__).resolve().parents[2]

#: SHA-256 of the ``(kind, text, line, column)`` stream of each kernel
#: source, recorded with the character-at-a-time lexer this one
#: replaced: the kernels must lex exactly as they did.
STREAM_DIGESTS = {
    "car": "04046344aed702f666e85ccc4f5ac588421be4defce5aa1729d1190ccdb54909",
    "browser":
        "6c65b0371524d698952f2c10fe8e53e71e6f49e0154f151f4235546fffe22aaa",
    "browser2":
        "9335598c9833d752536da3b6d77f2eba2558af391a4b33634787d0ca93681c11",
    "browser3":
        "65b1fdc6fc02012aa6e56ee7830583bdf558013361b25b4bd91242a258039aa0",
    "ssh": "50db11983e4cc17cc879bd00424e99ec472b80fd095c8956c0158b84668d799e",
    "ssh2": "eec6e06e5918672c2ac97711ee9bc73dbb108c2c3035cb66976c37c9aeca53f8",
    "webserver":
        "6111407265187c9ec8faf6de37b00f7ce68d4f16ca2359e7b38e02ae020d5dd5",
    "scale32":
        "2134be729a30fc1b2ed1a4443dd3910be2e95443e2495c9e9f2012eb3ec9433f",
}


def stream_digest(source):
    stream = [[t.kind, t.text, t.line, t.column] for t in tokenize(source)]
    return hashlib.sha256(json.dumps(stream).encode()).hexdigest()


def kernel_source(name):
    if name == "scale32":
        return (ROOT / "perfbench" / "kernels" / "scale32.rfx").read_text(
            encoding="utf-8")
    return BENCHMARKS[name].SOURCE


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source) if t.kind != "eof"]


class TestBasics:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        assert kinds("program foo sender") == [
            ("keyword", "program"), ("ident", "foo"), ("keyword", "sender"),
        ]

    def test_numbers(self):
        assert kinds("0 42 007") == [
            ("number", "0"), ("number", "42"), ("number", "007"),
        ]

    def test_underscore_is_wildcard_operator(self):
        assert kinds("_") == [("op", "_")]

    def test_underscore_prefix_is_identifier(self):
        assert kinds("_foo") == [("ident", "_foo")]

    def test_positions_tracked(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)


class TestOperators:
    def test_maximal_munch(self):
        assert kinds("== = <= <- < => ++ +") == [
            ("op", "=="), ("op", "="), ("op", "<="), ("op", "<-"),
            ("op", "<"), ("op", "=>"), ("op", "++"), ("op", "+"),
        ]

    def test_booleans_and_logic(self):
        assert kinds("&& || ! !=") == [
            ("op", "&&"), ("op", "||"), ("op", "!"), ("op", "!="),
        ]

    def test_unknown_character_rejected(self):
        with pytest.raises(ReflexSyntaxError, match="unexpected character"):
            tokenize("a $ b")


class TestComments:
    def test_hash_comments(self):
        assert kinds("a # rest of line\nb") == [
            ("ident", "a"), ("ident", "b"),
        ]

    def test_slash_slash_comments(self):
        assert kinds("a // note\nb") == [("ident", "a"), ("ident", "b")]


class TestStrings:
    def test_simple_string(self):
        assert kinds('"hello"') == [("string", "hello")]

    def test_escapes(self):
        assert kinds(r'"a\"b\\c\nd\te"') == [("string", 'a"b\\c\nd\te')]

    def test_unterminated_string(self):
        with pytest.raises(ReflexSyntaxError, match="unterminated"):
            tokenize('"oops')

    def test_newline_in_string_rejected(self):
        with pytest.raises(ReflexSyntaxError, match="unterminated"):
            tokenize('"a\nb"')

    def test_unknown_escape_rejected(self):
        with pytest.raises(ReflexSyntaxError, match="unknown escape"):
            tokenize(r'"\q"')


class TestKernelStreams:
    @pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
    def test_stream_is_pinned(self, name):
        assert stream_digest(kernel_source(name)) == STREAM_DIGESTS[name]

    def test_every_kernel_is_pinned(self):
        assert set(BENCHMARKS) < set(STREAM_DIGESTS)

    def test_eof_after_trailing_comment_has_its_true_column(self):
        # The character-at-a-time lexer left the column where the
        # comment started ((1, 3) here); the only difference allowed.
        tokens = tokenize("a # tail")
        assert tokens[-1] == Token("eof", "", 1, 9)
        assert tokenize("a\n// tail")[-1] == Token("eof", "", 2, 8)


class TestTokens:
    def test_token_fields_and_str(self):
        token = tokenize("foo")[0]
        assert token == Token("ident", "foo", 1, 1)
        assert (token.kind, token.text, token.line, token.column) \
            == ("ident", "foo", 1, 1)
        assert str(token) == "'foo'"
        assert str(tokenize("")[0]) == "end of input"

    def test_unicode_letters_and_digits_in_identifiers(self):
        assert kinds("été x2 x² _1") == [
            ("ident", "été"), ("ident", "x2"), ("ident", "x²"),
            ("ident", "_1"),
        ]


class TestNonDecimalDigits:
    """``'²'.isdigit()`` is true but ``int('²')`` fails: such characters
    are not numbers, and nothing else takes them either."""

    @pytest.mark.parametrize("char", ["²", "①"])
    def test_rejected_by_the_lexer(self, char):
        with pytest.raises(ReflexSyntaxError, match="unexpected character"):
            tokenize(f"x = {char};")
        with pytest.raises(ReflexSyntaxError, match="unexpected character"):
            tokenize(f"x = 1{char};")

    @pytest.mark.parametrize("char", ["²", "①"])
    def test_parse_program_raises_a_reflex_error(self, char):
        source = ('program p { components { A "a" {} } messages { M(num); }'
                  f' init {{ x = {char}; }} }}')
        with pytest.raises(ReflexError):
            parse_program(source)

    def test_number_is_decimal_digits_only(self):
        assert kinds("12x") == [("number", "12"), ("ident", "x")]
