"""Differential test: the master-regex lexer against the lexer it replaced.

:class:`Lexer` below is the previous character-by-character implementation,
kept verbatim as the reference.  :func:`repro.chisel.lexer.tokenize` must
produce the same tokens (kind, text, location) or the same ``ChiselError``
(message, code, location) on every golden design, every syntax-fault mutant,
the fuzz corpus and seeded insertions of awkward characters.

Two deliberate deviations, both on input the old lexer accepted and the parser
then crashed on with a bare ``ValueError``, are allowed and named:

* ``hex-literal-without-digits``: ``0x``, ``0x_`` -- now a ``LEX`` error.
* ``non-ascii-digit``: numeric literals take ASCII ``[0-9]`` only, as in
  scalac, so ``²`` or a fullwidth ``１`` (which ``int()`` read as 1) is now a
  ``LEX`` error.
"""

import json
import os
import random
import re
import time

import pytest

from repro.chisel.diagnostics import ChiselError, SourceLocation
from repro.chisel.lexer import KEYWORDS, Token, TokenKind, tokenize
from repro.problems.mutations import applicable_syntax_faults
from repro.problems.registry import build_default_registry

# The reference lexer's operator table and punctuation, as they were.
_OPERATORS = [
    "<->",
    "<>",
    "===",
    "=/=",
    ":=",
    "=>",
    "<-",
    "->",
    "+&",
    "-&",
    "+%",
    "-%",
    "+=",
    "-=",
    "*=",
    "/=",
    "&=",
    "|=",
    "^=",
    "##",
    "==",
    "!=",
    "<=",
    ">=",
    "<<",
    ">>",
    "&&",
    "||",
    "=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "&",
    "|",
    "^",
    "~",
    "!",
    "_",
]

_PUNCT = "(){}[].,:;@"


class Lexer:
    """Tokenise Chisel/Scala source text."""

    def __init__(self, source: str, file: str = "Main.scala"):
        self.source = source
        self.file = file
        self.pos = 0
        self.line = 1
        self.column = 1

    def _location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column, self.file)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index >= len(self.source):
            return ""
        return self.source[index]

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.pos : self.pos + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return text

    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        while self.pos < len(self.source):
            ch = self._peek()
            if ch == "\n":
                loc = self._location()
                self._advance()
                if tokens and tokens[-1].kind is not TokenKind.NEWLINE:
                    tokens.append(Token(TokenKind.NEWLINE, "\n", loc))
                continue
            if ch in " \t\r":
                self._advance()
                continue
            if ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
                continue
            if ch == "/" and self._peek(1) == "*":
                self._lex_block_comment()
                continue
            if ch == '"':
                tokens.append(self._lex_string())
                continue
            if ch.isdigit():
                tokens.append(self._lex_number())
                continue
            if ch.isalpha() or ch == "_" or ch == "$":
                tokens.append(self._lex_ident())
                continue
            op = self._match_operator()
            if op is not None:
                tokens.append(op)
                continue
            if ch in _PUNCT:
                loc = self._location()
                self._advance()
                tokens.append(Token(TokenKind.PUNCT, ch, loc))
                continue
            raise ChiselError.at(
                f"illegal character {ch!r} in source", self._location(), code="LEX"
            )
        tokens.append(Token(TokenKind.EOF, "", self._location()))
        return tokens

    def _lex_block_comment(self) -> None:
        start = self._location()
        self._advance(2)
        while self.pos < len(self.source):
            if self._peek() == "*" and self._peek(1) == "/":
                self._advance(2)
                return
            self._advance()
        raise ChiselError.at("unterminated block comment", start, code="LEX")

    def _lex_string(self) -> Token:
        loc = self._location()
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            ch = self._peek()
            if ch == "":
                raise ChiselError.at("unterminated string literal", loc, code="LEX")
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                escaped = self._advance()
                mapping = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
                chars.append(mapping.get(escaped, escaped))
                continue
            chars.append(self._advance())
        return Token(TokenKind.STRING, "".join(chars), loc)

    def _lex_number(self) -> Token:
        loc = self._location()
        chars: list[str] = []
        if self._peek() == "0" and self._peek(1) in "xX":
            chars.append(self._advance())
            chars.append(self._advance())
            while self._peek() and (self._peek() in "0123456789abcdefABCDEF_"):
                chars.append(self._advance())
        else:
            while self._peek() and (self._peek().isdigit() or self._peek() == "_"):
                chars.append(self._advance())
        return Token(TokenKind.INTEGER, "".join(chars), loc)

    def _lex_ident(self) -> Token:
        loc = self._location()
        chars: list[str] = []
        while self._peek() and (self._peek().isalnum() or self._peek() in "_$"):
            chars.append(self._advance())
        text = "".join(chars)
        if text == "_":
            return Token(TokenKind.OPERATOR, "_", loc)
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, loc)

    def _match_operator(self) -> Token | None:
        loc = self._location()
        for op in _OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                return Token(TokenKind.OPERATOR, op, loc)
        return None


def reference_tokenize(source: str, file: str = "Main.scala") -> list[Token]:
    return Lexer(source, file).tokenize()


PROBLEMS = list(build_default_registry())
GOLDENS = [problem.golden_chisel for problem in PROBLEMS]
CORPUS_PATH = os.path.join(os.path.dirname(__file__), "data", "fuzz_corpus.jsonl")

DEVIATIONS = ("hex-literal-without-digits", "non-ascii-digit")
_DIGITLESS_HEX = re.compile(r"0[xX]_*")

# Fragments inserted at seeded positions into golden designs.
INSERTIONS = ['"', "/*", "\\", "#", "0x", "_", "$x", "\t", "\r\n", "é", "λ", "ß", "１", "²"]
INSERTIONS_PER_FRAGMENT = 24


def outcome(lex, source: str, file: str = "Main.scala"):
    """Token triples, or ``("error", message, code, location)``."""
    try:
        return [(token.kind, token.text, token.location) for token in lex(source, file)]
    except ChiselError as exc:
        diagnostic = exc.diagnostic
        return ("error", diagnostic.message, diagnostic.code, diagnostic.location)


def deviation(expected, actual) -> str | None:
    """Name the deliberate deviation that explains a mismatch, if any."""
    if not isinstance(expected, list) or not isinstance(actual, tuple):
        return None
    _, message, code, location = actual
    if code != "LEX":
        return None
    for kind, text, start in expected:
        if kind is not TokenKind.INTEGER or start.line != location.line:
            continue
        if start == location and _DIGITLESS_HEX.fullmatch(text) and "no digits" in message:
            return "hex-literal-without-digits"
        inside = start.column <= location.column < start.column + len(text)
        if inside and not text.isascii() and "ASCII digits" in message:
            return "non-ascii-digit"
    return None


def check_sources(sources, file: str = "Main.scala") -> set[str]:
    """Assert the lexers agree on every source; return the deviations seen."""
    seen: set[str] = set()
    for source in sources:
        expected = outcome(reference_tokenize, source, file)
        actual = outcome(tokenize, source, file)
        if actual == expected:
            continue
        name = deviation(expected, actual)
        assert name in DEVIATIONS, (source, expected, actual)
        seen.add(name)
    return seen


def seeded_insertions(fragment: str, seed: int = 0) -> list[str]:
    rng = random.Random(f"{seed}:{fragment}")
    sources = []
    for _ in range(INSERTIONS_PER_FRAGMENT):
        golden = rng.choice(GOLDENS)
        at = rng.randrange(len(golden) + 1)
        sources.append(golden[:at] + fragment + golden[at:])
    return sources


class TestAgainstReference:
    def test_goldens(self):
        assert len(GOLDENS) == 216
        assert check_sources(GOLDENS) == set()

    def test_goldens_under_another_file_name(self):
        assert check_sources(GOLDENS[:8], file="Other.scala") == set()

    def test_syntax_fault_mutants(self):
        mutants = [
            fault.apply(problem.golden_chisel, problem)
            for problem in PROBLEMS
            for fault in applicable_syntax_faults(problem.golden_chisel, problem)
        ]
        assert len(mutants) > len(PROBLEMS)
        assert check_sources(mutants) == set()

    def test_fuzz_corpus(self):
        with open(CORPUS_PATH, "r", encoding="utf-8") as handle:
            sources = [json.loads(line)["source"] for line in handle if line.strip()]
        assert len(sources) == 68
        assert check_sources(sources) == set()

    @pytest.mark.parametrize("fragment", INSERTIONS)
    def test_seeded_insertions(self, fragment):
        seen = check_sources(seeded_insertions(fragment))
        if fragment in ("１", "²"):
            assert seen == {"non-ascii-digit"}

    def test_edge_cases(self):
        sources = [
            "",
            "\n\n",
            "a",
            "0",
            "0x",
            "0x_1",
            "0_x",
            "1_000 0xFF 0XfF",
            '"abc',
            '"a\\',
            '"a\\"b\\q\\n" x',
            '"two\nlines" y',
            "/* a\n b */ c",
            "/*/ x",
            "/* never closed",
            "a // trailing comment",
            "a //= b",
            "x\n// only comment\n\ny",
            "_ + _",
            "$x _y",
            "\r\n a \t b",
            "\x0c",
            "\u00a0",
            "éa ßx λ",
            "a² ½",
            "1１",
            "０x1",
            "0x１",
        ]
        seen = check_sources(sources)
        assert seen == set(DEVIATIONS)


class TestDeviations:
    @pytest.mark.parametrize(
        "source, column, message",
        [
            ("0x", 1, "hexadecimal literal '0x' has no digits"),
            ("x := 0x_.U", 6, "hexadecimal literal '0x_' has no digits"),
            ("１", 1, "illegal character '１' in source: numeric literals use ASCII digits"),
            ("  ²", 3, "illegal character '²' in source: numeric literals use ASCII digits"),
        ],
    )
    def test_malformed_numbers_are_lex_errors(self, source, column, message):
        with pytest.raises(ChiselError) as excinfo:
            tokenize(source)
        diagnostic = excinfo.value.diagnostic
        assert diagnostic.code == "LEX"
        assert diagnostic.message == message
        assert diagnostic.location == SourceLocation(1, column)


def test_master_regex_lexer_is_at_least_twice_as_fast():
    """Min-of-5 over the 216 goldens, the two lexers interleaved in one run."""
    best_reference = best_new = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for source in GOLDENS:
            reference_tokenize(source)
        best_reference = min(best_reference, time.perf_counter() - start)
        start = time.perf_counter()
        for source in GOLDENS:
            tokenize(source)
        best_new = min(best_new, time.perf_counter() - start)
    assert best_reference >= 2.0 * best_new, (best_reference, best_new)
