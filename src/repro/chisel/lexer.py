"""Lexer for the Chisel/Scala subset.

Produces a flat token stream; the parser is newline-sensitive (Scala statement
separation), so NEWLINE tokens are emitted for line breaks that can terminate
a statement.  One compiled master regex scans the source token by token.
"""

from __future__ import annotations

import enum
import re

from repro.chisel.diagnostics import ChiselError, SourceLocation


class TokenKind(enum.Enum):
    IDENT = "ident"
    INTEGER = "integer"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    KEYWORD = "keyword"
    NEWLINE = "newline"
    EOF = "eof"


KEYWORDS = {
    "class",
    "object",
    "extends",
    "with",
    "val",
    "var",
    "def",
    "new",
    "if",
    "else",
    "for",
    "while",
    "yield",
    "import",
    "package",
    "true",
    "false",
    "null",
    "override",
    "private",
    "protected",
    "implicit",
    "lazy",
    "case",
    "match",
    "return",
}

# Multi-character operators, longest first so maximal munch works.
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
]

_PUNCT = "(){}[].,:;@"

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# Skips blanks and a line comment (which runs up to the newline), then takes
# one alternative per token class, tried in this order; ``\Z`` (no group)
# matches the end of the source.  The first character decides the class except
# for '/' and ':', so block comments come before the operators and the
# operators before the punctuation.  Numeric literals use ASCII digits only, as
# in scalac, and a hex literal must carry a digit (checked after the match).
# ``other`` takes any remaining character: a non-ASCII letter starting an
# identifier, an unterminated string, or an illegal character.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?://[^\n]*)?(?:"
    + "|".join(
        (
            r"(?P<ident>[A-Za-z_$][\w$]*)",
            r"(?P<block_comment>/\*)",
            "(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")",
            "(?P<punct>[" + re.escape(_PUNCT) + "])",
            r"(?P<newline>\n)",
            r"(?P<number>0[xX][0-9a-fA-F_]*|[0-9][0-9_]*)",
            r'(?P<string>"[^"\\]*(?:\\.[^"\\]*)*")',
            r"(?P<other>.)",
            r"\Z",
        )
    )
    + ")",
    re.DOTALL,
)
_HEX_DIGIT_RE = re.compile(r"[0-9a-fA-F]")
_IDENT_TAIL_RE = re.compile(r"[\w$]*")
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


class Token:
    """One lexeme: its kind, its text (a string's unescaped body) and where it starts.

    A ``__slots__`` class, not a frozen dataclass, because :func:`tokenize`
    builds one per lexeme and this constructor costs well under half as
    much.  Tokens are immutable by convention, as AST nodes are: never assign
    to an attribute.  Equality and hashing compare ``(kind, text, location)``.
    """

    __slots__ = ("kind", "text", "location")

    def __init__(self, kind: TokenKind, text: str, location: SourceLocation):
        self.kind = kind
        self.text = text
        self.location = location

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.text, self.location) == (other.kind, other.text, other.location)

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.location))

    def __reduce__(self):
        return Token, (self.kind, self.text, self.location)

    def is_op(self, *ops: str) -> bool:
        return self.kind is TokenKind.OPERATOR and self.text in ops

    def is_punct(self, *puncts: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text in puncts

    def is_keyword(self, *words: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in words

    def is_ident(self, *names: str) -> bool:
        if self.kind is not TokenKind.IDENT:
            return False
        return not names or self.text in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.value}, {self.text!r}, {self.location})"


def tokenize(source: str, file: str = "Main.scala") -> list[Token]:
    """Tokenise Chisel/Scala ``source``; the last token is always ``EOF``.

    Raises :class:`ChiselError` (code ``LEX``) on an illegal character, an
    unterminated string or block comment, or a hex literal without digits.
    """
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    ident, keyword, operator, punct = (
        TokenKind.IDENT,
        TokenKind.KEYWORD,
        TokenKind.OPERATOR,
        TokenKind.PUNCT,
    )
    line = 1
    line_start = 0  # offset of the first character of the current line
    pos = 0
    while True:
        m = match(source, pos)
        group = m.lastgroup
        if group is None:
            break
        pos = m.start(group)
        next_pos = m.end()
        text = m.group(group)
        loc = SourceLocation(line, pos - line_start + 1, file)
        if group == "ident":
            if text in KEYWORDS:
                append(Token(keyword, text, loc))
            elif text == "_":
                append(Token(operator, text, loc))
            else:
                append(Token(ident, text, loc))
        elif group == "punct":
            append(Token(punct, text, loc))
        elif group == "op":
            append(Token(operator, text, loc))
        elif group == "newline":
            if tokens and tokens[-1].kind is not TokenKind.NEWLINE:
                append(Token(TokenKind.NEWLINE, text, loc))
            line += 1
            line_start = next_pos
        elif group == "number":
            if text[1:2] in ("x", "X") and not _HEX_DIGIT_RE.search(text, 2):
                raise ChiselError.at(
                    f"hexadecimal literal {text!r} has no digits", loc, code="LEX"
                )
            append(Token(TokenKind.INTEGER, text, loc))
        elif group == "block_comment":
            close = source.find("*/", next_pos)
            if close < 0:
                raise ChiselError.at("unterminated block comment", loc, code="LEX")
            next_pos = close + 2
            newlines = source.count("\n", pos, close)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, close) + 1
        elif group == "string":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE_RE.sub(lambda e: _ESCAPES.get(e.group(1), e.group(1)), body)
            append(Token(TokenKind.STRING, body, loc))
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rindex("\n") + 1
        elif text.isalpha():
            # An identifier that starts with a non-ASCII letter.
            next_pos = _IDENT_TAIL_RE.match(source, next_pos).end()
            text = source[pos:next_pos]
            append(Token(keyword if text in KEYWORDS else ident, text, loc))
        elif text == '"':
            raise ChiselError.at("unterminated string literal", loc, code="LEX")
        elif text.isdigit():
            raise ChiselError.at(
                f"illegal character {text!r} in source: numeric literals use ASCII digits",
                loc,
                code="LEX",
            )
        else:
            raise ChiselError.at(f"illegal character {text!r} in source", loc, code="LEX")
        pos = next_pos
    eof = len(source)
    append(Token(TokenKind.EOF, "", SourceLocation(line, eof - line_start + 1, file)))
    return tokens
