"""The lexer for the surface language's concrete syntax: one compiled
master regular expression.

Tokens carry full source spans (1-based line/column of both ends) so the
parser and the driver can attach precise locations to diagnostics.  The
token language is the small Haskell subset the paper's examples use:

* identifiers with optional trailing ``#`` marks (``sumTo#``, ``Int#``,
  ``quotInt#``) and primes;
* symbolic operators (``+#``, ``==##``, ``$``, ``.``, ``->``, ``::``, …);
* unboxed literals ``3#`` and ``2.5##`` alongside boxed ``3``;
* string and character literals with the usual escapes;
* unboxed tuple brackets ``(#`` / ``#)``, parens, brackets, braces;
* ``--`` line comments and nested ``{- … -}`` block comments.

:data:`TOKEN_RE` has one named group per token kind, per kind of trivia
and per kind of malformed literal, tried in order at each position after
spaces and tabs; a regular expression cannot count nesting, so a ``{-``
match hands over to :func:`block_comment_end`.  The declaration split in
:func:`repro.frontend.parser.parse_module_incremental` asks the same
expression whether a line starts with a token.

There is no layout algorithm: a token in column 1 always begins a new
top-level declaration (the parser enforces this), and ``case``/``of``
alternatives use explicit ``{ … ; … }`` braces — the same concrete form
:meth:`repro.surface.ast.ECase.pretty` prints.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from ..core.errors import ParseError

#: Characters that may make up a symbolic operator.
SYMBOL_CHARS = frozenset("!#$%&*+./<=>?^|-~:@")

#: Keywords of the surface language.
KEYWORDS = frozenset({
    "forall", "let", "in", "if", "then", "else", "case", "of",
    "where", "data", "class", "instance", "module", "import",
})

#: Symbolic tokens with reserved meaning (never infix operators).
RESERVED_SYMBOLS = frozenset({"::", "->", "=>", "=", "|", "@"})

#: ``tuple.__new__`` skips the generated ``NamedTuple.__new__`` frame on
#: the lexer's hot path.
_new = tuple.__new__


class Span(NamedTuple):
    """A half-open source region, 1-based lines and columns."""

    line: int
    column: int
    end_line: int
    end_column: int

    def merge(self, other: "Span") -> "Span":
        return _new(Span, (self[0], self[1], other[2], other[3]))

    def pretty(self) -> str:
        return f"{self.line}:{self.column}"

    def __repr__(self) -> str:
        return f"Span({self.line}:{self.column}-{self.end_line}:{self.end_column})"


class Token(NamedTuple):
    """One lexeme with its kind, semantic value and source span."""

    kind: str      # conid varid symbol keyword int inthash doublehash
                   # string char lparen rparen lhash rhash lbracket rbracket
                   # lbrace rbrace comma semi backslash underscore eof
    text: str
    value: object
    span: Span

    @property
    def line(self) -> int:
        return self.span.line

    @property
    def column(self) -> int:
        return self.span.column

    def is_symbol(self, text: str) -> bool:
        return self.kind == "symbol" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.span.pretty()})"


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\",
            '"': '"', "'": "'", "0": "\0"}


def _one_of(chars) -> str:
    return "[" + re.escape("".join(sorted(chars))) + "]"


_SYM = _one_of(SYMBOL_CHARS)
_ESC = _one_of(_ESCAPES)
_STRING_BODY = r'"(?:[^"\\\n]|\\' + _ESC + ")*"

#: ``(group, pattern)`` in match order.  The order is part of the token
#: language: ``--`` and ``#)`` before symbols, ``{-`` before ``{``, ``(#``
#: before ``(``, each literal before its malformed forms; otherwise the
#: most frequent groups come first.  Numbers are ASCII digits only
#: (``'²'.isdigit()`` holds); ``name`` takes the identifiers that start
#: outside ASCII and the stray non-ASCII digits.
_GROUPS = (
    ("varid", r"[a-z_][\w']*#*"),
    ("nl", r"\n"),
    ("conid", r"[A-Z][\w']*#*"),
    ("comment", "--(?!" + _one_of(SYMBOL_CHARS - {"-"}) + r")[^\n]*"),
    ("rhash", r"\#\)"),
    ("symbol", _SYM + "+"),
    ("lhash", r"\(\#(?!" + _SYM + ")"),
    ("lparen", r"\("),
    ("rparen", r"\)"),
    ("doublehash", r"[0-9]+(?:\.[0-9]+)?\#\#"),
    ("badfraction", r"[0-9]+\.[0-9]+\#?"),
    ("inthash", r"[0-9]+\#"),
    ("int", "[0-9]+"),
    ("comma", ","),
    ("semi", ";"),
    ("blockcomment", r"\{-"),
    ("lbrace", r"\{"),
    ("rbrace", r"\}"),
    ("lbracket", r"\["),
    ("rbracket", r"\]"),
    ("backslash", r"\\"),
    ("string", _STRING_BODY + '"'),
    ("char", r"'(?:[^\\\n]|\\" + _ESC + ")'"),
    ("badescape", "(?:" + _STRING_BODY + r"|')\\(?!" + _ESC + ")"),
    ("badstring", '"'),
    ("badchar", "'"),
    ("name", r"\w[\w']*#*"),
    ("eof", r"\Z"),
    ("bad", r"[^ \t\r\n]"),
)

#: The master expression.  Spaces, tabs and carriage returns before a
#: match belong to it, so ``match[match.lastgroup]`` is the lexeme.
TOKEN_RE = re.compile(
    r"[ \t\r]*(?:" + "|".join(f"(?P<{g}>{p})" for g, p in _GROUPS) + ")")

#: Groups that match no token.
TRIVIA = frozenset({"nl", "comment", "blockcomment", "eof"})

_COMMENT_DELIMITER = re.compile(r"\{-|-\}")
_ESCAPE = re.compile(r"\\(.)")

#: Groups that are token kinds, with their text as value (a ``varid``
#: may still be a keyword or ``_``).
_TEXT_KINDS = frozenset({
    "varid", "conid", "symbol", "rhash", "lhash", "lparen", "rparen",
    "comma", "semi", "lbrace", "rbrace", "lbracket", "rbracket",
    "backslash"})
_NAME_KINDS = dict.fromkeys(KEYWORDS, "keyword")
_NAME_KINDS["_"] = "underscore"

UNTERMINATED_COMMENT = "unterminated block comment"


def block_comment_end(source: str, pos: int) -> int:
    """The offset just past the ``-}`` that closes the block comment whose
    ``{-`` ends at ``pos``, or -1 when the source ends first.

    Inside a comment only ``{-`` (one level deeper) and ``-}`` matter.
    """
    depth = 1
    search = _COMMENT_DELIMITER.search
    while depth:
        match = search(source, pos)
        if match is None:
            return -1
        pos = match.end()
        depth += 1 if match[0] == "{-" else -1
    return pos


def _escape_error(source: str, end: int, line: int,
                  line_start: int) -> ParseError:
    """An unknown escape: positioned just past the escaped character."""
    escape = source[end:end + 1]
    if escape == "\n":
        return ParseError("unknown escape \\\n", line + 1, 1)
    return ParseError(f"unknown escape \\{escape}", line,
                      end - line_start + 1 + len(escape))


def tokenize(source: str, filename: str = "<input>",
             first_line: int = 1) -> List[Token]:
    """Tokenise ``source``; the final token always has kind ``eof``.

    Lines are numbered from ``first_line``, so a declaration block cut
    from a file lexes with the file's line numbers.
    """
    tokens: List[Token] = []
    append = tokens.append
    new = _new
    text_kinds = _TEXT_KINDS
    name_kinds = _NAME_KINDS
    finditer = TOKEN_RE.finditer
    line = first_line
    line_start = 0
    pos = 0
    while True:  # the eof group matches at the end, after any trivia
        for match in finditer(source, pos):
            kind = match.lastgroup
            text = match[kind]
            end = match.end()
            size = len(text)
            column = end - size - line_start + 1
            if kind in text_kinds:
                value = text
                if kind == "varid":
                    kind = name_kinds.get(text, kind)
            elif kind == "nl":
                line += 1
                line_start = end
                continue
            elif kind == "inthash":
                value = int(text[:-1])
            elif kind == "int":
                value = int(text)
            elif kind == "comment":
                continue
            elif kind == "doublehash":
                value = float(text[:-2])
            elif kind == "string":
                value = text[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(lambda m: _ESCAPES[m[1]], value)
            elif kind == "char":
                value = text[1] if size == 3 else _ESCAPES[text[2]]
                text = repr(value)
            elif kind == "blockcomment":
                pos = block_comment_end(source, end)
                if pos < 0:
                    raise ParseError(UNTERMINATED_COMMENT, line, column)
                newlines = source.count("\n", end, pos)
                if newlines:
                    line += newlines
                    line_start = source.rindex("\n", end, pos) + 1
                break
            elif kind == "eof":
                append(new(Token, ("eof", "", None,
                                   new(Span, (line, column, line, column)))))
                return tokens
            elif kind == "name":
                if not text[0].isalpha():
                    raise ParseError(f"unexpected character {text[0]!r}",
                                     line, column)
                value = text
                kind = "conid" if text[0].isupper() else "varid"
            elif kind == "badescape":
                raise _escape_error(source, end, line, line_start)
            elif kind == "badfraction":
                if text[-1] == "#":
                    raise ParseError(
                        f"malformed literal {text!r}: a fractional literal "
                        "needs two trailing hashes (Double#)", line, column)
                raise ParseError(
                    f"unsupported literal {text!r}: boxed fractional "
                    "literals are not in the surface language (use e.g. "
                    "2.5##)", line, column)
            elif kind == "badstring":
                raise ParseError("unterminated string literal", line, column)
            elif kind == "badchar":
                raise ParseError("unterminated character literal",
                                 line, column)
            else:
                raise ParseError(f"unexpected character {text!r}",
                                 line, column)
            append(new(Token, (kind, text, value,
                               new(Span, (line, column, line,
                                          column + size)))))
