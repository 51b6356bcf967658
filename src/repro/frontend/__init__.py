"""Concrete-syntax frontend for the surface language.

The frontend turns textual ``.lev`` programs — a small Haskell-like
language covering the paper's vocabulary (``forall (r :: Rep)
(a :: TYPE r).`` telescopes, ``Type``/``TYPE r`` kinds, ``Int#``/
``Double#``, unboxed tuples ``(# a, b #)``, lambdas, application,
``let``/``if``/``case``, type signatures) — into the existing
:mod:`repro.surface` AST, with source spans recorded for structured
diagnostics.

* :mod:`repro.frontend.lexer` — one master regular expression, tokens
  with line/column spans;
* :mod:`repro.frontend.parser` — recursive-descent parser and elaborator.

Public entry points:

* :func:`parse_module` — a whole ``.lev`` program;
* :func:`parse_expr` — a single expression;
* :func:`parse_type` / :func:`parse_scheme` — a type or type scheme, the
  inverse of :mod:`repro.pretty` (see the round-trip property tests).
"""

from .lexer import Span, Token, tokenize
from .parser import (
    ParsedModule,
    Parser,
    parse_expr,
    parse_module,
    parse_scheme,
    parse_type,
)

__all__ = [
    "Span",
    "Token",
    "tokenize",
    "ParsedModule",
    "Parser",
    "parse_expr",
    "parse_module",
    "parse_scheme",
    "parse_type",
]
