"""The primop registry: one row per primop, from which every layer derives.

GHC keeps every primop in one file (``primops.txt.pp``) and generates the
rest from it; :data:`PRIMOP_ROWS` plays that role here.  Each
:class:`PrimopRow` holds

* the primop's surface name;
* its argument and result types, by unboxed type-constructor name
  (``"Int#"``, ``"Double#"``, ``"Float#"``, ``"Char#"``, ``"Word#"``) —
  names rather than :mod:`repro.surface` types, so ``core`` stays below
  ``surface``;
* its delta rule on raw Python values (``int`` for ``Int#``, ``Char#``
  and ``Word#``; ``float`` for ``Double#`` and ``Float#``);
* its ⊥ condition: ``None`` for a total primop, otherwise a function of
  the raw arguments returning why the application is undefined, or
  ``None`` when it is defined.

There is no strictness column: every argument has an unboxed kind, so
every primop is call-by-value ("kinds are calling conventions").

The other layers derive their views from this table:

* :data:`repro.surface.prelude.PRIMOPS` — the monomorphic schemes;
* :data:`repro.runtime.evaluator.PRIMOP_TABLE` — runtime implementations
  for the tree-walker and, through ``Evaluator.primop_impl``, the compiled
  closures;
* :data:`INT_PRIMOPS` and :func:`primop_delta` below — the
  ``Int#``-only fragment that L types (:mod:`repro.lang_l`),
  ``driver/lower.py`` lowers and the M machine runs.  The L semantics and
  the machine must agree *exactly* (the translation validator cross-checks
  them), and they do because both call this delta.

Semantics, following GHC's primops:

* ``+# -# *#`` — exact integer arithmetic (Python ints, no wraparound);
* ``quotInt# remInt#`` — truncate-towards-zero division; a zero divisor
  is ⊥ (L steps to ``error``, the machine aborts, the evaluators raise);
* comparisons return ``1#``/``0#``;
* ``/##`` is IEEE 754 division: ``x /## 0.0##`` is ±infinity for
  ``x ≠ 0``, and ``0.0## /## 0.0##`` is NaN;
* ``int2Double#`` of an ``Int#`` beyond the ``Double#`` range is
  ±infinity;
* ``double2Int#`` truncates towards zero; of an infinity or NaN it is ⊥.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple


class PrimopRow(NamedTuple):
    """One registry entry (named apart from L's ``PrimOp`` term node)."""

    name: str
    arguments: Tuple[str, ...]
    result: str
    delta: Callable[..., object]
    bottom: Optional[Callable[..., Optional[str]]] = None


def _quot(a: int, b: int) -> int:
    """Truncate-towards-zero division on exact integers (no float detour:
    15+-digit operands lost low bits through ``int(a / b)``, pinned in
    tests/golden/fuzz/quot_precision.lev)."""
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _rem(a: int, b: int) -> int:
    return a - b * _quot(a, b)


def _by_zero(_a: int, b: int) -> Optional[str]:
    return "by zero" if b == 0 else None


def _divide(a: float, b: float) -> float:
    """IEEE 754 division, where Python raises ``ZeroDivisionError``."""
    if b:
        return a / b
    if a == 0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _int_to_double(n: int) -> float:
    try:
        return float(n)
    except OverflowError:
        # math.copysign(math.inf, n) would overflow converting n too.
        return math.inf if n > 0 else -math.inf


def _not_finite(d: float) -> Optional[str]:
    return None if math.isfinite(d) else "of an infinity or NaN"


def _same(x: int) -> int:
    return x


def _row(name: str, signature: str, delta: Callable[..., object],
         bottom: Optional[Callable[..., Optional[str]]] = None) -> PrimopRow:
    *arguments, result = signature.split(" -> ")
    return PrimopRow(name, tuple(arguments), result, delta, bottom)


#: Every primop, keyed by surface name, in the prelude's order.
PRIMOP_ROWS: Dict[str, PrimopRow] = {row.name: row for row in (
    # Int# arithmetic; comparisons return Int# (0/1) exactly as in GHC.
    _row("+#", "Int# -> Int# -> Int#", operator.add),
    _row("-#", "Int# -> Int# -> Int#", operator.sub),
    _row("*#", "Int# -> Int# -> Int#", operator.mul),
    _row("quotInt#", "Int# -> Int# -> Int#", _quot, _by_zero),
    _row("remInt#", "Int# -> Int# -> Int#", _rem, _by_zero),
    _row("negateInt#", "Int# -> Int#", operator.neg),
    _row("<#", "Int# -> Int# -> Int#", lambda a, b: 1 if a < b else 0),
    _row(">#", "Int# -> Int# -> Int#", lambda a, b: 1 if a > b else 0),
    _row("<=#", "Int# -> Int# -> Int#", lambda a, b: 1 if a <= b else 0),
    _row(">=#", "Int# -> Int# -> Int#", lambda a, b: 1 if a >= b else 0),
    _row("==#", "Int# -> Int# -> Int#", lambda a, b: 1 if a == b else 0),
    _row("/=#", "Int# -> Int# -> Int#", lambda a, b: 1 if a != b else 0),
    # Double# arithmetic.
    _row("+##", "Double# -> Double# -> Double#", operator.add),
    _row("-##", "Double# -> Double# -> Double#", operator.sub),
    _row("*##", "Double# -> Double# -> Double#", operator.mul),
    _row("/##", "Double# -> Double# -> Double#", _divide),
    _row("negateDouble#", "Double# -> Double#", operator.neg),
    _row("<##", "Double# -> Double# -> Int#",
         lambda a, b: 1 if a < b else 0),
    _row("==##", "Double# -> Double# -> Int#",
         lambda a, b: 1 if a == b else 0),
    # Float# arithmetic.
    _row("plusFloat#", "Float# -> Float# -> Float#", operator.add),
    _row("timesFloat#", "Float# -> Float# -> Float#", operator.mul),
    # Char#.
    _row("eqChar#", "Char# -> Char# -> Int#",
         lambda a, b: 1 if a == b else 0),
    _row("ord#", "Char# -> Int#", _same),
    _row("chr#", "Int# -> Char#", _same),
    # Conversions.
    _row("int2Double#", "Int# -> Double#", _int_to_double),
    _row("double2Int#", "Double# -> Int#", int, _not_finite),
    _row("int2Word#", "Int# -> Word#", _same),
    _row("word2Int#", "Word# -> Int#", _same),
)}

#: Arity of every ``Int# -> … -> Int#`` primop: the L fragment's primops.
INT_PRIMOPS: Dict[str, int] = {
    name: len(row.arguments) for name, row in PRIMOP_ROWS.items()
    if row.result == "Int#" and set(row.arguments) == {"Int#"}}


def primop_delta(name: str, arguments: Sequence[int]) -> Optional[int]:
    """The delta rule ``δ(op, n1 … nk)`` on unboxed integer literals.

    Returns ``None`` exactly when the application is bottom — i.e. for
    ``quotInt#``/``remInt#`` with a zero divisor.  Raises ``KeyError``
    for primops outside :data:`INT_PRIMOPS` and ``ValueError`` on an arity
    mismatch, both of which indicate an ill-typed term (the L type checker
    and the machine reject them before reduction).
    """
    arity = INT_PRIMOPS[name]
    if len(arguments) != arity:
        raise ValueError(f"primop {name!r} expects {arity} arguments, "
                         f"got {len(arguments)}")
    row = PRIMOP_ROWS[name]
    if row.bottom is not None and row.bottom(*arguments) is not None:
        return None
    return row.delta(*arguments)
