"""The built-in term-level prelude: primops and levity-polymorphic functions.

This module plays the role of GHC's ``ghc-prim`` + the handful of ``base``
functions the paper discusses:

* unboxed arithmetic and comparison primops (``+#``, ``*#``, ``<#``,
  ``+##``, …) with fully monomorphic unboxed types;
* the boxing data constructors ``I#``, ``F#``, ``D#``, ``C#`` and the
  monomorphic boxed arithmetic helpers (``plusInt`` and friends, defined in
  the paper's Section 2.1 style);
* the six levity-generalised functions of Section 8.1 — ``error``,
  ``errorWithoutStackTrace``, ``undefined`` (the paper's ⊥), ``oneShot``,
  ``runRW#`` and ``($)`` — with their levity-polymorphic types;
* the levity-polymorphic ``(.)`` of Section 7.2 (generalised result only);
* a few ordinary lifted helpers used by the examples.

Every entry is a :class:`repro.infer.schemes.Scheme`; the inference engine
seeds its environment from :func:`prelude_env`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.kinds import REP_KIND, TYPE_LIFTED, TypeKind
from ..core.primops import PRIMOP_ROWS
from ..core.rep import RepVar
from ..infer.schemes import Scheme, TypeEnv
from .types import (
    BOOL_TY,
    CHAR_HASH_TY,
    CHAR_TY,
    DOUBLE_HASH_TY,
    DOUBLE_TY,
    FLOAT_HASH_TY,
    FLOAT_TY,
    INT_HASH_TY,
    INT_TY,
    MAYBE_TY,
    ORDERING_TY,
    SType,
    STRING_TY,
    TyApp,
    TyVar,
    UNIT_TY,
    UnboxedTupleTy,
    WORD_HASH_TY,
    WORD_TY,
    fun,
    lookup_tycon,
)


def _rep_kind(name: str) -> TypeKind:
    """The kind ``TYPE name`` for a representation variable ``name``."""
    return TypeKind(RepVar(name))


def _mono(type_: SType) -> Scheme:
    return Scheme.monomorphic(type_)


def _binop(ty: SType, result: SType = None) -> Scheme:  # type: ignore[assignment]
    result = result if result is not None else ty
    return _mono(fun(ty, ty, result))


# ---------------------------------------------------------------------------
# Unboxed primops (ghc-prim)
# ---------------------------------------------------------------------------

#: The primops' monomorphic schemes, derived from the registry in
#: :mod:`repro.core.primops` (comparisons return ``Int#`` 0/1, as in GHC).
PRIMOPS: Dict[str, Scheme] = {
    name: _mono(fun(*(lookup_tycon(type_name)
                      for type_name in row.arguments + (row.result,))))
    for name, row in PRIMOP_ROWS.items()}

# ---------------------------------------------------------------------------
# Boxing constructors and monomorphic boxed helpers (Section 2.1 style)
# ---------------------------------------------------------------------------

CONSTRUCTORS: Dict[str, Scheme] = {
    "I#": _mono(fun(INT_HASH_TY, INT_TY)),
    "W#": _mono(fun(WORD_HASH_TY, WORD_TY)),
    "F#": _mono(fun(FLOAT_HASH_TY, FLOAT_TY)),
    "D#": _mono(fun(DOUBLE_HASH_TY, DOUBLE_TY)),
    "C#": _mono(fun(CHAR_HASH_TY, CHAR_TY)),
    "True": _mono(BOOL_TY),
    "False": _mono(BOOL_TY),
    "Nothing": Scheme((), (("a", TYPE_LIFTED),), (),
                      TyApp(MAYBE_TY, TyVar("a"))),
    "Just": Scheme((), (("a", TYPE_LIFTED),), (),
                   fun(TyVar("a"), TyApp(MAYBE_TY, TyVar("a")))),
    "()": _mono(UNIT_TY),
}

BOXED_HELPERS: Dict[str, Scheme] = {
    "plusInt": _binop(INT_TY),
    "minusInt": _binop(INT_TY),
    "timesInt": _binop(INT_TY),
    # The operator spellings of the same Section 2.1 helpers, so ordinary
    # boxed arithmetic (`1 + 2` at type Int) works out of the box.  They are
    # deliberately monomorphic: the generalised Num class of Section 7.3 is
    # opt-in via repro.classes, not wired into the default prelude.
    "+": _binop(INT_TY),
    "-": _binop(INT_TY),
    "*": _binop(INT_TY),
    "negate": _mono(fun(INT_TY, INT_TY)),
    "eqInt": _binop(INT_TY, BOOL_TY),
    "ltInt": _binop(INT_TY, BOOL_TY),
    "not": _mono(fun(BOOL_TY, BOOL_TY)),
    "&&": _binop(BOOL_TY),
    "||": _binop(BOOL_TY),
    "appendString": _binop(STRING_TY),
}

# ---------------------------------------------------------------------------
# The six levity-generalised functions of Section 8.1
# ---------------------------------------------------------------------------


def _levity_poly_result(name: str) -> Scheme:
    """``forall (r :: Rep) (a :: TYPE r). String -> a`` (error-like)."""
    return Scheme(("r",), (("a", _rep_kind("r")),), (),
                  fun(STRING_TY, TyVar("a", _rep_kind("r"))))


#: ``error :: forall (r :: Rep) (a :: TYPE r). String -> a``
ERROR_SCHEME = _levity_poly_result("error")
#: ``errorWithoutStackTrace`` has the same levity-polymorphic type.
ERROR_WITHOUT_STACK_TRACE_SCHEME = _levity_poly_result("errorWithoutStackTrace")
#: ``undefined :: forall (r :: Rep) (a :: TYPE r). a`` — the paper's ⊥.
UNDEFINED_SCHEME = Scheme(("r",), (("a", _rep_kind("r")),), (),
                          TyVar("a", _rep_kind("r")))
#: ``oneShot :: forall (q r :: Rep) (a :: TYPE q) (b :: TYPE r). (a -> b) -> a -> b``
ONE_SHOT_SCHEME = Scheme(
    ("q", "r"),
    (("a", _rep_kind("q")), ("b", _rep_kind("r"))),
    (),
    fun(fun(TyVar("a", _rep_kind("q")), TyVar("b", _rep_kind("r"))),
        TyVar("a", _rep_kind("q")), TyVar("b", _rep_kind("r"))))
#: ``runRW# :: forall (r :: Rep) (o :: TYPE r). (State# RealWorld -> o) -> o``
#: modelled with the state token simplified to the unit unboxed tuple.
RUN_RW_SCHEME = Scheme(
    ("r",), (("o", _rep_kind("r")),), (),
    fun(fun(UnboxedTupleTy(()), TyVar("o", _rep_kind("r"))),
        TyVar("o", _rep_kind("r"))))
#: ``($) :: forall (r :: Rep) (a :: Type) (b :: TYPE r). (a -> b) -> a -> b``
DOLLAR_SCHEME = Scheme(
    ("r",),
    (("a", TYPE_LIFTED), ("b", _rep_kind("r"))),
    (),
    fun(fun(TyVar("a"), TyVar("b", _rep_kind("r"))), TyVar("a"),
        TyVar("b", _rep_kind("r"))))
#: ``(.) :: forall (r :: Rep) a b (c :: TYPE r). (b -> c) -> (a -> b) -> a -> c``
COMPOSE_SCHEME = Scheme(
    ("r",),
    (("a", TYPE_LIFTED), ("b", TYPE_LIFTED), ("c", _rep_kind("r"))),
    (),
    fun(fun(TyVar("b"), TyVar("c", _rep_kind("r"))),
        fun(TyVar("a"), TyVar("b")), TyVar("a"), TyVar("c", _rep_kind("r"))))

LEVITY_GENERALISED: Dict[str, Scheme] = {
    "error": ERROR_SCHEME,
    "errorWithoutStackTrace": ERROR_WITHOUT_STACK_TRACE_SCHEME,
    "undefined": UNDEFINED_SCHEME,
    "oneShot": ONE_SHOT_SCHEME,
    "runRW#": RUN_RW_SCHEME,
    "$": DOLLAR_SCHEME,
    ".": COMPOSE_SCHEME,
}


def prelude_schemes() -> Dict[str, Scheme]:
    """Every built-in binding, merged into one dictionary."""
    out: Dict[str, Scheme] = {}
    out.update(PRIMOPS)
    out.update(CONSTRUCTORS)
    out.update(BOXED_HELPERS)
    out.update(LEVITY_GENERALISED)
    return out


def prelude_env() -> TypeEnv:
    """A fresh typing environment seeded with the whole prelude."""
    return TypeEnv(prelude_schemes())
