"""A catalogue of canonical L programs used throughout tests and benchmarks.

The programs are grouped into:

* :data:`WELL_TYPED` — closed, well-typed expressions together with their
  expected types and (when they terminate to a value) their expected results;
* :data:`LEVITY_VIOLATIONS` — expressions that are rejected precisely
  because of the Section 5.1 restrictions (levity-polymorphic binders or
  arguments), mirroring the paper's ``bTwice``-at-``∀r`` and ``abs2``
  examples;
* :data:`ILL_TYPED` — expressions with ordinary (non-levity) type errors.

Having a single shared catalogue keeps the typing tests, the semantics
tests, the compilation tests and the metatheory benchmarks consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .syntax import (
    App,
    Case,
    Con,
    ERROR,
    I,
    INT,
    INT_HASH,
    KIND_INT,
    KIND_PTR,
    Lam,
    LExpr,
    LKind,
    LType,
    Lit,
    P,
    RepApp,
    RepLam,
    RepVarL,
    TArrow,
    TForallRep,
    TForallType,
    TVar,
    TyApp,
    TyLam,
    Var,
    app,
    arrow,
    boxed_int,
    lam,
)


@dataclass(frozen=True)
class ExampleProgram:
    """A named example: expression, expected type, expected value (if any)."""

    name: str
    expr: LExpr
    expected_type: Optional[LType] = None
    expected_value: Optional[LExpr] = None
    diverges: bool = False
    description: str = ""


# -- building blocks ---------------------------------------------------------

#: ``id_int = λx:Int. x`` — monomorphic identity on boxed integers.
ID_INT = lam("x", INT, Var("x"))

#: ``id_inthash = λx:Int#. x`` — identity on unboxed integers.
ID_INT_HASH = lam("x", INT_HASH, Var("x"))

#: ``poly_id = Λa:TYPE P. λx:a. x`` — the usual System F identity, restricted
#: to lifted types as the Instantiation Principle requires (Section 3).
POLY_ID = TyLam("a", KIND_PTR, lam("x", TVar("a"), Var("x")))

#: ``unbox = λb:Int. case b of I#[x] -> x`` — unbox an Int to an Int#.
UNBOX = lam("b", INT, Case(Var("b"), "x", Var("x")))

#: ``box = λx:Int#. I#[x]`` — box an Int#.
BOX = lam("x", INT_HASH, Con(Var("x")))

#: ``twice_int = λf:Int -> Int. λx:Int. f (f x)`` — the essence of bTwice
#: instantiated at a lifted type, which is fine.
TWICE_INT = lam("f", arrow(INT, INT),
                lam("x", INT, App(Var("f"), App(Var("f"), Var("x")))))

#: ``apply_hash = λf:Int# -> Int#. λx:Int#. f x`` — strict application.
APPLY_HASH = lam("f", arrow(INT_HASH, INT_HASH),
                 lam("x", INT_HASH, App(Var("f"), Var("x"))))

#: ``succ# = λx:Int#. case I#[x] of I#[y] -> y`` — round-trips through the
#: box; the closest L gets to arithmetic without primops.
ROUNDTRIP_HASH = lam("x", INT_HASH, Case(Con(Var("x")), "y", Var("y")))

#: The levity-polymorphic ``myError`` of Section 3.3 / 5.2, in L syntax:
#: ``Λr. Λa:TYPE r. λs:Int. error @r @a s`` — legal because the only bound
#: variable (``s``) has the fixed kind TYPE P.
MY_ERROR = RepLam(
    "r",
    TyLam("a", LKind(RepVarL("r")),
          lam("s", INT,
              App(RepApp(TyApp(ERROR, TVar("a")), RepVarL("r"))
                  if False else
                  TyApp(RepApp(ERROR, RepVarL("r")), TVar("a")),
                  Var("s")))))

#: ``error`` instantiated to return an unboxed integer and applied — the
#: Section 3.3 example of "breaking" the Instantiation Principle safely.
ERROR_AT_INT_HASH = App(TyApp(RepApp(ERROR, I), INT_HASH), boxed_int(0))

#: The application operator ``($)`` of Section 7.2 restricted to L's types:
#: result levity-polymorphic, argument lifted.
DOLLAR = RepLam(
    "r",
    TyLam("a", KIND_PTR,
          TyLam("b", LKind(RepVarL("r")),
                lam("f", TArrow(TVar("a"), TVar("b")),
                    lam("x", TVar("a"), App(Var("f"), Var("x")))))))

#: Type of ``DOLLAR``: ∀r. ∀a:TYPE P. ∀b:TYPE r. (a -> b) -> a -> b.
DOLLAR_TYPE = TForallRep(
    "r",
    TForallType(
        "a", KIND_PTR,
        TForallType(
            "b", LKind(RepVarL("r")),
            arrow(TArrow(TVar("a"), TVar("b")), TVar("a"), TVar("b")))))

#: ``abs1``-style: a levity-polymorphic result returned without binding a
#: levity-polymorphic variable (legal).
ABS1_STYLE = RepLam(
    "r", TyLam("a", LKind(RepVarL("r")),
               TyApp(RepApp(ERROR, RepVarL("r")), TVar("a"))))

#: ``abs2``-style: the η-expansion of the above which *binds* a
#: levity-polymorphic variable ``x : a :: TYPE r`` — rejected (Section 7.3).
ABS2_STYLE = RepLam(
    "r", TyLam("a", LKind(RepVarL("r")),
               lam("x", TVar("a"),
                   App(TyApp(RepApp(ERROR, RepVarL("r")), TVar("a")),
                       boxed_int(1)))))

#: The un-compilable levity-polymorphic identity of Section 5.2:
#: ``Λr. Λa:TYPE r. λx:a. x``.
LEVITY_POLY_ID = RepLam(
    "r", TyLam("a", LKind(RepVarL("r")), lam("x", TVar("a"), Var("x"))))

#: bTwice at a levity-polymorphic type (Section 5): rejected.
LEVITY_POLY_TWICE = RepLam(
    "r", TyLam("a", LKind(RepVarL("r")),
               lam("f", TArrow(TVar("a"), TVar("a")),
                   lam("x", TVar("a"),
                       App(Var("f"), App(Var("f"), Var("x")))))))


# -- catalogues --------------------------------------------------------------

WELL_TYPED: Tuple[ExampleProgram, ...] = (
    ExampleProgram(
        "literal",
        Lit(42),
        expected_type=INT_HASH,
        expected_value=Lit(42),
        description="an unboxed literal is already a value"),
    ExampleProgram(
        "boxed_literal",
        boxed_int(7),
        expected_type=INT,
        expected_value=boxed_int(7),
        description="I#[7] is a value of type Int"),
    ExampleProgram(
        "id_int_applied",
        App(ID_INT, boxed_int(3)),
        expected_type=INT,
        expected_value=boxed_int(3),
        description="lazy beta reduction at a boxed type"),
    ExampleProgram(
        "id_inthash_applied",
        App(ID_INT_HASH, Lit(5)),
        expected_type=INT_HASH,
        expected_value=Lit(5),
        description="strict beta reduction at an unboxed type"),
    ExampleProgram(
        "poly_id_at_int",
        App(TyApp(POLY_ID, INT), boxed_int(9)),
        expected_type=INT,
        expected_value=boxed_int(9),
        description="System F instantiation at a lifted type"),
    ExampleProgram(
        "unbox_boxed",
        App(UNBOX, boxed_int(11)),
        expected_type=INT_HASH,
        expected_value=Lit(11),
        description="case forces and unpacks the box"),
    ExampleProgram(
        "box_unboxed",
        App(BOX, Lit(13)),
        expected_type=INT,
        expected_value=boxed_int(13),
        description="re-boxing an unboxed value"),
    ExampleProgram(
        "box_unbox_roundtrip",
        App(UNBOX, App(BOX, Lit(21))),
        expected_type=INT_HASH,
        expected_value=Lit(21),
        description="boxing then unboxing is the identity"),
    ExampleProgram(
        "twice_identity",
        app(TWICE_INT, ID_INT, boxed_int(4)),
        expected_type=INT,
        expected_value=boxed_int(4),
        description="bTwice's essence at a lifted type"),
    ExampleProgram(
        "apply_hash",
        app(APPLY_HASH, ID_INT_HASH, Lit(8)),
        expected_type=INT_HASH,
        expected_value=Lit(8),
        description="higher-order strict application"),
    ExampleProgram(
        "roundtrip_hash",
        App(ROUNDTRIP_HASH, Lit(2)),
        expected_type=INT_HASH,
        expected_value=Lit(2),
        description="unboxed value boxed, scrutinised, and returned"),
    ExampleProgram(
        "lazy_discards_error",
        App(lam("x", INT, boxed_int(1)),
            App(TyApp(RepApp(ERROR, P), INT), boxed_int(0))),
        expected_type=INT,
        expected_value=boxed_int(1),
        description=("a lazy (pointer-kinded) argument is never forced, so "
                     "the embedded error is discarded — laziness observable "
                     "in the semantics")),
    ExampleProgram(
        "my_error",
        MY_ERROR,
        expected_type=TForallRep(
            "r", TForallType("a", LKind(RepVarL("r")),
                             arrow(INT, TVar("a")))),
        expected_value=None,
        description="the levity-polymorphic myError wrapper typechecks"),
    ExampleProgram(
        "dollar",
        DOLLAR,
        expected_type=DOLLAR_TYPE,
        expected_value=None,
        description="($) with a levity-polymorphic result type"),
    ExampleProgram(
        "dollar_applied_lifted",
        app(TyApp(TyApp(RepApp(DOLLAR, P), INT), INT), ID_INT, boxed_int(6)),
        expected_type=INT,
        expected_value=boxed_int(6),
        description="($) instantiated at lifted types and applied"),
    ExampleProgram(
        "dollar_applied_unboxed_result",
        app(TyApp(TyApp(RepApp(DOLLAR, I), INT), INT_HASH),
            UNBOX, boxed_int(17)),
        expected_type=INT_HASH,
        expected_value=Lit(17),
        description="($) with an unboxed result type — the new generality"),
    ExampleProgram(
        "abs1_style",
        ABS1_STYLE,
        expected_type=TForallRep(
            "r", TForallType("a", LKind(RepVarL("r")),
                             arrow(INT, TVar("a")))),
        expected_value=None,
        description="abs1: no levity-polymorphic binder, accepted"),
    ExampleProgram(
        "error_at_int_hash",
        ERROR_AT_INT_HASH,
        expected_type=INT_HASH,
        diverges=True,
        description="error instantiated at an unboxed type diverges cleanly"),
    ExampleProgram(
        "strict_forces_error",
        App(lam("x", INT_HASH, Lit(1)),
            App(TyApp(RepApp(ERROR, I), INT_HASH), boxed_int(0))),
        expected_type=INT_HASH,
        diverges=True,
        description=("a strict (integer-kinded) argument is forced before "
                     "the call, so the error propagates — strictness "
                     "observable in the semantics")),
)


LEVITY_VIOLATIONS: Tuple[ExampleProgram, ...] = (
    ExampleProgram(
        "levity_poly_id",
        LEVITY_POLY_ID,
        description=("λx:a with a :: TYPE r binds a levity-polymorphic "
                     "variable (Section 5.2's f x = x)")),
    ExampleProgram(
        "levity_poly_twice",
        LEVITY_POLY_TWICE,
        description="bTwice generalised over r is un-compilable (Section 5)"),
    ExampleProgram(
        "abs2_style",
        ABS2_STYLE,
        description=("abs2: the η-expansion of abs1 binds a levity-"
                     "polymorphic x and is rejected (Section 7.3)")),
    ExampleProgram(
        "levity_poly_argument",
        RepLam("r",
               TyLam("a", LKind(RepVarL("r")),
                     lam("f", TArrow(TVar("a"), INT),
                         lam("g", arrow(INT, TVar("a")),
                             App(Var("f"), App(Var("g"), boxed_int(0))))))),
        description=("passing a levity-polymorphic value as a function "
                     "argument violates restriction 2")),
)


ILL_TYPED: Tuple[ExampleProgram, ...] = (
    ExampleProgram(
        "unbound_variable",
        Var("ghost"),
        description="free variable"),
    ExampleProgram(
        "apply_non_function",
        App(Lit(1), Lit(2)),
        description="cannot apply an Int# to anything"),
    ExampleProgram(
        "constructor_wrong_field",
        Con(boxed_int(1)),
        description="I# expects an Int#, not an Int"),
    ExampleProgram(
        "case_on_unboxed",
        Case(Lit(3), "x", Var("x")),
        description="case scrutinee must be a boxed Int"),
    ExampleProgram(
        "argument_type_mismatch",
        App(ID_INT, Lit(3)),
        description="Int expected but Int# supplied"),
    ExampleProgram(
        "kind_mismatch_in_tyapp",
        App(TyApp(POLY_ID, INT_HASH), Lit(1)),
        description=("POLY_ID quantifies over TYPE P; instantiating at Int# "
                     "(kind TYPE I) is the Instantiation Principle violation "
                     "of Section 3.1")),
)
