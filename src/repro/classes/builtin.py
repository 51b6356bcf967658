"""Built-in levity-polymorphic classes and instances (Section 7.3).

This module constructs, programmatically, the declarations the paper uses:

* the **generalised** ``Num`` class, ``class Num (a :: TYPE r)``, with
  ``(+)``, ``(-)``, ``(*)``, ``negate`` and ``abs``;
* the generalised ``Eq`` class (``(==)`` returning ``Bool``) — another of
  the 34 generalisable classes of Section 8.1;
* the classic, lifted-only versions of both (``a :: Type``), used as the
  baseline for comparisons;
* instances ``Num Int#``, ``Num Double#``, ``Num Int`` (the boxed one defined
  exactly as in Section 2.1 via pattern matching on ``I#``), and matching
  ``Eq`` instances;
* the ``abs1``/``abs2`` pair of Section 7.3.

Everything is ordinary surface syntax, so the same declarations flow through
inference, the levity checks, dictionary elaboration and the cost-model
runtime.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.kinds import REP_KIND, TYPE_LIFTED, TypeKind
from ..core.rep import RepVar
from ..infer.schemes import Scheme, TypeEnv
from ..surface.ast import (
    Alternative,
    ClassDecl,
    ECase,
    EApp,
    ELam,
    EVar,
    Expr,
    FunBind,
    InstanceDecl,
    apply,
    lams,
)
from ..surface.types import (
    BOOL_TY,
    Binder,
    ClassConstraint,
    DOUBLE_HASH_TY,
    ForAllTy,
    FunTy,
    INT_HASH_TY,
    INT_TY,
    SType,
    TyVar,
    fun,
    rep_var_kind,
)
from .declarations import ClassEnv, ClassInfo


def _class_var(levity_polymorphic: bool) -> Tuple[Tuple[Binder, ...], Binder, SType]:
    """The class-variable binder for the generalised or classic form."""
    if levity_polymorphic:
        kind = rep_var_kind("r")
        return (Binder("r", REP_KIND),), Binder("a", kind), TyVar("a", kind)
    return (), Binder("a", TYPE_LIFTED), TyVar("a")


def make_num_class(levity_polymorphic: bool = True) -> ClassDecl:
    """``class Num (a :: TYPE r)`` (or the classic ``a :: Type`` version)."""
    rep_binders, class_binder, a = _class_var(levity_polymorphic)
    return ClassDecl(
        name="Num",
        class_var="a",
        class_var_binder=class_binder,
        class_var_kind_binders=rep_binders,
        methods=(
            ("+", fun(a, a, a)),
            ("-", fun(a, a, a)),
            ("*", fun(a, a, a)),
            ("negate", fun(a, a)),
            ("abs", fun(a, a)),
        ))


def make_eq_class(levity_polymorphic: bool = True) -> ClassDecl:
    """``class Eq (a :: TYPE r)`` with ``(==)`` and ``(/=)``."""
    rep_binders, class_binder, a = _class_var(levity_polymorphic)
    return ClassDecl(
        name="Eq",
        class_var="a",
        class_var_binder=class_binder,
        class_var_kind_binders=rep_binders,
        methods=(
            ("==", fun(a, a, BOOL_TY)),
            ("/=", fun(a, a, BOOL_TY)),
        ))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def _int_hash_bool(primop: str) -> Expr:
    """Wrap an ``Int#``-returning comparison primop into a Bool result."""
    return lams(["x", "y"],
                ECase(apply(EVar(primop), EVar("x"), EVar("y")),
                      [Alternative("1#", [], EVar("True")),
                       Alternative("_", [], EVar("False"))]))


def num_int_hash_instance() -> InstanceDecl:
    """``instance Num Int#`` — the Section 7.3 example, method by method."""
    return InstanceDecl(
        "Num", INT_HASH_TY,
        methods=(
            ("+", EVar("+#")),
            ("-", EVar("-#")),
            ("*", EVar("*#")),
            ("negate", EVar("negateInt#")),
            # abs n | n <# 0# = negateInt# n | otherwise = n
            ("abs", ELam("n",
                         ECase(apply(EVar("<#"), EVar("n"), ELitIntHash0()),
                               [Alternative("1#", [],
                                            EApp(EVar("negateInt#"),
                                                 EVar("n"))),
                                Alternative("_", [], EVar("n"))]))),
        ))


def num_double_hash_instance() -> InstanceDecl:
    """``instance Num Double#`` over the ``Double#`` primops."""
    return InstanceDecl(
        "Num", DOUBLE_HASH_TY,
        methods=(
            ("+", EVar("+##")),
            ("-", EVar("-##")),
            ("*", EVar("*##")),
            ("negate", EVar("negateDouble#")),
            ("abs", ELam("d",
                         ECase(apply(EVar("<##"), EVar("d"),
                                     ELitDoubleHash0()),
                               [Alternative("1#", [],
                                            EApp(EVar("negateDouble#"),
                                                 EVar("d"))),
                                Alternative("_", [], EVar("d"))]))),
        ))


def num_int_instance() -> InstanceDecl:
    """``instance Num Int`` via unboxing, exactly as ``plusInt`` in §2.1."""

    def boxed_binop(primop: str) -> Expr:
        return lams(["x", "y"],
                    ECase(EVar("x"),
                          [Alternative("I#", ["i1"],
                                       ECase(EVar("y"),
                                             [Alternative(
                                                 "I#", ["i2"],
                                                 EApp(EVar("I#"),
                                                      apply(EVar(primop),
                                                            EVar("i1"),
                                                            EVar("i2"))))]))]))

    def boxed_unop(primop: str) -> Expr:
        return ELam("x",
                    ECase(EVar("x"),
                          [Alternative("I#", ["i"],
                                       EApp(EVar("I#"),
                                            EApp(EVar(primop), EVar("i"))))]))

    abs_impl = ELam(
        "x",
        ECase(EVar("x"),
              [Alternative("I#", ["i"],
                           ECase(apply(EVar("<#"), EVar("i"), ELitIntHash0()),
                                 [Alternative("1#", [],
                                              EApp(EVar("I#"),
                                                   EApp(EVar("negateInt#"),
                                                        EVar("i")))),
                                  Alternative("_", [], EVar("x"))]))]))

    return InstanceDecl(
        "Num", INT_TY,
        methods=(
            ("+", boxed_binop("+#")),
            ("-", boxed_binop("-#")),
            ("*", boxed_binop("*#")),
            ("negate", boxed_unop("negateInt#")),
            ("abs", abs_impl),
        ))


def eq_int_hash_instance() -> InstanceDecl:
    return InstanceDecl(
        "Eq", INT_HASH_TY,
        methods=(("==", _int_hash_bool("==#")),
                 ("/=", _int_hash_bool("/=#"))))


def eq_int_instance() -> InstanceDecl:
    def boxed_cmp(primop: str) -> Expr:
        return lams(["x", "y"],
                    ECase(EVar("x"),
                          [Alternative("I#", ["i1"],
                                       ECase(EVar("y"),
                                             [Alternative(
                                                 "I#", ["i2"],
                                                 ECase(apply(EVar(primop),
                                                             EVar("i1"),
                                                             EVar("i2")),
                                                       [Alternative(
                                                           "1#", [],
                                                           EVar("True")),
                                                        Alternative(
                                                            "_", [],
                                                            EVar("False"))]))]))]))

    return InstanceDecl(
        "Eq", INT_TY,
        methods=(("==", boxed_cmp("==#")), ("/=", boxed_cmp("/=#"))))


# Small helpers so the instance builders above read like the paper.

def ELitIntHash0() -> Expr:
    from ..surface.ast import ELitIntHash
    return ELitIntHash(0)


def ELitDoubleHash0() -> Expr:
    from ..surface.ast import ELitDoubleHash
    return ELitDoubleHash(0.0)


# ---------------------------------------------------------------------------
# abs1 / abs2 (Section 7.3)
# ---------------------------------------------------------------------------

def _abs_signature() -> SType:
    """``forall (r :: Rep) (a :: TYPE r). Num a => a -> a``."""
    from ..surface.types import QualTy

    a = TyVar("a", rep_var_kind("r"))
    return ForAllTy(
        (Binder("r", REP_KIND), Binder("a", rep_var_kind("r"))),
        QualTy((ClassConstraint("Num", a),), fun(a, a)))


#: ``abs1, abs2 :: forall (r :: Rep) (a :: TYPE r). Num a => a -> a``
ABS_SIGNATURE: SType = _abs_signature()

#: ``abs1 = abs`` — accepted (no levity-polymorphic binder).
ABS1_BINDING = FunBind("abs1", (), EVar("abs"))
#: ``abs2 x = abs x`` — rejected (binds the levity-polymorphic ``x``).
ABS2_BINDING = FunBind("abs2", ("x",), EApp(EVar("abs"), EVar("x")))


# ---------------------------------------------------------------------------
# Assembled environments
# ---------------------------------------------------------------------------


def standard_class_env(levity_polymorphic: bool = True,
                       inferencer=None,
                       env: TypeEnv = None) -> ClassEnv:
    """A class environment with Num/Eq registered and their instances.

    With ``levity_polymorphic=False`` only the lifted instances are legal —
    registering ``Num Int#`` then raises, which is the pre-levity-polymorphism
    world the paper is escaping (see the E8 bench and the classes tests).
    """
    class_env = ClassEnv()
    class_env.register_class(make_num_class(levity_polymorphic))
    class_env.register_class(make_eq_class(levity_polymorphic))
    class_env.register_instance(num_int_instance(), inferencer, env)
    class_env.register_instance(eq_int_instance(), inferencer, env)
    if levity_polymorphic:
        class_env.register_instance(num_int_hash_instance(), inferencer, env)
        class_env.register_instance(num_double_hash_instance(), inferencer,
                                    env)
        class_env.register_instance(eq_int_hash_instance(), inferencer, env)
    return class_env
