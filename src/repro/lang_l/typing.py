"""Typing judgments of L (Figure 3 of the paper).

Three mutually supporting judgments are implemented:

* ``Γ ⊢ κ kind``   — kind validity (:func:`check_kind`);
* ``Γ ⊢ τ : κ``    — type validity / kinding (:func:`kind_of`);
* ``Γ ⊢ e : τ``    — term validity / typing (:func:`type_of`).

The levity-polymorphism restrictions of Section 5.1 appear as the
highlighted premises of rules **E_APP** and **E_LAM**: the argument type and
the λ-bound variable's type must both have a kind ``TYPE υ`` with ``υ``
*concrete* (either ``P`` or ``I``, never a representation variable).
Violations are reported with the dedicated exceptions from
:mod:`repro.core.errors` so callers can distinguish "ordinary" type errors
from levity-polymorphism errors.
"""

from __future__ import annotations

from typing import Optional

from ..core.errors import (
    KindError,
    LevityPolymorphicArgument,
    LevityPolymorphicBinder,
    ScopeError,
    TypeCheckError,
)
from ..core.primops import INT_PRIMOPS
from .syntax import (
    App,
    Case,
    CaseLit,
    Con,
    Fix,
    PrimOp,
    Context,
    ErrorExpr,
    I,
    KIND_INT,
    KIND_PTR,
    Lam,
    LExpr,
    Lit,
    LKind,
    LRep,
    LType,
    P,
    RepApp,
    RepLam,
    RepVarL,
    TArrow,
    TForallRep,
    TForallType,
    TInt,
    TIntHash,
    TVar,
    TyApp,
    TyLam,
    Var,
    INT,
    INT_HASH,
)

# ---------------------------------------------------------------------------
# Kind validity: Γ ⊢ κ kind
# ---------------------------------------------------------------------------


def check_kind(ctx: Context, kind: LKind) -> None:
    """Check ``Γ ⊢ κ kind`` (rules K_CONST and K_VAR).

    A kind is valid when its representation is concrete (K_CONST) or is a
    representation variable bound in ``Γ`` (K_VAR).
    """
    rep = kind.rep
    if rep.is_concrete():
        return  # K_CONST
    if isinstance(rep, RepVarL):
        if ctx.has_rep(rep.name):
            return  # K_VAR
        raise ScopeError(
            f"representation variable {rep.name!r} is not in scope")
    raise KindError(f"ill-formed kind {kind.pretty()}")


# ---------------------------------------------------------------------------
# Type validity: Γ ⊢ τ : κ
# ---------------------------------------------------------------------------


def kind_of(ctx: Context, type_: LType) -> LKind:
    """Compute the kind of ``type_`` in ``ctx`` (the ``Γ ⊢ τ : κ`` judgment).

    Raises :class:`TypeCheckError` (or a subclass) if the type is ill-formed.
    """
    if isinstance(type_, TInt):
        return KIND_PTR  # T_INT:  Γ ⊢ Int : TYPE P
    if isinstance(type_, TIntHash):
        return KIND_INT  # T_INTH: Γ ⊢ Int# : TYPE I
    if isinstance(type_, TVar):
        kind = ctx.lookup_type(type_.name)  # T_VAR
        if kind is None:
            raise ScopeError(f"type variable {type_.name!r} is not in scope")
        return kind
    if isinstance(type_, TArrow):
        # T_ARROW: both sides must be well-kinded (at *any* kind, possibly a
        # levity-polymorphic one), and the arrow itself is boxed and lifted.
        kind_of(ctx, type_.argument)
        kind_of(ctx, type_.result)
        return KIND_PTR
    if isinstance(type_, TForallType):
        # T_ALLTY: the forall has the kind of its body, supporting type
        # erasure (Section 6.1).
        check_kind(ctx, type_.kind)
        return kind_of(ctx.bind_type(type_.var, type_.kind), type_.body)
    if isinstance(type_, TForallRep):
        # T_ALLREP: the body kind must not mention the bound rep variable,
        # otherwise the representation would escape its binder.
        body_kind = kind_of(ctx.bind_rep(type_.var), type_.body)
        if (isinstance(body_kind.rep, RepVarL)
                and body_kind.rep.name == type_.var):
            raise KindError(
                f"the kind of the body of {type_.pretty()} mentions the "
                f"quantified representation variable {type_.var!r} "
                "(premise κ ≠ TYPE r of rule T_ALLREP)")
        return body_kind
    raise TypeCheckError(f"unknown type form: {type_!r}")


def _require_concrete_kind(ctx: Context, type_: LType, *, role: str,
                           exception: type) -> LKind:
    """The highlighted premise ``Γ ⊢ τ : TYPE υ`` of E_APP / E_LAM."""
    kind = kind_of(ctx, type_)
    if not kind.is_concrete():
        raise exception(
            f"{role} has type {type_.pretty()} whose kind {kind.pretty()} is "
            "levity-polymorphic (Section 5.1 restriction)")
    return kind


# ---------------------------------------------------------------------------
# Term validity: Γ ⊢ e : τ
# ---------------------------------------------------------------------------

#: The type of ``error``:  ∀r. ∀α:TYPE r. Int → α   (rule E_ERROR).
ERROR_TYPE: LType = TForallRep(
    "r", TForallType("a", LKind(RepVarL("r")), TArrow(INT, TVar("a"))))


def type_of(ctx: Context, expr: LExpr) -> LType:
    """Compute the type of ``expr`` in ``ctx`` (the ``Γ ⊢ e : τ`` judgment).

    Implements every rule of Figure 3's term-validity judgment.  Raises
    :class:`TypeCheckError` (or one of its levity-specific subclasses) when
    the expression is ill-typed.
    """
    if isinstance(expr, Var):
        type_ = ctx.lookup_term(expr.name)  # E_VAR
        if type_ is None:
            raise ScopeError(f"variable {expr.name!r} is not in scope")
        return type_

    if isinstance(expr, Lit):
        return INT_HASH  # E_INTLIT

    if isinstance(expr, Con):
        argument_type = type_of(ctx, expr.argument)  # E_CON
        if argument_type != INT_HASH:
            raise TypeCheckError(
                f"I# expects an Int# argument, got {argument_type.pretty()}")
        return INT

    if isinstance(expr, App):
        function_type = type_of(ctx, expr.function)  # E_APP
        if not isinstance(function_type, TArrow):
            raise TypeCheckError(
                f"cannot apply non-function of type {function_type.pretty()}")
        argument_type = type_of(ctx, expr.argument)
        if argument_type != function_type.argument:
            raise TypeCheckError(
                f"argument type mismatch: expected "
                f"{function_type.argument.pretty()}, got "
                f"{argument_type.pretty()}")
        _require_concrete_kind(ctx, function_type.argument,
                               role="function argument",
                               exception=LevityPolymorphicArgument)
        return function_type.result

    if isinstance(expr, Lam):
        _require_concrete_kind(ctx, expr.var_type,  # E_LAM
                               role=f"lambda binder {expr.var!r}",
                               exception=LevityPolymorphicBinder)
        body_type = type_of(ctx.bind_term(expr.var, expr.var_type), expr.body)
        return TArrow(expr.var_type, body_type)

    if isinstance(expr, TyLam):
        check_kind(ctx, expr.kind)  # E_TLAM
        body_type = type_of(ctx.bind_type(expr.var, expr.kind), expr.body)
        return TForallType(expr.var, expr.kind, body_type)

    if isinstance(expr, TyApp):
        expr_type = type_of(ctx, expr.expr)  # E_TAPP
        if not isinstance(expr_type, TForallType):
            raise TypeCheckError(
                f"cannot apply expression of type {expr_type.pretty()} to a "
                "type argument")
        argument_kind = kind_of(ctx, expr.type_argument)
        if argument_kind != expr_type.kind:
            raise KindError(
                f"kind mismatch in type application: expected "
                f"{expr_type.kind.pretty()}, got {argument_kind.pretty()}")
        return expr_type.body.substitute_type(expr_type.var,
                                              expr.type_argument)

    if isinstance(expr, RepLam):
        body_type = type_of(ctx.bind_rep(expr.var), expr.body)  # E_RLAM
        return TForallRep(expr.var, body_type)

    if isinstance(expr, RepApp):
        expr_type = type_of(ctx, expr.expr)  # E_RAPP
        if not isinstance(expr_type, TForallRep):
            raise TypeCheckError(
                f"cannot apply expression of type {expr_type.pretty()} to a "
                "representation argument")
        _check_rep_in_scope(ctx, expr.rep_argument)
        return expr_type.body.substitute_rep(expr_type.var,
                                             expr.rep_argument)

    if isinstance(expr, Case):
        scrutinee_type = type_of(ctx, expr.scrutinee)  # E_CASE
        if scrutinee_type != INT:
            raise TypeCheckError(
                f"case scrutinee must have type Int, got "
                f"{scrutinee_type.pretty()}")
        return type_of(ctx.bind_term(expr.binder, INT_HASH), expr.body)

    if isinstance(expr, Fix):
        # E_FIX: the binder must be pointer-kinded — unrolling ties the
        # knot through a thunk, and there is no thunk at TYPE I.
        kind = kind_of(ctx, expr.var_type)
        if kind != KIND_PTR:
            raise TypeCheckError(
                f"fix binder {expr.var!r} has type {expr.var_type.pretty()} "
                f"of kind {kind.pretty()}; recursion needs a pointer-kinded "
                "(TYPE P) binder")
        body_type = type_of(ctx.bind_term(expr.var, expr.var_type), expr.body)
        if body_type != expr.var_type:
            raise TypeCheckError(
                f"fix body has type {body_type.pretty()}, expected the "
                f"binder type {expr.var_type.pretty()}")
        return expr.var_type

    if isinstance(expr, PrimOp):
        arity = INT_PRIMOPS.get(expr.name)  # E_PRIMOP
        if arity is None:
            raise TypeCheckError(f"unknown primop {expr.name!r}")
        if len(expr.arguments) != arity:
            raise TypeCheckError(
                f"primop {expr.name!r} expects {arity} arguments, got "
                f"{len(expr.arguments)}")
        for argument in expr.arguments:
            argument_type = type_of(ctx, argument)
            if argument_type != INT_HASH:
                raise TypeCheckError(
                    f"primop {expr.name!r} expects Int# arguments, got "
                    f"{argument_type.pretty()}")
        return INT_HASH

    if isinstance(expr, CaseLit):
        scrutinee_type = type_of(ctx, expr.scrutinee)  # E_CASELIT
        if scrutinee_type != INT_HASH:
            raise TypeCheckError(
                f"literal-case scrutinee must have type Int#, got "
                f"{scrutinee_type.pretty()}")
        result_type = type_of(ctx, expr.default)
        for literal, branch in expr.alternatives:
            branch_type = type_of(ctx, branch)
            if branch_type != result_type:
                raise TypeCheckError(
                    f"literal-case branch {literal} has type "
                    f"{branch_type.pretty()}, expected "
                    f"{result_type.pretty()}")
        return result_type

    if isinstance(expr, ErrorExpr):
        return ERROR_TYPE  # E_ERROR

    raise TypeCheckError(f"unknown expression form: {expr!r}")


def _check_rep_in_scope(ctx: Context, rep: LRep) -> None:
    for name in rep.free_rep_vars():
        if not ctx.has_rep(name):
            raise ScopeError(
                f"representation variable {name!r} is not in scope")


def typechecks(expr: LExpr, ctx: Context = Context()) -> bool:
    """Boolean wrapper around :func:`type_of`."""
    try:
        type_of(ctx, expr)
        return True
    except TypeCheckError:
        return False
