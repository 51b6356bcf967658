"""Lowering checked surface programs into the formal calculus L.

The paper's compilation story (Figure 7) is defined on the *small* calculus
L, which has two base types (``Int``/``Int#``), lambdas, applications, the
``I#`` box constructor and its unboxing ``case`` — now extended with a
fixpoint form, saturated ``Int#`` primops and a literal case.  This module
bridges the surface language to that story: a checked surface binding whose
signature and body stay inside the **L fragment** is lowered to a closed,
explicitly-typed L term, which then flows through the existing ``compile/``
(L→M) and ``lang_m`` machine layers.

The L fragment is now *whole-language* over its types: any program built
from ``Int``/``Int#``/arrows lowers, including recursion and arithmetic.
Concretely:

* types: ``Int``, ``Int#`` and function arrows between fragment types;
* monomorphic bindings (no quantifiers, no constraints);
* expressions: variables, application, annotated lambdas, unboxed integer
  literals, boxed ``I#``-constructed integers (a bare boxed literal ``n``
  lowers to ``I#[n]``), the unboxing ``case e of { I# x -> rhs }``, literal
  cases ``case e of { n1 -> e1; …; _ -> d }`` over ``Int#`` or ``Int``
  scrutinees, the arithmetic/comparison primops of
  :data:`repro.core.primops.INT_PRIMOPS` (saturated or eta-expanded), and
  references to *earlier* fragment bindings (inlined — L has no top-level
  definitions);
* self-recursive bindings lower through L's ``fix`` form.  The only
  recursion still rejected is recursion *at the unboxed type* ``Int#``
  itself (no thunk can tie that knot) and mutual recursion through a later
  binding.

The remaining partiality is type-driven, which is the point: the Section
5.1 restrictions exist precisely so that everything the *type checker*
accepts can be compiled, and the driver reports a structured diagnostic
when a program steps outside the fragment rather than failing mid-compile.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import CompilationError
from ..core.primops import INT_PRIMOPS
from ..infer.schemes import Scheme
from ..lang_l.syntax import (
    App,
    Case,
    CaseLit,
    Con,
    Fix,
    INT,
    INT_HASH,
    LExpr,
    LType,
    Lam,
    Lit,
    PrimOp,
    TArrow,
    Var,
)
from ..surface.ast import (
    EAnn,
    EApp,
    ECase,
    ELam,
    ELet,
    ELitInt,
    ELitIntHash,
    EVar,
    Expr,
    FunBind,
    Module,
)
from ..surface.types import FunTy, INT_HASH_TY, INT_TY, QualTy, SType


class LoweringError(CompilationError):
    """The program is well-typed but outside the compilable L fragment."""


def lower_type(type_: SType) -> LType:
    """Lower a surface type into L (``Int``, ``Int#`` and arrows only)."""
    if type_ == INT_TY:
        return INT
    if type_ == INT_HASH_TY:
        return INT_HASH
    if isinstance(type_, FunTy):
        return TArrow(lower_type(type_.argument), lower_type(type_.result))
    raise LoweringError(
        f"type {type_.pretty()} is outside the L fragment "
        "(only Int, Int# and arrows between them lower)")


def _signature_param_types(scheme: Scheme, params: Sequence[str]
                           ) -> Tuple[List[SType], SType]:
    if scheme.rep_binders or scheme.type_binders or scheme.constraints:
        raise LoweringError(
            "polymorphic bindings are outside the L fragment "
            f"(scheme {scheme.pretty()})")
    current: SType = scheme.body
    if isinstance(current, QualTy):
        raise LoweringError("qualified types are outside the L fragment")
    param_types: List[SType] = []
    for param in params:
        if not isinstance(current, FunTy):
            raise LoweringError(
                f"binding has more parameters than its type "
                f"{scheme.body.pretty()} provides")
        param_types.append(current.argument)
        current = current.result
    return param_types, current


def _primop_lambda(name: str) -> LExpr:
    """Eta-expand a primop: ``op#`` ~~> ``λa1:Int#. … op#(a1, …, ak)``."""
    arity = INT_PRIMOPS[name]
    binders = [f"prim_a{index}" for index in range(arity)]
    body: LExpr = PrimOp(name, tuple(Var(binder) for binder in binders))
    for binder in reversed(binders):
        body = Lam(binder, INT_HASH, body)
    return body


def _literal_pattern(constructor: str) -> Optional[Tuple[int, bool]]:
    """Parse a literal case pattern: ``(value, unboxed)`` or ``None``."""
    text = constructor
    unboxed = text.endswith("#")
    if unboxed:
        text = text[:-1]
    try:
        return int(text), unboxed
    except ValueError:
        return None


class _Lowerer:
    def __init__(self, inline: Dict[str, LExpr],
                 rec_name: Optional[str] = None) -> None:
        self.inline = inline
        self.bound: List[str] = []
        #: Name of the enclosing recursive binding, referring to the
        #: ``fix``-bound variable (checked after ``bound`` so parameters
        #: and local binders shadow it correctly).
        self.rec_name = rec_name

    def _is_primop(self, name: str) -> bool:
        return (name in INT_PRIMOPS
                and name not in self.bound
                and name != self.rec_name
                and name not in self.inline)

    def lower(self, expr: Expr) -> LExpr:
        if isinstance(expr, EVar):
            if expr.name in self.bound:
                return Var(expr.name)
            if expr.name == self.rec_name:
                return Var(expr.name)
            inlined = self.inline.get(expr.name)
            if inlined is not None:
                return inlined
            if self._is_primop(expr.name):
                return _primop_lambda(expr.name)
            raise LoweringError(
                f"variable {expr.name!r} is outside the L fragment "
                "(not a parameter, an earlier fragment binding, or a "
                "primop)")

        if isinstance(expr, ELitIntHash):
            return Lit(expr.value)

        if isinstance(expr, ELitInt):
            # A boxed literal is sugar for I#[n] in L.
            return Con(Lit(expr.value))

        if isinstance(expr, EAnn):
            return self.lower(expr.expr)

        if isinstance(expr, EApp):
            head, arguments = _application_spine(expr)
            if isinstance(head, EVar):
                if head.name == "I#" and "I#" not in self.bound \
                        and len(arguments) == 1:
                    return Con(self.lower(arguments[0]))
                if self._is_primop(head.name) \
                        and len(arguments) == INT_PRIMOPS[head.name]:
                    # A saturated primop application lowers directly; an
                    # undersaturated one falls through to the eta-expanded
                    # lambda from the EVar case.
                    return PrimOp(head.name,
                                  tuple(self.lower(a) for a in arguments))
            return App(self.lower(expr.function), self.lower(expr.argument))

        if isinstance(expr, ELam):
            if expr.annotation is None:
                raise LoweringError(
                    f"lambda binder {expr.var!r} needs a type annotation to "
                    "lower into the explicitly-typed L")
            self.bound.append(expr.var)
            try:
                body = self.lower(expr.body)
            finally:
                self.bound.pop()
            return Lam(expr.var, lower_type(expr.annotation), body)

        if isinstance(expr, ECase):
            return self._lower_case(expr)

        if isinstance(expr, ELet):
            # let x = rhs in body  ~~>  (\x:t. body) rhs needs a type; only
            # annotated lets lower.
            if expr.signature is None:
                raise LoweringError(
                    f"let binder {expr.var!r} needs a type signature to "
                    "lower into L")
            self.bound.append(expr.var)
            try:
                body = self.lower(expr.body)
            finally:
                self.bound.pop()
            rhs = self.lower(expr.rhs)
            return App(Lam(expr.var, lower_type(expr.signature), body), rhs)

        raise LoweringError(
            f"expression {expr.pretty()!r} is outside the L fragment")

    def _lower_case(self, expr: ECase) -> LExpr:
        alternatives = expr.alternatives
        if len(alternatives) == 1 and \
                alternatives[0].constructor == "I#" and \
                len(alternatives[0].binders) == 1:
            scrutinee = self.lower(expr.scrutinee)
            binder = alternatives[0].binders[0]
            self.bound.append(binder)
            try:
                body = self.lower(alternatives[0].rhs)
            finally:
                self.bound.pop()
            return Case(scrutinee, binder, body)

        literal_alts: List[Tuple[int, LExpr]] = []
        default: Optional[LExpr] = None
        unboxed_scrutinee: Optional[bool] = None
        for alternative in alternatives:
            if alternative.constructor == "_":
                default = self.lower(alternative.rhs)
                break  # a wildcard matches everything; later alts are dead
            pattern = _literal_pattern(alternative.constructor)
            if pattern is None or alternative.binders:
                raise LoweringError(
                    "only the unboxing case e of { I# x -> rhs } and "
                    "literal cases case e of { n -> rhs; ...; _ -> rhs } "
                    "are in the L fragment")
            value, unboxed = pattern
            if unboxed_scrutinee is None:
                unboxed_scrutinee = unboxed
            elif unboxed_scrutinee != unboxed:
                raise LoweringError(
                    "literal case mixes boxed and unboxed patterns")
            literal_alts.append((value, self.lower(alternative.rhs)))
        if default is None:
            raise LoweringError(
                "literal case needs a final wildcard alternative (_ -> rhs) "
                "to lower into L")
        scrutinee = self.lower(expr.scrutinee)
        if unboxed_scrutinee is None or unboxed_scrutinee:
            # All-wildcard cases can only arise from an Int# scrutinee in
            # practice; either way a strict CaseLit keeps the evaluation
            # order of the surface case.
            return CaseLit(scrutinee, tuple(literal_alts), default)
        # Boxed literal patterns: unbox once, then branch on the field.
        avoid = {name for _, branch in literal_alts
                 for name in branch.free_vars()} | set(default.free_vars())
        binder = "unboxed"
        while binder in avoid:
            binder += "'"
        return Case(scrutinee, binder,
                    CaseLit(Var(binder), tuple(literal_alts), default))


def _application_spine(expr: Expr) -> Tuple[Expr, List[Expr]]:
    """Unwind nested applications: ``f a b`` ~~> ``(f, [a, b])``."""
    arguments: List[Expr] = []
    current = expr
    while isinstance(current, EApp):
        arguments.append(current.argument)
        current = current.function
    arguments.reverse()
    return current, arguments


def lower_binding(bind: FunBind, scheme: Scheme,
                  inline: Dict[str, LExpr]) -> LExpr:
    """Lower one checked binding to a closed L term.

    ``inline`` maps earlier top-level fragment bindings to their (closed)
    lowered terms; occurrences are inlined because L has no top-level
    definition form.  A self-recursive binding is closed by wrapping it in
    L's ``fix``: parameters that *shadow* the binding's own name simply
    win (the parameter list is scoped inside the ``fix`` binder), so
    shadowing needs no special case — scope resolution is the
    alpha-renaming.
    """
    param_types, _ = _signature_param_types(scheme, bind.params)
    recursive = bind.name in bind.rhs.free_vars() - frozenset(bind.params)
    if recursive:
        binding_type = lower_type(scheme.body)
        if binding_type == INT_HASH:
            raise LoweringError(
                f"binding {bind.name!r} is recursive at the unboxed type "
                "Int#; there is no fixpoint at kind TYPE I — fix needs a "
                "thunkable pointer-kinded binder")
    lowerer = _Lowerer(inline, rec_name=bind.name if recursive else None)
    lowerer.bound.extend(bind.params)
    body = lowerer.lower(bind.rhs)
    for param, param_type in zip(reversed(bind.params),
                                 reversed(param_types)):
        body = Lam(param, lower_type(param_type), body)
    if recursive:
        body = Fix(bind.name, binding_type, body)
    return body


def lower_entry(module: Module, schemes: Dict[str, Scheme],
                entry: str = "main") -> LExpr:
    """Lower ``entry`` (with earlier fragment bindings inlined) to L.

    Walks the module in declaration order, lowering every binding that
    stays inside the fragment so later bindings may reference it; bindings
    outside the fragment are skipped unless they are the entry itself.
    """
    inline: Dict[str, LExpr] = {}
    entry_term: Optional[LExpr] = None
    for name, bind in module.bindings().items():
        scheme = schemes.get(name)
        if scheme is None:
            continue
        try:
            lowered = lower_binding(bind, scheme, inline)
        except LoweringError:
            if name == entry:
                raise
            continue
        inline[name] = lowered
        if name == entry:
            entry_term = lowered
    if entry_term is None:
        raise LoweringError(f"no binding named {entry!r} to lower")
    return entry_term


def lower_checked(check, entry: str = "main") -> LExpr:
    """Lower ``entry`` of a complete check result (``check.parsed`` set)
    through :func:`lower_entry`, with the schemes its bindings carry."""
    schemes = {binding.name: binding.scheme for binding in check.bindings
               if binding.scheme is not None}
    return lower_entry(check.parsed.module, schemes, entry)
