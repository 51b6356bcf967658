"""Type-directed compilation from L to M (Figure 7 of the paper).

The compilation judgment ``⟦e⟧ᵥΓ ⇝ t`` turns an L expression into an
A-normal-form M expression.  The interesting rules are the two application
rules, which inspect the *kind* of the argument's type:

* ``TYPE P`` — C_APPLAZY: the argument becomes a heap-allocated thunk bound
  by a lazy ``let`` and the function receives a pointer;
* ``TYPE I`` — C_APPINT: the argument is evaluated by a strict ``let!`` and
  the function receives an integer register.

Likewise a λ-abstraction compiles to a pointer-binder λ or an integer-binder
λ depending on the kind of its binder's type (C_LAMPTR / C_LAMINT).  Type
and representation abstractions/applications are erased (C_TLAM, C_TAPP,
C_RLAM, C_RAPP).

The compiler is *partial*: it cannot compile a λ that binds a
levity-polymorphic variable, nor an application whose argument kind is not
concrete, because it would not know which register class to use.  The typing
rules of L (Figure 3) rule those programs out, and the Compilation theorem
(checked executably in :mod:`repro.metatheory.theorems`) states that every
well-typed L program compiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.errors import CompilationError, TypeCheckError
from ..lang_l.syntax import (
    App,
    Case,
    CaseLit,
    Con,
    Context,
    ErrorExpr,
    Fix,
    KIND_INT,
    KIND_PTR,
    Lam,
    LExpr,
    Lit,
    PrimOp,
    RepApp,
    RepLam,
    TyApp,
    TyLam,
    Var,
)
from ..lang_l.typing import kind_of, type_of
from ..lang_m.syntax import (
    M_ERROR,
    MAppLit,
    MAppVar,
    MCase,
    MCaseLit,
    MConVar,
    MExpr,
    MFix,
    MLam,
    MLet,
    MLetStrict,
    MLit,
    MPrimOp,
    MVar,
    MVarRef,
    fresh_integer_var,
    fresh_pointer_var,
)


@dataclass(frozen=True)
class VarEnv:
    """The compilation variable environment ``V``.

    Maps L term variables to M variables.  Freshness side-conditions
    (``p ∉ dom(V)``) hold by construction: every M variable the compiler
    introduces comes from ``fresh_pointer_var`` or ``fresh_integer_var``.
    The paper's ``Γ ∝ V`` compatibility condition — that ``V`` maps each
    term variable bound in ``Γ`` to an M variable of the matching register
    sort — is checked by :meth:`compatible_with`.
    """

    mapping: Tuple[Tuple[str, MVar], ...] = ()

    def lookup(self, name: str) -> Optional[MVar]:
        for source, target in reversed(self.mapping):
            if source == name:
                return target
        return None

    def bind(self, name: str, var: MVar) -> "VarEnv":
        return VarEnv(self.mapping + ((name, var),))

    def compatible_with(self, ctx: Context) -> bool:
        """The paper's ``Γ ∝ V`` condition (used by the Compilation theorem)."""
        for name, type_ in ctx.term_vars:
            target = self.lookup(name)
            if target is None:
                return False
            try:
                kind = kind_of(ctx, type_)
            except TypeCheckError:
                return False
            if kind == KIND_PTR and not target.is_pointer():
                return False
            if kind == KIND_INT and not target.is_integer():
                return False
        return True


@dataclass(frozen=True)
class CompilationResult:
    """A compiled M expression plus bookkeeping useful to tests and benches."""

    code: MExpr
    lazy_lets: int
    strict_lets: int
    erased_type_nodes: int
    fix_forms: int = 0
    primop_forms: int = 0

    def pretty(self) -> str:
        return self.code.pretty()


class Compiler:
    """Stateful driver for the Figure 7 compilation rules."""

    def __init__(self) -> None:
        self.lazy_lets = 0
        self.strict_lets = 0
        self.erased_type_nodes = 0
        self.fix_forms = 0
        self.primop_forms = 0

    def compile(self, ctx: Context, env: VarEnv, expr: LExpr) -> MExpr:
        """Compile ``expr`` under typing context ``ctx`` and environment ``env``."""
        if isinstance(expr, Var):
            target = env.lookup(expr.name)  # C_VAR
            if target is None:
                raise CompilationError(
                    f"variable {expr.name!r} has no M counterpart in V")
            return MVarRef(target)

        if isinstance(expr, Lit):
            return MLit(expr.value)  # C_INTLIT

        if isinstance(expr, ErrorExpr):
            return M_ERROR  # C_ERROR

        if isinstance(expr, App):
            return self._compile_application(ctx, env, expr)

        if isinstance(expr, Lam):
            return self._compile_lambda(ctx, env, expr)

        if isinstance(expr, TyLam):
            # C_TLAM: type abstractions are erased.
            self.erased_type_nodes += 1
            inner_ctx = ctx.bind_type(expr.var, expr.kind)
            return self.compile(inner_ctx, env, expr.body)

        if isinstance(expr, TyApp):
            # C_TAPP: type applications are erased.
            self.erased_type_nodes += 1
            return self.compile(ctx, env, expr.expr)

        if isinstance(expr, RepLam):
            # C_RLAM: representation abstractions are erased.
            self.erased_type_nodes += 1
            return self.compile(ctx.bind_rep(expr.var), env, expr.body)

        if isinstance(expr, RepApp):
            # C_RAPP: representation applications are erased.
            self.erased_type_nodes += 1
            return self.compile(ctx, env, expr.expr)

        if isinstance(expr, Con):
            # C_CON: evaluate the field strictly, then build the box.
            fresh = fresh_integer_var()
            field_code = self.compile(ctx, env, expr.argument)
            self.strict_lets += 1
            return MLetStrict(fresh, field_code, MConVar(fresh))

        if isinstance(expr, Case):
            # C_CASE
            scrutinee_code = self.compile(ctx, env, expr.scrutinee)
            fresh = fresh_integer_var()
            body_ctx = ctx.bind_term(expr.binder, _INT_HASH)
            body_env = env.bind(expr.binder, fresh)
            body_code = self.compile(body_ctx, body_env, expr.body)
            return MCase(scrutinee_code, fresh, body_code)

        if isinstance(expr, Fix):
            # C_FIX: the binder is pointer-kinded (rule E_FIX), so it
            # compiles to a pointer variable that the machine ties through
            # the heap.
            try:
                binder_kind = kind_of(ctx, expr.var_type)
            except TypeCheckError as exc:
                raise CompilationError(
                    f"cannot compile fix {expr.var}: its type does not "
                    f"kind-check ({exc})") from exc
            if binder_kind != KIND_PTR:
                raise CompilationError(
                    f"cannot compile fix {expr.var}: recursion needs a "
                    f"pointer-kinded binder, got {binder_kind.pretty()}")
            fresh = fresh_pointer_var()
            body_ctx = ctx.bind_term(expr.var, expr.var_type)
            body_env = env.bind(expr.var, fresh)
            self.fix_forms += 1
            return MFix(fresh, self.compile(body_ctx, body_env, expr.body))

        if isinstance(expr, PrimOp):
            # C_PRIMOP: every operand is Int#, so each non-literal operand
            # is named by a strict let! (C_APPINT's calling convention) and
            # the primop itself sees only literals and integer registers.
            lets = []
            atoms = []
            for argument in expr.arguments:
                if isinstance(argument, Lit):
                    atoms.append(MLit(argument.value))
                    continue
                fresh = fresh_integer_var()
                code = self.compile(ctx, env, argument)
                lets.append((fresh, code))
                atoms.append(MVarRef(fresh))
            self.primop_forms += 1
            result: MExpr = MPrimOp(expr.name, tuple(atoms))
            for fresh, code in reversed(lets):
                self.strict_lets += 1
                result = MLetStrict(fresh, code, result)
            return result

        if isinstance(expr, CaseLit):
            # C_CASELIT: scrutinee, branches and default all compile in the
            # same environment — literal branches bind nothing.
            return MCaseLit(
                self.compile(ctx, env, expr.scrutinee),
                tuple((literal, self.compile(ctx, env, branch))
                      for literal, branch in expr.alternatives),
                self.compile(ctx, env, expr.default))

        raise CompilationError(f"cannot compile expression {expr!r}")

    # -- the two application rules -------------------------------------------

    def _compile_application(self, ctx: Context, env: VarEnv,
                             expr: App) -> MExpr:
        try:
            argument_type = type_of(ctx, expr.argument)
            argument_kind = kind_of(ctx, argument_type)
        except TypeCheckError as exc:
            raise CompilationError(
                f"cannot compile application: argument does not typecheck "
                f"({exc})") from exc

        if argument_kind == KIND_PTR:
            # C_APPLAZY: let p = t2 in t1 p
            fresh = fresh_pointer_var()
            function_code = self.compile(ctx, env, expr.function)
            argument_code = self.compile(ctx, env, expr.argument)
            self.lazy_lets += 1
            return MLet(fresh, argument_code, MAppVar(function_code, fresh))

        if argument_kind == KIND_INT:
            # C_APPINT: let! i = t2 in t1 i
            fresh = fresh_integer_var()
            function_code = self.compile(ctx, env, expr.function)
            argument_code = self.compile(ctx, env, expr.argument)
            self.strict_lets += 1
            return MLetStrict(fresh, argument_code,
                              MAppVar(function_code, fresh))

        raise CompilationError(
            f"cannot compile application: the argument's kind "
            f"{argument_kind.pretty()} is levity-polymorphic, so the calling "
            "convention is unknown (this is what the Section 5.1 "
            "restrictions rule out)")

    def _compile_lambda(self, ctx: Context, env: VarEnv, expr: Lam) -> MExpr:
        try:
            binder_kind = kind_of(ctx, expr.var_type)
        except TypeCheckError as exc:
            raise CompilationError(
                f"cannot compile λ{expr.var}: its type does not kind-check "
                f"({exc})") from exc

        if binder_kind == KIND_PTR:
            fresh = fresh_pointer_var()  # C_LAMPTR
        elif binder_kind == KIND_INT:
            fresh = fresh_integer_var()  # C_LAMINT
        else:
            raise CompilationError(
                f"cannot compile λ{expr.var}: its type has levity-"
                f"polymorphic kind {binder_kind.pretty()}, so no register "
                "class can be chosen")

        body_ctx = ctx.bind_term(expr.var, expr.var_type)
        body_env = env.bind(expr.var, fresh)
        body_code = self.compile(body_ctx, body_env, expr.body)
        return MLam(fresh, body_code)


# Imported lazily to avoid a cycle at module import time.
from ..lang_l.syntax import INT_HASH as _INT_HASH  # noqa: E402


def compile_expr(expr: LExpr, ctx: Context = Context(),
                 env: VarEnv = VarEnv()) -> CompilationResult:
    """Compile a (typically closed) L expression to M.

    This is the public entry point used by the examples, tests and
    benchmarks.  Raises :class:`CompilationError` when compilation is
    impossible — by the Compilation theorem that only happens for ill-typed
    input.
    """
    compiler = Compiler()
    code = compiler.compile(ctx, env, expr)
    return CompilationResult(code, compiler.lazy_lets, compiler.strict_lets,
                             compiler.erased_type_nodes, compiler.fix_forms,
                             compiler.primop_forms)


def compile_and_run(expr: LExpr, ctx: Context = Context(),
                    max_steps: int = 1_000_000):
    """Compile an L expression and immediately run it on the M machine."""
    from ..lang_m.machine import run as run_machine

    result = compile_expr(expr, ctx)
    return run_machine(result.code, max_steps=max_steps)
