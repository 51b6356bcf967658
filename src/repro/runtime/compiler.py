"""Closure-compilation backend: lower type-checked bindings to Python closures.

The tree-walking :class:`~repro.runtime.evaluator.Evaluator` rediscovers the
paper's calling conventions on every step — it re-dispatches on AST node
type, re-derives parameter strictness from the callee, and re-resolves names
through a fallback chain.  This module compiles each type-checked
``FunBind`` *once* into a nested Python closure in which all of that is
baked in at compile time:

* variable access is a Python local (an "environment index"), not a dict
  lookup;
* parameter strictness comes from the scheme's kinds — unboxed/unlifted
  arguments are forced at the call site, lifted arguments are passed as
  pointers (thunked only when the tree-walker would thunk them);
* saturated primop applications call the primop implementation directly;
* literals, nullary constructors and other compile-time-known values are
  pre-built constants;
* saturated tail calls to top-level functions return a :class:`TailCall`
  token that a trampoline in :meth:`CompiledFunction.call` dispatches
  without growing the Python stack.

The compiler's unit of output is *Python source text* (one ``_bind``
definition per binding), which the per-unit codegen cache in
``driver/batch.py`` stores (``codegen`` keys in the cache database,
``driver/store.py``).  Of a binding's three phases, generating its source
is the cheap one (~55 µs for a typical binding under CPython 3.11);
CPython's ``compile()`` of that source costs several times more (~240 µs)
and runs on every load, cached or not; ``exec`` costs ~2 µs.  So
:class:`CompiledProgram` links lazily: a binding is lowered (or taken from
the cache), compiled and linked the first time the running program looks
it up, and a run pays for the bindings it reaches and no others.  The
generated code runs against the same heap and the same value
types as the tree-walker, so compiled and interpreted closures mix freely
(a compiled function may call an interpreted one and vice versa) and every
observable value — including the printed form of closures, thunks and
constructor cells — is identical.  Only the cost counters differ: the
compiled path models no costs, which is the point.

Every surface expression compiles, and a stale or corrupt cached source is
re-lowered from the AST, so ``compiled=True`` is always safe to request.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from ..telemetry import REGISTRY as _REGISTRY, TRACER as _TRACER
from ..surface.ast import (
    EAnn,
    EApp,
    EBool,
    ECase,
    EIf,
    ELam,
    ELet,
    ELitChar,
    ELitDoubleHash,
    ELitInt,
    ELitIntHash,
    ELitString,
    EUnboxedTuple,
    EVar,
    Expr,
)
from .evaluator import (
    CONSTRUCTOR_ARITIES,
    PRIMOP_TABLE,
    _BOXED_HELPERS,
    _is_strict_type,
    ProgramFunction,
)
from .values import (
    CompiledClosure,
    ConstructorCell,
    HeapRef,
    StringValue,
    Thunk,
    UnboxedDouble,
    UnboxedInt,
    UnboxedTupleValue,
)

__all__ = [
    "CompiledFunction",
    "CompiledProgram",
    "TailCall",
    "generate_function_source",
    "generate_expression_source",
    "CODEGEN_VERSION",
]

#: Bump when the code generator's output changes shape: the driver folds this
#: into the on-disk codegen cache key, so stale generated code is never
#: re-linked after a compiler change.
CODEGEN_VERSION = 2

# ---------------------------------------------------------------------------
# Runtime pieces referenced by generated code
# ---------------------------------------------------------------------------


class TailCall:
    """A saturated tail call, returned to the trampoline instead of made."""

    __slots__ = ("target", "args")

    def __init__(self, target, args):
        self.target = target
        self.args = args


class CompiledFunction:
    """A compiled top-level binding (or lambda) with its convention baked in."""

    __slots__ = ("name", "arity", "param_strict", "body", "runtime",
                 "_coerce", "_value_ref")

    def __init__(self, name: str, arity: int, param_strict: Tuple[bool, ...],
                 body: Callable, runtime) -> None:
        self.name = name
        self.arity = arity
        self.param_strict = param_strict
        self.body = body
        self.runtime = runtime           # the owning Evaluator
        self._coerce = any(param_strict)
        self._value_ref = None

    def call(self, *args):
        """Enter the function with *unprepared* arguments.

        Arguments arriving from generic application sites are coerced here
        to the baked calling convention (strict parameters forced).  Tail
        calls emitted by the code generator skip this: their arguments were
        already prepared at the call site, so the trampoline below jumps
        straight to the target's body.
        """
        if _REGISTRY.enabled:
            _REGISTRY.counter("runtime.compiled_calls").inc()
        if self._coerce:
            force = self.runtime.force
            args = tuple(force(a) if s else a
                         for s, a in zip(self.param_strict, args))
        result = self.body(*args)
        if type(result) is TailCall:
            # Telemetry decides the loop variant *once* before bouncing:
            # the disabled trampoline is byte-identical to the untraced
            # original (one attribute load + branch per call, not per
            # bounce).
            if _REGISTRY.enabled:
                return self._bounce_counted(result)
            while type(result) is TailCall:
                result = result.target.body(*result.args)
        return result

    def _bounce_counted(self, result):
        """The metered trampoline (``runtime.trampoline_bounces``)."""
        bounces = 0
        while type(result) is TailCall:
            bounces += 1
            result = result.target.body(*result.args)
        _REGISTRY.counter("runtime.trampoline_bounces").inc(bounces)
        return result

    def value_ref(self):
        """The function as a heap value (memoised, statically allocated).

        Zero-parameter bindings are CAFs: referencing one hands out a thunk
        over its body, exactly like the tree-walker.
        """
        ref = self._value_ref
        if ref is None:
            if self.arity == 0:
                obj = Thunk(lambda: self.call())
            else:
                obj = CompiledClosure(self)
            ref = self.runtime.heap.allocate(obj, static=True)
            self._value_ref = ref
        return ref


def _boxed_is(force, obj, want: int) -> bool:
    """Does a (forced) heap object match a boxed integer-literal pattern?"""
    if isinstance(obj, ConstructorCell) and obj.constructor == "I#":
        field = force(obj.fields[0])
        return isinstance(field, UnboxedInt) and field.value == want
    return False


#: Names the generated code resolves through the evaluator at link time —
#: everything here is resolvable without raising, so the lookup is safe to
#: hoist out of the function body.
def _is_safe_global(name: str) -> bool:
    return (name in PRIMOP_TABLE or name in CONSTRUCTOR_ARITIES
            or name in _BOXED_HELPERS
            or name in ("appendString", "error", "errorWithoutStackTrace"))


_LITERALS = (ELitInt, ELitIntHash, ELitDoubleHash, ELitChar, ELitString,
             EBool)


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


#: Arity and parameter strictness of every top-level binding, by name: what
#: a call site needs to know about its callee.
Signatures = Dict[str, Tuple[int, Tuple[bool, ...]]]


def _unwrap(expr: Expr) -> Expr:
    while isinstance(expr, EAnn):
        expr = expr.expr
    return expr


def _flatten(expr: EApp) -> Tuple[Expr, List[Expr]]:
    args: List[Expr] = []
    head: Expr = expr
    while isinstance(head, EApp):
        args.append(head.argument)
        head = head.function
    args.reverse()
    return head, args


class _Emitter:
    def __init__(self, known: Signatures) -> None:
        self.known = known
        self.prelude: List[str] = []     # const definitions inside _bind
        self.body: List[str] = []        # statements inside _f
        self.indent = 2
        self._fresh = 0
        self._consts: Dict[str, str] = {}
        #: Locals statically known to be in weak-head normal form (raw
        #: unboxed values or primop results): forcing them is a no-op the
        #: generated code can skip.
        self._whnf: set = set()

    # -- small utilities ---------------------------------------------------

    def fresh(self, stem: str) -> str:
        self._fresh += 1
        return f"_{stem}{self._fresh}"

    def stmt(self, text: str) -> None:
        self.body.append("    " * self.indent + text)

    def const(self, key: str, expr: str, whnf: bool = False) -> str:
        name = self._consts.get(key)
        if name is None:
            name = self.fresh("c")
            self._consts[key] = name
            self.prelude.append(f"    {name} = {expr}")
            if whnf:
                self._whnf.add(name)
        return name

    def materialize(self, expr: str) -> str:
        if expr.isidentifier():
            return expr
        whnf = expr in self._whnf
        temp = self.fresh("t")
        self.stmt(f"{temp} = {expr}")
        if whnf:
            self._whnf.add(temp)
        return temp

    def forced(self, expr: str) -> str:
        if expr in self._whnf:
            return expr
        return f"_force({expr})"

    # -- statement-free analysis ------------------------------------------

    def _is_simple(self, expr: Expr) -> bool:
        """Will compiling ``expr`` in expression position emit no statements?

        Used to preserve the tree-walker's left-to-right evaluation order:
        an argument whose successor needs statements must be materialised
        into a temporary first.
        """
        expr = _unwrap(expr)
        if isinstance(expr, (EVar,) + _LITERALS):
            return True
        if isinstance(expr, EUnboxedTuple):
            return all(self._is_simple(c) for c in expr.components)
        if isinstance(expr, EApp):
            head, args = _flatten(expr)
            head = _unwrap(head)
            if not isinstance(head, EVar):
                return False
            name = head.name
            if name in self.known:
                arity, strictness = self.known[name]
                if arity == 0 or len(args) != arity:
                    return False
                return all(self._simple_arg(a, s)
                           for a, s in zip(args, strictness))
            if name in PRIMOP_TABLE and len(args) == PRIMOP_TABLE[name][0]:
                return all(self._is_simple(a) for a in args)
            if name in CONSTRUCTOR_ARITIES and \
                    len(args) == CONSTRUCTOR_ARITIES[name] and args:
                return all(self._is_simple(a) for a in args)
            return False
        return False

    def _simple_arg(self, arg: Expr, strict: bool) -> bool:
        if strict:
            return self._is_simple(arg)
        return isinstance(arg, (EVar,) + _LITERALS)

    # -- expressions -------------------------------------------------------

    def emit_expr(self, expr: Expr, scope: Dict[str, str]) -> str:
        if isinstance(expr, EVar):
            return self._emit_var(expr.name, scope)
        if isinstance(expr, ELitInt):
            return self.const(
                f"int:{expr.value}",
                f"_alloc(ConstructorCell('I#', (UnboxedInt({expr.value}),)),"
                f" True)")
        if isinstance(expr, ELitIntHash):
            return self.const(f"int#:{expr.value}",
                              f"UnboxedInt({expr.value})", whnf=True)
        if isinstance(expr, ELitDoubleHash):
            # A literal past the Double# range lexes to infinity, whose
            # repr() is not Python source.
            literal = repr(expr.value) if math.isfinite(expr.value) \
                else f"float('{expr.value!r}')"
            return self.const(f"double#:{expr.value!r}",
                              f"UnboxedDouble({literal})", whnf=True)
        if isinstance(expr, ELitChar):
            return self.const(
                f"char:{expr.value!r}",
                f"_alloc(ConstructorCell('C#', (UnboxedInt({ord(expr.value)}"
                f"),)), True)")
        if isinstance(expr, ELitString):
            return self.const(f"str:{expr.value!r}",
                              f"StringValue({expr.value!r})", whnf=True)
        if isinstance(expr, EBool):
            constructor = "True" if expr.value else "False"
            return self.const(
                f"bool:{constructor}",
                f"_alloc(ConstructorCell({constructor!r}, ()), True)")
        if isinstance(expr, EAnn):
            return self.emit_expr(expr.expr, scope)
        if isinstance(expr, ELam):
            return self._emit_lambda(expr, scope)
        if isinstance(expr, ELet):
            inner = self._emit_let(expr, scope)
            return self.emit_expr(expr.body, inner)
        if isinstance(expr, EIf):
            join = self.fresh("t")
            condition = self.emit_expr(expr.condition, scope)
            self.stmt(f"if _bool({condition}):")
            self.indent += 1
            value = self.emit_expr(expr.consequent, scope)
            self.stmt(f"{join} = {value}")
            self.indent -= 1
            self.stmt("else:")
            self.indent += 1
            value = self.emit_expr(expr.alternative, scope)
            self.stmt(f"{join} = {value}")
            self.indent -= 1
            return join
        if isinstance(expr, EUnboxedTuple):
            return self._emit_unboxed_tuple(expr, scope)
        if isinstance(expr, ECase):
            return self._emit_case(expr, scope, tail=False)
        if isinstance(expr, EApp):
            return self._emit_app(expr, scope, tail=False)
        raise TypeError(f"cannot compile {expr!r}")

    def _emit_var(self, name: str, scope: Dict[str, str]) -> str:
        if name in scope:
            return scope[name]
        if name in self.known:
            return f"G[{name!r}].value_ref()"
        if name == "undefined":
            return "R.raise_undefined()"
        if _is_safe_global(name):
            return self.const(f"gv:{name}", f"_gv({name!r})")
        return f"_gv({name!r})"

    def _emit_lambda(self, expr: ELam, scope: Dict[str, str]) -> str:
        function = self.fresh("lam")
        param = self.fresh("v")
        inner = dict(scope)
        inner[expr.var] = param
        self.stmt(f"def {function}({param}):")
        self.indent += 1
        self.emit_tail(expr.body, inner)
        self.indent -= 1
        return f"_alloc(CompiledClosure(_mklam({function})))"

    def _emit_let(self, expr: ELet, scope: Dict[str, str]) -> Dict[str, str]:
        binder = self.fresh("v")
        if expr.signature is not None and _is_strict_type(expr.signature):
            # Figure 7's strict let!: an unboxed/unlifted binder cannot be a
            # thunk, so the rhs is evaluated eagerly (as the tree-walker
            # does).
            value = self.emit_expr(expr.rhs, scope)
            self.stmt(f"{binder} = {self.forced(value)}")
            self._whnf.add(binder)
        else:
            thunk = self.fresh("th")
            self.stmt(f"def {thunk}():")
            self.indent += 1
            value = self.emit_expr(expr.rhs, scope)
            self.stmt(f"return {value}")
            self.indent -= 1
            self.stmt(f"{binder} = _alloc(Thunk({thunk}))")
        inner = dict(scope)
        inner[expr.var] = binder
        return inner

    def _emit_unboxed_tuple(self, expr: EUnboxedTuple,
                            scope: Dict[str, str]) -> str:
        parts = []
        components = list(expr.components)
        for index, component in enumerate(components):
            value = self.forced(self.emit_expr(component, scope))
            if any(not self._is_simple(later)
                   for later in components[index + 1:]):
                value = self.materialize(value)
            parts.append(value)
        inner = "".join(f"{p}, " for p in parts)
        return self._mark_whnf_expr(f"UnboxedTupleValue(({inner}))")

    def _mark_whnf_expr(self, expr: str) -> str:
        self._whnf.add(expr)
        return expr

    # -- application -------------------------------------------------------

    def _emit_app(self, expr: EApp, scope: Dict[str, str],
                  tail: bool) -> Optional[str]:
        head, args = _flatten(expr)
        head = _unwrap(head)

        if isinstance(head, EVar) and head.name not in scope:
            name = head.name
            if name in self.known:
                arity, strictness = self.known[name]
                if 0 < arity <= len(args):
                    return self._emit_known_call(name, arity, strictness,
                                                 args, scope, tail)
            elif name in PRIMOP_TABLE:
                arity, _ = PRIMOP_TABLE[name]
                if len(args) >= arity:
                    return self._emit_primop_call(name, arity, args, scope,
                                                  tail)
            elif name in CONSTRUCTOR_ARITIES:
                arity = CONSTRUCTOR_ARITIES[name]
                if 0 < arity <= len(args):
                    return self._emit_constructor_call(name, arity, args,
                                                       scope, tail)

        value = self.materialize(self.emit_expr(head, scope))
        return self._emit_generic_chain(value, args, scope, tail)

    def _emit_known_call(self, name: str, arity: int,
                         strictness: Tuple[bool, ...], args: List[Expr],
                         scope: Dict[str, str], tail: bool) -> Optional[str]:
        direct, rest = args[:arity], args[arity:]
        parts = []
        for index, argument in enumerate(direct):
            value = self._emit_call_arg(argument, strictness[index], scope)
            if any(not self._simple_arg(later, strictness[index + 1 + off])
                   for off, later in enumerate(direct[index + 1:])):
                value = self.materialize(value)
            parts.append(value)
        arg_tuple = ", ".join(parts)
        if not rest and tail:
            self.stmt(f"return TailCall(G[{name!r}], ({arg_tuple},))")
            return None
        value = self.materialize(f"G[{name!r}].call({arg_tuple})")
        return self._emit_generic_chain(value, rest, scope, tail)

    def _emit_call_arg(self, argument: Expr, strict: bool,
                       scope: Dict[str, str]) -> str:
        if strict:
            return self.forced(self.emit_expr(argument, scope))
        if isinstance(argument, EVar) and argument.name in scope:
            return scope[argument.name]
        if isinstance(argument, _LITERALS):
            return self.emit_expr(argument, scope)
        # Everything else is thunked, exactly as the tree-walker does — a
        # non-variable lazy argument must *print* as a thunk too.
        thunk = self.fresh("th")
        self.stmt(f"def {thunk}():")
        self.indent += 1
        value = self.emit_expr(argument, scope)
        self.stmt(f"return {value}")
        self.indent -= 1
        return f"_alloc(Thunk({thunk}))"

    def _emit_primop_call(self, name: str, arity: int, args: List[Expr],
                          scope: Dict[str, str], tail: bool) -> Optional[str]:
        implementation = self.const(f"primop:{name}",
                                    f"R.primop_impl({name!r})")
        direct, rest = args[:arity], args[arity:]
        parts = self._emit_ordered_strict_args(direct, scope)
        call = f"{implementation}({', '.join(parts)})"
        self._whnf.add(call)
        if not rest:
            if tail:
                self.stmt(f"return {call}")
                return None
            return call
        value = self.materialize(call)
        return self._emit_generic_chain(value, rest, scope, tail)

    def _emit_constructor_call(self, name: str, arity: int, args: List[Expr],
                               scope: Dict[str, str],
                               tail: bool) -> Optional[str]:
        direct, rest = args[:arity], args[arity:]
        parts = self._emit_ordered_strict_args(direct, scope)
        inner = "".join(f"{p}, " for p in parts)
        call = f"_alloc(ConstructorCell({name!r}, ({inner})))"
        if not rest:
            if tail:
                self.stmt(f"return {call}")
                return None
            return call
        value = self.materialize(call)
        return self._emit_generic_chain(value, rest, scope, tail)

    def _emit_ordered_strict_args(self, args: List[Expr],
                                  scope: Dict[str, str]) -> List[str]:
        parts = []
        for index, argument in enumerate(args):
            value = self.forced(self.emit_expr(argument, scope))
            if any(not self._is_simple(later)
                   for later in args[index + 1:]):
                value = self.materialize(value)
            parts.append(value)
        return parts

    def _emit_generic_chain(self, value: str, args: List[Expr],
                            scope: Dict[str, str],
                            tail: bool) -> Optional[str]:
        for argument in args:
            if isinstance(argument, EVar) and argument.name in scope:
                value = self.materialize(
                    f"_appv({value}, {scope[argument.name]})")
            elif isinstance(argument, _LITERALS):
                literal = self.emit_expr(argument, scope)
                value = self.materialize(f"_appv({value}, {literal})")
            else:
                thunk = self.fresh("th")
                self.stmt(f"def {thunk}():")
                self.indent += 1
                result = self.emit_expr(argument, scope)
                self.stmt(f"return {result}")
                self.indent -= 1
                value = self.materialize(f"_appt({value}, {thunk})")
        if tail:
            self.stmt(f"return {value}")
            return None
        return value

    # -- case --------------------------------------------------------------

    def _emit_case(self, expr: ECase, scope: Dict[str, str],
                   tail: bool) -> Optional[str]:
        scrutinee = self.materialize(
            self.forced(self.emit_expr(expr.scrutinee, scope)))
        self._whnf.add(scrutinee)

        needs_object = any(
            self._alt_kind(alt) in ("constructor", "boxed-int")
            for alt in expr.alternatives)
        obj = None
        if needs_object:
            obj = self.fresh("o")
            self.stmt(f"{obj} = _heap.load({scrutinee}) "
                      f"if isinstance({scrutinee}, HeapRef) else None")

        if not expr.alternatives:
            self.stmt(f"R.no_match({scrutinee})")
            if tail:
                self.stmt(f"return {scrutinee}")  # unreachable; for syntax
                return None
            return scrutinee

        join = None if tail else self.fresh("t")
        for index, alternative in enumerate(expr.alternatives):
            condition, bindings = self._alt_condition(alternative, scrutinee,
                                                      obj)
            keyword = "if" if index == 0 else "elif"
            self.stmt(f"{keyword} {condition}:")
            self.indent += 1
            inner = dict(scope)
            for surface_name, access in bindings:
                binder = self.fresh("v")
                self.stmt(f"{binder} = {access}")
                inner[surface_name] = binder
            if tail:
                self.emit_tail(alternative.rhs, inner)
            else:
                value = self.emit_expr(alternative.rhs, inner)
                self.stmt(f"{join} = {value}")
            self.indent -= 1
        self.stmt("else:")
        self.indent += 1
        self.stmt(f"R.no_match({scrutinee})")
        self.indent -= 1
        return join

    @staticmethod
    def _alt_kind(alternative) -> str:
        constructor = alternative.constructor
        if constructor == "_":
            return "wildcard"
        if constructor.endswith("#") and \
                constructor[:-1].lstrip("-").isdigit():
            return "unboxed-int"
        if constructor.lstrip("-").isdigit():
            return "boxed-int"
        if constructor == "(#,#)":
            return "tuple"
        return "constructor"

    def _alt_condition(self, alternative, scrutinee: str,
                       obj: Optional[str]):
        kind = self._alt_kind(alternative)
        if kind == "wildcard":
            return "True", []
        if kind == "unboxed-int":
            want = int(alternative.constructor[:-1])
            return (f"isinstance({scrutinee}, UnboxedInt) "
                    f"and {scrutinee}.value == {want}"), []
        if kind == "boxed-int":
            want = int(alternative.constructor)
            return f"_boxed_is(_force, {obj}, {want})", []
        if kind == "tuple":
            bindings = [(binder, f"{scrutinee}.components[{k}]")
                        for k, binder in enumerate(alternative.binders)]
            return f"isinstance({scrutinee}, UnboxedTupleValue)", bindings
        bindings = [(binder, f"{obj}.fields[{k}]")
                    for k, binder in enumerate(alternative.binders)]
        return (f"isinstance({obj}, ConstructorCell) "
                f"and {obj}.constructor == {alternative.constructor!r}"), \
            bindings

    # -- tail position -----------------------------------------------------

    def emit_tail(self, expr: Expr, scope: Dict[str, str]) -> None:
        if isinstance(expr, EAnn):
            self.emit_tail(expr.expr, scope)
            return
        if isinstance(expr, EIf):
            condition = self.emit_expr(expr.condition, scope)
            self.stmt(f"if _bool({condition}):")
            self.indent += 1
            self.emit_tail(expr.consequent, scope)
            self.indent -= 1
            self.stmt("else:")
            self.indent += 1
            self.emit_tail(expr.alternative, scope)
            self.indent -= 1
            return
        if isinstance(expr, ECase):
            self._emit_case(expr, scope, tail=True)
            return
        if isinstance(expr, ELet):
            inner = self._emit_let(expr, scope)
            self.emit_tail(expr.body, inner)
            return
        if isinstance(expr, EApp):
            self._emit_app(expr, scope, tail=True)
            return
        value = self.emit_expr(expr, scope)
        self.stmt(f"return {value}")


def generate_function_source(function: ProgramFunction,
                             known: Signatures) -> str:
    """Compile one top-level binding to the source of its ``_bind``."""
    emitter = _Emitter(known)
    scope: Dict[str, str] = {}
    parameters: List[str] = []
    for index, parameter in enumerate(function.params):
        name = emitter.fresh("v")
        scope[parameter] = name
        parameters.append(name)
        if function.param_strict[index]:
            # call() coerces strict parameters before entering the body, and
            # compiled tail-call sites prepare them likewise: inside the body
            # they are always already forced.
            emitter._whnf.add(name)
    emitter.emit_tail(function.body, scope)
    lines = ["def _bind(R, G):"]
    lines.extend(emitter.prelude)
    lines.append(f"    def _f({', '.join(parameters)}):")
    lines.extend(emitter.body)
    lines.append("    return _f")
    return "\n".join(lines) + "\n"


def generate_expression_source(expr: Expr, env_names: List[str],
                               known: Signatures) -> str:
    """Compile a standalone expression (REPL line, entry rhs) to source."""
    emitter = _Emitter(known)
    scope: Dict[str, str] = {}
    for env_name in env_names:
        name = emitter.fresh("v")
        scope[env_name] = name
        emitter.prelude.append(f"    {name} = E[{env_name!r}]")
    emitter.emit_tail(expr, scope)
    lines = ["def _bind(R, G, E):"]
    lines.extend(emitter.prelude)
    lines.append("    def _f():")
    lines.extend(emitter.body)
    lines.append("    return _f")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Linking
# ---------------------------------------------------------------------------


#: The namespace generated code executes in: runtime value constructors plus
#: the pattern-matching helper.  (Builtins are available as usual.)  Each
#: :class:`CompiledProgram` adds the evaluator's runtime entry points.
_EXEC_GLOBALS = {
    "UnboxedInt": UnboxedInt,
    "UnboxedDouble": UnboxedDouble,
    "UnboxedTupleValue": UnboxedTupleValue,
    "StringValue": StringValue,
    "ConstructorCell": ConstructorCell,
    "Thunk": Thunk,
    "HeapRef": HeapRef,
    "CompiledClosure": CompiledClosure,
    "TailCall": TailCall,
    "_boxed_is": _boxed_is,
}


class _Linked(dict):
    """A program's compiled functions by name, each linked on first lookup.

    Generated code reaches a callee as ``G[name]`` when it calls it, so
    ``__missing__`` links a binding the first time anything enters it or
    takes its value, and never again.
    """

    __slots__ = ("_install",)

    def __init__(self, install: Callable[[str], CompiledFunction]) -> None:
        super().__init__()
        self._install = install

    def __missing__(self, name: str) -> CompiledFunction:
        return self._install(name)


class CompiledProgram:
    """A program's bindings, each compiled and linked to one evaluator when
    the run first reaches it.

    ``functions`` links a binding on its first lookup: a ``G[name]`` in
    generated code, :meth:`Evaluator._closure_value`, or
    :meth:`eval_expression` of the binding's own right-hand side.
    ``sources`` may supply previously generated source text per binding
    (from the per-unit codegen cache); a supplied source is linked without
    regenerating, and one that fails to link — a stale or corrupt cache
    entry is outside input — is re-lowered from the AST.  The counters
    cover the bindings linked so far: ``codegen_count`` were lowered,
    ``cache_hits`` linked from supplied sources, and ``self.sources``
    holds the source each was linked from.
    """

    def __init__(self, evaluator,
                 sources: Optional[Dict[str, str]] = None) -> None:
        self.evaluator = evaluator
        # Installed early: helper lambdas resolved during linking compile
        # through the evaluator's compiled path.
        evaluator._compiled = self
        self.functions: Dict[str, CompiledFunction] = _Linked(self._install)
        self.sources: Dict[str, str] = {}
        self.codegen_count = 0
        self.cache_hits = 0
        self._supplied = sources or {}
        self._program = evaluator.program.functions
        self._known: Signatures = {
            name: (len(function.params), function.param_strict)
            for name, function in self._program.items()}
        #: Zero-parameter bindings by the identity of their right-hand
        #: side: evaluating one of those expressions enters the binding.
        self._cafs = {id(function.body): name
                      for name, function in self._program.items()
                      if not function.params}
        heap = evaluator.heap
        #: What every link's namespace starts from: the value constructors
        #: and this program's runtime entry points, bound once.
        self._namespace = dict(
            _EXEC_GLOBALS,
            _force=evaluator.force,
            _heap=heap,
            _alloc=heap.allocate,
            _bool=evaluator.bool_result,
            _gv=evaluator.global_value,
            _appv=evaluator.apply_arg_value,
            _appt=evaluator.apply_arg_thunk,
            _mklam=self.make_lambda,
        )

    def make_lambda(self, body: Callable) -> CompiledFunction:
        return CompiledFunction("", 1, (False,), body, self.evaluator)

    def _install(self, name: str) -> CompiledFunction:
        function = self._program[name]
        source = self._supplied.get(name)
        compiled = None
        if source is not None:
            try:
                compiled = self._link(name, function, source)
            except Exception:
                # A stale or corrupt cache entry: re-lowered below.
                _REGISTRY.inc("codegen.relinks")
            else:
                self.cache_hits += 1
                _REGISTRY.inc("codegen.cache_hits")
        if compiled is None:
            source = _lower(name, generate_function_source, function,
                            self._known)
            self.codegen_count += 1
            _REGISTRY.inc("codegen.compiled")
            compiled = self._link(name, function, source)
        self.sources[name] = source
        self.functions[name] = compiled
        # Source text is what the codegen side-table persists, so
        # its volume is the side-table's growth rate.
        _REGISTRY.inc("codegen.source_bytes", len(source))
        return compiled

    def _link(self, name: str, function: ProgramFunction,
              source: str) -> CompiledFunction:
        body = self._load(name, source)(self.evaluator, self.functions)
        return CompiledFunction(name, len(function.params),
                                function.param_strict, body, self.evaluator)

    def _load(self, label: str, source: str) -> Callable:
        """``compile()`` and ``exec`` one generated ``_bind``, in a copy of
        the program's namespace so that no source rebinds another's
        globals."""
        traced = _TRACER.enabled
        if traced:
            _TRACER.begin("codegen.link", binding=label)
        try:
            namespace = dict(self._namespace)
            exec(compile(source, f"<compiled:{label}>", "exec"), namespace)
        finally:
            if traced:
                _TRACER.end("codegen.link")
        return namespace["_bind"]

    def eval_expression(self, expr: Expr, env: Dict[str, object]):
        """Compile and run a standalone expression.

        A zero-parameter binding's own right-hand side (the entry a run
        evaluates) enters that binding's compiled function, so it is
        lowered once, as a binding.
        """
        name = None if env else self._cafs.get(id(expr))
        if name is not None:
            return self.functions[name].call()
        source = _lower("expression", generate_expression_source, expr,
                        sorted(env), self._known)
        body = self._load("expression", source)(self.evaluator,
                                                self.functions, env)
        return CompiledFunction("", 0, (), body, self.evaluator).call()


def _lower(label: str, generate: Callable[..., str], *args) -> str:
    """Generate one source, as a ``codegen.lower`` span when tracing."""
    traced = _TRACER.enabled
    if traced:
        _TRACER.begin("codegen.lower", binding=label)
    try:
        return generate(*args)
    finally:
        if traced:
            _TRACER.end("codegen.lower")
