"""A cost-model evaluator for surface programs ("kinds are calling conventions").

The evaluator executes type-checked surface modules, which
:meth:`Program.from_check` builds from a check result.  Its calling
convention is driven by the *types* the checker assigned (exactly the
paper's thesis): when a function parameter's type has a boxed, lifted kind
the argument is passed as a heap pointer to a lazily allocated thunk; when
the kind is unboxed (or boxed-but-unlifted) the argument is evaluated
eagerly and passed as a raw value — no allocation, no pointer.

Class methods are supported in two forms:

* applied at a concrete type, the evaluator consults the
  :class:`~repro.classes.declarations.ClassEnv` instance table and runs the
  (monomorphic) implementation — this is the elaborated, dictionary-free
  fast path GHC reaches after specialisation;
* a dictionary can also be built explicitly
  (:meth:`Evaluator.build_dictionary`) and methods selected from it, which
  charges the cost model for the dictionary allocation and the field reads —
  the cost the paper's Section 7.3 machinery actually pays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import EvaluationError, PatternError, ScopeError
from ..core.kinds import TypeKind
from ..core.primops import PRIMOP_ROWS, PrimopRow
from ..infer.schemes import Scheme
from ..surface.ast import (
    Alternative,
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
from ..surface.types import FunTy, SType, kind_of_type
from .values import (
    Closure,
    CompiledClosure,
    ConstructorCell,
    CostModel,
    DictionaryCell,
    Heap,
    HeapObject,
    HeapRef,
    MethodSelector,
    PrimOpValue,
    StringValue,
    Thunk,
    UnboxedDouble,
    UnboxedInt,
    UnboxedTupleValue,
    Value,
)

# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------


def _as_int(value: Value) -> int:
    if isinstance(value, UnboxedInt):
        return value.value
    raise EvaluationError(f"expected an unboxed integer, got {value!r}")


def _as_double(value: Value) -> float:
    if isinstance(value, UnboxedDouble):
        return value.value
    if isinstance(value, UnboxedInt):
        return float(value.value)
    raise EvaluationError(f"expected an unboxed double, got {value!r}")


#: How each unboxed type constructor travels at runtime: unwrapping a value
#: to the raw Python number a delta takes, and boxing a delta's result.
_UNWRAP = {"Int#": _as_int, "Char#": _as_int, "Word#": _as_int,
           "Double#": _as_double, "Float#": _as_double}
_WRAP = {"Int#": UnboxedInt, "Char#": UnboxedInt, "Word#": UnboxedInt,
         "Double#": UnboxedDouble, "Float#": UnboxedDouble}


def _runtime_primop(row: PrimopRow) -> Callable[..., Value]:
    """A registry row on runtime values: unwrap the (already forced)
    arguments, raise :class:`EvaluationError` on ⊥, wrap the result."""
    delta, bottom, wrap = row.delta, row.bottom, _WRAP[row.result]
    if bottom is not None:
        total = delta

        def delta(*raw):
            reason = bottom(*raw)
            if reason is not None:
                raise EvaluationError(
                    f"{row.name} {reason} is undefined (bottom)")
            return total(*raw)
    if len(row.arguments) == 1:
        unwrap = _UNWRAP[row.arguments[0]]
        return lambda x: wrap(delta(unwrap(x)))
    unwrap_x, unwrap_y = (_UNWRAP[name] for name in row.arguments)
    return lambda x, y: wrap(delta(unwrap_x(x), unwrap_y(y)))


#: name -> (arity, implementation on runtime values), for every row of the
#: primop registry (:mod:`repro.core.primops`).
PRIMOP_TABLE: Dict[str, Tuple[int, Callable[..., Value]]] = {
    name: (len(row.arguments), _runtime_primop(row))
    for name, row in PRIMOP_ROWS.items()}

#: Data constructors known to the evaluator, with their arities.
CONSTRUCTOR_ARITIES: Dict[str, int] = {
    "I#": 1, "W#": 1, "F#": 1, "D#": 1, "C#": 1,
    "True": 0, "False": 0, "Nothing": 0, "Just": 1, "()": 0,
}


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass
class ProgramFunction:
    """A top-level binding prepared for execution."""

    name: str
    params: Tuple[str, ...]
    param_strict: Tuple[bool, ...]
    body: Expr
    scheme: Optional[Scheme] = None


@dataclass
class Program:
    """An executable program: its functions plus the class environment."""

    functions: Dict[str, ProgramFunction] = field(default_factory=dict)
    class_env: object = None

    @staticmethod
    def from_check(check) -> "Program":
        """The executable program of a complete check result.

        ``check`` is a :class:`repro.driver.session.CheckResult` with
        ``parsed`` set, taken by duck type (``parsed.module`` and
        ``scheme_of``) so the runtime imports nothing from the driver.
        The parameter passing convention of every function is read off
        its checked type: this is where "kinds are calling conventions"
        becomes executable.
        """
        program = Program()
        for name, bind in check.parsed.module.bindings().items():
            scheme = check.scheme_of(name)
            program.functions[name] = ProgramFunction(
                name, bind.params,
                _param_strictness(scheme, len(bind.params)), bind.rhs,
                scheme)
        return program


def _param_strictness(scheme: Optional[Scheme], arity: int) -> Tuple[bool, ...]:
    """Call-by-value for parameters whose kind is not boxed-and-lifted."""
    if scheme is None:
        return tuple(False for _ in range(arity))
    strictness: List[bool] = []
    current: SType = scheme.body
    from ..surface.types import QualTy
    if isinstance(current, QualTy):
        current = current.body
    for _ in range(arity):
        if not isinstance(current, FunTy):
            strictness.append(False)
            continue
        strictness.append(_is_strict_type(current.argument))
        current = current.result
    return tuple(strictness)


def _is_strict_type(type_: SType) -> bool:
    try:
        kind = kind_of_type(type_)
    except Exception:
        return False
    if not isinstance(kind, TypeKind):
        return False
    rep = kind.rep
    if not rep.is_concrete():
        return False
    return not (rep.is_boxed() and rep.is_lifted())


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


#: Shared empty environment for global resolution from compiled code.
_EMPTY_ENV: Dict[str, "Value"] = {}


class Evaluator:
    """Execute surface expressions with the cost model attached."""

    def __init__(self, program: Optional[Program] = None,
                 costs: Optional[CostModel] = None,
                 compiled: bool = False,
                 compiled_sources: Optional[Dict[str, str]] = None,
                 ) -> None:
        self.program = program or Program()
        self.costs = costs if costs is not None else CostModel()
        self.heap = Heap(self.costs)
        #: Compile-time-known values (top-level closures, primop entry
        #: points, nullary constructors, helper definitions).  These live in
        #: the static segment and are never charged to the cost model.
        self._static_cache: Dict[str, Value] = {}
        #: Memoised global resolutions (every name _eval_var has resolved
        #: outside the local environment).
        self._global_cache: Dict[str, Value] = {}
        #: The closure-compilation backend, when requested.  Its constructor
        #: installs itself on this attribute before linking (helper lambdas
        #: resolved while linking go through the compiled path too).
        self._compiled = None
        if compiled:
            from .compiler import CompiledProgram
            CompiledProgram(self, sources=compiled_sources)

    # -- public API -----------------------------------------------------------

    def run(self, name: str, *arguments: Value) -> Value:
        """Run a top-level function on already-constructed runtime values."""
        function = self._function(name)
        value = self._closure_value(function)
        for argument in arguments:
            value = self.apply_value(value, argument, already_value=True)
        return value

    def eval(self, expr: Expr, env: Optional[Dict[str, Value]] = None) -> Value:
        """Evaluate an expression to (weak-head) normal form."""
        env = env or {}
        if self._compiled is not None:
            return self._compiled.eval_expression(expr, env)
        return self._eval(expr, env)

    def force(self, value: Value) -> Value:
        """Force thunks until a non-thunk heap object or unboxed value remains."""
        while isinstance(value, HeapRef):
            obj = self.heap.load(value)
            if isinstance(obj, Thunk):
                if obj.result is None:
                    if obj.under_evaluation:
                        raise EvaluationError("<<loop>> detected while "
                                              "forcing a thunk")
                    obj.under_evaluation = True
                    self.costs.thunk_forces += 1
                    obj.result = obj.compute()
                    obj.under_evaluation = False
                    self.costs.thunk_updates += 1
                value = obj.result
                continue
            return value
        return value

    def int_result(self, value: Value) -> int:
        """Interpret a result as a Python integer (forcing and unboxing)."""
        value = self.force(value)
        if isinstance(value, UnboxedInt):
            return value.value
        if isinstance(value, HeapRef):
            obj = self.heap.load(value)
            if isinstance(obj, ConstructorCell) and obj.constructor == "I#":
                return self.int_result(obj.fields[0])
        raise EvaluationError(f"result is not an integer: {value!r}")

    def bool_result(self, value: Value) -> bool:
        value = self.force(value)
        if isinstance(value, HeapRef):
            obj = self.heap.load(value)
            if isinstance(obj, ConstructorCell):
                return obj.constructor == "True"
        raise EvaluationError(f"result is not a Bool: {value!r}")

    def boxed_int(self, value: int) -> Value:
        """Allocate a boxed integer ``I# value``."""
        return self.heap.allocate(ConstructorCell("I#", (UnboxedInt(value),)))

    def build_dictionary(self, class_name: str, type_: SType) -> Value:
        """Explicitly allocate the dictionary for an instance (Section 7.3)."""
        class_env = self.program.class_env
        if class_env is None:
            raise EvaluationError("no class environment attached")
        info = class_env.class_info(class_name)
        instance = class_env.lookup_instance(class_name, type_)
        if instance is None:
            raise EvaluationError(
                f"no instance for {class_name} {type_.pretty()}")
        methods = {name: self._eval(impl, {})
                   for name, impl in instance.methods().items()}
        cell = DictionaryCell(class_name, instance.head_constructor(), methods)
        return self.heap.allocate(cell)

    def select_method(self, dictionary: Value, method: str) -> Value:
        """Select a method from a dictionary value (one field read)."""
        dictionary = self.force(dictionary)
        obj = self.heap.load(dictionary)
        if not isinstance(obj, DictionaryCell):
            raise EvaluationError("select_method expects a dictionary")
        self.costs.dictionary_lookups += 1
        return obj.methods[method]

    # -- internals --------------------------------------------------------------

    def _function(self, name: str) -> ProgramFunction:
        try:
            return self.program.functions[name]
        except KeyError:
            raise ScopeError(f"no top-level function named {name!r}") from None

    def _closure_value(self, function: ProgramFunction) -> Value:
        if self._compiled is not None:
            compiled = self._compiled.functions.get(function.name)
            if compiled is not None:
                return compiled.value_ref()
        cached = self._static_cache.get(f"fun:{function.name}")
        if cached is not None:
            return cached
        if function.params:
            obj: HeapObject = Closure(function.name, function.params,
                                      function.param_strict, function.body,
                                      {})
        else:
            # A zero-parameter binding is a CAF: referencing it must
            # evaluate (and memoise) its body, not hand out an unapplicable
            # closure.
            obj = Thunk(lambda: self._eval(function.body, {}))
        ref = self.heap.allocate(obj, static=True)
        self._static_cache[f"fun:{function.name}"] = ref
        return ref

    def _eval(self, expr: Expr, env: Dict[str, Value]) -> Value:
        if isinstance(expr, EVar):
            return self._eval_var(expr.name, env)
        if isinstance(expr, ELitInt):
            return self.boxed_int(expr.value)
        if isinstance(expr, ELitIntHash):
            return UnboxedInt(expr.value)
        if isinstance(expr, ELitDoubleHash):
            return UnboxedDouble(expr.value)
        if isinstance(expr, ELitChar):
            return self.heap.allocate(
                ConstructorCell("C#", (UnboxedInt(ord(expr.value)),)))
        if isinstance(expr, ELitString):
            return StringValue(expr.value)
        if isinstance(expr, EBool):
            return self.heap.allocate(
                ConstructorCell("True" if expr.value else "False", ()))
        if isinstance(expr, EAnn):
            return self._eval(expr.expr, env)
        if isinstance(expr, ELam):
            closure = Closure("", (expr.var,), (False,), expr.body, dict(env))
            return self.heap.allocate(closure)
        if isinstance(expr, ELet):
            inner = dict(env)
            if expr.signature is not None and _is_strict_type(expr.signature):
                # Kinds are calling conventions for lets too: a binder at an
                # unboxed (or unlifted) type cannot be a thunk — Figure 7
                # compiles it to a strict let!, so the evaluator must force
                # the rhs eagerly (found by corpus fuzzing, pinned in
                # tests/golden/fuzz/strict_unboxed_let.lev).
                inner[expr.var] = self.force(self._eval(expr.rhs, env))
            else:
                inner[expr.var] = self.heap.allocate(
                    Thunk(lambda: self._eval(expr.rhs, env)))
            return self._eval(expr.body, inner)
        if isinstance(expr, EIf):
            condition = self.bool_result(self._eval(expr.condition, env))
            self.costs.case_scrutinies += 1
            branch = expr.consequent if condition else expr.alternative
            return self._eval(branch, env)
        if isinstance(expr, EUnboxedTuple):
            return UnboxedTupleValue(tuple(
                self.force(self._eval(component, env))
                for component in expr.components))
        if isinstance(expr, EApp):
            function = self._eval(expr.function, env)
            return self._apply(function, expr.argument, env)
        if isinstance(expr, ECase):
            return self._eval_case(expr, env)
        raise EvaluationError(f"cannot evaluate {expr!r}")

    def _eval_var(self, name: str, env: Dict[str, Value]) -> Value:
        value = env.get(name)
        if value is not None:
            return value
        # Global resolutions are memoised per evaluator: the fallback chain
        # below (program → primop → constructor → class selector → prelude
        # helper) runs at most once per name, then every later occurrence is
        # one dict probe.
        cache = self._global_cache
        value = cache.get(name)
        if value is None:
            value = self._resolve_global(name)
            cache[name] = value
        return value

    def global_value(self, name: str) -> Value:
        """Resolve a name outside any local environment (compiled code)."""
        return self._eval_var(name, _EMPTY_ENV)

    def _resolve_global(self, name: str) -> Value:
        if name in self.program.functions:
            return self._closure_value(self._function(name))
        cached = self._static_cache.get(name)
        if cached is not None:
            return cached
        if name in PRIMOP_TABLE:
            arity, implementation = PRIMOP_TABLE[name]
            value = self.heap.allocate(
                PrimOpValue(name, arity, implementation), static=True)
        elif name in CONSTRUCTOR_ARITIES:
            arity = CONSTRUCTOR_ARITIES[name]
            if arity == 0:
                value = self.heap.allocate(ConstructorCell(name, ()),
                                           static=True)
            else:
                value = self.heap.allocate(
                    PrimOpValue(name, arity, self._constructor_builder(name)),
                    static=True)
        elif (selector := self._class_method_selector(name)) is not None:
            # Class methods shadow the boxed prelude helpers, mirroring the
            # type checker (method schemes are bound after the prelude): with
            # the generalised Num attached, `+` dispatches on its argument.
            value = selector
        elif name in _BOXED_HELPERS:
            # Boxed helpers (plusInt & co.) are top-level code: their outer
            # closure is static, exactly like a compiled definition.  Routed
            # through eval() so the compiled backend, when active, lowers
            # them like any other binding.
            value = self.eval(_BOXED_HELPERS[name], {})
        elif name == "appendString":
            value = self.heap.allocate(
                PrimOpValue("appendString", 2, _append_strings), static=True)
        elif name in ("error", "errorWithoutStackTrace"):
            # The levity-polymorphic error of Section 8.1: one strict String
            # argument, then ⊥ at any representation.
            value = self.heap.allocate(
                PrimOpValue(name, 1, _raise_error(name)), static=True)
        elif name == "undefined":
            raise EvaluationError("Prelude.undefined")
        else:
            raise ScopeError(
                f"variable {name!r} is not bound at runtime")
        self._static_cache[name] = value
        return value

    def _class_method_selector(self, name: str) -> Optional[Value]:
        """A dispatching selector when ``name`` is a class method.

        The caller (``_eval_var``) memoises the result under the bare name.
        """
        class_env = self.program.class_env
        if class_env is None:
            return None
        for info in class_env.classes.values():
            if name in info.method_names():
                return self.heap.allocate(
                    MethodSelector(info.name, name), static=True)
        return None

    def _constructor_builder(self, name: str) -> Callable[..., Value]:
        def build(*fields: Value) -> Value:
            return self.heap.allocate(ConstructorCell(name, tuple(fields)))
        return build

    # -- application -------------------------------------------------------------

    def _callee_wants_strict(self, function: Value) -> bool:
        """Is the callee's next parameter call-by-value?  (``function`` must
        already be forced.)  Primops, constructors and selectors always
        force; closures — interpreted or compiled — consult the strictness
        their kinds assigned to the next parameter."""
        obj = self.heap.load(function) \
            if isinstance(function, HeapRef) else None
        if isinstance(obj, Closure):
            index = len(obj.collected)
            return (obj.param_strict[index]
                    if index < len(obj.param_strict) else False)
        if isinstance(obj, CompiledClosure):
            index = len(obj.collected)
            param_strict = obj.target.param_strict
            return (param_strict[index]
                    if index < len(param_strict) else False)
        return True

    def _apply(self, function: Value, argument_expr: Expr,
               env: Dict[str, Value]) -> Value:
        """Apply to an argument *expression* (laziness decided by the callee)."""
        function = self.force(function)
        strict = self._callee_wants_strict(function)

        if strict:
            argument: Value = self.force(self._eval(argument_expr, env))
        elif isinstance(argument_expr, EVar) and argument_expr.name in env:
            # A variable occurrence is already a pointer (or raw value);
            # a compiler passes it directly rather than building a new thunk.
            argument = env[argument_expr.name]
        elif isinstance(argument_expr, (ELitInt, ELitIntHash, ELitDoubleHash,
                                        ELitChar, ELitString, EBool)):
            # Literals are built directly (boxed literals still allocate
            # their constructor cell, but no thunk is needed).
            argument = self._eval(argument_expr, env)
        else:
            captured_env = dict(env)
            argument = self.heap.allocate(
                Thunk(lambda: self._eval(argument_expr, captured_env)))
        return self.apply_value(function, argument, already_value=True)

    def apply_value(self, function: Value, argument: Value,
                    already_value: bool = False) -> Value:
        """Apply a function value to an argument value."""
        function = self.force(function)
        if not isinstance(function, HeapRef):
            raise EvaluationError(
                f"cannot apply non-function value {function!r}")
        obj = self.heap.load(function)
        self.costs.function_calls += 1

        if isinstance(obj, CompiledClosure):
            return obj.enter(self, argument)

        if isinstance(obj, PrimOpValue):
            collected = obj.collected + (self.force(argument),)
            if len(collected) < obj.arity:
                return self.heap.allocate(
                    PrimOpValue(obj.name, obj.arity, obj.apply, collected),
                    static=True)
            self.costs.primops += 1
            return obj.apply(*collected)

        if isinstance(obj, Closure):
            collected = obj.collected + (argument,)
            if len(collected) < len(obj.params):
                return self.heap.allocate(
                    Closure(obj.name, obj.params, obj.param_strict, obj.body,
                            obj.env, collected),
                    static=True)
            call_env = dict(obj.env)
            for param, value, strict in zip(obj.params, collected,
                                            obj.param_strict):
                call_env[param] = self.force(value) if strict else value
            return self._eval(obj.body, call_env)

        if isinstance(obj, MethodSelector):
            return self._dispatch_method(obj, argument)

        raise EvaluationError(
            f"cannot apply value {obj.show_object(self.heap)}")

    # -- linkage for compiled code ----------------------------------------------
    # Generated code (repro.runtime.compiler) binds these once per linked
    # function; they carry the few behaviours that stay dynamic — generic
    # application when the callee is unknown at compile time, and error
    # raising with tree-walker-identical messages.

    def primop_impl(self, name: str) -> Callable[..., Value]:
        """The raw implementation of a primop, for direct compiled calls."""
        return PRIMOP_TABLE[name][1]

    def apply_arg_value(self, function: Value, argument: Value) -> Value:
        """Generic application to an already-evaluated argument."""
        function = self.force(function)
        if self._callee_wants_strict(function):
            argument = self.force(argument)
        return self.apply_value(function, argument, already_value=True)

    def apply_arg_thunk(self, function: Value,
                        compute: Callable[[], Value]) -> Value:
        """Generic application to a deferred argument: the callee's
        convention decides whether ``compute`` runs now or is thunked."""
        function = self.force(function)
        if self._callee_wants_strict(function):
            argument = self.force(compute())
        else:
            argument = self.heap.allocate(Thunk(compute))
        return self.apply_value(function, argument, already_value=True)

    def raise_undefined(self) -> Value:
        raise EvaluationError("Prelude.undefined")

    def no_match(self, scrutinee: Value) -> Value:
        raise PatternError(
            f"no alternative matched {scrutinee.show(self.heap)}")

    def _dispatch_method(self, selector: MethodSelector,
                         argument: Value) -> Value:
        """Dispatch a class method on its first argument's runtime type."""
        class_env = self.program.class_env
        if class_env is None:
            raise EvaluationError("no class environment attached")
        forced = self.force(argument)
        head = _runtime_type_head(self, forced)
        instance = class_env.instances.get((selector.class_name, head))
        if instance is None:
            raise EvaluationError(
                f"no instance for {selector.class_name} {head}")
        self.costs.dictionary_lookups += 1
        implementation = self._eval(instance.methods()[selector.method], {})
        return self.apply_value(implementation, forced, already_value=True)

    # -- case ---------------------------------------------------------------------

    def _eval_case(self, expr: ECase, env: Dict[str, Value]) -> Value:
        scrutinee = self.force(self._eval(expr.scrutinee, env))
        self.costs.case_scrutinies += 1

        for alternative in expr.alternatives:
            matched, bindings = self._match(alternative, scrutinee)
            if matched:
                inner = dict(env)
                inner.update(bindings)
                return self._eval(alternative.rhs, inner)
        raise PatternError(
            f"no alternative matched {scrutinee.show(self.heap)}")

    def _match(self, alternative: Alternative,
               scrutinee: Value) -> Tuple[bool, Dict[str, Value]]:
        constructor = alternative.constructor
        if constructor == "_":
            return True, {}
        if constructor.endswith("#") and \
                constructor[:-1].lstrip("-").isdigit():
            if isinstance(scrutinee, UnboxedInt) and \
                    scrutinee.value == int(constructor[:-1]):
                return True, {}
            return False, {}
        if constructor.lstrip("-").isdigit():
            if isinstance(scrutinee, HeapRef):
                obj = self.heap.load(scrutinee)
                if isinstance(obj, ConstructorCell) and obj.constructor == "I#":
                    field_value = self.force(obj.fields[0])
                    if isinstance(field_value, UnboxedInt) and \
                            field_value.value == int(constructor):
                        return True, {}
            return False, {}
        if isinstance(scrutinee, HeapRef):
            obj = self.heap.load(scrutinee)
            if isinstance(obj, ConstructorCell) and \
                    obj.constructor == constructor:
                return True, dict(zip(alternative.binders, obj.fields))
        if isinstance(scrutinee, UnboxedTupleValue) and constructor == "(#,#)":
            return True, dict(zip(alternative.binders, scrutinee.components))
        return False, {}


def _runtime_type_head(evaluator: Evaluator, value: Value) -> str:
    """The type-constructor name of a runtime value, for method dispatch."""
    if isinstance(value, UnboxedInt):
        return "Int#"
    if isinstance(value, UnboxedDouble):
        return "Double#"
    if isinstance(value, HeapRef):
        obj = evaluator.heap.load(value)
        if isinstance(obj, ConstructorCell):
            return {"I#": "Int", "D#": "Double", "F#": "Float", "C#": "Char",
                    "True": "Bool", "False": "Bool", "Just": "Maybe",
                    "Nothing": "Maybe"}.get(obj.constructor, obj.constructor)
    raise EvaluationError(f"cannot determine the type of {value!r}")


# Small surface-level definitions of the boxed prelude helpers, so programs
# can call plusInt & co. without declaring them (they are defined exactly as
# the paper defines plusInt in Section 2.1).
def _boxed_binop(primop: str) -> Expr:
    return ELam("x", ELam("y", ECase(
        EVar("x"),
        [Alternative("I#", ["i1"], ECase(
            EVar("y"),
            [Alternative("I#", ["i2"],
                         EApp(EVar("I#"),
                              EApp(EApp(EVar(primop), EVar("i1")),
                                   EVar("i2"))))]))])))


def _boxed_cmp(primop: str) -> Expr:
    return ELam("x", ELam("y", ECase(
        EVar("x"),
        [Alternative("I#", ["i1"], ECase(
            EVar("y"),
            [Alternative("I#", ["i2"], ECase(
                EApp(EApp(EVar(primop), EVar("i1")), EVar("i2")),
                [Alternative("1#", [], EVar("True")),
                 Alternative("_", [], EVar("False"))]))]))])))


_BOXED_HELPERS: Dict[str, Expr] = {
    "plusInt": _boxed_binop("+#"),
    "minusInt": _boxed_binop("-#"),
    "timesInt": _boxed_binop("*#"),
    "+": _boxed_binop("+#"),
    "-": _boxed_binop("-#"),
    "*": _boxed_binop("*#"),
    "negate": ELam("x", ECase(
        EVar("x"),
        [Alternative("I#", ["i"],
                     EApp(EVar("I#"),
                          EApp(EVar("negateInt#"), EVar("i"))))])),
    "eqInt": _boxed_cmp("==#"),
    "ltInt": _boxed_cmp("<#"),
    "not": ELam("b", ECase(EVar("b"),
                           [Alternative("True", [], EVar("False")),
                            Alternative("False", [], EVar("True"))])),
    # Lazy in the second operand, exactly like the Report's definitions —
    # these type-checked but were unbound at runtime until corpus fuzzing
    # flushed them out.
    "&&": ELam("a", ELam("b", ECase(
        EVar("a"), [Alternative("True", [], EVar("b")),
                    Alternative("False", [], EVar("False"))]))),
    "||": ELam("a", ELam("b", ECase(
        EVar("a"), [Alternative("True", [], EVar("True")),
                    Alternative("False", [], EVar("b"))]))),
    # The levity-generalised functions of Section 8.1 whose definitions are
    # representation-irrelevant: after type erasure ($) really is just
    # application and (.) really is composition, whatever the result rep.
    "$": ELam("f", ELam("x", EApp(EVar("f"), EVar("x")))),
    ".": ELam("f", ELam("g", ELam("x", EApp(EVar("f"),
                                            EApp(EVar("g"), EVar("x")))))),
    "oneShot": ELam("f", EVar("f")),
    "runRW#": ELam("f", EApp(EVar("f"), EUnboxedTuple(()))),
}


def _append_strings(x: Value, y: Value) -> Value:
    if not isinstance(x, StringValue) or not isinstance(y, StringValue):
        raise EvaluationError("appendString expects two String arguments")
    return StringValue(x.value + y.value)


def _raise_error(name: str) -> Callable[..., Value]:
    def run(message: Value) -> Value:
        text = message.value if isinstance(message, StringValue) else \
            repr(message)
        raise EvaluationError(f"{name}: {text}")
    return run
