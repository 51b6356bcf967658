"""Surface-language expressions and declarations ("MiniHaskell").

The surface language is the GHC-flavoured layer the paper's examples are
written in: ``bTwice``, ``sumTo``/``sumTo#``, ``error``/``myError``, ``($)``,
``(.)``, the generalised ``Num`` class and the ``abs1``/``abs2`` pair.  It is
deliberately a *subset* of Haskell — enough to express every program that
appears in the paper — with:

* unboxed literals (``3#``, ``2.5##``) alongside boxed ones;
* lambdas with optional type annotations on binders;
* ``let`` bindings with optional type signatures (the vehicle for declared
  levity polymorphism, Section 5.2);
* conditionals and saturated constructor applications;
* unboxed tuple expressions;
* top-level declarations: type signatures, function bindings, ``data``,
  ``class`` and ``instance`` declarations.

Type checking and inference for these forms live in :mod:`repro.infer`;
execution with a cost model lives in :mod:`repro.runtime`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .types import Binder, ClassConstraint, SType


class Expr:
    """Abstract base class of surface expressions."""

    def free_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def pretty(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.pretty()


@dataclass(frozen=True)
class EVar(Expr):
    """A variable or (by convention) an operator name such as ``+#``."""

    name: str

    def free_vars(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def is_symbolic(self) -> bool:
        """Is this an operator name that must print in section form?"""
        return not (self.name[0].isalpha() or self.name[0] in "_(")

    def pretty(self) -> str:
        # A symbolic operator prints as its section `(+#)` so the output
        # re-parses in *every* position (binding rhs, let rhs, case rhs,
        # tuple component, ...), not just the application positions the
        # parser's operator table can recover.
        if self.is_symbolic():
            return f"({self.name})"
        return self.name


@dataclass(frozen=True)
class ELitInt(Expr):
    """A boxed integer literal such as ``42`` (type ``Int``)."""

    value: int

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def pretty(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class ELitIntHash(Expr):
    """An unboxed integer literal such as ``42#`` (type ``Int#``)."""

    value: int

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def pretty(self) -> str:
        return f"{self.value}#"


@dataclass(frozen=True)
class ELitDoubleHash(Expr):
    """An unboxed double literal such as ``2.5##`` (type ``Double#``)."""

    value: float

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def pretty(self) -> str:
        return f"{self.value}##"


_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t",
                   "\r": "\\r", "\0": "\\0"}


@dataclass(frozen=True)
class ELitString(Expr):
    """A string literal (type ``String``)."""

    value: str

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def pretty(self) -> str:
        # Double-quoted with the lexer's escapes: Python's repr prefers
        # single quotes, which the lexer reads as a character literal.
        body = "".join(_STRING_ESCAPES.get(ch, ch) for ch in self.value)
        return f'"{body}"'


@dataclass(frozen=True)
class ELitChar(Expr):
    """A boxed character literal (type ``Char``)."""

    value: str

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def pretty(self) -> str:
        return f"'{self.value}'"


@dataclass(frozen=True)
class EBool(Expr):
    """``True`` or ``False``."""

    value: bool

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def pretty(self) -> str:
        return "True" if self.value else "False"


@dataclass(frozen=True)
class EApp(Expr):
    """Application ``function argument``."""

    function: Expr
    argument: Expr

    def free_vars(self) -> FrozenSet[str]:
        return self.function.free_vars() | self.argument.free_vars()

    def pretty(self) -> str:
        # Symbolic operators (`+#`, `-`, `$`) already render in section form
        # via EVar.pretty, so function position needs no extra wrapping for
        # them; `case` joins the other special forms because `f case x of
        # {...}` does not re-parse (case is not an aexp).
        fun = self.function.pretty()
        if isinstance(self.function, (ELam, ELet, EIf, ECase)) \
                or fun.startswith("-"):
            # A leading minus in function position would re-parse as a
            # prefix negation of the whole application.
            fun = f"({fun})"
        arg = self.argument.pretty()
        if isinstance(self.argument, (EApp, ELam, ELet, EIf, ECase)) \
                or arg.startswith("-"):
            # Negative literals must keep their parens: `f -1` would
            # re-parse as the infix subtraction `f - 1`.
            arg = f"({arg})"
        return f"{fun} {arg}"


@dataclass(frozen=True)
class ELam(Expr):
    """``\\x -> body`` with an optional binder annotation ``\\(x :: t) -> body``."""

    var: str
    body: Expr
    annotation: Optional[SType] = None

    def free_vars(self) -> FrozenSet[str]:
        return self.body.free_vars() - {self.var}

    def pretty(self) -> str:
        if self.annotation is not None:
            return (f"\\({self.var} :: {self.annotation.pretty()}) -> "
                    f"{self.body.pretty()}")
        return f"\\{self.var} -> {self.body.pretty()}"


@dataclass(frozen=True)
class ELet(Expr):
    """``let x = rhs in body`` with an optional type signature for ``x``."""

    var: str
    rhs: Expr
    body: Expr
    signature: Optional[SType] = None

    def free_vars(self) -> FrozenSet[str]:
        return self.rhs.free_vars() | (self.body.free_vars() - {self.var})

    def pretty(self) -> str:
        sig = ""
        if self.signature is not None:
            sig = f"{self.var} :: {self.signature.pretty()}; "
        return (f"let {sig}{self.var} = {self.rhs.pretty()} in "
                f"{self.body.pretty()}")


@dataclass(frozen=True)
class EIf(Expr):
    """``if condition then consequent else alternative``."""

    condition: Expr
    consequent: Expr
    alternative: Expr

    def free_vars(self) -> FrozenSet[str]:
        return (self.condition.free_vars() | self.consequent.free_vars()
                | self.alternative.free_vars())

    def pretty(self) -> str:
        return (f"if {self.condition.pretty()} then "
                f"{self.consequent.pretty()} else "
                f"{self.alternative.pretty()}")


@dataclass(frozen=True)
class EAnn(Expr):
    """A type-annotated expression ``expr :: type``."""

    expr: Expr
    type: SType

    def free_vars(self) -> FrozenSet[str]:
        return self.expr.free_vars()

    def pretty(self) -> str:
        inner = self.expr.pretty()
        if isinstance(self.expr, (ELam, ELet, EIf)):
            # These forms extend maximally, so `let ... in b :: t` would
            # re-parse with the annotation attached to the *body*.
            inner = f"({inner})"
        return f"({inner} :: {self.type.pretty()})"


@dataclass(frozen=True)
class EUnboxedTuple(Expr):
    """An unboxed tuple expression ``(# e1, ..., en #)``."""

    components: Tuple[Expr, ...]

    def __init__(self, components: Iterable[Expr] = ()) -> None:
        object.__setattr__(self, "components", tuple(components))

    def free_vars(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for component in self.components:
            out = out | component.free_vars()
        return out

    def pretty(self) -> str:
        inner = ", ".join(c.pretty() for c in self.components)
        return f"(# {inner} #)" if inner else "(# #)"


@dataclass(frozen=True)
class ECase(Expr):
    """``case scrutinee of { pattern -> rhs ; ... }`` with simple patterns."""

    scrutinee: Expr
    alternatives: Tuple["Alternative", ...]

    def __init__(self, scrutinee: Expr,
                 alternatives: Iterable["Alternative"]) -> None:
        object.__setattr__(self, "scrutinee", scrutinee)
        object.__setattr__(self, "alternatives", tuple(alternatives))

    def free_vars(self) -> FrozenSet[str]:
        out = self.scrutinee.free_vars()
        for alternative in self.alternatives:
            out = out | (alternative.rhs.free_vars()
                         - frozenset(alternative.binders))
        return out

    def pretty(self) -> str:
        alts = "; ".join(a.pretty() for a in self.alternatives)
        return f"case {self.scrutinee.pretty()} of {{ {alts} }}"


@dataclass(frozen=True)
class Alternative:
    """One alternative of a case expression: constructor, binders, rhs.

    ``constructor`` may be a data constructor name (``"I#"``, ``"Just"``),
    an integer literal (as a string), or ``"_"`` for the wildcard.
    """

    constructor: str
    binders: Tuple[str, ...]
    rhs: Expr

    def __init__(self, constructor: str, binders: Iterable[str],
                 rhs: Expr) -> None:
        object.__setattr__(self, "constructor", constructor)
        object.__setattr__(self, "binders", tuple(binders))
        object.__setattr__(self, "rhs", rhs)

    def pretty(self) -> str:
        if self.constructor == "(#,#)":
            pattern = f"(# {', '.join(self.binders)} #)"
        else:
            binders = " ".join(self.binders)
            pattern = f"{self.constructor} {binders}".strip()
        return f"{pattern} -> {self.rhs.pretty()}"


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class Decl:
    """Abstract base class of top-level declarations."""

    def pretty(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.pretty()


@dataclass(frozen=True)
class ModuleHeader(Decl):
    """The ``module M where`` header naming a module.

    Parsed as a declaration so the incremental block parser can memoise it
    like any other column-1 block; :func:`repro.frontend.parser` enforces
    that it is the *first* declaration and folds its name into
    :attr:`Module.name`.
    """

    name: str

    def pretty(self) -> str:
        return f"module {self.name} where"


@dataclass(frozen=True)
class ImportDecl(Decl):
    """An ``import N`` declaration bringing module ``N``'s exports into scope.

    Imports are unqualified and total: every top-level binding the named
    module defines becomes visible.  The project planner
    (:mod:`repro.driver.project`) resolves them; in single-file checking
    they produce a warning and the imported names simply stay out of
    scope.
    """

    #: The imported module's name (the target of the edge in the project
    #: dependency graph).  ``Decl.name`` conventions elsewhere refer to the
    #: *defined* name, which an import does not have; the planner treats
    #: imports positionally.
    name: str

    def pretty(self) -> str:
        return f"import {self.name}"


@dataclass(frozen=True)
class TypeSig(Decl):
    """A standalone type signature ``name :: type``."""

    name: str
    type: SType

    def pretty(self) -> str:
        return f"{self.name} :: {self.type.pretty()}"


@dataclass(frozen=True)
class FunBind(Decl):
    """A function binding ``name p1 ... pn = rhs`` (parameters are variables)."""

    name: str
    params: Tuple[str, ...]
    rhs: Expr

    def __init__(self, name: str, params: Iterable[str], rhs: Expr) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "rhs", rhs)

    def pretty(self) -> str:
        params = " ".join(self.params)
        head = f"{self.name} {params}".strip()
        return f"{head} = {self.rhs.pretty()}"


@dataclass(frozen=True)
class ConstructorDecl:
    """A data constructor with its field types."""

    name: str
    fields: Tuple[SType, ...]

    def __init__(self, name: str, fields: Iterable[SType] = ()) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fields", tuple(fields))

    def pretty(self) -> str:
        fields = " ".join(f.pretty() for f in self.fields)
        return f"{self.name} {fields}".strip()


@dataclass(frozen=True)
class DataDecl(Decl):
    """``data Name b1 ... bn = C1 t11 ... | C2 ...``."""

    name: str
    binders: Tuple[Binder, ...]
    constructors: Tuple[ConstructorDecl, ...]

    def __init__(self, name: str, binders: Iterable[Binder],
                 constructors: Iterable[ConstructorDecl]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "binders", tuple(binders))
        object.__setattr__(self, "constructors", tuple(constructors))

    def pretty(self) -> str:
        binders = " ".join(b.name for b in self.binders)
        head = f"data {self.name} {binders}".strip()
        constructors = " | ".join(c.pretty() for c in self.constructors)
        return f"{head} = {constructors}"


@dataclass(frozen=True)
class ClassDecl(Decl):
    """``class Name (a :: k) where`` with method signatures.

    ``class_var_kind`` is where levity polymorphism enters: the classic
    ``Num a`` has ``a :: Type`` whereas the generalised class of Section 7.3
    has ``a :: TYPE r`` for a quantified ``r``.
    """

    name: str
    class_var: str
    class_var_kind_binders: Tuple[Binder, ...]  # e.g. (r :: Rep) when generalised
    class_var_binder: Binder
    methods: Tuple[Tuple[str, SType], ...]
    superclasses: Tuple[ClassConstraint, ...] = ()

    def __init__(self, name: str, class_var: str,
                 class_var_binder: Binder,
                 methods: Iterable[Tuple[str, SType]],
                 class_var_kind_binders: Iterable[Binder] = (),
                 superclasses: Iterable[ClassConstraint] = ()) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "class_var", class_var)
        object.__setattr__(self, "class_var_binder", class_var_binder)
        object.__setattr__(self, "methods", tuple(methods))
        object.__setattr__(self, "class_var_kind_binders",
                           tuple(class_var_kind_binders))
        object.__setattr__(self, "superclasses", tuple(superclasses))

    def method_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.methods)

    def pretty(self) -> str:
        methods = "; ".join(f"{n} :: {t.pretty()}" for n, t in self.methods)
        return (f"class {self.name} "
                f"({self.class_var} :: "
                f"{self.class_var_binder.kind.pretty()}) where {{ {methods} }}")


@dataclass(frozen=True)
class InstanceDecl(Decl):
    """``instance Name T where`` with method implementations."""

    class_name: str
    instance_type: SType
    methods: Tuple[Tuple[str, Expr], ...]

    def __init__(self, class_name: str, instance_type: SType,
                 methods: Iterable[Tuple[str, Expr]]) -> None:
        object.__setattr__(self, "class_name", class_name)
        object.__setattr__(self, "instance_type", instance_type)
        object.__setattr__(self, "methods", tuple(methods))

    def pretty(self) -> str:
        methods = "; ".join(f"{n} = {e.pretty()}" for n, e in self.methods)
        return (f"instance {self.class_name} {self.instance_type.pretty()} "
                f"where {{ {methods} }}")


@dataclass(frozen=True)
class Module:
    """A surface module: an ordered list of declarations."""

    name: str
    decls: Tuple[Decl, ...]

    def __init__(self, name: str, decls: Iterable[Decl]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "decls", tuple(decls))

    def signatures(self) -> Dict[str, SType]:
        return {d.name: d.type for d in self.decls if isinstance(d, TypeSig)}

    def bindings(self) -> Dict[str, FunBind]:
        return {d.name: d for d in self.decls if isinstance(d, FunBind)}

    def header(self) -> Optional[ModuleHeader]:
        for decl in self.decls:
            if isinstance(decl, ModuleHeader):
                return decl
        return None

    def imports(self) -> List[str]:
        """Imported module names, in declaration order, de-duplicated."""
        seen: Dict[str, None] = {}
        for decl in self.decls:
            if isinstance(decl, ImportDecl):
                seen.setdefault(decl.name, None)
        return list(seen)

    def pretty(self) -> str:
        return "\n".join(d.pretty() for d in self.decls)


def apply(function: Expr, *arguments: Expr) -> Expr:
    """Left-nested application."""
    expr = function
    for argument in arguments:
        expr = EApp(expr, argument)
    return expr


def lams(params: Sequence[str], body: Expr) -> Expr:
    """Nested lambdas ``\\p1 -> ... \\pn -> body``."""
    expr = body
    for param in reversed(params):
        expr = ELam(param, expr)
    return expr
