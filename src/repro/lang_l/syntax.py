"""Abstract syntax of the language **L** (Figure 2 of the paper).

L is a variant of System F extended with levity polymorphism:

* concrete representations ``υ ::= P | I`` — pointer or integer;
* runtime representations ``ρ ::= r | υ`` — a rep variable or a concrete rep;
* kinds ``κ ::= TYPE ρ``;
* base types ``B ::= Int | Int#``;
* types ``τ ::= B | τ1 → τ2 | α | ∀α:κ. τ | ∀r. τ``;
* expressions ``e ::= x | e1 e2 | λx:τ. e | Λα:κ. e | e τ | Λr. e | e ρ
  | I#[e] | case e1 of I#[x] → e2 | n | error
  | fix x:τ. e | op#(e1, …, ek) | case e of { n1 → e1; …; _ → d }``;
* values ``v ::= λx:τ. e | Λα:κ. v | Λr. v | I#[v] | n``.

The last three expression forms — ``fix``, saturated ``Int#`` primops and
literal case — extend Figure 2 so that *whole-language* surface programs
(recursion, arithmetic, comparisons) lower into L and reach the M-machine
oracle, instead of being rejected as out-of-fragment.

The paper keeps L deliberately small (a stratified type system with exactly
two concrete representations) because it "still captures the essence of
levity polymorphism in GHC".  The richer ``Rep`` algebra lives in
:mod:`repro.core.rep` and is used by the surface language; this module uses
its own two-point representation grammar, with conversions provided by
:func:`rep_to_core`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple, Union

from ..core import rep as core_rep

# ---------------------------------------------------------------------------
# Runtime representations of L: υ ::= P | I     ρ ::= r | υ
# ---------------------------------------------------------------------------


class LRep:
    """A runtime representation ``ρ`` in L."""

    def is_concrete(self) -> bool:
        raise NotImplementedError

    def free_rep_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def substitute_rep(self, name: str, replacement: "LRep") -> "LRep":
        raise NotImplementedError

    def pretty(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.pretty()


@dataclass(frozen=True)
class PtrRep(LRep):
    """The concrete representation ``P``: a lifted heap pointer."""

    def is_concrete(self) -> bool:
        return True

    def free_rep_vars(self) -> FrozenSet[str]:
        return frozenset()

    def substitute_rep(self, name: str, replacement: LRep) -> LRep:
        return self

    def pretty(self) -> str:
        return "P"


@dataclass(frozen=True)
class IntRepL(LRep):
    """The concrete representation ``I``: an unboxed machine integer."""

    def is_concrete(self) -> bool:
        return True

    def free_rep_vars(self) -> FrozenSet[str]:
        return frozenset()

    def substitute_rep(self, name: str, replacement: LRep) -> LRep:
        return self

    def pretty(self) -> str:
        return "I"


@dataclass(frozen=True)
class RepVarL(LRep):
    """A representation variable ``r``."""

    name: str

    def is_concrete(self) -> bool:
        return False

    def free_rep_vars(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def substitute_rep(self, name: str, replacement: LRep) -> LRep:
        return replacement if self.name == name else self

    def pretty(self) -> str:
        return self.name


#: Canonical concrete representations of L.
P = PtrRep()
I = IntRepL()


def rep_to_core(rho: LRep) -> core_rep.Rep:
    """Translate an L representation into the richer core ``Rep`` algebra."""
    if isinstance(rho, PtrRep):
        return core_rep.LIFTED
    if isinstance(rho, IntRepL):
        return core_rep.INT_REP
    if isinstance(rho, RepVarL):
        return core_rep.RepVar(rho.name)
    raise TypeError(f"unknown L representation: {rho!r}")


# ---------------------------------------------------------------------------
# Kinds of L: κ ::= TYPE ρ
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LKind:
    """A kind ``TYPE ρ`` in L."""

    rep: LRep

    def is_concrete(self) -> bool:
        return self.rep.is_concrete()

    def free_rep_vars(self) -> FrozenSet[str]:
        return self.rep.free_rep_vars()

    def substitute_rep(self, name: str, replacement: LRep) -> "LKind":
        return LKind(self.rep.substitute_rep(name, replacement))

    def pretty(self) -> str:
        return f"TYPE {self.rep.pretty()}"

    def __repr__(self) -> str:
        return self.pretty()


#: ``TYPE P`` — the kind of lifted, boxed L types (``Int``, functions, foralls).
KIND_PTR = LKind(P)
#: ``TYPE I`` — the kind of the unboxed ``Int#``.
KIND_INT = LKind(I)


# ---------------------------------------------------------------------------
# Types of L: τ ::= Int | Int# | τ1 → τ2 | α | ∀α:κ. τ | ∀r. τ
# ---------------------------------------------------------------------------


class LType:
    """Abstract base class of L types."""

    def free_type_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def free_rep_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def substitute_type(self, name: str, replacement: "LType") -> "LType":
        """Capture-avoiding substitution ``self[replacement/name]``."""
        raise NotImplementedError

    def substitute_rep(self, name: str, replacement: LRep) -> "LType":
        raise NotImplementedError

    def pretty(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.pretty()


@dataclass(frozen=True)
class TInt(LType):
    """The boxed, lifted integer type ``Int`` (kind ``TYPE P``)."""

    def free_type_vars(self) -> FrozenSet[str]:
        return frozenset()

    def free_rep_vars(self) -> FrozenSet[str]:
        return frozenset()

    def substitute_type(self, name: str, replacement: LType) -> LType:
        return self

    def substitute_rep(self, name: str, replacement: LRep) -> LType:
        return self

    def pretty(self) -> str:
        return "Int"


@dataclass(frozen=True)
class TIntHash(LType):
    """The unboxed integer type ``Int#`` (kind ``TYPE I``)."""

    def free_type_vars(self) -> FrozenSet[str]:
        return frozenset()

    def free_rep_vars(self) -> FrozenSet[str]:
        return frozenset()

    def substitute_type(self, name: str, replacement: LType) -> LType:
        return self

    def substitute_rep(self, name: str, replacement: LRep) -> LType:
        return self

    def pretty(self) -> str:
        return "Int#"


@dataclass(frozen=True)
class TVar(LType):
    """A type variable ``α``."""

    name: str

    def free_type_vars(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def free_rep_vars(self) -> FrozenSet[str]:
        return frozenset()

    def substitute_type(self, name: str, replacement: LType) -> LType:
        return replacement if self.name == name else self

    def substitute_rep(self, name: str, replacement: LRep) -> LType:
        return self

    def pretty(self) -> str:
        return self.name


@dataclass(frozen=True)
class TArrow(LType):
    """The function type ``τ1 → τ2`` (always of kind ``TYPE P``: T_ARROW)."""

    argument: LType
    result: LType

    def free_type_vars(self) -> FrozenSet[str]:
        return self.argument.free_type_vars() | self.result.free_type_vars()

    def free_rep_vars(self) -> FrozenSet[str]:
        return self.argument.free_rep_vars() | self.result.free_rep_vars()

    def substitute_type(self, name: str, replacement: LType) -> LType:
        return TArrow(self.argument.substitute_type(name, replacement),
                      self.result.substitute_type(name, replacement))

    def substitute_rep(self, name: str, replacement: LRep) -> LType:
        return TArrow(self.argument.substitute_rep(name, replacement),
                      self.result.substitute_rep(name, replacement))

    def pretty(self) -> str:
        arg = self.argument.pretty()
        if isinstance(self.argument, (TArrow, TForallType, TForallRep)):
            arg = f"({arg})"
        return f"{arg} -> {self.result.pretty()}"


@dataclass(frozen=True)
class TForallType(LType):
    """Universal quantification over a type variable: ``∀α:κ. τ``."""

    var: str
    kind: LKind
    body: LType

    def free_type_vars(self) -> FrozenSet[str]:
        return self.body.free_type_vars() - {self.var}

    def free_rep_vars(self) -> FrozenSet[str]:
        return self.kind.free_rep_vars() | self.body.free_rep_vars()

    def substitute_type(self, name: str, replacement: LType) -> LType:
        if name == self.var:
            return self
        if self.var in replacement.free_type_vars():
            fresh = _fresh_name(self.var,
                                replacement.free_type_vars()
                                | self.body.free_type_vars())
            renamed = self.body.substitute_type(self.var, TVar(fresh))
            return TForallType(fresh, self.kind,
                               renamed.substitute_type(name, replacement))
        return TForallType(self.var, self.kind,
                           self.body.substitute_type(name, replacement))

    def substitute_rep(self, name: str, replacement: LRep) -> LType:
        return TForallType(self.var,
                           self.kind.substitute_rep(name, replacement),
                           self.body.substitute_rep(name, replacement))

    def pretty(self) -> str:
        return f"forall {self.var}:{self.kind.pretty()}. {self.body.pretty()}"


@dataclass(frozen=True)
class TForallRep(LType):
    """Universal quantification over a representation variable: ``∀r. τ``."""

    var: str
    body: LType

    def free_type_vars(self) -> FrozenSet[str]:
        return self.body.free_type_vars()

    def free_rep_vars(self) -> FrozenSet[str]:
        return self.body.free_rep_vars() - {self.var}

    def substitute_type(self, name: str, replacement: LType) -> LType:
        return TForallRep(self.var,
                          self.body.substitute_type(name, replacement))

    def substitute_rep(self, name: str, replacement: LRep) -> LType:
        if name == self.var:
            return self
        if self.var in replacement.free_rep_vars():
            fresh = _fresh_name(self.var,
                                replacement.free_rep_vars()
                                | self.body.free_rep_vars())
            renamed = self.body.substitute_rep(self.var, RepVarL(fresh))
            return TForallRep(fresh,
                              renamed.substitute_rep(name, replacement))
        return TForallRep(self.var,
                          self.body.substitute_rep(name, replacement))

    def pretty(self) -> str:
        return f"forall {self.var}:Rep. {self.body.pretty()}"


#: Canonical base types.
INT = TInt()
INT_HASH = TIntHash()


def arrow(*types: LType) -> LType:
    """Right-nested function type: ``arrow(a, b, c) == a -> (b -> c)``."""
    if not types:
        raise ValueError("arrow needs at least one type")
    result = types[-1]
    for argument in reversed(types[:-1]):
        result = TArrow(argument, result)
    return result


# ---------------------------------------------------------------------------
# Expressions of L
# ---------------------------------------------------------------------------


class LExpr:
    """Abstract base class of L expressions."""

    def free_vars(self) -> FrozenSet[str]:
        """Free *term* variables."""
        raise NotImplementedError

    def substitute(self, name: str, replacement: "LExpr") -> "LExpr":
        """Capture-avoiding term substitution ``self[replacement/name]``."""
        raise NotImplementedError

    def substitute_type(self, name: str, replacement: LType) -> "LExpr":
        raise NotImplementedError

    def substitute_rep(self, name: str, replacement: LRep) -> "LExpr":
        raise NotImplementedError

    def is_value(self) -> bool:
        """Is this a value according to Figure 2?

        Values are ``λx:τ. e``, ``Λα:κ. v``, ``Λr. v``, ``I#[v]`` and ``n``.
        Note that type and representation abstractions are values only when
        their *bodies* are values: L evaluates under ``Λ`` to support type
        erasure (Section 6.1).
        """
        raise NotImplementedError

    def pretty(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.pretty()


@dataclass(frozen=True)
class Var(LExpr):
    """A term variable ``x``."""

    name: str

    def free_vars(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        return replacement if self.name == name else self

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        return self

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        return self

    def is_value(self) -> bool:
        return False

    def pretty(self) -> str:
        return self.name


@dataclass(frozen=True)
class Lit(LExpr):
    """An unboxed integer literal ``n`` of type ``Int#``."""

    value: int

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        return self

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        return self

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        return self

    def is_value(self) -> bool:
        return True

    def pretty(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class App(LExpr):
    """Term application ``e1 e2``."""

    function: LExpr
    argument: LExpr

    def free_vars(self) -> FrozenSet[str]:
        return self.function.free_vars() | self.argument.free_vars()

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        return App(self.function.substitute(name, replacement),
                   self.argument.substitute(name, replacement))

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        return App(self.function.substitute_type(name, replacement),
                   self.argument.substitute_type(name, replacement))

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        return App(self.function.substitute_rep(name, replacement),
                   self.argument.substitute_rep(name, replacement))

    def is_value(self) -> bool:
        return False

    def pretty(self) -> str:
        fun = self.function.pretty()
        if isinstance(self.function, (Lam, TyLam, RepLam)):
            fun = f"({fun})"
        arg = self.argument.pretty()
        if isinstance(self.argument, (App, Lam, TyLam, RepLam, TyApp, RepApp,
                                      Case)):
            arg = f"({arg})"
        return f"{fun} {arg}"


@dataclass(frozen=True)
class Lam(LExpr):
    """Term abstraction ``λx:τ. e``."""

    var: str
    var_type: LType
    body: LExpr

    def free_vars(self) -> FrozenSet[str]:
        return self.body.free_vars() - {self.var}

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        if name == self.var:
            return self
        if self.var in replacement.free_vars():
            fresh = _fresh_name(self.var,
                                replacement.free_vars()
                                | self.body.free_vars())
            renamed = self.body.substitute(self.var, Var(fresh))
            return Lam(fresh, self.var_type,
                       renamed.substitute(name, replacement))
        return Lam(self.var, self.var_type,
                   self.body.substitute(name, replacement))

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        return Lam(self.var, self.var_type.substitute_type(name, replacement),
                   self.body.substitute_type(name, replacement))

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        return Lam(self.var, self.var_type.substitute_rep(name, replacement),
                   self.body.substitute_rep(name, replacement))

    def is_value(self) -> bool:
        return True

    def pretty(self) -> str:
        return f"\\{self.var}:{self.var_type.pretty()}. {self.body.pretty()}"


@dataclass(frozen=True)
class TyLam(LExpr):
    """Type abstraction ``Λα:κ. e``."""

    var: str
    kind: LKind
    body: LExpr

    def free_vars(self) -> FrozenSet[str]:
        return self.body.free_vars()

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        return TyLam(self.var, self.kind,
                     self.body.substitute(name, replacement))

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        if name == self.var:
            return self
        if self.var in replacement.free_type_vars():
            fresh = _fresh_name(self.var, replacement.free_type_vars())
            renamed = self.body.substitute_type(self.var, TVar(fresh))
            return TyLam(fresh, self.kind,
                         renamed.substitute_type(name, replacement))
        return TyLam(self.var, self.kind,
                     self.body.substitute_type(name, replacement))

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        return TyLam(self.var, self.kind.substitute_rep(name, replacement),
                     self.body.substitute_rep(name, replacement))

    def is_value(self) -> bool:
        return self.body.is_value()

    def pretty(self) -> str:
        return f"/\\{self.var}:{self.kind.pretty()}. {self.body.pretty()}"


@dataclass(frozen=True)
class TyApp(LExpr):
    """Type application ``e τ``."""

    expr: LExpr
    type_argument: LType

    def free_vars(self) -> FrozenSet[str]:
        return self.expr.free_vars()

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        return TyApp(self.expr.substitute(name, replacement),
                     self.type_argument)

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        return TyApp(self.expr.substitute_type(name, replacement),
                     self.type_argument.substitute_type(name, replacement))

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        return TyApp(self.expr.substitute_rep(name, replacement),
                     self.type_argument.substitute_rep(name, replacement))

    def is_value(self) -> bool:
        return False

    def pretty(self) -> str:
        expr = self.expr.pretty()
        if isinstance(self.expr, (Lam, TyLam, RepLam, App)):
            expr = f"({expr})"
        return f"{expr} @{self.type_argument.pretty()}"


@dataclass(frozen=True)
class RepLam(LExpr):
    """Representation abstraction ``Λr. e`` — the novel form of L."""

    var: str
    body: LExpr

    def free_vars(self) -> FrozenSet[str]:
        return self.body.free_vars()

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        return RepLam(self.var, self.body.substitute(name, replacement))

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        return RepLam(self.var,
                      self.body.substitute_type(name, replacement))

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        if name == self.var:
            return self
        if self.var in replacement.free_rep_vars():
            fresh = _fresh_name(self.var, replacement.free_rep_vars())
            renamed = self.body.substitute_rep(self.var, RepVarL(fresh))
            return RepLam(fresh, renamed.substitute_rep(name, replacement))
        return RepLam(self.var, self.body.substitute_rep(name, replacement))

    def is_value(self) -> bool:
        return self.body.is_value()

    def pretty(self) -> str:
        return f"/\\{self.var}:Rep. {self.body.pretty()}"


@dataclass(frozen=True)
class RepApp(LExpr):
    """Representation application ``e ρ``."""

    expr: LExpr
    rep_argument: LRep

    def free_vars(self) -> FrozenSet[str]:
        return self.expr.free_vars()

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        return RepApp(self.expr.substitute(name, replacement),
                      self.rep_argument)

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        return RepApp(self.expr.substitute_type(name, replacement),
                      self.rep_argument)

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        return RepApp(self.expr.substitute_rep(name, replacement),
                      self.rep_argument.substitute_rep(name, replacement))

    def is_value(self) -> bool:
        return False

    def pretty(self) -> str:
        expr = self.expr.pretty()
        if isinstance(self.expr, (Lam, TyLam, RepLam, App)):
            expr = f"({expr})"
        return f"{expr} @{self.rep_argument.pretty()}"


@dataclass(frozen=True)
class Con(LExpr):
    """The data constructor application ``I#[e]`` building a boxed ``Int``."""

    argument: LExpr

    def free_vars(self) -> FrozenSet[str]:
        return self.argument.free_vars()

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        return Con(self.argument.substitute(name, replacement))

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        return Con(self.argument.substitute_type(name, replacement))

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        return Con(self.argument.substitute_rep(name, replacement))

    def is_value(self) -> bool:
        return self.argument.is_value()

    def pretty(self) -> str:
        return f"I#[{self.argument.pretty()}]"


@dataclass(frozen=True)
class Case(LExpr):
    """``case e1 of I#[x] → e2`` — force and unpack a boxed integer."""

    scrutinee: LExpr
    binder: str
    body: LExpr

    def free_vars(self) -> FrozenSet[str]:
        return self.scrutinee.free_vars() | (self.body.free_vars()
                                             - {self.binder})

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        scrut = self.scrutinee.substitute(name, replacement)
        if name == self.binder:
            return Case(scrut, self.binder, self.body)
        if self.binder in replacement.free_vars():
            fresh = _fresh_name(self.binder,
                                replacement.free_vars()
                                | self.body.free_vars())
            renamed = self.body.substitute(self.binder, Var(fresh))
            return Case(scrut, fresh, renamed.substitute(name, replacement))
        return Case(scrut, self.binder,
                    self.body.substitute(name, replacement))

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        return Case(self.scrutinee.substitute_type(name, replacement),
                    self.binder,
                    self.body.substitute_type(name, replacement))

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        return Case(self.scrutinee.substitute_rep(name, replacement),
                    self.binder,
                    self.body.substitute_rep(name, replacement))

    def is_value(self) -> bool:
        return False

    def pretty(self) -> str:
        return (f"case {self.scrutinee.pretty()} of I#[{self.binder}] -> "
                f"{self.body.pretty()}")


@dataclass(frozen=True)
class Fix(LExpr):
    """The fixpoint form ``fix x:τ. e`` — recursion, added on top of Figure 2.

    The seed L was strongly normalising; recursive surface bindings could
    not lower, so the M machine never saw programs like ``sumTo#``.  ``fix``
    closes that gap.  The binder must live at a *pointer-kinded* type
    (``TYPE P``): unrolling substitutes the whole ``fix`` term for ``x``,
    and on the machine the knot is tied through a heap thunk — there is no
    thunk (and no evaluation rule) at an unboxed type.

    The free variables are computed on first use and cached on the node,
    and with them :attr:`closed`.  Substitution returns a closed ``fix``
    unchanged, so unrolling one shares it with every later trace term.
    """

    var: str
    var_type: LType
    body: LExpr

    def free_vars(self) -> FrozenSet[str]:
        free = self.__dict__.get("_free")
        if free is None:
            free = self.body.free_vars() - {self.var}
            object.__setattr__(self, "_free", free)
        return free

    @property
    def closed(self) -> bool:
        return not self.free_vars()

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        if name == self.var or self.closed:
            return self
        if self.var in replacement.free_vars():
            fresh = _fresh_name(self.var,
                                replacement.free_vars()
                                | self.body.free_vars())
            renamed = self.body.substitute(self.var, Var(fresh))
            return Fix(fresh, self.var_type,
                       renamed.substitute(name, replacement))
        return Fix(self.var, self.var_type,
                   self.body.substitute(name, replacement))

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        return Fix(self.var, self.var_type.substitute_type(name, replacement),
                   self.body.substitute_type(name, replacement))

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        return Fix(self.var, self.var_type.substitute_rep(name, replacement),
                   self.body.substitute_rep(name, replacement))

    def is_value(self) -> bool:
        return False

    def pretty(self) -> str:
        return (f"fix {self.var}:{self.var_type.pretty()}. "
                f"{self.body.pretty()}")


@dataclass(frozen=True)
class PrimOp(LExpr):
    """A saturated primop application ``op#(e1, …, ek)`` at ``Int#``.

    The operator set and its delta rules live in
    :mod:`repro.core.primops`; every operand and the result are ``Int#``.
    Arguments evaluate strictly, left to right — they are unboxed, so
    call-by-value is forced (the same reasoning as rule S_APP2 for
    ``TYPE I`` arguments).
    """

    name: str
    arguments: Tuple[LExpr, ...]

    def free_vars(self) -> FrozenSet[str]:
        free: FrozenSet[str] = frozenset()
        for argument in self.arguments:
            free |= argument.free_vars()
        return free

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        return PrimOp(self.name,
                      tuple(a.substitute(name, replacement)
                            for a in self.arguments))

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        return PrimOp(self.name,
                      tuple(a.substitute_type(name, replacement)
                            for a in self.arguments))

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        return PrimOp(self.name,
                      tuple(a.substitute_rep(name, replacement)
                            for a in self.arguments))

    def is_value(self) -> bool:
        return False

    def pretty(self) -> str:
        args = ", ".join(a.pretty() for a in self.arguments)
        return f"{self.name}({args})"


@dataclass(frozen=True)
class CaseLit(LExpr):
    """``case e of { n1 → e1; …; _ → d }`` — branch on an ``Int#`` literal.

    The scrutinee is unboxed, hence strict; exactly one branch is taken
    (the first alternative whose literal equals the scrutinee, else the
    default).  This is what surface programs like ``sumTo#`` compile
    their ``case n ==# 0# of { 1# -> …; _ -> … }`` conditionals into.
    """

    scrutinee: LExpr
    alternatives: Tuple[Tuple[int, LExpr], ...]
    default: LExpr

    def free_vars(self) -> FrozenSet[str]:
        free = self.scrutinee.free_vars() | self.default.free_vars()
        for _, branch in self.alternatives:
            free |= branch.free_vars()
        return free

    def _map(self, fn) -> "CaseLit":
        return CaseLit(fn(self.scrutinee),
                       tuple((lit, fn(branch))
                             for lit, branch in self.alternatives),
                       fn(self.default))

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        return self._map(lambda e: e.substitute(name, replacement))

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        return self._map(lambda e: e.substitute_type(name, replacement))

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        return self._map(lambda e: e.substitute_rep(name, replacement))

    def is_value(self) -> bool:
        return False

    def pretty(self) -> str:
        alts = "; ".join(f"{lit} -> {branch.pretty()}"
                         for lit, branch in self.alternatives)
        if alts:
            alts += "; "
        return (f"case {self.scrutinee.pretty()} of {{ {alts}"
                f"_ -> {self.default.pretty()} }}")


@dataclass(frozen=True)
class ErrorExpr(LExpr):
    """The ``error`` constant: ``∀r. ∀α:TYPE r. Int → α`` (rule E_ERROR)."""

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def substitute(self, name: str, replacement: LExpr) -> LExpr:
        return self

    def substitute_type(self, name: str, replacement: LType) -> LExpr:
        return self

    def substitute_rep(self, name: str, replacement: LRep) -> LExpr:
        return self

    def is_value(self) -> bool:
        return False

    def pretty(self) -> str:
        return "error"


ERROR = ErrorExpr()


# ---------------------------------------------------------------------------
# Typing contexts Γ ::= ∅ | Γ, x:τ | Γ, α:κ | Γ, r
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Context:
    """A typing context ``Γ`` for L.

    Stored as immutable tuples so extended contexts share structure with the
    original, matching the inductive definition in Figure 2.
    """

    term_vars: Tuple[Tuple[str, LType], ...] = ()
    type_vars: Tuple[Tuple[str, LKind], ...] = ()
    rep_vars: Tuple[str, ...] = ()

    def bind_term(self, name: str, type_: LType) -> "Context":
        return Context(self.term_vars + ((name, type_),),
                       self.type_vars, self.rep_vars)

    def bind_type(self, name: str, kind: LKind) -> "Context":
        return Context(self.term_vars, self.type_vars + ((name, kind),),
                       self.rep_vars)

    def bind_rep(self, name: str) -> "Context":
        return Context(self.term_vars, self.type_vars,
                       self.rep_vars + (name,))

    def lookup_term(self, name: str) -> Optional[LType]:
        for var, type_ in reversed(self.term_vars):
            if var == name:
                return type_
        return None

    def lookup_type(self, name: str) -> Optional[LKind]:
        for var, kind in reversed(self.type_vars):
            if var == name:
                return kind
        return None

    def has_rep(self, name: str) -> bool:
        return name in self.rep_vars

    def has_term_bindings(self) -> bool:
        """Used by the Progress and Simulation theorems, which require a
        context with no term-variable bindings."""
        return bool(self.term_vars)

    def pretty(self) -> str:
        parts = [f"{n}:{t.pretty()}" for n, t in self.term_vars]
        parts += [f"{n}:{k.pretty()}" for n, k in self.type_vars]
        parts += [f"{n}:Rep" for n in self.rep_vars]
        return ", ".join(parts) if parts else "∅"

    def __repr__(self) -> str:
        return f"Context({self.pretty()})"


EMPTY_CONTEXT = Context()


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

_fresh_counter = itertools.count()


def _fresh_name(base: str, avoid: FrozenSet[str]) -> str:
    """A variable name based on ``base`` that is not in ``avoid``."""
    candidate = f"{base}'"
    while candidate in avoid:
        candidate = f"{base}_{next(_fresh_counter)}"
    return candidate


def lam(var: str, var_type: LType, body: LExpr) -> Lam:
    """Convenience constructor for ``λvar:var_type. body``."""
    return Lam(var, var_type, body)


def app(function: LExpr, *arguments: LExpr) -> LExpr:
    """Left-nested application ``function a1 a2 ...``."""
    expr = function
    for argument in arguments:
        expr = App(expr, argument)
    return expr


def boxed_int(n: int) -> Con:
    """The boxed integer value ``I#[n]``."""
    return Con(Lit(n))
