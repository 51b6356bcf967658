"""Abstract syntax of the machine language **M** (Figure 5 of the paper).

M is a λ-calculus in A-normal form: functions can be applied only to
*variables* or *integer literals*, so every intermediate computation must be
named by a ``let`` (lazy, heap-allocating) or a ``let!`` (strict,
stack-evaluating).  Variables come in two flavours, reflecting the two
machine register classes of L's concrete representations:

* ``p`` — pointer variables (heap pointers, garbage-collected registers);
* ``i`` — integer variables (unboxed machine integers).

Everything in M has a *known, fixed width*; M has no levity polymorphism, no
types, and no representation abstraction.  That is the point: Figure 7's
compilation erases all of L's type structure and the Section 5.1 restrictions
guarantee the erasure never needs to know an unknown width.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, NamedTuple


class VarSort:
    """Marker constants for the two variable sorts of M."""

    POINTER = "pointer"
    INTEGER = "integer"


class MVar(NamedTuple):
    """An M variable ``y``, either a pointer ``p`` or an integer ``i``: a
    named tuple, so that ``==`` and ``hash`` (every heap lookup) run in C."""

    name: str
    sort: str  # VarSort.POINTER or VarSort.INTEGER

    def is_pointer(self) -> bool:
        return self.sort == VarSort.POINTER

    def is_integer(self) -> bool:
        return self.sort == VarSort.INTEGER

    def pretty(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"{self.name}:{'p' if self.is_pointer() else 'i'}"


_var_counter = itertools.count()


def fresh_pointer_var(prefix: str = "p") -> MVar:
    """A fresh pointer variable."""
    return MVar(f"{prefix}{next(_var_counter)}", VarSort.POINTER)


def fresh_integer_var(prefix: str = "i") -> MVar:
    """A fresh integer variable."""
    return MVar(f"{prefix}{next(_var_counter)}", VarSort.INTEGER)


class MExpr:
    """Abstract base class of M expressions ``t``.

    Nodes are slotted dataclasses with structural ``==`` and ``hash``,
    immutable by convention: never assign to a field.  (A frozen dataclass
    costs two to three times as much to build, and most steps build one.)
    """

    __slots__ = ()

    def free_vars(self) -> FrozenSet[MVar]:
        raise NotImplementedError

    def substitute_var(self, var: MVar, replacement: MVar) -> "MExpr":
        """Substitute a variable for a variable (rule PPOP)."""
        raise NotImplementedError

    def substitute_literal(self, var: MVar, value: int) -> "MExpr":
        """Substitute an integer literal for an integer variable (IPOP/ILET/IMAT)."""
        raise NotImplementedError

    def pretty(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.pretty()


@dataclass(unsafe_hash=True, slots=True)
class MVarRef(MExpr):
    """A variable occurrence ``y``."""

    var: MVar

    def free_vars(self) -> FrozenSet[MVar]:
        return frozenset({self.var})

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        return MVarRef(replacement) if self.var == var else self

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        return MLit(value) if self.var == var else self

    def pretty(self) -> str:
        return self.var.name


@dataclass(unsafe_hash=True, slots=True)
class MLit(MExpr):
    """An integer literal ``n`` — a value."""

    value: int

    def free_vars(self) -> FrozenSet[MVar]:
        return frozenset()

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        return self

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        return self

    def pretty(self) -> str:
        return str(self.value)


@dataclass(unsafe_hash=True, slots=True)
class MLam(MExpr):
    """A λ-abstraction ``λy.t`` — a value.

    The binder carries its sort, so the machine knows whether the argument
    arrives in a pointer register (rule PPOP) or an integer register (IPOP).
    """

    var: MVar
    body: MExpr

    def free_vars(self) -> FrozenSet[MVar]:
        return self.body.free_vars() - {self.var}

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        if var == self.var:
            return self
        if replacement == self.var:
            fresh = (fresh_pointer_var(self.var.name + "_")
                     if self.var.is_pointer()
                     else fresh_integer_var(self.var.name + "_"))
            renamed = self.body.substitute_var(self.var, fresh)
            return MLam(fresh, renamed.substitute_var(var, replacement))
        return MLam(self.var, self.body.substitute_var(var, replacement))

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        if var == self.var:
            return self
        return MLam(self.var, self.body.substitute_literal(var, value))

    def pretty(self) -> str:
        return f"\\{self.var.name}. {self.body.pretty()}"


@dataclass(unsafe_hash=True, slots=True)
class MAppVar(MExpr):
    """Application to a variable: ``t y`` (A-normal form)."""

    function: MExpr
    argument: MVar

    def free_vars(self) -> FrozenSet[MVar]:
        return self.function.free_vars() | {self.argument}

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        argument = replacement if self.argument == var else self.argument
        return MAppVar(self.function.substitute_var(var, replacement),
                       argument)

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        function = self.function.substitute_literal(var, value)
        if self.argument == var:
            return MAppLit(function, value)
        return MAppVar(function, self.argument)

    def pretty(self) -> str:
        fun = self.function.pretty()
        if isinstance(self.function, MLam):
            fun = f"({fun})"
        return f"{fun} {self.argument.name}"


@dataclass(unsafe_hash=True, slots=True)
class MAppLit(MExpr):
    """Application to an integer literal: ``t n``."""

    function: MExpr
    argument: int

    def free_vars(self) -> FrozenSet[MVar]:
        return self.function.free_vars()

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        return MAppLit(self.function.substitute_var(var, replacement),
                       self.argument)

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        return MAppLit(self.function.substitute_literal(var, value),
                       self.argument)

    def pretty(self) -> str:
        fun = self.function.pretty()
        if isinstance(self.function, MLam):
            fun = f"({fun})"
        return f"{fun} {self.argument}"


@dataclass(unsafe_hash=True, slots=True)
class MLet(MExpr):
    """Lazy let: ``let p = t1 in t2`` — allocates a thunk on the heap."""

    var: MVar
    rhs: MExpr
    body: MExpr

    def __post_init__(self) -> None:
        if not self.var.is_pointer():
            raise ValueError("lazy let binds pointer variables only")

    def free_vars(self) -> FrozenSet[MVar]:
        return self.rhs.free_vars() | (self.body.free_vars() - {self.var})

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        rhs = self.rhs.substitute_var(var, replacement)
        if var == self.var:
            return MLet(self.var, rhs, self.body)
        if replacement == self.var:
            fresh = fresh_pointer_var(self.var.name + "_")
            renamed = self.body.substitute_var(self.var, fresh)
            return MLet(fresh, rhs, renamed.substitute_var(var, replacement))
        return MLet(self.var, rhs,
                    self.body.substitute_var(var, replacement))

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        rhs = self.rhs.substitute_literal(var, value)
        if var == self.var:
            return MLet(self.var, rhs, self.body)
        return MLet(self.var, rhs,
                    self.body.substitute_literal(var, value))

    def pretty(self) -> str:
        return (f"let {self.var.name} = {self.rhs.pretty()} in "
                f"{self.body.pretty()}")


@dataclass(unsafe_hash=True, slots=True)
class MLetStrict(MExpr):
    """Strict let: ``let! y = t1 in t2`` — evaluates ``t1`` on the stack."""

    var: MVar
    rhs: MExpr
    body: MExpr

    def free_vars(self) -> FrozenSet[MVar]:
        return self.rhs.free_vars() | (self.body.free_vars() - {self.var})

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        rhs = self.rhs.substitute_var(var, replacement)
        if var == self.var:
            return MLetStrict(self.var, rhs, self.body)
        if replacement == self.var:
            fresh = (fresh_pointer_var(self.var.name + "_")
                     if self.var.is_pointer()
                     else fresh_integer_var(self.var.name + "_"))
            renamed = self.body.substitute_var(self.var, fresh)
            return MLetStrict(fresh, rhs,
                              renamed.substitute_var(var, replacement))
        return MLetStrict(self.var, rhs,
                          self.body.substitute_var(var, replacement))

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        rhs = self.rhs.substitute_literal(var, value)
        if var == self.var:
            return MLetStrict(self.var, rhs, self.body)
        return MLetStrict(self.var, rhs,
                          self.body.substitute_literal(var, value))

    def pretty(self) -> str:
        return (f"let! {self.var.name} = {self.rhs.pretty()} in "
                f"{self.body.pretty()}")


@dataclass(unsafe_hash=True, slots=True)
class MCase(MExpr):
    """``case t1 of I#[y] → t2`` — force and unpack a boxed integer."""

    scrutinee: MExpr
    binder: MVar
    body: MExpr

    def free_vars(self) -> FrozenSet[MVar]:
        return self.scrutinee.free_vars() | (self.body.free_vars()
                                             - {self.binder})

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        scrutinee = self.scrutinee.substitute_var(var, replacement)
        if var == self.binder:
            return MCase(scrutinee, self.binder, self.body)
        if replacement == self.binder:
            fresh = fresh_integer_var(self.binder.name + "_")
            renamed = self.body.substitute_var(self.binder, fresh)
            return MCase(scrutinee, fresh,
                         renamed.substitute_var(var, replacement))
        return MCase(scrutinee, self.binder,
                     self.body.substitute_var(var, replacement))

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        scrutinee = self.scrutinee.substitute_literal(var, value)
        if var == self.binder:
            return MCase(scrutinee, self.binder, self.body)
        return MCase(scrutinee, self.binder,
                     self.body.substitute_literal(var, value))

    def pretty(self) -> str:
        return (f"case {self.scrutinee.pretty()} of I#[{self.binder.name}] "
                f"-> {self.body.pretty()}")


@dataclass(unsafe_hash=True, slots=True)
class MConVar(MExpr):
    """``I#[y]`` — a boxed integer whose field is still a variable."""

    var: MVar

    def free_vars(self) -> FrozenSet[MVar]:
        return frozenset({self.var})

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        return MConVar(replacement) if self.var == var else self

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        return MConLit(value) if self.var == var else self

    def pretty(self) -> str:
        return f"I#[{self.var.name}]"


@dataclass(unsafe_hash=True, slots=True)
class MConLit(MExpr):
    """``I#[n]`` — a fully evaluated boxed integer: a value."""

    value: int

    def free_vars(self) -> FrozenSet[MVar]:
        return frozenset()

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        return self

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        return self

    def pretty(self) -> str:
        return f"I#[{self.value}]"


@dataclass(unsafe_hash=True, slots=True)
class MFix(MExpr):
    """``fix p. t`` — recursion, compiled from L's ``fix x:τ. e``.

    The binder is always a *pointer* variable: the machine ties the knot
    by allocating the ``fix`` term itself as a heap thunk (at a fresh
    address, unless it re-ties its own cell ``p``) and continuing with the
    body (rule FIX), so recursive occurrences go through an ordinary heap
    lookup / EVAL force.
    """

    var: MVar
    body: MExpr

    def __post_init__(self) -> None:
        if not self.var.is_pointer():
            raise ValueError("fix binds pointer variables only")

    def free_vars(self) -> FrozenSet[MVar]:
        return self.body.free_vars() - {self.var}

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        if var == self.var:
            return self
        if replacement == self.var:
            fresh = fresh_pointer_var(self.var.name + "_")
            renamed = self.body.substitute_var(self.var, fresh)
            return MFix(fresh, renamed.substitute_var(var, replacement))
        return MFix(self.var, self.body.substitute_var(var, replacement))

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        if var == self.var:
            return self
        return MFix(self.var, self.body.substitute_literal(var, value))

    def pretty(self) -> str:
        return f"fix {self.var.name}. {self.body.pretty()}"


@dataclass(unsafe_hash=True, slots=True)
class MPrimOp(MExpr):
    """``op#(a1, …, ak)`` — a saturated integer primop.

    Compiled code keeps the operands in A-normal form (literals or
    integer variables that strict lets substitute away), but the machine
    also evaluates arbitrary operand expressions via ``PrimFrame``, so
    hand-written M terms work too.
    """

    name: str
    arguments: "tuple[MExpr, ...]"

    def free_vars(self) -> FrozenSet[MVar]:
        free: FrozenSet[MVar] = frozenset()
        for argument in self.arguments:
            free |= argument.free_vars()
        return free

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        return MPrimOp(self.name,
                       tuple(a.substitute_var(var, replacement)
                             for a in self.arguments))

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        return MPrimOp(self.name,
                       tuple(a.substitute_literal(var, value)
                             for a in self.arguments))

    def pretty(self) -> str:
        args = ", ".join(a.pretty() for a in self.arguments)
        return f"{self.name}({args})"


@dataclass(unsafe_hash=True, slots=True)
class MCaseLit(MExpr):
    """``case t of { n1 → t1; …; _ → d }`` — branch on an integer literal."""

    scrutinee: MExpr
    alternatives: "tuple[tuple[int, MExpr], ...]"
    default: MExpr

    def free_vars(self) -> FrozenSet[MVar]:
        free = self.scrutinee.free_vars() | self.default.free_vars()
        for _, branch in self.alternatives:
            free |= branch.free_vars()
        return free

    def _map(self, fn) -> "MCaseLit":
        return MCaseLit(fn(self.scrutinee),
                        tuple((lit, fn(branch))
                              for lit, branch in self.alternatives),
                        fn(self.default))

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        return self._map(lambda e: e.substitute_var(var, replacement))

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        return self._map(lambda e: e.substitute_literal(var, value))

    def pretty(self) -> str:
        alts = "; ".join(f"{lit} -> {branch.pretty()}"
                         for lit, branch in self.alternatives)
        if alts:
            alts += "; "
        return (f"case {self.scrutinee.pretty()} of {{ {alts}"
                f"_ -> {self.default.pretty()} }}")


@dataclass(unsafe_hash=True, slots=True)
class MError(MExpr):
    """The ``error`` constant — aborts the machine (rule ERR)."""

    def free_vars(self) -> FrozenSet[MVar]:
        return frozenset()

    def substitute_var(self, var: MVar, replacement: MVar) -> MExpr:
        return self

    def substitute_literal(self, var: MVar, value: int) -> MExpr:
        return self

    def pretty(self) -> str:
        return "error"


M_ERROR = MError()


#: The classes of the value forms ``w ::= λy.t | I#[n] | n``.
VALUE_FORMS = frozenset({MLam, MLit, MConLit})
