"""Kinds as calling conventions: ``TYPE r`` and friends (Section 4).

The central idea of the paper is that the kind of a type determines the
runtime representation — and hence the calling convention — of its values.
This module provides:

* :class:`TypeKind` — the kind ``TYPE r`` of value types, parameterised by a
  :class:`~repro.core.rep.Rep`;
* :data:`TYPE_LIFTED` (a.k.a. ``Type``) — the synonym ``Type = TYPE LiftedRep``;
* :class:`ArrowKind` — the kind of type constructors such as
  ``Maybe :: Type -> Type``;
* :class:`ConstraintKind` — the kind of class constraints (needed for the
  levity-polymorphic classes of Section 7.3).

Kinds have no variables of their own: the only variables in a kind are
the representation variables inside its ``TYPE r`` parts.

Kinds are immutable and hashable, so they can be used as dictionary keys by
the inference engine.  Like the ``Rep`` algebra, kinds are **hash-consed**
(except ``TYPE r`` at a representation *variable*, which is too short-lived
to be worth a table entry): equal kinds are usually the same object, hashes
are cached, and ``free_rep_vars`` is memoised per node (see
``docs/PERF.md``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from .rep import (
    DOUBLE_REP,
    FLOAT_REP,
    INT_REP,
    LIFTED,
    Rep,
    RepVar,
    UNLIFTED,
    TupleRep,
)

_EMPTY_NAMES: FrozenSet[str] = frozenset()


class Kind:
    """Abstract base class of kinds."""

    __slots__ = ("_hash", "_free_rep")

    def _init_caches(self) -> None:
        self._hash = None
        self._free_rep = None

    def free_rep_vars(self) -> FrozenSet[str]:
        free = self._free_rep
        if free is None:
            free = self._compute_free_rep_vars()
            self._free_rep = free
        return free

    def _compute_free_rep_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def substitute_reps(self, mapping: Dict[str, Rep]) -> "Kind":
        raise NotImplementedError

    def is_concrete(self) -> bool:
        """No representation variables anywhere inside."""
        return not self.free_rep_vars()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._compute_hash()
            self._hash = h
        return h

    def _compute_hash(self) -> int:
        raise NotImplementedError

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.pretty()


class TypeKind(Kind):
    """The kind ``TYPE r`` of types whose values have representation ``r``."""

    __slots__ = ("rep",)

    _intern: Dict[Rep, "TypeKind"] = {}

    def __new__(cls, rep: Rep) -> "TypeKind":
        if isinstance(rep, RepVar):
            # ``TYPE ρ`` kinds of fresh unification variables are unique by
            # construction; interning them would force the variable's lazily
            # formatted name on the hot path for no sharing gain.
            instance = object.__new__(cls)
            instance._init_caches()
            instance.rep = rep
            return instance
        instance = cls._intern.get(rep)
        if instance is None:
            instance = object.__new__(cls)
            instance._init_caches()
            instance.rep = rep
            cls._intern[rep] = instance
        return instance

    def __init__(self, rep: Rep) -> None:
        pass

    def _compute_free_rep_vars(self) -> FrozenSet[str]:
        return self.rep.free_rep_vars()

    def substitute_reps(self, mapping: Dict[str, Rep]) -> Kind:
        if not mapping or self.free_rep_vars().isdisjoint(mapping):
            return self
        return TypeKind(self.rep.substitute(mapping))

    def is_lifted_type_kind(self) -> bool:
        """Is this exactly ``Type`` (that is, ``TYPE LiftedRep``)?"""
        return self.rep == LIFTED

    def _compute_hash(self) -> int:
        return hash(("TypeKind", self.rep))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(other) is TypeKind and self.rep == other.rep

    __hash__ = Kind.__hash__

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        if self.rep == LIFTED:
            return "Type"
        if not explicit_runtime_reps and isinstance(self.rep, RepVar):
            # Mirrors GHC's default display (Section 8.1): representation
            # variables are defaulted to LiftedRep when printing unless the
            # user passes -fprint-explicit-runtime-reps.
            return "Type"
        return f"TYPE {self.rep.pretty()}"


class ArrowKind(Kind):
    """The kind of type constructors: ``k1 -> k2``."""

    __slots__ = ("argument", "result")

    _intern: Dict[Tuple[Kind, Kind], "ArrowKind"] = {}

    def __new__(cls, argument: Kind, result: Kind) -> "ArrowKind":
        key = (argument, result)
        instance = cls._intern.get(key)
        if instance is None:
            instance = object.__new__(cls)
            instance._init_caches()
            instance.argument = argument
            instance.result = result
            cls._intern[key] = instance
        return instance

    def __init__(self, argument: Kind, result: Kind) -> None:
        pass

    def _compute_free_rep_vars(self) -> FrozenSet[str]:
        return self.argument.free_rep_vars() | self.result.free_rep_vars()

    def substitute_reps(self, mapping: Dict[str, Rep]) -> Kind:
        if not mapping or self.free_rep_vars().isdisjoint(mapping):
            return self
        return ArrowKind(self.argument.substitute_reps(mapping),
                         self.result.substitute_reps(mapping))

    def _compute_hash(self) -> int:
        return hash(("ArrowKind", self.argument, self.result))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (type(other) is ArrowKind
                and self.argument == other.argument
                and self.result == other.result)

    __hash__ = Kind.__hash__

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        arg = self.argument.pretty(explicit_runtime_reps)
        if isinstance(self.argument, ArrowKind):
            arg = f"({arg})"
        return f"{arg} -> {self.result.pretty(explicit_runtime_reps)}"


class _NullaryKind(Kind):
    """Shared implementation for kinds with no sub-structure (singletons)."""

    __slots__ = ()

    _PRETTY = "?"

    def __new__(cls) -> "_NullaryKind":
        instance = cls.__dict__.get("_instance")
        if instance is None:
            instance = object.__new__(cls)
            instance._init_caches()
            cls._instance = instance
        return instance

    def _compute_free_rep_vars(self) -> FrozenSet[str]:
        return _EMPTY_NAMES

    def substitute_reps(self, mapping: Dict[str, Rep]) -> Kind:
        return self

    def _compute_hash(self) -> int:
        return hash(type(self).__qualname__)

    def __eq__(self, other: object) -> bool:
        return self is other or type(self) is type(other)

    __hash__ = Kind.__hash__

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        return self._PRETTY


class ConstraintKind(_NullaryKind):
    """The kind ``Constraint`` of class constraints such as ``Num a``."""

    __slots__ = ()
    _PRETTY = "Constraint"


class RepKind(_NullaryKind):
    """The kind ``Rep`` itself, so that ``r :: Rep`` can appear in contexts.

    ``Rep`` is an ordinary promoted data type in GHC (Section 4.1); here we
    give it its own kind constant so the surface language can quantify
    ``forall (r :: Rep).`` explicitly.
    """

    __slots__ = ()
    _PRETTY = "Rep"


# -- canonical kinds ---------------------------------------------------------

#: ``Type``, the kind of ordinary lifted, boxed types (``TYPE LiftedRep``).
TYPE_LIFTED = TypeKind(LIFTED)
#: Alias emphasising the synonym ``type Type = TYPE LiftedRep``.
Type = TYPE_LIFTED
#: ``TYPE UnliftedRep`` — boxed but unlifted types such as ``ByteArray#``.
TYPE_UNLIFTED = TypeKind(UNLIFTED)
#: ``TYPE IntRep`` — the kind of ``Int#``.
TYPE_INT = TypeKind(INT_REP)
#: ``TYPE FloatRep`` — the kind of ``Float#``.
TYPE_FLOAT = TypeKind(FLOAT_REP)
#: ``TYPE DoubleRep`` — the kind of ``Double#``.
TYPE_DOUBLE = TypeKind(DOUBLE_REP)
#: ``Constraint``.
CONSTRAINT = ConstraintKind()
#: The kind ``Rep`` of runtime representations.
REP_KIND = RepKind()


def type_kind(rep: Rep) -> TypeKind:
    """Build ``TYPE rep``."""
    return TypeKind(rep)


def unboxed_tuple_kind(*component_reps: Rep) -> TypeKind:
    """The kind ``TYPE (TupleRep [...])`` of an unboxed tuple type."""
    return TypeKind(TupleRep(component_reps))


def arrow_kind(*kinds: Kind) -> Kind:
    """Right-nested arrow kind: ``arrow_kind(a, b, c) == a -> (b -> c)``."""
    if not kinds:
        raise ValueError("arrow_kind needs at least one kind")
    result = kinds[-1]
    for argument in reversed(kinds[:-1]):
        result = ArrowKind(argument, result)
    return result


def kind_of_type_constructor(arity: int, result: Kind = TYPE_LIFTED) -> Kind:
    """The kind of an ordinary ``arity``-ary lifted type constructor.

    For example ``kind_of_type_constructor(1)`` is ``Type -> Type`` (the kind
    of ``Maybe``), and ``kind_of_type_constructor(0)`` is just ``Type``.
    """
    kind: Kind = result
    for _ in range(arity):
        kind = ArrowKind(TYPE_LIFTED, kind)
    return kind
