"""Surface-language types with ``TYPE r`` kinds (the Section 4 design).

This is the "GHC-flavoured" layer of the reproduction: unlike the small
formal calculus L (which has exactly two base types and two concrete
representations), the surface language has

* a table of built-in type constructors with their kinds — ``Int :: Type``,
  ``Int# :: TYPE IntRep``, ``Maybe :: Type -> Type``,
  ``Array# :: Type -> TYPE UnliftedRep`` and so on;
* the levity-polymorphic function arrow
  ``(->) :: forall r1 r2. TYPE r1 -> TYPE r2 -> Type`` (Section 4.3);
* unboxed tuple types ``(# a, b #)`` whose kinds carry ``TupleRep`` lists
  (Section 4.2);
* quantification over type variables *and* representation variables, with
  class constraints (``Num a => ...``) for Section 7.3.

Kinds are the :class:`repro.core.kinds.Kind` values, so everything the core
package knows about representations (register shapes, concreteness, the
levity restrictions) applies directly to surface types.

Performance notes (see ``docs/PERF.md``): the small, first-order type nodes
(:class:`TyCon`, :class:`TyVar`, :class:`TyUVar`, :class:`FunTy`,
:class:`TyApp`, :class:`UnboxedTupleTy`) are **hash-consed** with cached
hashes and memoised ``free_*`` queries, so structural equality usually
short-circuits on identity and substitution can skip untouched subtrees.
:func:`kind_of_type` is memoised on the interned node.  ``ForAllTy`` and
``QualTy`` are rarer and stay ordinary frozen dataclasses (with lazily
cached free-variable sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.errors import KindError, ScopeError, TypeCheckError
from ..core.kinds import (
    ArrowKind,
    CONSTRAINT,
    Kind,
    REP_KIND,
    TYPE_DOUBLE,
    TYPE_FLOAT,
    TYPE_INT,
    TYPE_LIFTED,
    TYPE_UNLIFTED,
    TypeKind,
    type_kind,
)
from ..core.rep import (
    ADDR_REP,
    CHAR_REP,
    DOUBLE_REP,
    FLOAT_REP,
    INT_REP,
    LIFTED,
    Rep,
    RepVar,
    TupleRep,
    UNLIFTED,
    WORD_REP,
)

_EMPTY_NAMES: FrozenSet[str] = frozenset()

# ---------------------------------------------------------------------------
# Type AST
# ---------------------------------------------------------------------------


class SType:
    """Abstract base class of surface types."""

    __slots__ = ("_hash", "_ftv", "_frv", "_fuv")

    def _init_caches(self) -> None:
        self._hash = None
        self._ftv = None
        self._frv = None
        self._fuv = None

    def free_type_vars(self) -> FrozenSet[str]:
        free = self._ftv
        if free is None:
            free = self._compute_free_type_vars()
            self._ftv = free
        return free

    def free_rep_vars(self) -> FrozenSet[str]:
        free = self._frv
        if free is None:
            free = self._compute_free_rep_vars()
            self._frv = free
        return free

    def free_uvars(self) -> FrozenSet[str]:
        """Free *unification* variables (those invented by inference)."""
        free = self._fuv
        if free is None:
            free = self._compute_free_uvars()
            self._fuv = free
        return free

    def _compute_free_type_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def _compute_free_rep_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def _compute_free_uvars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def subst_types(self, mapping: Dict[str, "SType"]) -> "SType":
        raise NotImplementedError

    def subst_reps(self, mapping: Dict[str, Rep]) -> "SType":
        raise NotImplementedError

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


def _subst_untouched(type_: SType, mapping: Dict[str, object]) -> bool:
    """True when a type substitution cannot change ``type_``.

    Both :meth:`SType.subst_types` domains (rigid type variables *and*
    unification variables) must be disjoint from the mapping's keys.
    """
    if not mapping:
        return True
    return (type_.free_type_vars().isdisjoint(mapping)
            and type_.free_uvars().isdisjoint(mapping))


class TyCon(SType):
    """A type constructor with its kind, e.g. ``Int# :: TYPE IntRep``."""

    __slots__ = ("name", "kind")

    _intern: Dict[Tuple[str, Kind], "TyCon"] = {}

    def __new__(cls, name: str, kind: Kind) -> "TyCon":
        key = (name, kind)
        instance = cls._intern.get(key)
        if instance is None:
            instance = object.__new__(cls)
            instance._init_caches()
            instance.name = name
            instance.kind = kind
            cls._intern[key] = instance
        return instance

    def __init__(self, name: str = "", kind: Kind = TYPE_LIFTED) -> None:
        pass

    def _compute_free_type_vars(self) -> FrozenSet[str]:
        return _EMPTY_NAMES

    def _compute_free_rep_vars(self) -> FrozenSet[str]:
        return self.kind.free_rep_vars()

    def _compute_free_uvars(self) -> FrozenSet[str]:
        return _EMPTY_NAMES

    def subst_types(self, mapping: Dict[str, SType]) -> SType:
        return self

    def subst_reps(self, mapping: Dict[str, Rep]) -> SType:
        if not mapping or self.free_rep_vars().isdisjoint(mapping):
            return self
        return TyCon(self.name, self.kind.substitute_reps(mapping))

    def _compute_hash(self) -> int:
        return hash(("TyCon", self.name, self.kind))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (type(other) is TyCon and self.name == other.name
                and self.kind == other.kind)

    __hash__ = SType.__hash__

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        return self.name


class TyVar(SType):
    """A (rigid, user-written or skolemised) type variable with its kind."""

    __slots__ = ("name", "kind")

    _intern: Dict[Tuple[str, Kind], "TyVar"] = {}

    def __new__(cls, name: str, kind: Kind = TYPE_LIFTED) -> "TyVar":
        key = (name, kind)
        instance = cls._intern.get(key)
        if instance is None:
            instance = object.__new__(cls)
            instance._init_caches()
            instance.name = name
            instance.kind = kind
            cls._intern[key] = instance
        return instance

    def __init__(self, name: str = "", kind: Kind = TYPE_LIFTED) -> None:
        pass

    def _compute_free_type_vars(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def _compute_free_rep_vars(self) -> FrozenSet[str]:
        return self.kind.free_rep_vars()

    def _compute_free_uvars(self) -> FrozenSet[str]:
        return _EMPTY_NAMES

    def subst_types(self, mapping: Dict[str, SType]) -> SType:
        if not mapping:
            return self
        return mapping.get(self.name, self)

    def subst_reps(self, mapping: Dict[str, Rep]) -> SType:
        if not mapping or self.free_rep_vars().isdisjoint(mapping):
            return self
        return TyVar(self.name, self.kind.substitute_reps(mapping))

    def _compute_hash(self) -> int:
        return hash(("TyVar", self.name, self.kind))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (type(other) is TyVar and self.name == other.name
                and self.kind == other.kind)

    __hash__ = SType.__hash__

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        return self.name


class TyUVar(SType):
    """A unification (meta) variable invented by the inference engine.

    Section 5.2: when GHC checks ``λx → e`` it invents a type unification
    variable ``α`` *and* a representation unification variable ``ρ`` and sets
    ``α :: TYPE ρ``.  The same happens here; solutions live in the
    :class:`repro.infer.unify.UnifierState` store rather than in mutable
    cells, and :meth:`repro.infer.unify.UnifierState.zonk_type` plays the
    role of GHC's zonking (Section 8.2).

    Fresh variables made by :meth:`_fresh` carry an integer id and format
    their name lazily, so inventing a variable allocates no strings.
    """

    __slots__ = ("_name", "kind", "_fresh_id", "_fresh_prefix")

    _intern: Dict[Tuple[str, Kind], "TyUVar"] = {}

    def __new__(cls, name: str, kind: Kind = TYPE_LIFTED) -> "TyUVar":
        key = (name, kind)
        instance = cls._intern.get(key)
        if instance is None:
            instance = object.__new__(cls)
            instance._init_caches()
            instance._name = name
            instance.kind = kind
            instance._fresh_id = None
            instance._fresh_prefix = None
            cls._intern[key] = instance
        return instance

    def __init__(self, name: str = "", kind: Kind = TYPE_LIFTED) -> None:
        pass

    @classmethod
    def _fresh(cls, uid: int, prefix: str, kind: Kind) -> "TyUVar":
        """A fresh variable whose name ``f"{prefix}{uid}"`` is formatted lazily."""
        instance = object.__new__(cls)
        instance._init_caches()
        instance._name = None
        instance.kind = kind
        instance._fresh_id = uid
        instance._fresh_prefix = prefix
        return instance

    @property
    def name(self) -> str:
        name = self._name
        if name is None:
            name = f"{self._fresh_prefix}{self._fresh_id}"
            self._name = name
        return name

    def _compute_free_type_vars(self) -> FrozenSet[str]:
        return _EMPTY_NAMES

    def _compute_free_rep_vars(self) -> FrozenSet[str]:
        return self.kind.free_rep_vars()

    def _compute_free_uvars(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def subst_types(self, mapping: Dict[str, SType]) -> SType:
        if not mapping:
            return self
        return mapping.get(self.name, self)

    def subst_reps(self, mapping: Dict[str, Rep]) -> SType:
        if not mapping or self.free_rep_vars().isdisjoint(mapping):
            return self
        return TyUVar(self.name, self.kind.substitute_reps(mapping))

    def _compute_hash(self) -> int:
        return hash(("TyUVar", self.name, self.kind))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (type(other) is TyUVar and self.name == other.name
                and self.kind == other.kind)

    __hash__ = SType.__hash__

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        return self.name


class FunTy(SType):
    """The function type ``argument -> result``.

    The arrow itself is the levity-polymorphic
    ``(->) :: forall r1 r2. TYPE r1 -> TYPE r2 -> Type``; a saturated arrow
    type always has kind ``Type`` regardless of the representations of its
    argument and result (rule T_ARROW).
    """

    __slots__ = ("argument", "result")

    _intern: Dict[Tuple[SType, SType], "FunTy"] = {}

    def __new__(cls, argument: SType, result: SType) -> "FunTy":
        key = (argument, result)
        instance = cls._intern.get(key)
        if instance is None:
            instance = object.__new__(cls)
            instance._init_caches()
            instance.argument = argument
            instance.result = result
            cls._intern[key] = instance
        return instance

    def __init__(self, argument: Optional[SType] = None,
                 result: Optional[SType] = None) -> None:
        pass

    def _compute_free_type_vars(self) -> FrozenSet[str]:
        return self.argument.free_type_vars() | self.result.free_type_vars()

    def _compute_free_rep_vars(self) -> FrozenSet[str]:
        return self.argument.free_rep_vars() | self.result.free_rep_vars()

    def _compute_free_uvars(self) -> FrozenSet[str]:
        return self.argument.free_uvars() | self.result.free_uvars()

    def subst_types(self, mapping: Dict[str, SType]) -> SType:
        if _subst_untouched(self, mapping):
            return self
        return FunTy(self.argument.subst_types(mapping),
                     self.result.subst_types(mapping))

    def subst_reps(self, mapping: Dict[str, Rep]) -> SType:
        if not mapping or self.free_rep_vars().isdisjoint(mapping):
            return self
        return FunTy(self.argument.subst_reps(mapping),
                     self.result.subst_reps(mapping))

    def _compute_hash(self) -> int:
        return hash(("FunTy", self.argument, self.result))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (type(other) is FunTy and self.argument == other.argument
                and self.result == other.result)

    __hash__ = SType.__hash__

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        arg = self.argument.pretty(explicit_runtime_reps)
        if isinstance(self.argument, (FunTy, ForAllTy, QualTy)):
            arg = f"({arg})"
        return f"{arg} -> {self.result.pretty(explicit_runtime_reps)}"


class TyApp(SType):
    """Type application, e.g. ``Maybe Int`` or ``Array# Double``."""

    __slots__ = ("function", "argument")

    _intern: Dict[Tuple[SType, SType], "TyApp"] = {}

    def __new__(cls, function: SType, argument: SType) -> "TyApp":
        key = (function, argument)
        instance = cls._intern.get(key)
        if instance is None:
            instance = object.__new__(cls)
            instance._init_caches()
            instance.function = function
            instance.argument = argument
            cls._intern[key] = instance
        return instance

    def __init__(self, function: Optional[SType] = None,
                 argument: Optional[SType] = None) -> None:
        pass

    def _compute_free_type_vars(self) -> FrozenSet[str]:
        return self.function.free_type_vars() | self.argument.free_type_vars()

    def _compute_free_rep_vars(self) -> FrozenSet[str]:
        return self.function.free_rep_vars() | self.argument.free_rep_vars()

    def _compute_free_uvars(self) -> FrozenSet[str]:
        return self.function.free_uvars() | self.argument.free_uvars()

    def subst_types(self, mapping: Dict[str, SType]) -> SType:
        if _subst_untouched(self, mapping):
            return self
        return TyApp(self.function.subst_types(mapping),
                     self.argument.subst_types(mapping))

    def subst_reps(self, mapping: Dict[str, Rep]) -> SType:
        if not mapping or self.free_rep_vars().isdisjoint(mapping):
            return self
        return TyApp(self.function.subst_reps(mapping),
                     self.argument.subst_reps(mapping))

    def _compute_hash(self) -> int:
        return hash(("TyApp", self.function, self.argument))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (type(other) is TyApp and self.function == other.function
                and self.argument == other.argument)

    __hash__ = SType.__hash__

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        arg = self.argument.pretty(explicit_runtime_reps)
        if isinstance(self.argument, (TyApp, FunTy, ForAllTy, QualTy)):
            arg = f"({arg})"
        return f"{self.function.pretty(explicit_runtime_reps)} {arg}"


class UnboxedTupleTy(SType):
    """An unboxed tuple type ``(# t1, ..., tn #)`` (Section 4.2)."""

    __slots__ = ("components",)

    _intern: Dict[Tuple[SType, ...], "UnboxedTupleTy"] = {}

    def __new__(cls, components: Iterable[SType] = ()) -> "UnboxedTupleTy":
        key = tuple(components)
        instance = cls._intern.get(key)
        if instance is None:
            instance = object.__new__(cls)
            instance._init_caches()
            instance.components = key
            cls._intern[key] = instance
        return instance

    def __init__(self, components: Iterable[SType] = ()) -> None:
        pass

    def _compute_free_type_vars(self) -> FrozenSet[str]:
        out: FrozenSet[str] = _EMPTY_NAMES
        for component in self.components:
            out = out | component.free_type_vars()
        return out

    def _compute_free_rep_vars(self) -> FrozenSet[str]:
        out: FrozenSet[str] = _EMPTY_NAMES
        for component in self.components:
            out = out | component.free_rep_vars()
        return out

    def _compute_free_uvars(self) -> FrozenSet[str]:
        out: FrozenSet[str] = _EMPTY_NAMES
        for component in self.components:
            out = out | component.free_uvars()
        return out

    def subst_types(self, mapping: Dict[str, SType]) -> SType:
        if _subst_untouched(self, mapping):
            return self
        return UnboxedTupleTy(c.subst_types(mapping) for c in self.components)

    def subst_reps(self, mapping: Dict[str, Rep]) -> SType:
        if not mapping or self.free_rep_vars().isdisjoint(mapping):
            return self
        return UnboxedTupleTy(c.subst_reps(mapping) for c in self.components)

    def _compute_hash(self) -> int:
        return hash(("UnboxedTupleTy", self.components))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (type(other) is UnboxedTupleTy
                and self.components == other.components)

    __hash__ = SType.__hash__

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        inner = ", ".join(c.pretty(explicit_runtime_reps)
                          for c in self.components)
        return f"(# {inner} #)" if inner else "(# #)"


@dataclass(frozen=True)
class Binder:
    """A quantified variable in a ``forall``: a type or representation binder."""

    name: str
    kind: Kind  # REP_KIND for representation binders, TYPE … otherwise

    def is_rep_binder(self) -> bool:
        return self.kind == REP_KIND

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        return f"({self.name} :: {self.kind.pretty(explicit_runtime_reps)})"


class ForAllTy(SType):
    """``forall (b1 :: k1) ... (bn :: kn). body``.

    Representation binders (``r :: Rep``) and type binders
    (``a :: TYPE r`` / ``a :: Type``) share this one construct, exactly as in
    GHC where ``RuntimeRep`` variables are ordinary kind-level variables.
    """

    __slots__ = ("binders", "body")

    def __init__(self, binders: Iterable[Binder], body: SType) -> None:
        self._init_caches()
        self.binders = tuple(binders)
        self.body = body

    def _compute_free_type_vars(self) -> FrozenSet[str]:
        bound = {b.name for b in self.binders if not b.is_rep_binder()}
        return self.body.free_type_vars() - bound

    def _compute_free_rep_vars(self) -> FrozenSet[str]:
        bound = {b.name for b in self.binders if b.is_rep_binder()}
        out = self.body.free_rep_vars()
        for binder in self.binders:
            out = out | binder.kind.free_rep_vars()
        return out - bound

    def _compute_free_uvars(self) -> FrozenSet[str]:
        return self.body.free_uvars()

    def subst_types(self, mapping: Dict[str, SType]) -> SType:
        if _subst_untouched(self, mapping):
            return self
        bound = {b.name for b in self.binders}
        filtered = {k: v for k, v in mapping.items() if k not in bound}
        return ForAllTy(self.binders, self.body.subst_types(filtered))

    def subst_reps(self, mapping: Dict[str, Rep]) -> SType:
        if not mapping or self.free_rep_vars().isdisjoint(mapping):
            return self
        bound = {b.name for b in self.binders if b.is_rep_binder()}
        filtered = {k: v for k, v in mapping.items() if k not in bound}
        binders = tuple(Binder(b.name, b.kind.substitute_reps(filtered))
                        for b in self.binders)
        return ForAllTy(binders, self.body.subst_reps(filtered))

    def _compute_hash(self) -> int:
        return hash(("ForAllTy", self.binders, self.body))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (type(other) is ForAllTy and self.binders == other.binders
                and self.body == other.body)

    __hash__ = SType.__hash__

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        binders = self.binders
        if not explicit_runtime_reps:
            # Mirror GHC's display defaulting (Section 8.1): hide rep binders
            # and show their kinds as Type.
            binders = tuple(b for b in binders if not b.is_rep_binder())
        quantified = " ".join(b.pretty(explicit_runtime_reps)
                              for b in binders)
        body = self.body.pretty(explicit_runtime_reps)
        if not quantified:
            return body
        return f"forall {quantified}. {body}"


@dataclass(frozen=True)
class ClassConstraint:
    """A class constraint such as ``Num a`` (possibly at an unboxed type)."""

    class_name: str
    argument: SType

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        arg = self.argument.pretty(explicit_runtime_reps)
        if isinstance(self.argument, (TyApp, FunTy, ForAllTy)):
            arg = f"({arg})"
        return f"{self.class_name} {arg}"

    def __repr__(self) -> str:
        return self.pretty()


class QualTy(SType):
    """A qualified type ``C1, ..., Cn => body``."""

    __slots__ = ("constraints", "body")

    def __init__(self, constraints: Iterable[ClassConstraint],
                 body: SType) -> None:
        self._init_caches()
        self.constraints = tuple(constraints)
        self.body = body

    def _compute_free_type_vars(self) -> FrozenSet[str]:
        out = self.body.free_type_vars()
        for constraint in self.constraints:
            out = out | constraint.argument.free_type_vars()
        return out

    def _compute_free_rep_vars(self) -> FrozenSet[str]:
        out = self.body.free_rep_vars()
        for constraint in self.constraints:
            out = out | constraint.argument.free_rep_vars()
        return out

    def _compute_free_uvars(self) -> FrozenSet[str]:
        out = self.body.free_uvars()
        for constraint in self.constraints:
            out = out | constraint.argument.free_uvars()
        return out

    def subst_types(self, mapping: Dict[str, SType]) -> SType:
        if _subst_untouched(self, mapping):
            return self
        constraints = tuple(
            ClassConstraint(c.class_name, c.argument.subst_types(mapping))
            for c in self.constraints)
        return QualTy(constraints, self.body.subst_types(mapping))

    def subst_reps(self, mapping: Dict[str, Rep]) -> SType:
        if not mapping or self.free_rep_vars().isdisjoint(mapping):
            return self
        constraints = tuple(
            ClassConstraint(c.class_name, c.argument.subst_reps(mapping))
            for c in self.constraints)
        return QualTy(constraints, self.body.subst_reps(mapping))

    def _compute_hash(self) -> int:
        return hash(("QualTy", self.constraints, self.body))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (type(other) is QualTy and self.constraints == other.constraints
                and self.body == other.body)

    __hash__ = SType.__hash__

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        constraints = ", ".join(c.pretty(explicit_runtime_reps)
                                for c in self.constraints)
        if len(self.constraints) != 1:
            constraints = f"({constraints})"
        return f"{constraints} => {self.body.pretty(explicit_runtime_reps)}"


# ---------------------------------------------------------------------------
# Built-in type constructors (the surface "prelude" of types)
# ---------------------------------------------------------------------------

#: Boxed, lifted base types.
INT_TY = TyCon("Int", TYPE_LIFTED)
INTEGER_TY = TyCon("Integer", TYPE_LIFTED)
BOOL_TY = TyCon("Bool", TYPE_LIFTED)
CHAR_TY = TyCon("Char", TYPE_LIFTED)
FLOAT_TY = TyCon("Float", TYPE_LIFTED)
DOUBLE_TY = TyCon("Double", TYPE_LIFTED)
STRING_TY = TyCon("String", TYPE_LIFTED)
UNIT_TY = TyCon("()", TYPE_LIFTED)
WORD_TY = TyCon("Word", TYPE_LIFTED)
ORDERING_TY = TyCon("Ordering", TYPE_LIFTED)

#: Unboxed base types (Figure 1's bottom-right corner).
INT_HASH_TY = TyCon("Int#", TYPE_INT)
WORD_HASH_TY = TyCon("Word#", type_kind(WORD_REP))
CHAR_HASH_TY = TyCon("Char#", type_kind(CHAR_REP))
FLOAT_HASH_TY = TyCon("Float#", TYPE_FLOAT)
DOUBLE_HASH_TY = TyCon("Double#", TYPE_DOUBLE)
ADDR_HASH_TY = TyCon("Addr#", type_kind(ADDR_REP))

#: Boxed but unlifted types (Figure 1's bottom-left corner).
BYTEARRAY_HASH_TY = TyCon("ByteArray#", TYPE_UNLIFTED)
MUTABLE_BYTEARRAY_HASH_TY = TyCon(
    "MutableByteArray#", ArrowKind(TYPE_LIFTED, TYPE_UNLIFTED))
ARRAY_HASH_TY = TyCon("Array#", ArrowKind(TYPE_LIFTED, TYPE_UNLIFTED))
MUTVAR_HASH_TY = TyCon(
    "MutVar#", ArrowKind(TYPE_LIFTED, ArrowKind(TYPE_LIFTED, TYPE_UNLIFTED)))

#: Lifted type constructors.
MAYBE_TY = TyCon("Maybe", ArrowKind(TYPE_LIFTED, TYPE_LIFTED))
LIST_TY = TyCon("[]", ArrowKind(TYPE_LIFTED, TYPE_LIFTED))
PAIR_TY = TyCon("(,)", ArrowKind(TYPE_LIFTED,
                                 ArrowKind(TYPE_LIFTED, TYPE_LIFTED)))
EITHER_TY = TyCon("Either", ArrowKind(TYPE_LIFTED,
                                      ArrowKind(TYPE_LIFTED, TYPE_LIFTED)))
IO_TY = TyCon("IO", ArrowKind(TYPE_LIFTED, TYPE_LIFTED))

#: A name -> TyCon table used by the parser and the inference environment.
BUILTIN_TYCONS: Dict[str, TyCon] = {
    tycon.name: tycon
    for tycon in (
        INT_TY, INTEGER_TY, BOOL_TY, CHAR_TY, FLOAT_TY, DOUBLE_TY, STRING_TY,
        UNIT_TY, WORD_TY, ORDERING_TY,
        INT_HASH_TY, WORD_HASH_TY, CHAR_HASH_TY, FLOAT_HASH_TY,
        DOUBLE_HASH_TY, ADDR_HASH_TY,
        BYTEARRAY_HASH_TY, MUTABLE_BYTEARRAY_HASH_TY, ARRAY_HASH_TY,
        MUTVAR_HASH_TY,
        MAYBE_TY, LIST_TY, PAIR_TY, EITHER_TY, IO_TY,
    )
}


def lookup_tycon(name: str) -> TyCon:
    """Look up a built-in type constructor by name."""
    try:
        return BUILTIN_TYCONS[name]
    except KeyError:
        raise ScopeError(f"unknown type constructor {name!r}") from None


# ---------------------------------------------------------------------------
# Kinding
# ---------------------------------------------------------------------------

#: Memo table for :func:`kind_of_type` (empty-environment calls only).
#: Sound because type nodes are immutable and a type's kind depends only on
#: its structure; keyed by the node itself (hash-consed => cached hash).
_KIND_OF_TYPE_MEMO: Dict[SType, Kind] = {}


def kind_of_type(type_: SType,
                 rep_env: Optional[Dict[str, Rep]] = None) -> Kind:
    """Compute the kind of a surface type.

    ``rep_env`` maps in-scope representation-variable names to themselves
    (or to solutions); it is threaded by the inference engine.  Raises
    :class:`KindError` for ill-kinded types (for example an unsaturated
    type-constructor application applied to the wrong kind).

    Results for the common empty-environment calls are memoised on the
    (hash-consed) node, which makes the repeated kind queries issued by the
    unifier and the levity checks O(1) after the first visit.
    """
    if not rep_env:
        kind = _KIND_OF_TYPE_MEMO.get(type_)
        if kind is None:
            kind = _kind_of_type(type_, {})
            _KIND_OF_TYPE_MEMO[type_] = kind
        return kind
    return _kind_of_type(type_, rep_env)


def _kind_of_type(type_: SType, rep_env: Dict[str, Rep]) -> Kind:
    if isinstance(type_, (TyCon, TyVar, TyUVar)):
        return type_.kind

    if isinstance(type_, FunTy):
        # Both sides must have *some* value kind; the arrow is Type.
        for side, label in ((type_.argument, "argument"),
                            (type_.result, "result")):
            side_kind = _kind_of_type(side, rep_env)
            if not isinstance(side_kind, TypeKind):
                raise KindError(
                    f"the {label} of a function arrow must have a value "
                    f"kind, but {side.pretty()} has kind {side_kind.pretty()}")
        return TYPE_LIFTED

    if isinstance(type_, TyApp):
        function_kind = _kind_of_type(type_.function, rep_env)
        argument_kind = _kind_of_type(type_.argument, rep_env)
        if not isinstance(function_kind, ArrowKind):
            raise KindError(
                f"{type_.function.pretty()} of kind {function_kind.pretty()} "
                "cannot be applied to a type argument")
        if function_kind.argument != argument_kind:
            raise KindError(
                f"kind mismatch in {type_.pretty()}: expected "
                f"{function_kind.argument.pretty()}, got "
                f"{argument_kind.pretty()}")
        return function_kind.result

    if isinstance(type_, UnboxedTupleTy):
        reps: List[Rep] = []
        for component in type_.components:
            component_kind = _kind_of_type(component, rep_env)
            if not isinstance(component_kind, TypeKind):
                raise KindError(
                    f"unboxed tuple component {component.pretty()} has "
                    f"non-value kind {component_kind.pretty()}")
            reps.append(component_kind.rep)
        return TypeKind(TupleRep(reps))

    if isinstance(type_, ForAllTy):
        inner_env = dict(rep_env)
        for binder in type_.binders:
            if binder.is_rep_binder():
                inner_env[binder.name] = RepVar(binder.name)
        # As in L's T_ALLTY, a forall has the kind of its body (type erasure).
        return _kind_of_type(type_.body, inner_env)

    if isinstance(type_, QualTy):
        return _kind_of_type(type_.body, rep_env)

    raise TypeCheckError(f"unknown surface type form: {type_!r}")


def rep_of_type(type_: SType) -> Rep:
    """The runtime representation of a value type (its kind's ``Rep``)."""
    kind = kind_of_type(type_)
    if not isinstance(kind, TypeKind):
        raise KindError(
            f"{type_.pretty()} has kind {kind.pretty()}, which does not "
            "classify values")
    return kind.rep


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def fun(*types: SType) -> SType:
    """Right-nested function type: ``fun(a, b, c) == a -> (b -> c)``."""
    if not types:
        raise ValueError("fun needs at least one type")
    result = types[-1]
    for argument in reversed(types[:-1]):
        result = FunTy(argument, result)
    return result


def rep_var_kind(name: str) -> TypeKind:
    """The kind ``TYPE r`` for a representation variable named ``name``."""
    return TypeKind(RepVar(name))
