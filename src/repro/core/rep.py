"""Runtime representations: the ``Rep`` algebra of Section 4.1.

The paper replaces GHC's old sub-kinding story with a single primitive
type-level constant ``TYPE :: Rep -> Type`` where ``Rep`` is an ordinary
(promoted) algebraic data type describing the runtime representation of the
values of a type::

    data Rep = LiftedRep | UnliftedRep | IntRep | WordRep | Int64Rep
             | Word64Rep | AddrRep | CharRep | FloatRep | DoubleRep
             | TupleRep [Rep] | SumRep [Rep] | ...

This module implements that algebra.  Each representation knows:

* whether it is **boxed** (a pointer into the heap) or **unboxed**;
* whether it is **lifted** (may be a thunk / contain bottom) or **unlifted**;
* its **register shape** — the sequence of machine register classes used to
  pass a value of that representation (Section 4.2: unboxed tuples occupy
  several registers; the nullary unboxed tuple occupies none at all);
* how to pretty-print itself.

Representation *variables* (:class:`RepVar`) are what levity polymorphism
abstracts over.  A representation is *concrete* (the paper's metavariable
``υ``) when no representation variable occurs inside it; only concrete
representations may appear in the kind of a binder or a function argument
(Section 5.1).

Performance notes (see ``docs/PERF.md``): representations are **hash-consed**
— constructing a structurally-equal ``Rep`` twice yields the *same* Python
object, so ``==`` usually short-circuits on identity and nodes can be used
as dictionary keys with a cached hash.  ``free_rep_vars`` and
``register_shape`` are computed once per node and memoised on the instance.
Instances are immutable by convention: never assign to their fields.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Dict, Iterable, List, Tuple

_EMPTY_NAMES: "frozenset[str]" = frozenset()


class RegisterClass(Enum):
    """Machine register classes used by the calling-convention model.

    The paper's formal language M distinguishes only pointer registers and
    integer registers (metavariables ``p`` and ``i``); the implementation in
    GHC additionally uses dedicated floating-point registers, which we model
    so that ``FloatRep``/``DoubleRep`` genuinely differ from ``IntRep`` in
    calling convention (Section 1's motivating example).
    """

    GC_POINTER = "gcptr"
    INTEGER = "int"
    FLOAT = "float"
    DOUBLE = "double"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegisterClass.{self.name}"


class Rep:
    """Abstract base class of runtime representations.

    Concrete subclasses are :class:`LiftedRep`, :class:`UnliftedRep`,
    :class:`IntRep`, :class:`WordRep`, :class:`FloatRep`, :class:`DoubleRep`,
    :class:`CharRep`, :class:`AddrRep`, :class:`TupleRep`, :class:`SumRep`
    and :class:`RepVar`.
    """

    __slots__ = ("_hash", "_free", "_shape")

    def _init_caches(self) -> None:
        self._hash = None
        self._free = None
        self._shape = None

    # -- classification -----------------------------------------------------

    def is_concrete(self) -> bool:
        """True when no representation variable occurs in this rep.

        Corresponds to the paper's concrete representations ``υ``.
        """
        return not self.free_rep_vars()

    def is_boxed(self) -> bool:
        """True when values of this representation are heap pointers."""
        raise NotImplementedError

    def is_lifted(self) -> bool:
        """True when values of this representation may be thunks (lazy)."""
        raise NotImplementedError

    def is_unboxed(self) -> bool:
        return self.is_concrete() and not self.is_boxed()

    def is_unlifted(self) -> bool:
        return self.is_concrete() and not self.is_lifted()

    # -- structure ----------------------------------------------------------

    def free_rep_vars(self) -> "frozenset[str]":
        """The set of representation-variable names occurring in this rep."""
        free = self._free
        if free is None:
            free = self._compute_free_rep_vars()
            self._free = free
        return free

    def _compute_free_rep_vars(self) -> "frozenset[str]":
        raise NotImplementedError

    def substitute(self, mapping: Dict[str, "Rep"]) -> "Rep":
        """Capture-avoiding substitution of representation variables."""
        raise NotImplementedError

    def zonk(self, lookup) -> "Rep":
        """Replace solved unification variables using ``lookup(name)``.

        ``lookup`` returns either a :class:`Rep` or ``None``; unsolved
        variables are left in place.  Mirrors GHC's *zonking* (Section 8.2).
        """
        return self.substitute({})

    # -- calling convention --------------------------------------------------

    def register_shape(self) -> Tuple[RegisterClass, ...]:
        """The sequence of registers a value of this rep occupies.

        Raises :class:`ValueError` for non-concrete representations: the
        whole point of the Section 5.1 restrictions is that code generation
        never needs the register shape of a levity-polymorphic value.
        """
        shape = self._shape
        if shape is None:
            shape = self._compute_register_shape()
            self._shape = shape
        return shape

    def _compute_register_shape(self) -> Tuple[RegisterClass, ...]:
        raise NotImplementedError

    def register_count(self) -> int:
        """Number of registers a value of this rep occupies."""
        return len(self.register_shape())

    def width_bytes(self) -> int:
        """Total width in bytes on a 64-bit machine (pointers are 8 bytes)."""
        widths = {
            RegisterClass.GC_POINTER: 8,
            RegisterClass.INTEGER: 8,
            RegisterClass.FLOAT: 4,
            RegisterClass.DOUBLE: 8,
        }
        return sum(widths[r] for r in self.register_shape())

    # -- hashing / equality ---------------------------------------------------

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._compute_hash()
            self._hash = h
        return h

    def _compute_hash(self) -> int:
        raise NotImplementedError

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:
        return self.pretty()

    def pretty(self) -> str:
        raise NotImplementedError


class _NullaryRep(Rep):
    """Shared implementation for representations with no sub-structure.

    Each subclass is a hash-consed singleton: ``LiftedRep() is LiftedRep()``.
    """

    __slots__ = ()

    _BOXED = False
    _LIFTED = False
    _PRETTY = "?"
    _SHAPE: Tuple[RegisterClass, ...] = ()

    def __new__(cls) -> "_NullaryRep":
        instance = cls.__dict__.get("_instance")
        if instance is None:
            instance = object.__new__(cls)
            instance._init_caches()
            cls._instance = instance
        return instance

    def is_boxed(self) -> bool:
        return self._BOXED

    def is_lifted(self) -> bool:
        return self._LIFTED

    def _compute_free_rep_vars(self) -> "frozenset[str]":
        return _EMPTY_NAMES

    def substitute(self, mapping: Dict[str, Rep]) -> Rep:
        return self

    def zonk(self, lookup) -> Rep:
        return self

    def _compute_register_shape(self) -> Tuple[RegisterClass, ...]:
        return self._SHAPE

    def _compute_hash(self) -> int:
        return hash(type(self).__qualname__)

    def __eq__(self, other: object) -> bool:
        return self is other or type(self) is type(other)

    __hash__ = Rep.__hash__

    def pretty(self) -> str:
        return self._PRETTY


class LiftedRep(_NullaryRep):
    """Boxed, lifted values: ordinary Haskell data such as ``Int``, ``Bool``."""

    __slots__ = ()
    _BOXED = True
    _LIFTED = True
    _PRETTY = "LiftedRep"
    _SHAPE = (RegisterClass.GC_POINTER,)


class UnliftedRep(_NullaryRep):
    """Boxed but unlifted values such as ``ByteArray#`` or ``Array# a``."""

    __slots__ = ()
    _BOXED = True
    _LIFTED = False
    _PRETTY = "UnliftedRep"
    _SHAPE = (RegisterClass.GC_POINTER,)


class IntRep(_NullaryRep):
    """Unboxed machine integers (``Int#``)."""

    __slots__ = ()
    _PRETTY = "IntRep"
    _SHAPE = (RegisterClass.INTEGER,)


class WordRep(_NullaryRep):
    """Unboxed machine words (``Word#``)."""

    __slots__ = ()
    _PRETTY = "WordRep"
    _SHAPE = (RegisterClass.INTEGER,)


class CharRep(_NullaryRep):
    """Unboxed characters (``Char#``)."""

    __slots__ = ()
    _PRETTY = "CharRep"
    _SHAPE = (RegisterClass.INTEGER,)


class AddrRep(_NullaryRep):
    """Raw machine addresses (``Addr#``), not followed by the GC."""

    __slots__ = ()
    _PRETTY = "AddrRep"
    _SHAPE = (RegisterClass.INTEGER,)


class FloatRep(_NullaryRep):
    """Unboxed single-precision floats (``Float#``)."""

    __slots__ = ()
    _PRETTY = "FloatRep"
    _SHAPE = (RegisterClass.FLOAT,)


class DoubleRep(_NullaryRep):
    """Unboxed double-precision floats (``Double#``)."""

    __slots__ = ()
    _PRETTY = "DoubleRep"
    _SHAPE = (RegisterClass.DOUBLE,)


class TupleRep(Rep):
    """Unboxed tuples: a value spread over several registers (Section 4.2).

    ``TupleRep []`` is the representation of the nullary unboxed tuple
    ``(# #)``, which occupies no registers at all.
    """

    __slots__ = ("reps",)

    _intern: Dict[Tuple[Rep, ...], "TupleRep"] = {}

    def __new__(cls, reps: Iterable[Rep] = ()) -> "TupleRep":
        key = tuple(reps)
        instance = cls._intern.get(key)
        if instance is None:
            instance = object.__new__(cls)
            instance._init_caches()
            instance.reps = key
            cls._intern[key] = instance
        return instance

    def __init__(self, reps: Iterable[Rep] = ()) -> None:
        # All state is set in __new__ (hash-consing); nothing to do here.
        pass

    def is_boxed(self) -> bool:
        return False

    def is_lifted(self) -> bool:
        return False

    def _compute_free_rep_vars(self) -> "frozenset[str]":
        out: "frozenset[str]" = _EMPTY_NAMES
        for rep in self.reps:
            out = out | rep.free_rep_vars()
        return out

    def substitute(self, mapping: Dict[str, Rep]) -> Rep:
        if not mapping or self.free_rep_vars().isdisjoint(mapping):
            return self
        return TupleRep(rep.substitute(mapping) for rep in self.reps)

    def zonk(self, lookup) -> Rep:
        if not self.free_rep_vars():
            return self
        return TupleRep(rep.zonk(lookup) for rep in self.reps)

    def _compute_register_shape(self) -> Tuple[RegisterClass, ...]:
        shape: List[RegisterClass] = []
        for rep in self.reps:
            shape.extend(rep.register_shape())
        return tuple(shape)

    def flatten(self) -> "TupleRep":
        """Flatten nested ``TupleRep`` structure.

        Section 4.2 observes that nesting of unboxed tuples is
        *computationally irrelevant*: ``(# Int, (# Bool, Double #) #)`` and
        ``(# (# Char, String #), Int #)`` have the same register shape even
        though their kinds differ.  The paper deliberately keeps the nested
        kinds distinct; this helper computes the flattened view used by the
        runtime and by the E10 ablation bench.
        """
        flat: List[Rep] = []
        for rep in self.reps:
            if isinstance(rep, TupleRep):
                flat.extend(rep.flatten().reps)
            else:
                flat.append(rep)
        return TupleRep(flat)

    def _compute_hash(self) -> int:
        return hash(("TupleRep", self.reps))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(other) is TupleRep and self.reps == other.reps

    __hash__ = Rep.__hash__

    def pretty(self) -> str:
        inner = ", ".join(rep.pretty() for rep in self.reps)
        return f"TupleRep [{inner}]"


class SumRep(Rep):
    """Unboxed sums (``(# a | b #)``): one tag register plus the slot union.

    The paper's "... etc ..." in the ``Rep`` declaration covers unboxed sums,
    which GHC 8.2 added alongside levity polymorphism.  Their register shape
    is a tag register followed by enough registers to hold any alternative
    (computed field-by-field as the per-class maximum).
    """

    __slots__ = ("alternatives",)

    _intern: Dict[Tuple[Rep, ...], "SumRep"] = {}

    def __new__(cls, alternatives: Iterable[Rep] = ()) -> "SumRep":
        key = tuple(alternatives)
        instance = cls._intern.get(key)
        if instance is None:
            instance = object.__new__(cls)
            instance._init_caches()
            instance.alternatives = key
            cls._intern[key] = instance
        return instance

    def __init__(self, alternatives: Iterable[Rep] = ()) -> None:
        pass

    def is_boxed(self) -> bool:
        return False

    def is_lifted(self) -> bool:
        return False

    def _compute_free_rep_vars(self) -> "frozenset[str]":
        out: "frozenset[str]" = _EMPTY_NAMES
        for rep in self.alternatives:
            out = out | rep.free_rep_vars()
        return out

    def substitute(self, mapping: Dict[str, Rep]) -> Rep:
        if not mapping or self.free_rep_vars().isdisjoint(mapping):
            return self
        return SumRep(rep.substitute(mapping) for rep in self.alternatives)

    def zonk(self, lookup) -> Rep:
        if not self.free_rep_vars():
            return self
        return SumRep(rep.zonk(lookup) for rep in self.alternatives)

    def _compute_register_shape(self) -> Tuple[RegisterClass, ...]:
        counts: Dict[RegisterClass, int] = {}
        for rep in self.alternatives:
            per_alt: Dict[RegisterClass, int] = {}
            for reg in rep.register_shape():
                per_alt[reg] = per_alt.get(reg, 0) + 1
            for reg, count in per_alt.items():
                counts[reg] = max(counts.get(reg, 0), count)
        shape: List[RegisterClass] = [RegisterClass.INTEGER]  # the tag
        for reg in (RegisterClass.GC_POINTER, RegisterClass.INTEGER,
                    RegisterClass.FLOAT, RegisterClass.DOUBLE):
            shape.extend([reg] * counts.get(reg, 0))
        return tuple(shape)

    def _compute_hash(self) -> int:
        return hash(("SumRep", self.alternatives))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(other) is SumRep and self.alternatives == other.alternatives

    __hash__ = Rep.__hash__

    def pretty(self) -> str:
        inner = " | ".join(rep.pretty() for rep in self.alternatives)
        return f"SumRep [{inner}]"


class RepVar(Rep):
    """A representation variable ``r`` — the thing levity polymorphism binds.

    A :class:`RepVar` may be a *rigid* (universally quantified, written by
    the user) variable or a *unification* variable invented by the inference
    engine (Section 5.2).  The distinction matters only to the inference
    engine; structurally they behave identically.

    Fresh unification variables made by :meth:`_fresh` carry an integer id
    and format their name **lazily**: variables that are never printed,
    hashed or unified never allocate a name string at all.
    """

    __slots__ = ("_name", "unification", "_fresh_id", "_fresh_prefix")

    _intern: Dict[Tuple[str, bool], "RepVar"] = {}

    def __new__(cls, name: str, unification: bool = False) -> "RepVar":
        key = (name, unification)
        instance = cls._intern.get(key)
        if instance is None:
            instance = object.__new__(cls)
            instance._init_caches()
            instance._name = name
            instance.unification = unification
            instance._fresh_id = None
            instance._fresh_prefix = None
            cls._intern[key] = instance
        return instance

    def __init__(self, name: str = "", unification: bool = False) -> None:
        pass

    @classmethod
    def _fresh(cls, uid: int, prefix: str,
               unification: bool = True) -> "RepVar":
        """A fresh variable whose name ``f"{prefix}{uid}"`` is formatted lazily."""
        instance = object.__new__(cls)
        instance._init_caches()
        instance._name = None
        instance.unification = unification
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

    def is_boxed(self) -> bool:
        raise ValueError(
            f"representation variable {self.name!r} has no fixed boxity; "
            "levity-polymorphic values must never be inspected for boxity"
        )

    def is_lifted(self) -> bool:
        raise ValueError(
            f"representation variable {self.name!r} has no fixed levity; "
            "one should never ask whether a levity-polymorphic type is lazy"
        )

    def _compute_free_rep_vars(self) -> "frozenset[str]":
        return frozenset({self.name})

    def substitute(self, mapping: Dict[str, Rep]) -> Rep:
        if not mapping:
            return self
        return mapping.get(self.name, self)

    def zonk(self, lookup) -> Rep:
        solved = lookup(self.name)
        if solved is None:
            return self
        return solved.zonk(lookup)

    def _compute_register_shape(self) -> Tuple[RegisterClass, ...]:
        raise ValueError(
            f"cannot compute a register shape for representation variable "
            f"{self.name!r}: its calling convention is unknown (Section 5.1)"
        )

    def register_shape(self) -> Tuple[RegisterClass, ...]:
        # Never cache: this always raises.
        return self._compute_register_shape()

    def _compute_hash(self) -> int:
        return hash((self.name, self.unification))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (type(other) is RepVar
                and self.unification == other.unification
                and self.name == other.name)

    __hash__ = Rep.__hash__

    def pretty(self) -> str:
        return self.name


# Canonical singletons.  The classes are hash-consed, so these are *the*
# unique instances: equality on them is pointer equality.
LIFTED = LiftedRep()
UNLIFTED = UnliftedRep()
INT_REP = IntRep()
WORD_REP = WordRep()
CHAR_REP = CharRep()
ADDR_REP = AddrRep()
FLOAT_REP = FloatRep()
DOUBLE_REP = DoubleRep()
UNIT_TUPLE_REP = TupleRep(())


_rep_var_counter = itertools.count()


def fresh_rep_var(prefix: str = "r") -> RepVar:
    """Create a fresh representation unification variable (Section 5.2)."""
    return RepVar._fresh(next(_rep_var_counter), prefix)


def same_calling_convention(rep1: Rep, rep2: Rep) -> bool:
    """Do two concrete representations share a calling convention?

    Two types with the same kind use the same calling convention (Section 4.1:
    "Int and Bool have the same kind, and hence use the same calling
    convention").  At the level of representations, sharing a calling
    convention means having identical register shapes.
    """
    if not (rep1.is_concrete() and rep2.is_concrete()):
        raise ValueError("calling conventions exist only for concrete reps")
    return rep1.register_shape() == rep2.register_shape()


def all_nullary_reps() -> Tuple[Rep, ...]:
    """All non-compound concrete representations, for enumeration in tests."""
    return (LIFTED, UNLIFTED, INT_REP, WORD_REP, CHAR_REP, ADDR_REP,
            FLOAT_REP, DOUBLE_REP)
