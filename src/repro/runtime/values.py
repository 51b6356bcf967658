"""Runtime values, heap and cost model for the surface language.

The paper's performance claims (Section 2.1) were measured on GHC-compiled
native code, which we cannot run here.  The substitution (documented in
DESIGN.md) is a *cost-model abstract machine*: it executes the same surface
programs with the same calling conventions — boxed-and-lifted arguments are
passed as heap pointers to (possibly) thunks, unboxed arguments are passed
as raw machine values — and counts the operations whose cost dominates on
real hardware:

* heap allocations (boxes, thunks, closures, dictionaries) and the words
  they occupy;
* thunk forces and updates (the cost of laziness);
* pointer reads (the memory traffic of chasing boxes);
* primitive arithmetic operations (the only thing the unboxed loop does).

The *shape* of the paper's result — the unboxed ``sumTo#`` loop allocates
nothing and does no memory traffic, while the boxed ``sumTo`` allocates a
box and several thunks per iteration — falls straight out of these counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import EvaluationError
from ..core.rep import Rep, RegisterClass


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


@dataclass
class CostModel:
    """Counters for the operations the evaluator performs.

    ``estimated_cycles`` converts the counters into a single synthetic
    figure using rough per-operation weights (an allocation plus its
    initialisation is far more expensive than a register add).  The weights
    are deliberately coarse — the benchmarks report the raw counters too —
    but they give a single headline number comparable to the paper's
    "less than 0.01s vs more than 2s".
    """

    heap_allocations: int = 0
    words_allocated: int = 0
    thunk_allocations: int = 0
    thunk_forces: int = 0
    thunk_updates: int = 0
    pointer_reads: int = 0
    primops: int = 0
    function_calls: int = 0
    case_scrutinies: int = 0
    dictionary_lookups: int = 0

    #: Per-operation weights (in abstract cycles).
    WEIGHTS = {
        "heap_allocations": 10,
        "words_allocated": 1,
        "thunk_allocations": 10,
        "thunk_forces": 6,
        "thunk_updates": 2,
        "pointer_reads": 3,
        "primops": 1,
        "function_calls": 2,
        "case_scrutinies": 1,
        "dictionary_lookups": 3,
    }

    def estimated_cycles(self) -> int:
        return sum(getattr(self, name) * weight
                   for name, weight in self.WEIGHTS.items())

    def memory_traffic(self) -> int:
        """Operations that touch the heap at all (the paper's key contrast)."""
        return (self.heap_allocations + self.thunk_allocations
                + self.thunk_forces + self.pointer_reads)

    def as_dict(self) -> Dict[str, int]:
        data = {name: getattr(self, name) for name in self.WEIGHTS}
        data["estimated_cycles"] = self.estimated_cycles()
        data["memory_traffic"] = self.memory_traffic()
        return data

    def __sub__(self, other: "CostModel") -> "CostModel":
        result = CostModel()
        for name in self.WEIGHTS:
            setattr(result, name, getattr(self, name) - getattr(other, name))
        return result


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class Value:
    """Abstract base class of runtime values."""

    def is_unboxed(self) -> bool:
        return False

    def show(self, heap: "Heap") -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class UnboxedInt(Value):
    """A raw machine integer (``Int#``, ``Word#``, ``Char#`` as a code point)."""

    value: int

    def is_unboxed(self) -> bool:
        return True

    def show(self, heap: "Heap") -> str:
        return f"{self.value}#"


@dataclass(frozen=True)
class UnboxedDouble(Value):
    """A raw double-precision float (``Double#`` / ``Float#``)."""

    value: float

    def is_unboxed(self) -> bool:
        return True

    def show(self, heap: "Heap") -> str:
        return f"{self.value}##"


@dataclass(frozen=True)
class UnboxedTupleValue(Value):
    """An unboxed tuple: just its components, living in "registers"."""

    components: Tuple[Value, ...]

    def is_unboxed(self) -> bool:
        return True

    def show(self, heap: "Heap") -> str:
        inner = ", ".join(c.show(heap) for c in self.components)
        return f"(# {inner} #)"


@dataclass(frozen=True)
class StringValue(Value):
    """A string constant (modelled opaquely; Strings are boxed in GHC)."""

    value: str

    def show(self, heap: "Heap") -> str:
        return repr(self.value)


@dataclass(frozen=True)
class HeapRef(Value):
    """A pointer into the heap — the representation of every boxed value."""

    address: int

    def show(self, heap: "Heap") -> str:
        return heap.load_for_show(self).show_object(heap)


# ---------------------------------------------------------------------------
# Heap objects
# ---------------------------------------------------------------------------


class HeapObject:
    """Something allocated on the heap."""

    def size_in_words(self) -> int:
        raise NotImplementedError

    def show_object(self, heap: "Heap") -> str:
        raise NotImplementedError


@dataclass
class ConstructorCell(HeapObject):
    """A saturated data-constructor cell, e.g. ``I# 7`` or ``Just x``.

    The header word plus one word per field, matching GHC's layout of a
    two-word ``Int`` cell (Section 2.1).
    """

    constructor: str
    fields: Tuple[Value, ...]

    def size_in_words(self) -> int:
        return 1 + len(self.fields)

    def show_object(self, heap: "Heap") -> str:
        if not self.fields:
            return self.constructor
        fields = " ".join(f.show(heap) for f in self.fields)
        return f"({self.constructor} {fields})"


@dataclass
class Thunk(HeapObject):
    """An unevaluated computation (laziness).  Forced at most once."""

    compute: Callable[[], Value]
    result: Optional[Value] = None
    under_evaluation: bool = False

    def size_in_words(self) -> int:
        return 2  # header + payload pointer, as in GHC's smallest thunks

    def show_object(self, heap: "Heap") -> str:
        if self.result is not None:
            return self.result.show(heap)
        return "<thunk>"


@dataclass
class Closure(HeapObject):
    """A function closure: parameter conventions, body, captured environment."""

    name: str
    params: Tuple[str, ...]
    param_strict: Tuple[bool, ...]   # True = unboxed/unlifted => call-by-value
    body: object                     # a surface Expr
    env: Dict[str, Value]
    collected: Tuple[Value, ...] = ()

    def size_in_words(self) -> int:
        return 1 + len(self.env)

    def show_object(self, heap: "Heap") -> str:
        return f"<closure {self.name or 'λ'}/{len(self.params)}>"


@dataclass
class CompiledClosure(HeapObject):
    """A closure produced by the closure-compilation backend.

    ``target`` is a ``repro.runtime.compiler.CompiledFunction`` (or a
    compiled lambda): its calling convention — arity and per-parameter
    strictness — was baked in at compile time from the inferred kinds, so
    entering the closure needs no per-call strictness rederivation.  The
    printed form matches the tree-walker's :class:`Closure` exactly; the two
    kinds of closure are interchangeable at every application site.
    """

    target: object                   # CompiledFunction; duck-typed to avoid
    collected: Tuple[Value, ...] = ()  # a circular import with the compiler

    def size_in_words(self) -> int:
        return 2 + len(self.collected)

    def show_object(self, heap: "Heap") -> str:
        return f"<closure {self.target.name or 'λ'}/{self.target.arity}>"

    def enter(self, evaluator, argument: Value) -> Value:
        target = self.target
        collected = self.collected + (argument,)
        if len(collected) < target.arity:
            return evaluator.heap.allocate(
                CompiledClosure(target, collected), static=True)
        return target.call(*collected)


@dataclass
class PrimOpValue(HeapObject):
    """A (possibly partially applied) primitive operation."""

    name: str
    arity: int
    apply: Callable[..., Value]
    collected: Tuple[Value, ...] = ()

    def size_in_words(self) -> int:
        return 1 + len(self.collected)

    def show_object(self, heap: "Heap") -> str:
        return f"<primop {self.name}>"


@dataclass
class DictionaryCell(HeapObject):
    """A class dictionary: a lifted record of method closures (Section 7.3)."""

    class_name: str
    instance_head: str
    methods: Dict[str, Value]

    def size_in_words(self) -> int:
        return 1 + len(self.methods)

    def show_object(self, heap: "Heap") -> str:
        return f"<${self.class_name}{self.instance_head}>"


@dataclass
class MethodSelector(HeapObject):
    """A bare class-method reference awaiting dispatch (e.g. ``abs``)."""

    class_name: str
    method: str

    def size_in_words(self) -> int:
        return 1

    def show_object(self, heap: "Heap") -> str:
        return f"<method {self.class_name}.{self.method}>"


# ---------------------------------------------------------------------------
# Heap
# ---------------------------------------------------------------------------


class Heap:
    """A growable heap with allocation and read accounting.

    Objects can be allocated *statically* (``static=True``): these model
    compile-time-known code objects — top-level closures, primop entry
    points, nullary constructors — which a real compiler places in the
    read-only data segment rather than allocating at runtime.  Static
    allocations and reads of static objects are not charged to the cost
    model, so the counters reflect genuine dynamic memory traffic only.
    """

    def __init__(self, costs: Optional[CostModel] = None) -> None:
        self.cells: List[HeapObject] = []
        self.costs = costs if costs is not None else CostModel()
        self._static: set = set()

    def allocate(self, obj: HeapObject, static: bool = False) -> HeapRef:
        self.cells.append(obj)
        address = len(self.cells) - 1
        if static:
            self._static.add(address)
        else:
            self.costs.heap_allocations += 1
            self.costs.words_allocated += obj.size_in_words()
            if isinstance(obj, Thunk):
                self.costs.thunk_allocations += 1
        return HeapRef(address)

    def load(self, ref: HeapRef) -> HeapObject:
        if ref.address not in self._static:
            self.costs.pointer_reads += 1
        return self.cells[ref.address]

    def load_for_show(self, ref: HeapRef) -> HeapObject:
        """Load without charging the cost model (used only for printing)."""
        return self.cells[ref.address]

    def update(self, ref: HeapRef, obj: HeapObject) -> None:
        self.cells[ref.address] = obj
