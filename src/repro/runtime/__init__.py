"""Cost-model runtime: executes surface programs and counts what they cost."""

from .evaluator import (
    CONSTRUCTOR_ARITIES,
    Evaluator,
    PRIMOP_TABLE,
    Program,
    ProgramFunction,
)
from .programs import (
    SUM_TO_BOXED_SOURCE,
    SUM_TO_UNBOXED_SOURCE,
    WORKLOADS_SOURCE,
    checked_program,
    compare_sum_to,
    run_sum_to_boxed,
    run_sum_to_unboxed,
)
from .values import (
    Closure,
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

__all__ = [name for name in dir() if not name.startswith("_")]
