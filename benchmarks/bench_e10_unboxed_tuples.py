"""E10 (Sections 2.3, 4.2): unboxed tuples, their kinds and register shapes.

Paper claims reproduced:
* ``(# Int, Bool #) :: TYPE (TupleRep [LiftedRep, LiftedRep])``,
  ``(# Int#, Bool #) :: TYPE (TupleRep [IntRep, LiftedRep])``,
  ``(# #) :: TYPE (TupleRep [])`` — and the register shapes follow;
* nesting is computationally irrelevant (same registers) yet kind-distinct
  (the paper's deliberate design choice, our ablation measures the cost);
* a ``divMod``-style function returns its two results in registers with no
  allocation.

The ablation quantifies the design choice of Section 4.2: how many distinct
kinds the non-flattening design produces over a corpus of nested tuple
shapes, versus how many a flattening design would have.
"""

import itertools

import pytest

from benchreport import emit
from repro.core.rep import INT_REP, LIFTED, DOUBLE_REP, TupleRep
from repro.runtime import Evaluator, UnboxedInt
from repro.runtime.programs import WORKLOADS_SOURCE, checked_program
from repro.surface.types import (
    BOOL_TY,
    DOUBLE_HASH_TY,
    INT_HASH_TY,
    INT_TY,
    UnboxedTupleTy,
    kind_of_type,
)


def test_report_unboxed_tuple_kinds():
    cases = {
        "(# Int, Bool #)": UnboxedTupleTy((INT_TY, BOOL_TY)),
        "(# Int#, Bool #)": UnboxedTupleTy((INT_HASH_TY, BOOL_TY)),
        "(# #)": UnboxedTupleTy(()),
        "(# Int, (# Bool, Double# #) #)": UnboxedTupleTy(
            (INT_TY, UnboxedTupleTy((BOOL_TY, DOUBLE_HASH_TY)))),
    }
    rows = []
    for name, type_ in cases.items():
        kind = kind_of_type(type_)
        shape = tuple(r.value for r in kind.rep.register_shape())
        rows.append((name, "TYPE (TupleRep [...])",
                     f"{kind.pretty()} -> registers {shape}"))
    emit("E10: unboxed tuple kinds and register shapes", rows)
    assert kind_of_type(cases["(# #)"]).rep.register_count() == 0
    assert kind_of_type(cases["(# Int#, Bool #)"]).rep == \
        TupleRep([INT_REP, LIFTED])


def test_report_nesting_ablation():
    """Nesting keeps kinds distinct even when representations coincide."""
    atoms = (LIFTED, INT_REP, DOUBLE_REP)
    nested = []
    for a, b, c in itertools.product(atoms, repeat=3):
        nested.append(TupleRep([a, TupleRep([b, c])]))
        nested.append(TupleRep([TupleRep([a, b]), c]))
        nested.append(TupleRep([a, b, c]))
    distinct_kinds = len(set(nested))
    distinct_flattened = len({rep.flatten() for rep in nested})
    distinct_shapes = len({rep.register_shape() for rep in nested})
    emit("E10 ablation: nesting-preserving kinds (the paper's choice)", [
        ("nested tuple types considered", "-", len(nested)),
        ("distinct kinds (paper design)", "more", distinct_kinds),
        ("distinct kinds if flattened", "fewer", distinct_flattened),
        ("distinct register shapes", "fewer", distinct_shapes),
        ("lost polymorphism (kinds / shapes)", ">1x",
         f"{distinct_kinds / distinct_shapes:.1f}x"),
    ])
    assert distinct_kinds > distinct_flattened == distinct_shapes


def test_report_divmod_in_registers():
    program = checked_program(WORKLOADS_SOURCE)
    evaluator = Evaluator(program)
    value = evaluator.run("divMod#", UnboxedInt(29), UnboxedInt(4))
    emit("E10: divMod# returns via registers (Section 2.3)", [
        ("divMod# 29 4", "(# 7#, 1# #)", value.show(evaluator.heap)),
        ("tuple allocations", "0", evaluator.costs.heap_allocations),
    ])
    assert value.components == (UnboxedInt(7), UnboxedInt(1))
    assert evaluator.costs.heap_allocations == 0


@pytest.mark.benchmark(group="e10-tuples")
def test_bench_tuple_kind_computation(benchmark):
    types = [UnboxedTupleTy((INT_TY, INT_HASH_TY, DOUBLE_HASH_TY))] * 50

    def run():
        return [kind_of_type(t).rep.register_shape() for t in types]
    benchmark(run)


@pytest.mark.benchmark(group="e10-tuples")
def test_bench_divmod(benchmark):
    program = checked_program(WORKLOADS_SOURCE)

    def run():
        evaluator = Evaluator(program)
        return evaluator.run("divMod#", UnboxedInt(1000), UnboxedInt(7))
    result = benchmark(run)
    assert result.components == (UnboxedInt(142), UnboxedInt(6))
