"""Tests for the cost-model runtime (§2.1's experiment) and pretty-printing (§8.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.driver import DriverOptions, Session
from repro.pretty import PrinterOptions, render_scheme, render_type
from repro.runtime import (
    CostModel,
    Evaluator,
    Program,
    UnboxedDouble,
    UnboxedInt,
    WORKLOADS_SOURCE,
    checked_program,
    compare_sum_to,
    run_sum_to_boxed,
    run_sum_to_unboxed,
)
from repro.surface.ast import (
    Alternative,
    ECase,
    EIf,
    ELam,
    ELet,
    ELitInt,
    ELitIntHash,
    EUnboxedTuple,
    EVar,
    apply,
)
from repro.surface.prelude import DOLLAR_SCHEME, ERROR_SCHEME, prelude_env
from repro.surface.types import INT_HASH_TY, INT_TY, fun


class TestEvaluatorBasics:
    def test_unboxed_arithmetic(self):
        evaluator = Evaluator()
        value = evaluator.eval(apply(EVar("+#"), ELitIntHash(3),
                                     ELitIntHash(4)))
        assert evaluator.int_result(value) == 7

    def test_boxed_literal_allocates(self):
        evaluator = Evaluator()
        evaluator.eval(ELitInt(5))
        assert evaluator.costs.heap_allocations == 1

    def test_unboxed_literal_does_not_allocate(self):
        evaluator = Evaluator()
        evaluator.eval(ELitIntHash(5))
        assert evaluator.costs.heap_allocations == 0

    def test_boxing_and_unboxing_roundtrip(self):
        evaluator = Evaluator()
        expr = ECase(apply(EVar("I#"), ELitIntHash(9)),
                     [Alternative("I#", ["x"], EVar("x"))])
        assert evaluator.int_result(evaluator.eval(expr)) == 9

    def test_lazy_let_is_not_forced_when_unused(self):
        evaluator = Evaluator()
        expr = ELet("unused", apply(EVar("+#"), ELitIntHash(1),
                                    ELitIntHash(2)),
                    ELitIntHash(0))
        evaluator.eval(expr)
        assert evaluator.costs.thunk_allocations == 1
        assert evaluator.costs.thunk_forces == 0

    def test_thunks_are_shared(self):
        evaluator = Evaluator()
        # let x = 1 + 2 in (x + x): the thunk is forced once.
        expr = ELet("x", apply(EVar("plusInt"), ELitInt(1), ELitInt(2)),
                    apply(EVar("plusInt"), EVar("x"), EVar("x")))
        assert evaluator.int_result(evaluator.eval(expr)) == 6
        assert evaluator.costs.thunk_forces == 1

    def test_if_on_primop_comparison(self):
        evaluator = Evaluator()
        expr = EIf(apply(EVar("ltInt"), ELitInt(1), ELitInt(2)),
                   ELitIntHash(10), ELitIntHash(20))
        assert evaluator.int_result(evaluator.eval(expr)) == 10

    def test_unboxed_tuple_value(self):
        evaluator = Evaluator()
        value = evaluator.eval(EUnboxedTuple((ELitIntHash(1),
                                              ELitIntHash(2))))
        assert value.components == (UnboxedInt(1), UnboxedInt(2))
        assert evaluator.costs.heap_allocations == 0

    def test_pattern_match_failure(self):
        from repro.core.errors import PatternError
        evaluator = Evaluator()
        expr = ECase(ELitIntHash(3), [Alternative("0#", [], ELitIntHash(1))])
        with pytest.raises(PatternError):
            evaluator.eval(expr)

    def test_class_method_dispatch(self, class_setup):
        class_env, _ = class_setup
        program = Program(class_env=class_env)
        evaluator = Evaluator(program)
        value = evaluator.eval(apply(EVar("+"), ELitIntHash(3),
                                     ELitIntHash(4)))
        assert evaluator.int_result(value) == 7

    def test_explicit_dictionary_build_and_select(self, class_setup):
        class_env, _ = class_setup
        program = Program(class_env=class_env)
        evaluator = Evaluator(program)
        dictionary = evaluator.build_dictionary("Num", INT_HASH_TY)
        plus = evaluator.select_method(dictionary, "+")
        result = evaluator.apply_value(
            evaluator.apply_value(plus, UnboxedInt(2)), UnboxedInt(5))
        assert evaluator.int_result(result) == 7
        assert evaluator.costs.dictionary_lookups >= 1


POW = ("pow :: Int# -> Int# -> Int#\n"
       "pow x n = case n of { 0# -> x; _ -> pow (x *# x) (n -# 1#) }\n")
SQ = ("sq :: Double# -> Int# -> Double#\n"
      "sq d n = case n of { 0# -> d; _ -> sq (d *## d) (n -# 1#) }\n")
DOUBLE2INT_BOTTOM = "double2Int# of an infinity or NaN is undefined (bottom)"


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["tree-walker", "compiled"])
@pytest.mark.parametrize("source, expected", [
    ("main :: Double#\nmain = 1.0## /## 0.0##\n", "inf##"),
    ("main :: Double#\nmain = (-1.0##) /## 0.0##\n", "-inf##"),
    ("main :: Double#\nmain = 0.0## /## 0.0##\n", "nan##"),
    (POW + "main :: Double#\nmain = int2Double# (pow 10# 12#)\n", "inf##"),
    (POW + "main :: Double#\n"
     "main = int2Double# (negateInt# (pow 10# 12#))\n", "-inf##"),
    (SQ + "main :: Int#\nmain = double2Int# (sq 10.0## 12#)\n", None),
    ("main :: Int#\nmain = double2Int# (1.0## /## 0.0##)\n", None),
    # A literal past the Double# range is infinite on both engines too.
    ("main :: Double#\nmain = 1" + "0" * 400 + "##\n", "inf##"),
], ids=["div-by-zero", "negative-div-by-zero", "zero-div-by-zero",
        "int2Double-overflow", "int2Double-negative-overflow",
        "double2Int-infinity", "double2Int-of-division", "huge-literal"])
def test_double_primops_are_ieee_or_bottom(source, expected, compiled):
    """``/##`` is IEEE 754 division, ``int2Double#`` saturates to
    ±infinity, and ``double2Int#`` of an infinity or NaN is ⊥ — a run
    error, never a Python exception."""
    result = Session(DriverOptions(compiled=compiled)).run(source,
                                                           "double.lev")
    if expected is None:
        assert not result.ok
        assert [d.message for d in result.check.errors] == \
            [DOUBLE2INT_BOTTOM]
    else:
        assert result.ok, result.check.pretty()
        assert result.value == expected


class TestSumToExperiment:
    """E1: the Section 2.1 boxed-vs-unboxed contrast."""

    def test_results_agree_and_match_the_closed_form(self):
        """compare_sum_to checks both loops against n(n+1)/2.  Its E1
        table at n=100 is pinned counter for counter: the loops are
        checked from ``.lev`` text, and their costs must not move with
        the front end that builds them."""
        assert compare_sum_to(100) == {
            "boxed": {
                "heap_allocations": 907, "words_allocated": 1811,
                "thunk_allocations": 200, "thunk_forces": 200,
                "thunk_updates": 200, "pointer_reads": 4012,
                "primops": 501, "function_calls": 1606,
                "case_scrutinies": 804, "dictionary_lookups": 0,
                "estimated_cycles": 31034, "memory_traffic": 5319,
            },
            "unboxed": {
                "heap_allocations": 0, "words_allocated": 0,
                "thunk_allocations": 0, "thunk_forces": 0,
                "thunk_updates": 0, "pointer_reads": 0,
                "primops": 301, "function_calls": 804,
                "case_scrutinies": 101, "dictionary_lookups": 0,
                "estimated_cycles": 2010, "memory_traffic": 0,
            },
        }

    def test_unboxed_loop_performs_no_memory_traffic(self):
        _, costs = run_sum_to_unboxed(300)
        assert costs.heap_allocations == 0
        assert costs.thunk_allocations == 0
        assert costs.thunk_forces == 0
        assert costs.pointer_reads == 0

    def test_boxed_loop_allocates_per_iteration(self):
        _, costs = run_sum_to_boxed(100)
        assert costs.heap_allocations >= 100       # at least one box/iteration
        assert costs.thunk_allocations >= 100
        assert costs.thunk_forces == costs.thunk_updates

    def test_boxed_is_much_more_expensive(self):
        report = compare_sum_to(200)
        boxed = report["boxed"]["estimated_cycles"]
        unboxed = report["unboxed"]["estimated_cycles"]
        assert boxed > 10 * unboxed
        assert report["unboxed"]["memory_traffic"] == 0

    @given(n=st.integers(min_value=1, max_value=60))
    @settings(max_examples=10, deadline=None)
    def test_boxed_and_unboxed_always_agree(self, n):
        boxed_result, _ = run_sum_to_boxed(n)
        unboxed_result, _ = run_sum_to_unboxed(n)
        assert boxed_result == unboxed_result == n * (n + 1) // 2

    def test_param_strictness_comes_from_kinds(self):
        functions = checked_program(WORKLOADS_SOURCE).functions
        assert functions["sumTo"].param_strict == (False, False)
        assert functions["sumTo#"].param_strict == (True, True)

    def test_other_workloads_run(self):
        program = checked_program(WORKLOADS_SOURCE)
        evaluator = Evaluator(program)
        value = evaluator.run("sumSq#", UnboxedInt(0), UnboxedInt(10))
        assert evaluator.int_result(value) == sum(i * i for i in range(11))

        evaluator = Evaluator(program)
        value = evaluator.force(evaluator.run("geo##", UnboxedDouble(0.0),
                                              UnboxedInt(4)))
        assert abs(value.value - (1.0 + 0.5 + 1 / 3 + 0.25)) < 1e-9

    def test_divmod_returns_values_in_registers(self):
        evaluator = Evaluator(checked_program(WORKLOADS_SOURCE))
        value = evaluator.run("divMod#", UnboxedInt(17), UnboxedInt(5))
        assert value.components == (UnboxedInt(3), UnboxedInt(2))
        assert evaluator.costs.heap_allocations == 0

    def test_cost_model_arithmetic(self):
        a, b = CostModel(), CostModel()
        a.primops, b.primops = 10, 4
        assert (a - b).primops == 6
        assert a.estimated_cycles() >= b.estimated_cycles()


class TestPrettyPrinting:
    """E7/§8.1: display defaulting of representation variables."""

    def test_dollar_default_display_matches_the_simple_type(self):
        assert render_scheme(DOLLAR_SCHEME) == "(a -> b) -> a -> b"

    def test_dollar_explicit_display_shows_rep_binders(self):
        rendered = render_scheme(
            DOLLAR_SCHEME, PrinterOptions(print_explicit_runtime_reps=True))
        assert "Rep" in rendered and "TYPE r" in rendered

    def test_error_default_display(self):
        assert render_scheme(ERROR_SCHEME) == "String -> a"

    def test_render_plain_type(self):
        assert render_type(fun(INT_HASH_TY, INT_TY)) == "Int# -> Int"

    def test_monomorphic_scheme_untouched(self):
        from repro.infer import Scheme
        assert render_scheme(Scheme.monomorphic(INT_TY)) == "Int"
