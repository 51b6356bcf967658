"""Tests for the M machine (Figures 5-6), joinability, and compilation (Figure 7)."""

import pytest

from repro.compile import VarEnv, compile_and_run, compile_expr
from repro.core.errors import CompilationError, MachineError
from repro.lang_l import Context, INT, INT_HASH, Lit as LLit, Var as LVar, lam
from repro.lang_l.examples import LEVITY_VIOLATIONS, WELL_TYPED
from repro.lang_l.syntax import App as LApp, Con as LCon, boxed_int
from repro.lang_m import (
    AppLitFrame,
    CaseLitFrame,
    ForceFrame,
    LetFrame,
    Machine,
    MAppLit,
    MAppVar,
    MCase,
    MCaseLit,
    MConLit,
    MConVar,
    MError,
    MFix,
    MLam,
    MLet,
    MLetStrict,
    MLit,
    MPrimOp,
    MVar,
    MVarRef,
    RunTable,
    VarSort,
    fresh_integer_var,
    fresh_pointer_var,
    joinable,
    run,
)


#: Summed machine costs of the CI fuzz corpus (the validation smoke's
#: seed and size).  They follow from the machine's rules alone, so no
#: change of how terms or stacks are represented may move them.
CI_CORPUS_COSTS = {
    "steps": 4160, "heap_allocations": 122, "thunk_forces": 38,
    "thunk_updates": 38, "heap_lookups": 131, "stack_pushes": 1727,
    "stack_pops": 1727, "substitutions": 1523, "primops": 491,
    "fix_unrollings": 31, "branches": 166,
}


def _spin():
    """``(fix p. λi. p i) 0``: returns to an empty stack forever."""
    p, i = fresh_pointer_var(), fresh_integer_var()
    return MAppLit(MFix(p, MLam(i, MAppVar(MVarRef(p), i))), 0)


def _loop(literal=0, sort=VarSort.INTEGER, result=None):
    """``fix f. λx. case x of { 0 → literal; _ → f x }`` under fresh
    names, with an ``x`` of ``sort``, or ``result`` in the 0 branch."""
    f = fresh_pointer_var("f")
    x = fresh_pointer_var() if sort == VarSort.POINTER \
        else fresh_integer_var()
    branch = MLit(literal) if result is None else result
    return MFix(f, MLam(x, MCaseLit(MVarRef(x), ((0, branch),),
                                    MAppVar(MVarRef(f), x))))


class TestMachine:
    def test_literal_is_final(self):
        result = run(MLit(42))
        assert result.unwrap() == MLit(42)
        assert result.costs.steps == 0

    def test_lazy_let_allocates_and_val_reads(self):
        p = fresh_pointer_var()
        expr = MLet(p, MConLit(7), MVarRef(p))
        result = run(expr)
        assert result.unwrap() == MConLit(7)
        assert result.costs.heap_lookups >= 1

    def test_thunk_is_forced_once_and_updated(self):
        """EVAL/FCE implement thunk sharing: the second read sees the value."""
        p = fresh_pointer_var()
        i = fresh_integer_var()
        # let p = case I#[3] of I#[i] -> I#[i]  in  case p of I#[i] -> p
        thunk_body = MCase(MConLit(3), i, MConVar(i))
        expr = MLet(p, thunk_body, MCase(MVarRef(p), i, MVarRef(p)))
        result = run(expr)
        assert result.unwrap() == MConLit(3)
        assert result.costs.thunk_forces == 1
        assert result.costs.thunk_updates == 1

    def test_strict_let_evaluates_rhs(self):
        i = fresh_integer_var()
        expr = MLetStrict(i, MLit(5), MConVar(i))
        result = run(expr)
        assert result.unwrap() == MConLit(5)
        assert result.costs.heap_allocations == 0

    def test_pointer_application(self):
        p_arg = fresh_pointer_var()
        p_binder = fresh_pointer_var()
        expr = MLet(p_arg, MConLit(9),
                    MAppVar(MLam(p_binder, MVarRef(p_binder)), p_arg))
        assert run(expr).unwrap() == MConLit(9)

    def test_integer_application(self):
        i = fresh_integer_var()
        expr = MAppLit(MLam(i, MVarRef(i)), 11)
        assert run(expr).unwrap() == MLit(11)

    def test_register_sort_mismatch_is_a_machine_error(self):
        """Passing an integer literal to a pointer-binder λ is stuck (IPOP)."""
        p = fresh_pointer_var()
        with pytest.raises(MachineError):
            run(MAppLit(MLam(p, MVarRef(p)), 3))

    def test_error_aborts(self):
        result = run(MError())
        assert result.aborted
        with pytest.raises(MachineError):
            result.unwrap()

    def test_case_unpacks_boxed_integer(self):
        i = fresh_integer_var()
        assert run(MCase(MConLit(21), i, MVarRef(i))).unwrap() == MLit(21)

    def test_unbound_pointer_is_a_machine_error(self):
        with pytest.raises(MachineError):
            run(MVarRef(fresh_pointer_var()))

    def test_step_budget_counts_steps_taken(self):
        # A final state within the budget is never an error: a literal
        # needs no step, and `+#(1, 2)` halts in exactly one.
        assert Machine(MLit(4)).run(max_steps=0).unwrap() == MLit(4)
        add = MPrimOp("+#", (MLit(1), MLit(2)))
        assert Machine(add).run(max_steps=1).unwrap() == MLit(3)
        with pytest.raises(MachineError, match="within 0 steps"):
            Machine(add).run(max_steps=0)

    def test_trace_records_states(self):
        i = fresh_integer_var()
        machine = Machine(MLetStrict(i, MLit(1), MVarRef(i)))
        states = machine.trace()
        assert len(states) >= 3
        assert states[0].expr == MLetStrict(i, MLit(1), MVarRef(i))

    def test_stack_is_given_and_reported_top_first(self):
        # ILET on the top frame doubles 3, then LMAT picks 6's branch;
        # the frames in the other order would give 0.
        i = fresh_integer_var()
        double = LetFrame(i, MPrimOp("*#", (MVarRef(i), MLit(2))))
        pick = CaseLitFrame(((6, MLit(60)),), MLit(0))
        machine = Machine(MLit(3), stack=[double, pick])
        assert machine.state().stack == (double, pick)
        states = machine.trace()
        assert [state.stack for state in states] == \
            [(double, pick), (pick,), (pick,), ()]
        assert states[-1].expr == MLit(60)

    def test_trace_lists_pushed_frames_top_first(self):
        i, j = fresh_integer_var(), fresh_integer_var()
        curried = MLam(i, MLam(j, MPrimOp("-#", (MVarRef(i), MVarRef(j)))))
        states = Machine(MAppLit(MAppLit(curried, 5), 2)).trace()
        assert states[2].stack == (AppLitFrame(5), AppLitFrame(2))
        assert states[-1].expr == MLit(3)


class TestRepresentation:
    """Variables are named tuples and nodes slotted dataclasses: equality
    and hashing stay structural, and the node class is part of it."""

    def test_equal_variables_find_the_same_heap_cell(self):
        first = MVar("cell", VarSort.POINTER)
        second = MVar("cell", VarSort.POINTER)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert run(MVarRef(second), heap={first: MConLit(5)}).unwrap() \
            == MConLit(5)

    def test_variables_of_different_sorts_differ(self):
        assert MVar("x", VarSort.POINTER) != MVar("x", VarSort.INTEGER)
        assert repr(MVar("x", VarSort.INTEGER)) == "x:i"

    def test_equal_terms_are_equal_and_hash_equal(self):
        def build():
            p = MVar("p", VarSort.POINTER)
            i = MVar("i", VarSort.INTEGER)
            return MLet(p, MConLit(1),
                        MCaseLit(MPrimOp("+#", (MLit(1), MVarRef(i))),
                                 ((0, MVarRef(p)),), MError()))

        assert build() is not build()
        assert build() == build() and hash(build()) == hash(build())
        assert {build(): 1}[build()] == 1

    def test_node_classes_are_part_of_equality(self):
        p = fresh_pointer_var()
        body = MVarRef(p)
        assert MLam(p, body) != MFix(p, body)
        assert MLit(3) != MConLit(3)
        assert repr(MLit(3)) == "MLit(value=3)"


class TestJoinability:
    def test_equal_literals_are_joinable(self):
        assert joinable(MLit(4), MLit(4)).joinable

    def test_distinct_literals_are_not_joinable(self):
        assert not joinable(MLit(4), MLit(5)).joinable

    def test_value_and_administrative_let_are_joinable(self):
        p = fresh_pointer_var()
        assert joinable(MConLit(3), MLet(p, MConLit(3), MVarRef(p))).joinable

    def test_both_error_joinable(self):
        assert joinable(MError(), MError()).joinable

    def test_error_and_value_not_joinable(self):
        assert not joinable(MError(), MLit(0)).joinable

    def test_lambdas_probed_for_joinability(self):
        i1, i2 = fresh_integer_var(), fresh_integer_var()
        identity = MLam(i1, MVarRef(i1))
        eta = MLam(i2, MAppLit(MLam(i1, MVarRef(i1)), 0))  # constant 0
        assert joinable(identity, identity).joinable
        assert not joinable(identity, eta).joinable

    def test_alpha_equivalence(self):
        i1, i2 = fresh_integer_var(), fresh_integer_var()
        table = RunTable()
        assert table.key(MLam(i1, MVarRef(i1)), {}) == \
            table.key(MLam(i2, MVarRef(i2)), {})
        p = fresh_pointer_var()
        assert table.key(MLam(i1, MVarRef(i1)), {}) != \
            table.key(MLam(p, MVarRef(p)), {})

    def test_key_keeps_reachable_cells_up_to_renaming(self):
        p1, p2, p3 = (fresh_pointer_var() for _ in range(3))
        table = RunTable()
        key = table.key(MVarRef(p1), {p1: MConLit(1), p3: MConLit(9)})
        assert key == table.key(MVarRef(p2), {p2: MConLit(1)})
        assert key != table.key(MVarRef(p2), {p2: MConLit(2)})

    def test_a_closed_fix_keys_alike_wherever_it_sits(self):
        def nest(term):  # under two λs
            return MLam(fresh_pointer_var(), MLam(fresh_integer_var(), term))

        loop = _loop()
        table = RunTable()
        top = table.key(loop, {})
        assert table.key(_loop(), {}) == top  # an α-renamed copy
        nested = table.key(nest(loop), {})  # the fix from the table's memo
        assert table.key(nest(_loop()), {}) == nested
        fresh = RunTable()  # met under the λs first, then at the top
        nested = fresh.key(nest(loop), {})
        assert fresh.key(nest(_loop()), {}) == nested
        assert fresh.key(loop, {}) == fresh.key(_loop(), {})

    def test_closed_fixes_that_differ_key_differently(self):
        table = RunTable()
        key = table.key(_loop(), {})
        assert table.key(_loop(literal=1), {}) != key
        assert table.key(_loop(sort=VarSort.POINTER), {}) != key
        assert table.key(_loop(), {}) == key

    def test_an_open_fix_keys_its_free_cell(self):
        q = fresh_pointer_var()
        table = RunTable()
        key = table.key(_loop(result=MVarRef(q)), {q: MConLit(1)})
        assert key != table.key(_loop(result=MVarRef(q)), {q: MConLit(2)})
        r = fresh_pointer_var()
        assert key == table.key(_loop(result=MVarRef(r)),
                                {r: MConLit(1), q: MConLit(2)})

    def test_terms_that_meet_share_a_common_reduct(self):
        # Both sides reach `⟨(λi. i) 3; ∅; ∅⟩` with different names.
        i1, i2, i3 = (fresh_integer_var() for _ in range(3))
        redex = MAppLit(MLam(i1, MVarRef(i1)), 3)
        wrapped = MLetStrict(i2, MLit(3),
                             MAppVar(MLam(i3, MVarRef(i3)), i2))
        report = joinable(redex, wrapped)
        assert report.joinable and report.common_reduct

    def test_terms_that_never_meet_fall_to_the_answer_test(self):
        report = joinable(MPrimOp("+#", (MLit(1), MLit(2))),
                          MPrimOp("*#", (MLit(3), MLit(1))))
        assert report.joinable and not report.common_reduct
        assert report.reason == "equal integer results"

    def test_spinning_term_is_stuck_without_running_to_the_budget(
            self, monkeypatch):
        steps = []
        real_step = Machine.step
        monkeypatch.setattr(
            Machine, "step",
            lambda machine: steps.append(1) or real_step(machine))
        report = joinable(_spin(), MLit(0), max_steps=10 ** 9)
        assert not report.joinable
        assert report.reason == "one machine got stuck and the other did not"
        assert len(steps) < 20
        table = RunTable()
        outcome = table.outcome(table.run(_spin(), max_steps=10 ** 9))
        assert isinstance(outcome, MachineError)
        assert "did not halt" in str(outcome)

    def test_table_runs_each_term_once(self, monkeypatch):
        term = MPrimOp("+#", (MLit(1), MLit(2)))
        table = RunTable()
        first = table.run(term)
        monkeypatch.setattr(Machine, "step", None)  # a second run would fail
        assert table.run(term) == first
        assert joinable(term, term, table=table).common_reduct


class TestCompilation:
    @pytest.mark.parametrize("example", WELL_TYPED, ids=lambda e: e.name)
    def test_every_well_typed_example_compiles(self, example):
        compile_expr(example.expr)  # must not raise

    @pytest.mark.parametrize("example",
                             [e for e in WELL_TYPED
                              if e.expected_value is not None or e.diverges],
                             ids=lambda e: e.name)
    def test_compiled_code_computes_the_same_answer(self, example):
        from repro.lang_l.syntax import Con as SrcCon, Lit as SrcLit

        result = compile_and_run(example.expr)
        if example.diverges:
            assert result.aborted
            return
        value = result.unwrap()
        expected = example.expected_value
        if isinstance(expected, SrcLit):
            assert value == MLit(expected.value)
        elif isinstance(expected, SrcCon):
            assert value == MConLit(expected.argument.value)

    @pytest.mark.parametrize("example", LEVITY_VIOLATIONS,
                             ids=lambda e: e.name)
    def test_levity_violations_do_not_compile(self, example):
        """The compiler is partial exactly on the programs typing rejects."""
        with pytest.raises(CompilationError):
            compile_expr(example.expr)

    def test_type_and_rep_abstractions_are_erased(self):
        from repro.lang_l.examples import DOLLAR
        result = compile_expr(DOLLAR)
        assert result.erased_type_nodes >= 3
        # The compiled code is a plain λ-term with no type structure left.
        assert isinstance(result.code, MLam)

    def test_lazy_vs_strict_lets_follow_argument_kinds(self):
        boxed_app = LApp(lam("x", INT, LVar("x")), boxed_int(1))
        unboxed_app = LApp(lam("x", INT_HASH, LVar("x")), LLit(1))
        assert compile_expr(boxed_app).lazy_lets == 1
        assert compile_expr(boxed_app).strict_lets >= 1  # the I#[1] box
        assert compile_expr(unboxed_app).lazy_lets == 0
        assert compile_expr(unboxed_app).strict_lets == 1

    def test_free_variable_does_not_compile(self):
        with pytest.raises(CompilationError):
            compile_expr(LVar("ghost"))

    def test_compilation_with_environment(self):
        env = VarEnv().bind("x", fresh_pointer_var())
        ctx = Context().bind_term("x", INT)
        result = compile_expr(LVar("x"), ctx, env)
        assert isinstance(result.code, MVarRef)

    def test_var_env_compatibility_check(self):
        ctx = Context().bind_term("x", INT)
        good = VarEnv().bind("x", fresh_pointer_var())
        bad = VarEnv().bind("x", fresh_integer_var())
        assert good.compatible_with(ctx)
        assert not bad.compatible_with(ctx)
        assert not VarEnv().compatible_with(ctx)


class TestWholeLanguageMachine:
    """The fix / primop / literal-case machine rules (whole-language L)."""

    def test_primop_on_literals(self):
        from repro.lang_m import MPrimOp

        result = run(MPrimOp("+#", (MLit(1), MLit(2))))
        assert result.unwrap() == MLit(3)
        assert result.costs.primops == 1

    def test_primop_frames_evaluate_operands_left_to_right(self):
        from repro.lang_m import MPrimOp

        nested = MPrimOp("-#", (MPrimOp("+#", (MLit(1), MLit(2))),
                                MPrimOp("*#", (MLit(2), MLit(3)))))
        result = run(nested)
        assert result.unwrap() == MLit(-3)
        assert result.costs.primops == 3

    def test_quot_by_zero_aborts(self):
        from repro.lang_m import MPrimOp

        result = run(MPrimOp("quotInt#", (MLit(1), MLit(0))))
        assert result.aborted
        result = run(MPrimOp("remInt#", (MLit(1), MLit(0))))
        assert result.aborted

    def test_unknown_primop_is_a_machine_error(self):
        from repro.lang_m import MPrimOp

        with pytest.raises(MachineError):
            run(MPrimOp("frobInt#", (MLit(1),)))

    def test_case_lit_selects_branch_then_default(self):
        from repro.lang_m import MCaseLit, MPrimOp

        scrutinee = MPrimOp("+#", (MLit(1), MLit(1)))
        expr = MCaseLit(scrutinee, ((1, MLit(10)), (2, MLit(20))), MLit(99))
        result = run(expr)
        assert result.unwrap() == MLit(20)
        assert result.costs.branches == 1
        fallthrough = MCaseLit(MLit(7), ((1, MLit(10)),), MLit(99))
        assert run(fallthrough).unwrap() == MLit(99)

    def test_fix_allocates_and_continues_with_the_body(self):
        from repro.lang_m import MFix

        p = fresh_pointer_var("loop")
        result = run(MFix(p, MLit(7)))
        assert result.unwrap() == MLit(7)
        assert result.costs.fix_unrollings == 1
        assert result.costs.heap_allocations == 1

    def test_fix_allocates_a_fresh_cell_unless_it_reties_its_own_knot(
            self):
        p, i = fresh_pointer_var("loop"), fresh_integer_var()
        body = MLam(i, MAppVar(MVarRef(p), i))
        machine = Machine(MFix(p, body))
        machine.step()
        (cell,) = machine.heap
        assert cell != p and cell.name.startswith(p.name + "_")
        renamed = body.substitute_var(p, cell)
        assert machine.heap[cell] == MFix(cell, renamed)
        assert machine.expr == renamed
        # Forced from its own cell, the fix term keeps that address.
        machine = Machine(MFix(p, body), stack=[ForceFrame(p)])
        machine.step()
        assert machine.heap == {p: MFix(p, body)}
        assert machine.expr == body

    def test_one_fix_run_twice_keeps_both_cells(self):
        """``g i = fix f. λx. case x of {0 → i; _ → f (x - 1)}``: forcing
        ``g 2`` after ``g 1`` must not overwrite the cell ``g 1``'s loop
        reads, so ``(g 1) 1`` still answers 1."""
        f, g, h1, h2 = (fresh_pointer_var() for _ in range(4))
        i, x, y, s, r = (fresh_integer_var() for _ in range(5))
        loop = MFix(f, MLam(x, MCaseLit(
            MVarRef(x), ((0, MVarRef(i)),),
            MLetStrict(y, MPrimOp("-#", (MVarRef(x), MLit(1))),
                       MAppVar(MVarRef(f), y)))))
        uses = MLetStrict(s, MAppLit(MVarRef(h1), 0),
                          MLetStrict(r, MAppLit(MVarRef(h2), 0),
                                     MAppLit(MVarRef(h1), 1)))
        term = MLet(g, MLam(i, loop),
                    MLet(h1, MAppLit(MVarRef(g), 1),
                         MLet(h2, MAppLit(MVarRef(g), 2), uses)))
        result = run(term)
        assert result.unwrap() == MLit(1)
        assert result.costs.fix_unrollings == 3

    def test_substitution_returns_a_closed_fix_itself(self):
        loop = _loop()
        assert loop.closed
        assert loop.substitute_var(fresh_pointer_var(),
                                   fresh_pointer_var()) is loop
        # The replacement is the binder, which an open fix would rename.
        assert loop.substitute_var(fresh_pointer_var(), loop.var) is loop
        assert loop.substitute_literal(fresh_integer_var(), 3) is loop

    def test_an_open_fix_still_substitutes_and_avoids_capture(self):
        q, j, r = fresh_pointer_var(), fresh_integer_var(), fresh_pointer_var()
        loop = _loop(result=MAppVar(MVarRef(q), j))
        assert not loop.closed and loop.free_vars() == {q, j}
        assert loop.substitute_var(q, r).free_vars() == {r, j}
        substituted = loop.substitute_literal(j, 5)
        assert substituted.free_vars() == {q}
        assert substituted.body.body.alternatives == \
            ((0, MAppLit(MVarRef(q), 5)),)
        captured = loop.substitute_var(q, loop.var)
        assert captured.var != loop.var
        assert captured.free_vars() == {loop.var, j}
        assert captured.body.body.default == \
            MAppVar(MVarRef(captured.var), captured.body.var)

    def test_fix_is_rejected_on_integer_binders(self):
        from repro.lang_m import MFix

        with pytest.raises(ValueError):
            MFix(fresh_integer_var(), MLit(1))

    def test_compiled_recursion_memoises_the_fix_thunk(self):
        """100 loop iterations re-enter the knot via EVAL/FCE sharing:
        the heap cell is blackholed and updated on the first unrolling,
        so `fix_unrollings` stays O(1), not O(n)."""
        from repro.driver import Session
        from repro.driver.lower import lower_checked

        source = (
            "sumTo# :: Int# -> Int# -> Int#\n"
            "sumTo# acc n = case n <=# 0# of "
            "{ 1# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n"
            "main :: Int#\n"
            "main = sumTo# 0# 100#\n")
        term = lower_checked(Session().check(source))
        compiled = compile_expr(term)
        assert compiled.fix_forms == 1
        assert compiled.primop_forms >= 3
        outcome = run(compiled.code)
        assert outcome.unwrap() == MLit(5050)
        assert outcome.costs.fix_unrollings <= 3
        assert outcome.costs.primops >= 300
        assert outcome.costs.branches >= 100

    def test_ci_fuzz_corpus_costs_are_pinned(self):
        from repro.driver import Session
        from repro.driver.lower import lower_checked
        from repro.fuzz import GenOptions, generate_corpus

        totals = dict.fromkeys(CI_CORPUS_COSTS, 0)
        with Session() as session:
            for program in generate_corpus(20260731, 120,
                                           GenOptions(fragment_bias=1.0)):
                term = lower_checked(session.check(program.source))
                costs = compile_and_run(term).costs.as_dict()
                for name, count in costs.items():
                    totals[name] += count
        assert totals == CI_CORPUS_COSTS

    def test_costs_dict_carries_the_new_counters(self):
        from repro.lang_m import MPrimOp

        costs = run(MPrimOp("+#", (MLit(1), MLit(2)))).costs.as_dict()
        assert {"primops", "fix_unrollings", "branches"} <= set(costs)
