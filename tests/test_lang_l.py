"""Tests for the L calculus: typing (Figure 3) and semantics (Figure 4)."""

import pytest

from repro.core.errors import (
    KindError,
    LevityError,
    LevityPolymorphicArgument,
    LevityPolymorphicBinder,
    ScopeError,
    TypeCheckError,
)
from repro.lang_l import (
    App,
    Case,
    Con,
    Context,
    ERROR,
    ERROR_TYPE,
    Fix,
    INT,
    INT_HASH,
    I,
    KIND_INT,
    KIND_PTR,
    Lam,
    Lit,
    LKind,
    P,
    RepApp,
    RepLam,
    RepVarL,
    TArrow,
    TForallRep,
    TForallType,
    TVar,
    TyApp,
    TyLam,
    Var,
    arrow,
    boxed_int,
    check_kind,
    evaluate,
    kind_of,
    lam,
    step,
    type_of,
)
from repro.lang_l.examples import ILL_TYPED, LEVITY_VIOLATIONS, WELL_TYPED
from repro.lang_l.semantics import Bottom, Step
from repro.lang_l.syntax import rep_to_core
from repro.core import rep as core_rep


class TestKinding:
    def test_int_is_pointer_kinded(self):
        assert kind_of(Context(), INT) == KIND_PTR

    def test_int_hash_is_integer_kinded(self):
        assert kind_of(Context(), INT_HASH) == KIND_INT

    def test_arrow_is_pointer_kinded_even_over_unboxed(self):
        """Int# -> Int# :: TYPE P (rule T_ARROW; cf. Section 3.2's complaint)."""
        assert kind_of(Context(), arrow(INT_HASH, INT_HASH)) == KIND_PTR

    def test_forall_type_has_kind_of_body(self):
        ty = TForallType("a", KIND_PTR, TVar("a"))
        assert kind_of(Context(), ty) == KIND_PTR
        ty_unboxed = TForallType("a", KIND_PTR, INT_HASH)
        assert kind_of(Context(), ty_unboxed) == KIND_INT

    def test_forall_rep_body_kind_must_not_mention_binder(self):
        """Premise κ ≠ TYPE r of T_ALLREP."""
        bad = TForallRep("r", TForallType("a", LKind(RepVarL("r")),
                                          TVar("a")))
        with pytest.raises(KindError):
            kind_of(Context(), bad)

    def test_forall_rep_ok_when_body_is_arrow(self):
        ty = TForallRep("r", TForallType("a", LKind(RepVarL("r")),
                                         arrow(INT, TVar("a"))))
        assert kind_of(Context(), ty) == KIND_PTR

    def test_unbound_type_variable(self):
        with pytest.raises(ScopeError):
            kind_of(Context(), TVar("a"))

    def test_kind_validity_rejects_unbound_rep_var(self):
        with pytest.raises(ScopeError):
            check_kind(Context(), LKind(RepVarL("r")))
        check_kind(Context().bind_rep("r"), LKind(RepVarL("r")))

    def test_rep_to_core(self):
        assert rep_to_core(P) == core_rep.LIFTED
        assert rep_to_core(I) == core_rep.INT_REP
        assert rep_to_core(RepVarL("r")) == core_rep.RepVar("r")


class TestTyping:
    @pytest.mark.parametrize("example", WELL_TYPED, ids=lambda e: e.name)
    def test_well_typed_examples(self, example):
        inferred = type_of(Context(), example.expr)
        if example.expected_type is not None:
            assert inferred == example.expected_type

    @pytest.mark.parametrize("example", LEVITY_VIOLATIONS,
                             ids=lambda e: e.name)
    def test_levity_violations_raise_levity_errors(self, example):
        with pytest.raises(LevityError):
            type_of(Context(), example.expr)

    @pytest.mark.parametrize("example", ILL_TYPED, ids=lambda e: e.name)
    def test_ill_typed_examples_raise(self, example):
        with pytest.raises(TypeCheckError):
            type_of(Context(), example.expr)

    def test_error_has_its_figure3_type(self):
        assert type_of(Context(), ERROR) == ERROR_TYPE

    def test_levity_poly_binder_raises_binder_error(self):
        expr = RepLam("r", TyLam("a", LKind(RepVarL("r")),
                                 lam("x", TVar("a"), Var("x"))))
        with pytest.raises(LevityPolymorphicBinder):
            type_of(Context(), expr)

    def test_instantiation_principle_via_kinds(self):
        """Instantiating a ∀(a :: TYPE P) at Int# is a kind error (§3.1)."""
        poly_id = TyLam("a", KIND_PTR, lam("x", TVar("a"), Var("x")))
        with pytest.raises(KindError):
            type_of(Context(), TyApp(poly_id, INT_HASH))

    def test_instantiation_at_unboxed_kind_is_fine_when_quantified_so(self):
        poly_id = TyLam("a", KIND_INT, lam("x", TVar("a"), Var("x")))
        ty = type_of(Context(), TyApp(poly_id, INT_HASH))
        assert ty == arrow(INT_HASH, INT_HASH)

    def test_context_shadowing(self):
        ctx = Context().bind_term("x", INT).bind_term("x", INT_HASH)
        assert type_of(ctx, Var("x")) == INT_HASH

    def test_case_binder_has_int_hash_type(self):
        expr = lam("b", INT, Case(Var("b"), "x", Con(Var("x"))))
        assert type_of(Context(), expr) == arrow(INT, INT)

    def test_rep_application_requires_forall_rep(self):
        with pytest.raises(TypeCheckError):
            type_of(Context(), RepApp(Lit(3), P))

    def test_rep_application_scope_check(self):
        with pytest.raises(ScopeError):
            type_of(Context(), RepApp(ERROR, RepVarL("unbound")))


class TestSemantics:
    @pytest.mark.parametrize("example",
                             [e for e in WELL_TYPED
                              if e.expected_value is not None],
                             ids=lambda e: e.name)
    def test_evaluation_reaches_expected_value(self, example):
        outcome = evaluate(example.expr)
        assert not outcome.diverged
        assert outcome.value == example.expected_value

    @pytest.mark.parametrize("example",
                             [e for e in WELL_TYPED if e.diverges],
                             ids=lambda e: e.name)
    def test_error_programs_reach_bottom(self, example):
        outcome = evaluate(example.expr)
        assert outcome.diverged

    def test_values_do_not_step(self):
        assert step(Context(), Lit(3)) is None
        assert step(Context(), boxed_int(3)) is None
        assert step(Context(), lam("x", INT, Var("x"))) is None

    def test_error_steps_to_bottom(self):
        assert isinstance(step(Context(), ERROR), Bottom)

    def test_lazy_application_does_not_evaluate_argument(self):
        """S_BETAPTR substitutes the unevaluated argument."""
        diverging = App(TyApp(RepApp(ERROR, P), INT), boxed_int(0))
        expr = App(lam("x", INT, boxed_int(5)), diverging)
        result = step(Context(), expr)
        assert isinstance(result, Step)
        assert result.expr == boxed_int(5)

    def test_strict_application_evaluates_argument_first(self):
        """S_APPSTRICT evaluates an Int#-kinded argument before β-reduction."""
        argument = App(lam("y", INT_HASH, Var("y")), Lit(3))
        expr = App(lam("x", INT_HASH, Lit(0)), argument)
        result = step(Context(), expr)
        assert isinstance(result, Step)
        # The outer λ is untouched; the argument took a step.
        assert isinstance(result.expr, App)
        assert result.expr.argument == Lit(3)

    def test_evaluation_under_type_lambda(self):
        """S_TLAM: type abstractions evaluate their bodies (type erasure)."""
        expr = TyLam("a", KIND_PTR, App(lam("x", INT, Var("x")),
                                        boxed_int(1)))
        outcome = evaluate(expr)
        assert outcome.value == TyLam("a", KIND_PTR, boxed_int(1))

    def test_evaluation_is_deterministic(self):
        from repro.lang_l.examples import TWICE_INT, ID_INT
        from repro.lang_l.syntax import app
        expr = app(TWICE_INT, ID_INT, boxed_int(9))
        assert evaluate(expr).value == evaluate(expr).value == boxed_int(9)

    def test_capture_avoiding_substitution(self):
        # (λx:Int→Int. λy:Int. x y) (λz:Int. y')  -- the free 'y'' must not
        # be captured; we rename the bound y.  Use a context binding y'.
        ctx = Context().bind_term("free_y", INT)
        inner = lam("y", INT, App(Var("x"), Var("y")))
        expr = App(lam("x", arrow(INT, INT), inner),
                   lam("z", INT, Var("free_y")))
        result_type = type_of(ctx, expr)
        assert result_type == arrow(INT, INT)
        stepped = step(ctx, expr)
        assert isinstance(stepped, Step)
        assert type_of(ctx, stepped.expr) == arrow(INT, INT)

    def test_substitution_returns_a_closed_fix_itself(self):
        loop = Fix("f", arrow(INT, INT), lam("x", INT, App(Var("f"),
                                                           Var("x"))))
        assert loop.closed
        assert loop.substitute("y", boxed_int(1)) is loop
        # A replacement whose free variable is the binder renames nothing.
        assert loop.substitute("y", Var("f")) is loop

    def test_an_open_fix_still_substitutes_and_avoids_capture(self):
        loop = Fix("f", arrow(INT, INT), lam("x", INT, App(Var("g"),
                                                           Var("f"))))
        assert not loop.closed and loop.free_vars() == {"g"}
        substituted = loop.substitute("g", lam("z", arrow(INT, INT),
                                               Var("z")))
        assert substituted.closed
        assert substituted.body.body.function == lam("z", arrow(INT, INT),
                                                     Var("z"))
        captured = loop.substitute("g", Var("f"))
        assert captured.var != "f"
        assert captured.free_vars() == {"f"}
        assert captured.body.body == App(Var("f"), Var(captured.var))

    def test_max_steps_guard(self):
        from repro.core.errors import EvaluationError
        # No recursion in L, so everything terminates; a tiny budget still
        # triggers the guard on a multi-step program.
        from repro.lang_l.examples import TWICE_INT, ID_INT
        from repro.lang_l.syntax import app
        with pytest.raises(EvaluationError):
            evaluate(app(TWICE_INT, ID_INT, boxed_int(1)), max_steps=1)
