"""Tests for surface types, unification, inference and the levity checks (§5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import (
    LevityError,
    LevityPolymorphicBinder,
    OccursCheckError,
    ScopeError,
    TypeCheckError,
    UnificationError,
)
from repro.core.kinds import (
    REP_KIND,
    TYPE_INT,
    TYPE_LIFTED,
    ArrowKind,
    TypeKind,
)
from repro.core.rep import DOUBLE_REP, INT_REP, LIFTED, RepVar, TupleRep
from repro.infer import (
    InferOptions,
    Inferencer,
    Scheme,
    TypeEnv,
    UnifierState,
    infer_binding,
    infer_expr,
)
from repro.surface.ast import (
    Alternative,
    EAnn,
    EApp,
    EBool,
    ECase,
    EIf,
    ELam,
    ELet,
    ELitDoubleHash,
    ELitInt,
    ELitIntHash,
    ELitString,
    EUnboxedTuple,
    EVar,
    apply,
)
from repro.surface.prelude import (
    COMPOSE_SCHEME,
    DOLLAR_SCHEME,
    ERROR_SCHEME,
    prelude_env,
)
from repro.surface.types import (
    BOOL_TY,
    Binder,
    DOUBLE_HASH_TY,
    ForAllTy,
    FunTy,
    INT_HASH_TY,
    INT_TY,
    MAYBE_TY,
    STRING_TY,
    TyApp,
    TyVar,
    UnboxedTupleTy,
    fun,
    kind_of_type,
    rep_of_type,
    rep_var_kind,
)

ENV = prelude_env()


class TestSurfaceTypeKinding:
    def test_int_hash_kind(self):
        assert kind_of_type(INT_HASH_TY).pretty() == "TYPE IntRep"

    def test_arrow_over_unboxed_is_lifted(self):
        assert kind_of_type(fun(INT_HASH_TY, DOUBLE_HASH_TY)) == TYPE_LIFTED

    def test_maybe_int_kind(self):
        assert kind_of_type(TyApp(MAYBE_TY, INT_TY)) == TYPE_LIFTED

    def test_maybe_int_hash_is_ill_kinded(self):
        from repro.core.errors import KindError
        with pytest.raises(KindError):
            kind_of_type(TyApp(MAYBE_TY, INT_HASH_TY))

    def test_unboxed_tuple_kind_carries_component_reps(self):
        kind = kind_of_type(UnboxedTupleTy((INT_TY, INT_HASH_TY)))
        assert isinstance(kind, TypeKind)
        assert kind.rep == TupleRep([LIFTED, INT_REP])

    def test_empty_unboxed_tuple(self):
        assert rep_of_type(UnboxedTupleTy(())) == TupleRep(())

    def test_rep_of_type(self):
        assert rep_of_type(DOUBLE_HASH_TY) == DOUBLE_REP
        assert rep_of_type(INT_TY) == LIFTED


class TestUnification:
    def test_unify_solves_rep_via_kind(self):
        """Unifying α :: TYPE ρ with Int# solves ρ := IntRep (§5.2)."""
        state = UnifierState()
        alpha = state.fresh_type_uvar()
        state.unify_types(alpha, INT_HASH_TY)
        assert state.zonk_type(alpha) == INT_HASH_TY
        kind = state.zonk_kind(alpha.kind)
        assert kind == TypeKind(INT_REP)

    def test_unify_rejects_rep_mismatch(self):
        state = UnifierState()
        with pytest.raises(UnificationError):
            state.unify_reps(INT_REP, DOUBLE_REP)

    def test_unify_tuple_reps_componentwise(self):
        state = UnifierState()
        rho = state.fresh_rep_uvar()
        state.unify_reps(TupleRep([rho, LIFTED]), TupleRep([INT_REP, LIFTED]))
        assert state.zonk_rep(rho) == INT_REP

    def test_arrow_kinds_unify_pointwise(self):
        """TYPE ρ -> Type ~ TYPE IntRep -> Type solves ρ := IntRep."""
        state = UnifierState()
        rho = state.fresh_rep_uvar()
        state.unify_kinds(ArrowKind(TypeKind(rho), TYPE_LIFTED),
                          ArrowKind(TYPE_INT, TYPE_LIFTED))
        assert state.zonk_rep(rho) == INT_REP

    def test_a_value_kind_does_not_unify_with_an_arrow_kind(self):
        state = UnifierState()
        with pytest.raises(UnificationError, match="cannot unify kinds"):
            state.unify_kinds(TYPE_LIFTED, ArrowKind(TYPE_LIFTED, TYPE_LIFTED))

    def test_occurs_check(self):
        state = UnifierState()
        alpha = state.fresh_type_uvar(TYPE_LIFTED)
        with pytest.raises(OccursCheckError):
            state.unify_types(alpha, fun(alpha, INT_TY))

    def test_unify_int_with_bool_fails(self):
        state = UnifierState()
        with pytest.raises(UnificationError):
            state.unify_types(INT_TY, BOOL_TY)

    def test_zonk_is_idempotent(self):
        state = UnifierState()
        alpha = state.fresh_type_uvar()
        state.unify_types(alpha, fun(INT_TY, INT_HASH_TY))
        once = state.zonk_type(alpha)
        assert state.zonk_type(once) == once

    def test_zonk_substitutes_solved_rep_in_forall_binder_kind(self):
        """Zonking must reach *binder kinds* of a forall, not just the body.

        Regression test: with ``ρ`` a solved rep uvar, zonking
        ``forall (a :: TYPE ρ). a -> a`` must produce binder kind
        ``TYPE IntRep`` (the seed solver only zonked the body).
        """
        state = UnifierState()
        rho = state.fresh_rep_uvar()
        state.unify_reps(rho, INT_REP)
        body_var = TyVar("a", TypeKind(rho))
        sigma = ForAllTy((Binder("a", TypeKind(rho)),),
                         fun(body_var, body_var))
        zonked = state.zonk_type(sigma)
        assert zonked.binders[0].kind == TypeKind(INT_REP)
        assert zonked.body == fun(TyVar("a", TypeKind(INT_REP)),
                                  TyVar("a", TypeKind(INT_REP)))

    def test_defaulting_a_unioned_rep_class_defaults_it_once(self):
        """ρ0 ~ ρ1 form one class: one defaulted name, both zonk lifted."""
        from repro.infer.defaulting import default_rep_uvars
        state = UnifierState()
        rho0, rho1 = state.fresh_rep_uvar(), state.fresh_rep_uvar()
        state.unify_reps(rho1, rho0)
        pair = UnboxedTupleTy([state.fresh_type_uvar(TypeKind(rho0)),
                               state.fresh_type_uvar(TypeKind(rho1))])
        assert len(default_rep_uvars(state, pair)) == 1
        assert state.zonk_rep(rho0) == LIFTED
        assert state.zonk_rep(rho1) == LIFTED

    def test_default_rep_solves_the_class_root(self):
        """Defaulting either member of a rep class solves the whole class."""
        for member in (0, 1):
            state = UnifierState()
            rhos = (state.fresh_rep_uvar(), state.fresh_rep_uvar())
            state.unify_reps(*rhos)
            state.default_rep(rhos[member].name, INT_REP)
            assert [state.zonk_rep(rho) for rho in rhos] == [INT_REP] * 2

    def test_binding_an_ill_kinded_term_reports_it_zonked(self):
        """α := Maybe β after β := Int# prints the solved argument."""
        from repro.core.errors import KindError
        state = UnifierState()
        beta = state.fresh_type_uvar()
        state.unify_types(beta, INT_HASH_TY)
        alpha = state.fresh_type_uvar()
        with pytest.raises(KindError) as info:
            state.unify_types(alpha, TyApp(MAYBE_TY, beta))
        assert str(info.value) == ("kind mismatch in Maybe Int#: expected "
                                   "Type, got TYPE IntRep")

    def test_variable_variable_chains_collapse(self):
        """A chain α0 ~ α1 ~ … ~ αn zonks every link to the one solution."""
        state = UnifierState()
        uvars = [state.fresh_type_uvar() for _ in range(50)]
        for left, right in zip(uvars, uvars[1:]):
            state.unify_types(left, right)
        state.unify_types(uvars[25], INT_TY)
        for var in uvars:
            assert state.zonk_type(var) == INT_TY


class TestInference:
    def test_literals(self):
        assert infer_expr(ELitInt(3), env=ENV) == INT_TY
        assert infer_expr(ELitIntHash(3), env=ENV) == INT_HASH_TY
        assert infer_expr(ELitDoubleHash(2.5), env=ENV) == DOUBLE_HASH_TY
        assert infer_expr(ELitString("hi"), env=ENV) == STRING_TY
        assert infer_expr(EBool(True), env=ENV) == BOOL_TY

    def test_primop_application(self):
        expr = apply(EVar("+#"), ELitIntHash(3), ELitIntHash(4))
        assert infer_expr(expr, env=ENV) == INT_HASH_TY

    def test_boxing_constructor(self):
        assert infer_expr(EApp(EVar("I#"), ELitIntHash(1)), env=ENV) == INT_TY

    def test_unsigned_binding_defaults_to_lifted(self):
        """f x = x infers forall (a :: Type). a -> a, never the rep-poly type."""
        result = infer_binding("f", ["x"], EVar("x"), env=ENV)
        scheme = result.scheme
        assert not scheme.is_levity_polymorphic()
        assert len(scheme.type_binders) == 1
        (_, kind), = scheme.type_binders
        assert kind == TYPE_LIFTED
        assert result.defaulted_rep_vars  # a rep variable was defaulted

    def test_const_function_defaults_both_variables(self):
        result = infer_binding("const2", ["x", "y"], EVar("x"), env=ENV)
        assert len(result.scheme.type_binders) == 2
        assert all(kind == TYPE_LIFTED
                   for _, kind in result.scheme.type_binders)

    def test_declared_levity_polymorphic_error_wrapper_is_accepted(self):
        sig = ForAllTy(
            (Binder("r", REP_KIND), Binder("a", rep_var_kind("r"))),
            fun(STRING_TY, TyVar("a", rep_var_kind("r"))))
        rhs = EApp(EVar("error"),
                   apply(EVar("appendString"), ELitString("Program error "),
                         EVar("s")))
        result = infer_binding("myError", ["s"], rhs, signature=sig, env=ENV)
        assert result.scheme.is_levity_polymorphic()
        assert result.ok

    def test_declared_levity_polymorphic_identity_is_rejected(self):
        sig = ForAllTy(
            (Binder("r", REP_KIND), Binder("a", rep_var_kind("r"))),
            fun(TyVar("a", rep_var_kind("r")), TyVar("a", rep_var_kind("r"))))
        with pytest.raises(LevityError):
            infer_binding("f", ["x"], EVar("x"), signature=sig, env=ENV)

    def test_ablation_generalise_reps_produces_uncompilable_scheme(self):
        options = InferOptions(generalise_reps=True, run_levity_check=False)
        result = infer_binding("g", [], ELam("x", EVar("x")), env=ENV,
                               options=options)
        assert result.scheme.is_levity_polymorphic()

    def test_ablation_scheme_is_rejected_when_checked(self):
        options = InferOptions(generalise_reps=True, run_levity_check=True)
        with pytest.raises(LevityError):
            infer_binding("g", ["x"], EVar("x"), env=ENV, options=options)

    def test_dollar_with_unboxed_result(self):
        unbox = ECase(EVar("b"), [Alternative("I#", ["x"], EVar("x"))])
        result = infer_binding("unboxInt", ["b"], unbox,
                               signature=fun(INT_TY, INT_HASH_TY), env=ENV)
        env2 = ENV.bind("unboxInt", result.scheme)
        expr = apply(EVar("$"), EVar("unboxInt"), ELitInt(42))
        assert infer_expr(expr, env=env2) == INT_HASH_TY

    def test_dollar_with_unboxed_argument_is_rejected(self):
        """($)'s argument must be lifted: negateInt# $ 3# is ill-typed."""
        expr = apply(EVar("$"), EVar("negateInt#"), ELitIntHash(3))
        with pytest.raises(TypeCheckError):
            infer_expr(expr, env=ENV)

    def test_compose_with_unboxed_result(self):
        unbox = ECase(EVar("b"), [Alternative("I#", ["x"], EVar("x"))])
        result = infer_binding("unboxInt", ["b"], unbox,
                               signature=fun(INT_TY, INT_HASH_TY), env=ENV)
        env2 = ENV.bind("unboxInt", result.scheme)
        expr = apply(EVar("."), EVar("unboxInt"),
                     EApp(EVar("plusInt"), ELitInt(1)))
        assert infer_expr(expr, env=env2) == fun(INT_TY, INT_HASH_TY)

    def test_error_usable_at_unboxed_type_via_annotation(self):
        expr = EAnn(EApp(EVar("error"), ELitString("boom")), INT_HASH_TY)
        assert infer_expr(expr, env=ENV) == INT_HASH_TY

    def test_undefined_at_unboxed_tuple_type(self):
        target = UnboxedTupleTy((INT_HASH_TY, INT_TY))
        assert infer_expr(EAnn(EVar("undefined"), target), env=ENV) == target

    def test_signature_checked_recursion(self):
        sig = fun(INT_HASH_TY, INT_HASH_TY, INT_HASH_TY)
        rhs = ECase(apply(EVar("==#"), EVar("n"), ELitIntHash(0)),
                    [Alternative("1#", [], EVar("acc")),
                     Alternative("_", [],
                                 apply(EVar("sumTo#"),
                                       apply(EVar("+#"), EVar("acc"),
                                             EVar("n")),
                                       apply(EVar("-#"), EVar("n"),
                                             ELitIntHash(1))))])
        result = infer_binding("sumTo#", ["acc", "n"], rhs, signature=sig,
                               env=ENV)
        assert result.scheme.body == sig

    def test_bTwice_lifted_signature_accepted(self):
        sig = ForAllTy((Binder("a", TYPE_LIFTED),),
                       fun(BOOL_TY, TyVar("a"), fun(TyVar("a"), TyVar("a")),
                           TyVar("a")))
        rhs = EIf(EVar("b"), EApp(EVar("f"), EApp(EVar("f"), EVar("x"))),
                  EVar("x"))
        result = infer_binding("bTwice", ["b", "x", "f"], rhs, signature=sig,
                               env=ENV)
        assert result.ok

    def test_bTwice_levity_polymorphic_signature_rejected(self):
        a = TyVar("a", rep_var_kind("r"))
        sig = ForAllTy((Binder("r", REP_KIND), Binder("a", rep_var_kind("r"))),
                       fun(BOOL_TY, a, fun(a, a), a))
        rhs = EIf(EVar("b"), EApp(EVar("f"), EApp(EVar("f"), EVar("x"))),
                  EVar("x"))
        with pytest.raises(LevityError):
            infer_binding("bTwice", ["b", "x", "f"], rhs, signature=sig,
                          env=ENV)

    def test_let_with_signature(self):
        expr = ELet("one", ELitIntHash(1),
                    apply(EVar("+#"), EVar("one"), ELitIntHash(2)),
                    signature=INT_HASH_TY)
        assert infer_expr(expr, env=ENV) == INT_HASH_TY

    def test_if_requires_bool(self):
        with pytest.raises(TypeCheckError):
            infer_expr(EIf(ELitInt(1), ELitInt(2), ELitInt(3)), env=ENV)

    def test_if_branches_must_agree(self):
        with pytest.raises(UnificationError):
            infer_expr(EIf(EBool(True), ELitInt(1), ELitIntHash(1)), env=ENV)

    def test_unknown_variable(self):
        with pytest.raises(ScopeError):
            infer_expr(EVar("nonexistent"), env=ENV)

    def test_unboxed_tuple_inference(self):
        expr = EUnboxedTuple((ELitInt(1), ELitIntHash(2),
                              ELitDoubleHash(3.0)))
        inferred = infer_expr(expr, env=ENV)
        assert inferred == UnboxedTupleTy((INT_TY, INT_HASH_TY,
                                           DOUBLE_HASH_TY))

    def test_case_on_maybe(self):
        expr = ECase(EApp(EVar("Just"), ELitInt(5)),
                     [Alternative("Just", ["x"], EVar("x")),
                      Alternative("Nothing", [], ELitInt(0))])
        assert infer_expr(expr, env=ENV) == INT_TY

    def test_signature_with_too_many_parameters_rejected(self):
        with pytest.raises(TypeCheckError):
            infer_binding("f", ["x", "y"], EVar("x"),
                          signature=fun(INT_TY, INT_TY), env=ENV)

    def test_levity_report_collect_mode(self):
        sig = ForAllTy(
            (Binder("r", REP_KIND), Binder("a", rep_var_kind("r"))),
            fun(TyVar("a", rep_var_kind("r")), TyVar("a", rep_var_kind("r"))))
        options = InferOptions(collect_levity_violations=True)
        result = infer_binding("f", ["x"], EVar("x"), signature=sig, env=ENV,
                               options=options)
        assert not result.ok
        assert result.levity_report.violations


class TestOneLevityPassPerBinding:
    """The Section 5.1 check runs once, after the whole top-level binding
    is inferred and defaulted: a local ``let`` is not checked on its own,
    before the enclosing binding has solved its variables."""

    def test_a_let_is_checked_once_its_binding_is_solved(self):
        # Checked on its own, ``z`` still has the kind TYPE ρ of ``x``;
        # ``y +# 1#`` solves ρ := IntRep afterwards.
        from repro.frontend import parse_expr

        rhs = parse_expr(r"let y = (\z -> z) x in y +# 1#")
        result = infer_binding("f", ["x"], rhs)
        assert result.ok
        assert result.scheme.pretty() == "Int# -> Int#"

    def test_a_violation_inside_a_let_is_raised_under_the_binding(self):
        from repro.frontend import parse_expr

        rhs = parse_expr("let g :: forall (r :: Rep) (a :: TYPE r). a -> a; "
                         r"g = \y -> y in g x")
        with pytest.raises(LevityPolymorphicBinder) as info:
            infer_binding("f", ["x"], rhs)
        assert str(info.value).startswith(
            "in the binding for 'f': A levity-polymorphic binder is not "
            "allowed: lambda binder 'y' has a levity-polymorphic type")

    def test_a_let_publishes_no_solver_counters_of_its_own(self, monkeypatch):
        from repro.frontend import parse_expr

        published = []
        monkeypatch.setattr(Inferencer, "_publish_solver_stats",
                            lambda self: published.append(self))
        rhs = parse_expr(r"let y = (\z -> z) x in let w = y in w +# 1#")
        infer_binding("f", ["x"], rhs)
        assert len(published) == 1


class TestPreludeSchemes:
    def test_error_scheme_is_levity_polymorphic(self):
        assert ERROR_SCHEME.is_levity_polymorphic()

    def test_dollar_scheme_argument_is_lifted(self):
        # forall r a (b :: TYPE r). (a -> b) -> a -> b : the 'a' binder is Type
        kinds = dict(DOLLAR_SCHEME.type_binders)
        assert kinds["a"] == TYPE_LIFTED
        assert kinds["b"] != TYPE_LIFTED

    def test_compose_scheme_only_result_generalised(self):
        kinds = dict(COMPOSE_SCHEME.type_binders)
        assert kinds["a"] == TYPE_LIFTED and kinds["b"] == TYPE_LIFTED
        assert kinds["c"] != TYPE_LIFTED

    def test_scheme_roundtrip_through_surface_type(self):
        roundtripped = Scheme.from_type(DOLLAR_SCHEME.to_type())
        assert roundtripped.rep_binders == DOLLAR_SCHEME.rep_binders
        assert roundtripped.body == DOLLAR_SCHEME.body


class TestDefaultingProperties:
    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_unsigned_single_param_functions_never_infer_levity_polymorphism(
            self, n):
        """Property: inference never produces a levity-polymorphic scheme."""
        body = EVar("x") if n % 2 == 0 else ELitInt(n)
        result = infer_binding(f"f{n}", ["x"], body, env=ENV)
        assert not result.scheme.is_levity_polymorphic()

    @given(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3,
                    unique=True))
    @settings(max_examples=20, deadline=None)
    def test_all_defaulted_binders_have_kind_type(self, params):
        result = infer_binding("f", params, EVar(params[0]), env=ENV)
        for _, kind in result.scheme.type_binders:
            assert kind == TYPE_LIFTED
