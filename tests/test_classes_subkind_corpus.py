"""Tests for type classes (§7.3), the OpenKind baseline (§3.2-3.3) and the §8.1 survey."""

import pytest

from repro.classes import (
    ABS1_BINDING,
    ABS2_BINDING,
    ABS_SIGNATURE,
    ClassEnv,
    dictionary_binding,
    dictionary_data_decl,
    eta_expansion_binds_levity_polymorphic_value,
    make_eq_class,
    make_num_class,
    method_reference_arity,
    num_int_hash_instance,
    num_int_instance,
    selector_arity,
    standard_class_env,
)
from repro.core.errors import InstanceResolutionError, LevityError, TypeCheckError
from repro.core.kinds import TYPE_LIFTED
from repro.corpus import (
    CLASSES,
    LEVITY_GENERALISED_FUNCTIONS,
    analyse_class,
    corpus_by_name,
    survey_classes,
    survey_functions,
)
from repro.infer import Inferencer, infer_binding, infer_expr
from repro.subkind import (
    HASH,
    LEGACY_DOLLAR,
    LEGACY_ERROR,
    LEGACY_UNDEFINED,
    OPEN_KIND,
    STAR,
    LegacyKind,
    describe_error_message,
    hash_kind_loses_calling_convention,
    is_subkind_of,
    legacy_infer_wrapper_kind,
    legacy_instantiation_ok,
    legacy_kind_of,
    legacy_restrictions,
    unify_legacy_kinds,
)
from repro.surface.ast import ELitIntHash, EVar, apply
from repro.surface.types import (
    BYTEARRAY_HASH_TY,
    CHAR_HASH_TY,
    DOUBLE_HASH_TY,
    INT_HASH_TY,
    INT_TY,
    UnboxedTupleTy,
    fun,
)


class TestLevityPolymorphicClasses:
    def test_generalised_num_class_is_levity_polymorphic(self, class_setup):
        class_env, _ = class_setup
        assert class_env.class_info("Num").is_levity_polymorphic()

    def test_classic_num_class_is_not(self):
        class_env = ClassEnv()
        info = class_env.register_class(make_num_class(False))
        assert not info.is_levity_polymorphic()

    def test_selector_scheme_shape(self, class_setup):
        class_env, _ = class_setup
        info = class_env.class_info("Num")
        scheme = info.selector_scheme(info.method("+"))
        assert scheme.is_levity_polymorphic()
        assert scheme.constraints[0].class_name == "Num"

    def test_plus_at_int_hash(self, class_setup):
        class_env, env = class_setup
        expr = apply(EVar("+"), ELitIntHash(3), ELitIntHash(4))
        assert infer_expr(expr, env=env, class_env=class_env) == INT_HASH_TY

    def test_plus_at_boxed_int(self, class_setup):
        class_env, env = class_setup
        from repro.surface.ast import ELitInt
        expr = apply(EVar("+"), ELitInt(3), ELitInt(4))
        assert infer_expr(expr, env=env, class_env=class_env) == INT_TY

    def test_missing_instance_is_reported(self, class_setup):
        class_env, env = class_setup
        from repro.surface.ast import ELitDoubleHash, EBool
        expr = apply(EVar("+"), EBool(True), EBool(False))
        with pytest.raises((InstanceResolutionError, TypeCheckError)):
            infer_expr(expr, env=env, class_env=class_env)

    def test_abs1_accepted(self, class_setup):
        class_env, env = class_setup
        result = infer_binding(ABS1_BINDING.name, ABS1_BINDING.params,
                               ABS1_BINDING.rhs, signature=ABS_SIGNATURE,
                               env=env, class_env=class_env)
        assert result.ok and result.scheme.is_levity_polymorphic()

    def test_abs2_rejected(self, class_setup):
        """abs2 x = abs x binds a levity-polymorphic x (η-expansion of abs1)."""
        class_env, env = class_setup
        with pytest.raises(LevityError):
            infer_binding(ABS2_BINDING.name, ABS2_BINDING.params,
                          ABS2_BINDING.rhs, signature=ABS_SIGNATURE,
                          env=env, class_env=class_env)

    def test_arity_analysis_explains_abs1_vs_abs2(self, class_setup):
        class_env, _ = class_setup
        info = class_env.class_info("Num")
        assert selector_arity(info, "abs") == 1
        assert method_reference_arity(info, "abs", 1) == 2
        assert not eta_expansion_binds_levity_polymorphic_value(info, "abs", 0)
        assert eta_expansion_binds_levity_polymorphic_value(info, "abs", 1)

    def test_classic_class_rejects_unlifted_instance(self):
        class_env = ClassEnv()
        class_env.register_class(make_num_class(False))
        with pytest.raises(TypeCheckError):
            class_env.register_instance(num_int_hash_instance())

    def test_generalised_class_accepts_unlifted_instance(self):
        class_env = ClassEnv()
        class_env.register_class(make_num_class(True))
        instance = class_env.register_instance(num_int_hash_instance())
        assert instance.head_constructor() == "Int#"

    def test_duplicate_instance_rejected(self, class_setup):
        class_env, _ = class_setup
        with pytest.raises(TypeCheckError):
            class_env.register_instance(num_int_instance())

    def test_instance_with_missing_method_rejected(self):
        from repro.surface.ast import InstanceDecl
        class_env = ClassEnv()
        class_env.register_class(make_num_class(True))
        partial = InstanceDecl("Num", INT_HASH_TY, (("+", EVar("+#")),))
        with pytest.raises(TypeCheckError):
            class_env.register_instance(partial)

    def test_dictionary_data_decl_is_a_lifted_record(self, class_setup):
        class_env, _ = class_setup
        info = class_env.class_info("Num")
        decl = dictionary_data_decl(info)
        assert decl.name == "Num"
        assert decl.constructors[0].name == "MkNum"
        assert len(decl.constructors[0].fields) == len(info.methods)

    def test_dictionary_binding_is_monomorphic(self, class_setup):
        class_env, _ = class_setup
        info = class_env.class_info("Num")
        instance = class_env.lookup_instance("Num", INT_HASH_TY)
        name, expr = dictionary_binding(info, instance)
        assert name == "$dNumInt#"
        assert "MkNum" in expr.pretty()

    def test_dictionary_field_types_at_int_hash(self, class_setup):
        class_env, _ = class_setup
        info = class_env.class_info("Num")
        fields = info.dictionary_field_types(INT_HASH_TY)
        assert fields["+"] == fun(INT_HASH_TY, INT_HASH_TY, INT_HASH_TY)


class TestSubkindBaseline:
    def test_lattice(self):
        assert is_subkind_of(STAR, OPEN_KIND)
        assert is_subkind_of(HASH, OPEN_KIND)
        assert not is_subkind_of(OPEN_KIND, STAR)
        assert not is_subkind_of(STAR, HASH)

    def test_legacy_kind_projection_loses_information(self):
        assert legacy_kind_of(INT_HASH_TY) == HASH
        assert legacy_kind_of(DOUBLE_HASH_TY) == HASH
        assert legacy_kind_of(BYTEARRAY_HASH_TY) == HASH
        assert legacy_kind_of(UnboxedTupleTy((INT_TY, INT_TY))) == HASH
        assert legacy_kind_of(INT_TY) == STAR

    def test_hash_kind_loses_calling_convention(self):
        report = hash_kind_loses_calling_convention(
            (INT_HASH_TY, CHAR_HASH_TY, DOUBLE_HASH_TY,
             UnboxedTupleTy((INT_TY, INT_TY))))
        assert report["legacy_kinds_all_equal"]
        assert report["calling_conventions_distinct"]

    def test_magical_error_accepts_unlifted(self):
        assert legacy_instantiation_ok(LEGACY_ERROR, INT_HASH_TY)
        assert legacy_instantiation_ok(LEGACY_UNDEFINED, INT_HASH_TY)
        assert legacy_instantiation_ok(LEGACY_DOLLAR, INT_HASH_TY)

    def test_user_wrapper_loses_the_magic(self):
        """myError under the legacy system cannot be used at Int# (§3.3)."""
        wrapper = legacy_infer_wrapper_kind(LEGACY_ERROR)
        assert not wrapper.magical
        assert legacy_instantiation_ok(wrapper, INT_TY)
        assert not legacy_instantiation_ok(wrapper, INT_HASH_TY)

    def test_levity_polymorphism_fixes_the_wrapper(self):
        """The same wrapper is fully general under levity polymorphism (§5.2)."""
        from repro.core.kinds import REP_KIND
        from repro.surface.ast import EApp, ELitString
        from repro.surface.prelude import prelude_env
        from repro.surface.types import Binder, ForAllTy, STRING_TY, TyVar, \
            rep_var_kind
        sig = ForAllTy((Binder("r", REP_KIND), Binder("a", rep_var_kind("r"))),
                       fun(STRING_TY, TyVar("a", rep_var_kind("r"))))
        rhs = EApp(EVar("error"), ELitString("Program error"))
        result = infer_binding("myError", ["s"], rhs, signature=sig,
                               env=prelude_env())
        assert result.scheme.is_levity_polymorphic()

    def test_openkind_leaks_into_error_messages(self):
        message = describe_error_message(
            legacy_infer_wrapper_kind(LEGACY_ERROR), INT_HASH_TY)
        assert "Type" in message and "#" in message

    def test_subsumption_is_not_symmetric(self):
        from repro.core.errors import KindError
        assert unify_legacy_kinds(OPEN_KIND, HASH) == HASH
        with pytest.raises(KindError):
            unify_legacy_kinds(HASH, OPEN_KIND)

    def test_legacy_restrictions_enumerated(self):
        restrictions = legacy_restrictions()
        assert set(restrictions) == {"type_families", "indices", "saturation"}


class TestCorpusSurvey:
    def test_corpus_has_76_classes(self):
        assert len(CLASSES) == 76

    def test_survey_finds_a_substantial_generalisable_fraction(self):
        survey = survey_classes()
        assert survey.total == 76
        # The paper reports 34/76; our conservative analysis finds at least
        # a quarter and at most half of the corpus generalisable.
        assert 19 <= survey.generalisable_count <= 38

    @pytest.mark.parametrize("name", ["Eq", "Ord", "Num", "Bounded", "Bits"])
    def test_known_generalisable_classes(self, name):
        verdict = analyse_class(corpus_by_name()[name])
        assert verdict.generalisable

    @pytest.mark.parametrize("name", ["Functor", "Monad", "Foldable",
                                      "Traversable", "Read", "Ix", "Data"])
    def test_known_non_generalisable_classes(self, name):
        verdict = analyse_class(corpus_by_name()[name])
        assert not verdict.generalisable

    def test_higher_kinded_classes_blocked_by_kind(self):
        verdict = analyse_class(corpus_by_name()["Functor"])
        assert "kind" in verdict.reason

    def test_superclass_blocking_propagates(self):
        # Integral is blocked (quotRem); anything requiring it is too.
        assert not analyse_class(corpus_by_name()["Integral"]).generalisable

    def test_six_generalised_functions(self):
        survey = survey_functions()
        assert survey.count == 6
        assert survey.all_verified
        names = {entry.name for entry in LEVITY_GENERALISED_FUNCTIONS}
        assert {"error", "($)", "runRW#", "oneShot"} <= names
