"""Tests for repro.core: representations, kinds, levity restrictions (Figure 1, §4-5)."""

import pytest

from repro.core import (
    ADDR_REP,
    CHAR_REP,
    DOUBLE_REP,
    FLOAT_REP,
    INT_REP,
    LIFTED,
    UNIT_TUPLE_REP,
    UNLIFTED,
    WORD_REP,
    ArrowKind,
    KindError,
    LevityChecker,
    LevityPolymorphicArgument,
    LevityPolymorphicBinder,
    RegisterClass,
    RepVar,
    SumRep,
    TupleRep,
    TYPE_INT,
    TYPE_LIFTED,
    TYPE_UNLIFTED,
    TypeKind,
    all_nullary_reps,
    arrow_kind,
    check_argument_kind,
    check_binder_kind,
    fresh_rep_var,
    kind_is_fixed,
    kind_of_type_constructor,
    same_calling_convention,
    type_kind,
    unboxed_tuple_kind,
)


class TestBoxityAndLevity:
    """Figure 1: the boxity × levity grid."""

    def test_lifted_rep_is_boxed_and_lifted(self):
        assert LIFTED.is_boxed() and LIFTED.is_lifted()

    def test_unlifted_rep_is_boxed_but_not_lifted(self):
        assert UNLIFTED.is_boxed() and not UNLIFTED.is_lifted()

    @pytest.mark.parametrize("rep", [INT_REP, WORD_REP, CHAR_REP, ADDR_REP,
                                     FLOAT_REP, DOUBLE_REP])
    def test_unboxed_reps_are_unboxed_and_unlifted(self, rep):
        assert not rep.is_boxed() and not rep.is_lifted()
        assert rep.is_unboxed() and rep.is_unlifted()

    def test_no_rep_is_unboxed_and_lifted(self):
        """The empty corner of Figure 1: lifted implies boxed."""
        for rep in all_nullary_reps():
            if rep.is_lifted():
                assert rep.is_boxed()

    def test_lifted_and_unlifted_pointers_share_calling_convention(self):
        assert same_calling_convention(LIFTED, UNLIFTED)

    def test_int_and_lifted_have_different_calling_conventions(self):
        assert not same_calling_convention(INT_REP, LIFTED)

    def test_float_and_double_use_float_registers(self):
        assert FLOAT_REP.register_shape() == (RegisterClass.FLOAT,)
        assert DOUBLE_REP.register_shape() == (RegisterClass.DOUBLE,)

    def test_int_and_double_have_different_conventions(self):
        assert not same_calling_convention(INT_REP, DOUBLE_REP)


class TestTupleRep:
    """Section 4.2: unboxed tuples occupy several registers."""

    def test_pair_of_pointer_and_int(self):
        rep = TupleRep([LIFTED, INT_REP])
        assert rep.register_shape() == (RegisterClass.GC_POINTER,
                                        RegisterClass.INTEGER)

    def test_nullary_tuple_has_no_registers(self):
        assert UNIT_TUPLE_REP.register_shape() == ()
        assert UNIT_TUPLE_REP.register_count() == 0

    def test_nesting_is_kind_distinct_but_representation_flat(self):
        nested1 = TupleRep([LIFTED, TupleRep([LIFTED, DOUBLE_REP])])
        nested2 = TupleRep([TupleRep([LIFTED, LIFTED]), DOUBLE_REP])
        assert nested1 != nested2                      # distinct kinds
        assert nested1.register_shape() == nested2.register_shape()
        assert nested1.flatten() == nested2.flatten()  # same runtime shape

    def test_flatten_is_idempotent(self):
        rep = TupleRep([INT_REP, TupleRep([LIFTED, TupleRep([DOUBLE_REP])])])
        assert rep.flatten().flatten() == rep.flatten()

    def test_tuple_rep_substitution(self):
        rep = TupleRep([RepVar("r"), INT_REP])
        solved = rep.substitute({"r": LIFTED})
        assert solved == TupleRep([LIFTED, INT_REP])
        assert solved.is_concrete()

    def test_tuple_width_bytes(self):
        assert TupleRep([LIFTED, INT_REP]).width_bytes() == 16
        assert TupleRep([FLOAT_REP]).width_bytes() == 4

    def test_sum_rep_has_tag_plus_union(self):
        rep = SumRep([INT_REP, LIFTED])
        shape = rep.register_shape()
        assert shape[0] == RegisterClass.INTEGER  # the tag
        assert RegisterClass.GC_POINTER in shape
        assert len(shape) == 3


class TestRepVars:
    def test_rep_var_is_not_concrete(self):
        assert not RepVar("r").is_concrete()

    def test_rep_var_has_no_register_shape(self):
        with pytest.raises(ValueError):
            RepVar("r").register_shape()

    def test_rep_var_levity_question_is_rejected(self):
        """One should never ask whether a levity-polymorphic type is lazy (§8.2)."""
        with pytest.raises(ValueError):
            RepVar("r").is_lifted()
        with pytest.raises(ValueError):
            RepVar("r").is_boxed()

    def test_fresh_rep_vars_are_distinct(self):
        assert fresh_rep_var().name != fresh_rep_var().name

    def test_zonk_follows_solutions(self):
        solutions = {"r0": RepVar("r1"), "r1": INT_REP}
        assert RepVar("r0").zonk(solutions.get) == INT_REP

    def test_tuple_rep_free_vars(self):
        rep = TupleRep([RepVar("a"), TupleRep([RepVar("b")]), INT_REP])
        assert rep.free_rep_vars() == {"a", "b"}


class TestKinds:
    def test_type_is_type_lifted_rep(self):
        assert TYPE_LIFTED == TypeKind(LIFTED)
        assert TYPE_LIFTED.pretty() == "Type"

    def test_type_int_pretty(self):
        assert TYPE_INT.pretty() == "TYPE IntRep"

    def test_unboxed_tuple_kind(self):
        kind = unboxed_tuple_kind(INT_REP, LIFTED)
        assert kind == TypeKind(TupleRep([INT_REP, LIFTED]))

    def test_arrow_kind_nesting(self):
        kind = arrow_kind(TYPE_LIFTED, TYPE_LIFTED, TYPE_LIFTED)
        assert isinstance(kind, ArrowKind)
        assert kind.result == ArrowKind(TYPE_LIFTED, TYPE_LIFTED)

    def test_kind_of_type_constructor(self):
        maybe_kind = kind_of_type_constructor(1)
        assert maybe_kind == ArrowKind(TYPE_LIFTED, TYPE_LIFTED)
        assert kind_of_type_constructor(0) == TYPE_LIFTED

    def test_kind_free_rep_vars(self):
        kind = TypeKind(RepVar("r"))
        assert kind.free_rep_vars() == {"r"}
        assert not kind.is_concrete()

    def test_kind_substitution(self):
        kind = TypeKind(RepVar("r"))
        assert kind.substitute_reps({"r": DOUBLE_REP}) == TypeKind(DOUBLE_REP)

    def test_display_defaulting_of_rep_var_kind(self):
        kind = TypeKind(RepVar("r"))
        assert kind.pretty(explicit_runtime_reps=False) == "Type"
        assert kind.pretty(explicit_runtime_reps=True) == "TYPE r"


class TestLevityRestrictions:
    """Section 5.1: the two restrictions."""

    def test_concrete_kinds_are_fixed(self):
        assert kind_is_fixed(TYPE_LIFTED)
        assert kind_is_fixed(TYPE_INT)
        assert kind_is_fixed(TYPE_UNLIFTED)
        assert kind_is_fixed(unboxed_tuple_kind(INT_REP, LIFTED))

    def test_rep_var_kind_is_not_fixed(self):
        assert not kind_is_fixed(TypeKind(RepVar("r")))

    def test_arrow_kind_is_not_a_value_kind(self):
        assert not kind_is_fixed(ArrowKind(TYPE_LIFTED, TYPE_LIFTED))

    def test_binder_check_accepts_concrete(self):
        check_binder_kind(TYPE_INT)  # does not raise

    def test_binder_check_rejects_rep_var(self):
        with pytest.raises(LevityPolymorphicBinder):
            check_binder_kind(TypeKind(RepVar("r")))

    def test_argument_check_rejects_rep_var(self):
        with pytest.raises(LevityPolymorphicArgument):
            check_argument_kind(TypeKind(RepVar("r")))

    def test_argument_check_rejects_non_value_kind(self):
        with pytest.raises(LevityPolymorphicArgument):
            check_argument_kind(ArrowKind(TYPE_LIFTED, TYPE_LIFTED))

    def test_partially_concrete_tuple_is_rejected(self):
        kind = TypeKind(TupleRep([INT_REP, RepVar("r")]))
        with pytest.raises(LevityPolymorphicBinder):
            check_binder_kind(kind)

    def test_checker_collect_mode(self):
        checker = LevityChecker()
        assert checker.check_binder(TYPE_LIFTED, "x")
        assert not checker.check_binder(TypeKind(RepVar("r")), "y")
        assert not checker.check_argument(TypeKind(RepVar("s")), "z")
        assert [v.kind_of_violation for v in checker.violations] == \
            ["binder", "argument"]
        binder, argument = (v.pretty() for v in checker.violations)
        assert "y" in binder and "z" in argument
