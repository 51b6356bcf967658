"""Core notions of the paper: runtime representations, kinds, levity checks.

This package implements Section 4 ("Key Idea: Polymorphism, not Sub-kinding")
and Section 5.1 ("Rejecting Un-compilable Levity Polymorphism"):

* :mod:`repro.core.rep` — the ``Rep`` algebra of runtime representations and
  their register shapes (calling conventions);
* :mod:`repro.core.kinds` — kinds ``TYPE r`` with ``Type = TYPE LiftedRep``;
* :mod:`repro.core.levity` — the two restrictions that make levity
  polymorphism compilable;
* :mod:`repro.core.errors` — the shared exception hierarchy.
"""

from .errors import (
    CompilationError,
    EvaluationError,
    InstanceResolutionError,
    KindError,
    LevityError,
    LevityPolymorphicArgument,
    LevityPolymorphicBinder,
    MachineError,
    OccursCheckError,
    ParseError,
    PatternError,
    ReproError,
    ScopeError,
    TypeCheckError,
    UnificationError,
)
from .kinds import (
    CONSTRAINT,
    REP_KIND,
    TYPE_DOUBLE,
    TYPE_FLOAT,
    TYPE_INT,
    TYPE_LIFTED,
    TYPE_UNLIFTED,
    ArrowKind,
    ConstraintKind,
    Kind,
    RepKind,
    Type,
    TypeKind,
    arrow_kind,
    kind_of_type_constructor,
    type_kind,
    unboxed_tuple_kind,
)
from .levity import (
    LevityChecker,
    LevityViolation,
    check_argument_kind,
    check_binder_kind,
    kind_is_fixed,
)
from .rep import (
    ADDR_REP,
    CHAR_REP,
    DOUBLE_REP,
    FLOAT_REP,
    INT_REP,
    LIFTED,
    UNIT_TUPLE_REP,
    UNLIFTED,
    WORD_REP,
    AddrRep,
    CharRep,
    DoubleRep,
    FloatRep,
    IntRep,
    LiftedRep,
    RegisterClass,
    Rep,
    RepVar,
    SumRep,
    TupleRep,
    UnliftedRep,
    WordRep,
    all_nullary_reps,
    fresh_rep_var,
    same_calling_convention,
)

__all__ = [name for name in dir() if not name.startswith("_")]
