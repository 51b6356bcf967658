"""Property-based tests for the union-find unifier (hypothesis).

Four algebraic properties the solver must satisfy on *random* terms:

* **zonking is a fixpoint** — ``zonk(zonk(t)) == zonk(t)`` for every type,
  kind and rep, whatever unifications happened before;
* **unification is idempotent** — re-unifying two already-unified terms
  succeeds and creates no new bindings (the bind counters are unchanged);
* **unification actually unifies** — after ``unify(t1, t2)`` succeeds,
  ``zonk(t1) == zonk(t2)``;
* **binding preserves kinds** — after ``unify_types(α, t)`` succeeds,
  ``zonk(kind(α)) == kind_of_type(zonk(t))`` (Section 5.2: representation
  information flows through the kinds).

The strategies build kind-correct first-order types over the built-in
constructors, rigid/unification rep variables, and unboxed tuples, then
drive the solver with random unification scripts, discarding the scripts
that (legitimately) fail to unify.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.errors import (
    KindError,
    OccursCheckError,
    UnificationError,
)
from repro.core.kinds import TypeKind
from repro.core.rep import (
    DOUBLE_REP,
    INT_REP,
    LIFTED,
    RepVar,
    SumRep,
    TupleRep,
    UNLIFTED,
)
from repro.infer.unify import UnifierState
from repro.surface.types import (
    BOOL_TY,
    DOUBLE_HASH_TY,
    FunTy,
    INT_HASH_TY,
    INT_TY,
    MAYBE_TY,
    TyApp,
    UnboxedTupleTy,
    kind_of_type,
)

UNIFY_ERRORS = (UnificationError, OccursCheckError, KindError)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_nullary_reps = st.sampled_from([LIFTED, UNLIFTED, INT_REP, DOUBLE_REP])
_rigid_rep_vars = st.sampled_from([RepVar("r"), RepVar("s")])
_uni_rep_vars = st.sampled_from(
    [RepVar(f"prho{i}", unification=True) for i in range(4)])

reps = st.recursive(
    _nullary_reps | _rigid_rep_vars | _uni_rep_vars,
    lambda children: st.builds(
        TupleRep, st.lists(children, max_size=3)) | st.builds(
        SumRep, st.lists(children, min_size=1, max_size=3)),
    max_leaves=8,
)

kinds = st.builds(TypeKind, reps)

#: Kind-correct value types: lifted bases, unboxed bases, Maybe chains,
#: arrows and unboxed tuples over them.
_base_types = st.sampled_from([INT_TY, BOOL_TY, INT_HASH_TY, DOUBLE_HASH_TY])


def _maybe_of(t):
    # ``Maybe`` only applies to lifted types; fall back to Maybe Int.
    from repro.core.kinds import TYPE_LIFTED

    if kind_of_type(t) == TYPE_LIFTED:
        return TyApp(MAYBE_TY, t)
    return TyApp(MAYBE_TY, INT_TY)


types = st.recursive(
    _base_types,
    lambda children: (
        st.builds(FunTy, children, children)
        | st.builds(_maybe_of, children)
        | st.builds(UnboxedTupleTy, st.lists(children, max_size=3))
    ),
    max_leaves=10,
)


def _fresh_state_with_noise(noise_pairs):
    """A state pre-loaded with a random (successful) unification script."""
    state = UnifierState()
    for left, right in noise_pairs:
        alpha = state.fresh_type_uvar()
        try:
            state.unify_types(alpha, left)
            state.unify_types(alpha, right)
        except UNIFY_ERRORS:
            pass
    return state


# ---------------------------------------------------------------------------
# Zonking is a fixpoint
# ---------------------------------------------------------------------------


@given(rep=reps, noise=st.lists(st.tuples(types, types), max_size=3))
@settings(max_examples=60, deadline=None)
def test_zonk_rep_is_fixpoint(rep, noise):
    state = _fresh_state_with_noise(noise)
    rho = state.fresh_rep_uvar()
    try:
        state.unify_reps(rho, rep)
    except UNIFY_ERRORS:
        pass
    once = state.zonk_rep(rep)
    assert state.zonk_rep(once) == once


@given(kind=kinds, noise=st.lists(st.tuples(types, types), max_size=3))
@settings(max_examples=60, deadline=None)
def test_zonk_kind_is_fixpoint(kind, noise):
    state = _fresh_state_with_noise(noise)
    once = state.zonk_kind(kind)
    assert state.zonk_kind(once) == once


@given(type_=types, noise=st.lists(st.tuples(types, types), max_size=3))
@settings(max_examples=60, deadline=None)
def test_zonk_type_is_fixpoint(type_, noise):
    state = _fresh_state_with_noise(noise)
    alpha = state.fresh_type_uvar()
    try:
        state.unify_types(alpha, type_)
    except UNIFY_ERRORS:
        pass
    once = state.zonk_type(alpha)
    assert state.zonk_type(once) == once
    zonked = state.zonk_type(type_)
    assert state.zonk_type(zonked) == zonked


# ---------------------------------------------------------------------------
# Unifiable-by-construction pairs: a term vs. a copy with random subterms
# abstracted into fresh unification variables.
# ---------------------------------------------------------------------------


def _abstract_type(state, type_, rng):
    """Replace ~1/3 of the subterms of ``type_`` by fresh type uvars."""
    if rng.random() < 0.34:
        return state.fresh_type_uvar()
    if isinstance(type_, FunTy):
        return FunTy(_abstract_type(state, type_.argument, rng),
                     _abstract_type(state, type_.result, rng))
    if isinstance(type_, UnboxedTupleTy):
        return UnboxedTupleTy(_abstract_type(state, c, rng)
                              for c in type_.components)
    if isinstance(type_, TyApp):
        return TyApp(type_.function,
                     _abstract_type(state, type_.argument, rng))
    return type_


def _abstract_rep(state, rep, rng):
    """Replace ~1/3 of the subterms of ``rep`` by fresh rep uvars."""
    if rng.random() < 0.34:
        return state.fresh_rep_uvar()
    if isinstance(rep, TupleRep):
        return TupleRep(_abstract_rep(state, r, rng) for r in rep.reps)
    if isinstance(rep, SumRep):
        return SumRep(_abstract_rep(state, r, rng)
                      for r in rep.alternatives)
    return rep


# ---------------------------------------------------------------------------
# Unification is idempotent
# ---------------------------------------------------------------------------


def _bindings(state):
    """The solver's bind counts: every union or solution, of each sort."""
    stats = state.stats
    return stats.type_bindings, stats.rep_bindings, stats.kind_bindings


@given(type_=types, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_reunifying_unified_types_is_a_noop(type_, seed):
    import random

    state = UnifierState()
    abstracted = _abstract_type(state, type_, random.Random(seed))
    state.unify_types(abstracted, type_)  # unifiable by construction
    bindings_before = _bindings(state)
    # Re-unifying the already-unified pair must succeed and bind nothing.
    state.unify_types(abstracted, type_)
    state.unify_types(state.zonk_type(abstracted), state.zonk_type(type_))
    assert _bindings(state) == bindings_before


@given(rep=reps, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_reunifying_unified_reps_is_a_noop(rep, seed):
    import random

    state = UnifierState()
    abstracted = _abstract_rep(state, rep, random.Random(seed))
    try:
        state.unify_reps(abstracted, rep)
    except OccursCheckError:
        # ``rep`` may contain the strategy's shared unification variables,
        # which an abstraction hole can capture (ρ ~ TupleRep [.. ρ ..]).
        assume(False)
    bindings_before = _bindings(state)
    state.unify_reps(abstracted, rep)
    state.unify_reps(state.zonk_rep(abstracted), state.zonk_rep(rep))
    assert _bindings(state) == bindings_before


# ---------------------------------------------------------------------------
# Unification unifies
# ---------------------------------------------------------------------------


@given(type_=types, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_successful_unification_makes_zonked_types_equal(type_, seed):
    import random

    state = UnifierState()
    abstracted = _abstract_type(state, type_, random.Random(seed))
    state.unify_types(abstracted, type_)
    assert state.zonk_type(abstracted) == state.zonk_type(type_)


@given(rep=reps, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_successful_rep_unification_makes_zonked_reps_equal(rep, seed):
    import random

    state = UnifierState()
    abstracted = _abstract_rep(state, rep, random.Random(seed))
    try:
        state.unify_reps(abstracted, rep)
    except OccursCheckError:
        assume(False)
    assert state.zonk_rep(abstracted) == state.zonk_rep(rep)


# ---------------------------------------------------------------------------
# Binding preserves kinds
# ---------------------------------------------------------------------------


@given(type_=types, seed=st.integers(0, 2**32 - 1),
       noise=st.lists(st.tuples(types, types), max_size=3))
@settings(max_examples=80, deadline=None)
def test_binding_a_uvar_gives_it_the_zonked_terms_kind(type_, seed, noise):
    import random

    rng = random.Random(seed)
    state = _fresh_state_with_noise(noise)
    term = _abstract_type(state, type_, rng)
    if rng.random() < 0.5:
        state.unify_types(term, type_)  # solve the holes first
    alpha = state.fresh_type_uvar()
    try:
        state.unify_types(alpha, term)
    except KindError:
        # An unsolved hole under ``Maybe`` has kind ``TYPE ρ``, not ``Type``.
        assume(False)
    assert state.zonk_kind(alpha.kind) == kind_of_type(state.zonk_type(term))
