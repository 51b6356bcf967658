"""Property-based tests for the union-find unifier (hypothesis).

Five properties the solver must satisfy on *random* terms:

* **zonking is a fixpoint** — ``zonk(zonk(t)) == zonk(t)`` for every type,
  kind and rep, whatever unifications happened before;
* **unification is idempotent** — re-unifying two already-unified terms
  succeeds and creates no new bindings (the bind counters are unchanged);
* **unification actually unifies** — after ``unify(t1, t2)`` succeeds,
  ``zonk(t1) == zonk(t2)``;
* **binding preserves kinds** — after ``unify_types(α, t)`` succeeds,
  ``zonk(kind(α)) == kind_of_type(zonk(t))`` (Section 5.2: representation
  information flows through the kinds);
* **levels only go outward** — under random nested ``enter_level`` /
  ``leave_level`` and unification scripts, every unsolved type or rep
  variable reachable by zonking from a variable at level ``L`` (through the
  kinds of type variables too) is at level ``L`` or shallower.

A last test runs a reference copy of the environment-scan rule (a variable
can be generalised unless a zonked scheme of the whole environment
mentions its name) beside :func:`repro.infer.defaulting.generalise`,
binding by binding, and checks that both rules quantify and default the
same names.

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
    return stats.type_bindings, stats.rep_bindings


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


# ---------------------------------------------------------------------------
# Levels only go outward
# ---------------------------------------------------------------------------

#: One scripted step: an opcode and three variable picks.
_level_steps = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 63), st.integers(0, 63),
              st.integers(0, 63)),
    max_size=40)


def _run_level_script(steps):
    """Nested levels, fresh type and rep variables, and unifications that
    freely mix variables born at different (also already left) levels.
    Failing unifications are part of the script."""
    state = UnifierState()
    types, reps = [], []
    for op, i, j, k in steps:
        try:
            if op == 0:
                state.enter_level()
            elif op == 1 and state.level > 0:
                state.leave_level()
            elif op == 2:
                alpha = state.fresh_type_uvar()
                types.append(alpha)
                reps.append(alpha.kind.rep)
            elif op == 3:
                reps.append(state.fresh_rep_uvar())
            elif op == 4 and types:
                left = types[i % len(types)]
                right = [types[j % len(types)],
                         FunTy(types[j % len(types)], types[k % len(types)]),
                         UnboxedTupleTy([types[j % len(types)],
                                         types[k % len(types)]]),
                         INT_HASH_TY][k % 4]
                state.unify_types(left, right)
            elif op == 5 and reps:
                left = reps[i % len(reps)]
                right = [reps[j % len(reps)],
                         TupleRep([reps[j % len(reps)], reps[k % len(reps)]]),
                         SumRep([reps[j % len(reps)], INT_REP]),
                         LIFTED][k % 4]
                state.unify_reps(left, right)
        except UNIFY_ERRORS:
            pass
    return state, types, reps


def _reachable_levels(state, term):
    """The levels of the unsolved type and rep variables in ``term``'s
    zonk, type-variable kinds included."""
    if isinstance(term, RepVar):
        zonked = state.zonk_rep(term)
        return [state.rep_level(n) for n in zonked.free_rep_vars()]
    zonked = state.zonk_type(term)
    return ([state.type_level(n) for n in zonked.free_uvars()]
            + [state.rep_level(n) for n in zonked.free_rep_vars()])


@given(steps=_level_steps)
@settings(max_examples=150, deadline=None)
def test_variables_reachable_from_a_level_are_no_deeper(steps):
    state, types, reps = _run_level_script(steps)
    for var, level in (
            [(v, state.type_level(v.name)) for v in types]
            + [(v, state.rep_level(v.name)) for v in reps]):
        assert level is not None
        for reached in _reachable_levels(state, var):
            assert reached is not None and reached <= level, (var, level)


def test_a_union_keeps_the_shallower_level():
    state = UnifierState()
    outer = state.fresh_type_uvar()
    state.enter_level()
    inner = state.fresh_type_uvar()
    deep = state.fresh_type_uvar()
    state.leave_level()
    assert (state.type_level(outer.name), state.type_level(inner.name)) \
        == (0, 1)
    state.unify_types(inner, outer)
    assert state.type_level(inner.name) == 0
    # Binding the outer class to a term lowers the term, kinds included.
    state.unify_types(outer, FunTy(deep, INT_TY))
    assert state.type_level(deep.name) == 0
    assert state.rep_level(deep.kind.rep.name) == 0


# ---------------------------------------------------------------------------
# The level rule quantifies and defaults what the environment scan did
# ---------------------------------------------------------------------------


def _env_scan_rule(state, env, type_):
    """Reference copy of the rule levels replaced: a variable of the zonked
    type could be generalised unless some zonked scheme of the whole
    environment mentions its name.  Returns (quantified, defaulted)."""
    env_uvars, env_reps = set(), set()
    for scheme in env.all_bindings().values():
        body = state.zonk_type(scheme.body)
        env_uvars |= body.free_uvars()
        env_reps |= body.free_rep_vars()
    zonked = state.zonk_type(type_)
    defaulted = {name for name in zonked.free_rep_vars()
                 if state.rep_level(name) is not None
                 and name not in env_reps}
    return zonked.free_uvars() - env_uvars, defaulted, \
        bool(env_uvars & zonked.free_uvars())


def _expr(rng, scope, depth, names):
    """A random expression over ``scope``: nested lets and lambdas make
    local lets whose environments hold the enclosing unification
    variables."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(list(scope) + ["1#", "(I# 2#)"])
    shape = rng.randrange(6)

    def sub(extra=()):
        return _expr(rng, list(scope) + list(extra), depth - 1, names)

    if shape == 0:
        var = f"v{next(names)}"
        return f"(\\{var} -> {sub([var])})"
    if shape == 1:
        var = f"v{next(names)}"
        return f"(let {var} = {sub()} in {sub([var])})"
    if shape == 2:
        return f"({sub()} {sub()})"
    if shape == 3:
        return f"(# {sub()}, {sub()} #)"
    if shape == 4:
        var = f"v{next(names)}"
        return f"(case {sub()} of {{ I# {var} -> {sub([var])} }})"
    return f"({sub()} +# {sub()})"


def _let_module(seed, bindings=6):
    import itertools
    import random

    rng = random.Random(seed)
    names = itertools.count()
    decls = []
    for index in range(bindings):
        params = ["x", "y"][:rng.randint(0, 2)]
        scope = params + [f"f{j}" for j in range(index)]
        head = " ".join([f"f{index}"] + params)
        decls.append(f"{head} = {_expr(rng, scope, 4, names)}")
    return "\n\n".join(decls) + "\n"


def test_level_rule_matches_the_environment_scan(monkeypatch):
    """Binding by binding, over the golden files, a ``generate_corpus``
    corpus and random let-nesting modules (also under the
    ``generalise_reps`` ablation), the level rule quantifies and defaults
    exactly the names the environment scan did."""
    import glob
    import os

    import repro.driver.session as session_mod
    import repro.infer.infer as infer_mod
    from repro.driver import Session
    from repro.fuzz import GenOptions, generate_corpus
    from repro.infer import InferOptions

    generalise = infer_mod.generalise
    infer_unsigned = infer_mod.Inferencer._infer_unsigned
    envs = []
    seen = {"bindings": 0, "env_holds_uvars": 0, "quantified": 0,
            "defaulted": 0}

    def recording_infer_unsigned(self, env, name, params, rhs):
        envs.append(env)
        try:
            return infer_unsigned(self, env, name, params, rhs)
        finally:
            envs.pop()

    def checked_generalise(state, type_, constraints=(),
                           generalise_reps=False):
        quantified, defaulted, captured = _env_scan_rule(state, envs[-1],
                                                         type_)
        zonked = state.zonk_type(type_)
        result = generalise(state, type_, constraints, generalise_reps)
        assert zonked.free_uvars() - result.scheme.body.free_uvars() \
            == quantified
        if generalise_reps:
            assert len(result.generalised_rep_vars) == len(defaulted)
        else:
            assert set(result.defaulted_rep_vars) == defaulted
        seen["bindings"] += 1
        seen["env_holds_uvars"] += captured
        seen["quantified"] += bool(quantified)
        seen["defaulted"] += bool(defaulted)
        return result

    monkeypatch.setattr(infer_mod, "generalise", checked_generalise)
    monkeypatch.setattr(infer_mod.Inferencer, "_infer_unsigned",
                        recording_infer_unsigned)

    here = os.path.dirname(os.path.abspath(__file__))
    sources = [(path, open(path, encoding="utf-8").read()) for path in
               sorted(glob.glob(os.path.join(here, "golden", "**", "*.lev"),
                                recursive=True))]
    sources += [(p.filename, p.source)
                for p in generate_corpus(29, 40, GenOptions())]
    sources += [(f"let{seed}.lev", _let_module(seed)) for seed in range(120)]
    for filename, source in sources:
        Session().check(source, filename)
    assert envs == []
    assert seen["env_holds_uvars"] >= 10 and seen["quantified"] >= 50 \
        and seen["defaulted"] >= 50, seen

    monkeypatch.setattr(
        session_mod.DriverOptions, "infer_options",
        lambda self: InferOptions(generalise_reps=True,
                                  collect_levity_violations=True))
    before = seen["bindings"]
    for seed in range(120, 160):
        Session().check(_let_module(seed), f"let{seed}.lev")
    assert seen["bindings"] > before
