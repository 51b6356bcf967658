"""E11: unifier stress — union-find solver vs the seed's dictionary chaser.

The paper's engineering claim (Section 5.2) is that representation
unification makes levity polymorphism *cheap* inside a real inference
engine.  The seed reproduction's solver undermined that claim: it resolved
variables by chasing ``{name: term}`` dictionaries and re-zonked whole type
trees on every ``unify_types`` call, which is quadratic on solution chains.
This benchmark measures the production union-find solver
(:mod:`repro.infer.unify`) against the preserved seed implementation
(`benchmarks/legacy_unify.py`) on three adversarial workloads:

* **deep solution chains** — ``α0 ~ α1 ~ … ~ αn`` then ``α0 ~ Int``, then
  zonk every variable: the classic quadratic case (each chain link also
  drags a ``ρ`` rep-var chain behind it through the kinds);
* **wide unboxed-tuple reps** — ``TupleRep`` with hundreds of rep-var
  components unified against a concrete tuple, twice (the second pass is
  all lookups);
* **many-binding modules** — a module of chained function bindings, run
  through the full inference engine with each solver.  Each binding is a
  ``case`` of ``MODULE_ALTERNATIVES`` alternatives, every one calling the
  previous binding on the same parameters, so inference builds solution
  chains as long as the ``case`` inside one binding: the seed solver walks
  them again at every use (quadratic in the alternatives), the union-find
  solver compresses them.

Wall-clock numbers land in ``BENCH_perf.json`` (keys ``e11.*``).  The
deep-chain workload must show a >= 3x speedup, the wide-tuple one >= 2x
and the module one >= 1.5x.  Each floor is a ratio of two timings taken
in one process, so CI gates them on every push, in a step that runs this
file alone; ``BENCH_REPORT_ONLY`` skips them, as in CI's full run.

A separate test drops Python's recursion limit to the *default* 1000 frames
and solves a 5000-deep chain, proving the iterative worklist loops no
longer lean on the ``sys.setrecursionlimit`` crutch the seed's
``benchmarks/conftest.py`` needed.
"""

import sys

import pytest

from benchreport import emit, record_counter, record_timing, report_only, time_op
from repro.core.rep import INT_REP, LIFTED, DOUBLE_REP, TupleRep
from legacy_unify import LegacyUnifierState
from repro.infer.unify import UnifierState
from repro.surface.ast import (Alternative, ECase, EVar, FunBind, Module,
                               apply)
from repro.surface.prelude import prelude_env
from repro.surface.types import INT_TY, UnboxedTupleTy, INT_HASH_TY, DOUBLE_HASH_TY

DEEP_CHAIN_N = 1200
WIDE_TUPLE_N = 400
MODULE_BINDINGS = 12
#: The module holds DEEP_CHAIN_N alternatives in all, as many as the deep
#: chain's links.
MODULE_ALTERNATIVES = DEEP_CHAIN_N // MODULE_BINDINGS

SPEEDUP_FLOOR = 3.0


# ---------------------------------------------------------------------------
# Workloads (parametrised by the solver class)
# ---------------------------------------------------------------------------


def _deep_chain(state_cls, n=DEEP_CHAIN_N):
    """Chain n type uvars, solve the head, then zonk every variable."""
    state = state_cls()
    uvars = [state.fresh_type_uvar() for _ in range(n)]
    for left, right in zip(uvars, uvars[1:]):
        state.unify_types(left, right)
    state.unify_types(uvars[0], INT_TY)
    for var in uvars:
        assert state.zonk_type(var) == INT_TY
    return state


def _wide_tuples(state_cls, n=WIDE_TUPLE_N):
    """Wide-representation stress: one wide solve, then many binds against
    the same wide term.

    Phase 1 unifies a TupleRep of ``n`` rep variables against a concrete
    tuple (twice — the second pass must be pure lookups).  Phase 2 binds
    ``n`` fresh type variables, one ``unify_types`` call each, against the
    *same* ``n//4``-wide unboxed tuple type: the seed solver re-zonks and
    re-kinds the whole tuple on every call (O(n²) overall), while the
    union-find solver answers from the occurs-check prune and the memoised
    kind table.
    """
    state = state_cls()
    rep_uvars = [state.fresh_rep_uvar() for _ in range(n)]
    concrete = TupleRep([INT_REP, LIFTED, DOUBLE_REP][i % 3]
                        for i in range(n))
    state.unify_reps(TupleRep(rep_uvars), concrete)
    # Second pass: everything already solved, must be pure lookups.
    state.unify_reps(TupleRep(rep_uvars), concrete)
    assert state.zonk_rep(TupleRep(rep_uvars)) == concrete
    # Phase 2: many independent binds against one wide unboxed tuple type.
    wide_ty = UnboxedTupleTy([INT_HASH_TY, DOUBLE_HASH_TY][i % 2]
                             for i in range(n // 4))
    for _ in range(n):
        alpha = state.fresh_type_uvar()
        state.unify_types(alpha, wide_ty)
        assert state.zonk_type(alpha) == wide_ty
    return state


def _chained_module(n=MODULE_BINDINGS, alternatives=MODULE_ALTERNATIVES):
    """``f_i n x = case n of { 0# -> f_{i-1} n x; 1# -> f_{i-1} n x; …;
    _ -> f_{i-1} n x }`` — n bindings of ``alternatives`` alternatives
    each (``f0`` returns ``x``), inferred in turn."""
    def dispatch(rhs):
        return ECase(EVar("n"),
                     [Alternative(f"{k}#", (), rhs)
                      for k in range(alternatives - 1)]
                     + [Alternative("_", (), rhs)])

    decls = [FunBind("f0", ["n", "x"], dispatch(EVar("x")))]
    for i in range(1, n):
        decls.append(FunBind(
            f"f{i}", ["n", "x"],
            dispatch(apply(EVar(f"f{i - 1}"), EVar("n"), EVar("x")))))
    return Module("Stress", decls)


def _infer_stress_module(unifier_cls):
    """Run full inference over the chained module with a chosen solver:
    one inferencer, every binding in declaration order, each seeing the
    schemes of those before it.  Returns the schemes by name."""
    import repro.infer.infer as infer_mod

    module = _chained_module()
    original = infer_mod.UnifierState
    infer_mod.UnifierState = unifier_cls
    try:
        inferencer = infer_mod.Inferencer()
        env, schemes = prelude_env(), {}
        for bind in module.decls:
            scheme = inferencer.infer_binding(env, bind.name, bind.params,
                                              bind.rhs).scheme
            schemes[bind.name] = scheme
            env = env.bind(bind.name, scheme)
    finally:
        infer_mod.UnifierState = original
    assert len(schemes) == MODULE_BINDINGS
    return schemes


# ---------------------------------------------------------------------------
# The report + the >=3x acceptance gate
# ---------------------------------------------------------------------------


def test_report_unifier_stress_speedup():
    time_op("e11.deep_chain.legacy", _deep_chain,
            LegacyUnifierState, DEEP_CHAIN_N,
            repeats=3, meta={"n": DEEP_CHAIN_N})
    current = time_op("e11.deep_chain.current", _deep_chain,
                      UnifierState, DEEP_CHAIN_N,
                      repeats=3, meta={"n": DEEP_CHAIN_N})
    record_counter("e11.deep_chain.solver_ops", current.stats.as_dict())

    time_op("e11.wide_tuple.legacy", _wide_tuples,
            LegacyUnifierState, WIDE_TUPLE_N,
            repeats=3, meta={"n": WIDE_TUPLE_N})
    wide_state = time_op("e11.wide_tuple.current", _wide_tuples,
                         UnifierState, WIDE_TUPLE_N,
                         repeats=3, meta={"n": WIDE_TUPLE_N})
    record_counter("e11.wide_tuple.solver_ops", wide_state.stats.as_dict())

    module_meta = {"bindings": MODULE_BINDINGS,
                   "alternatives": MODULE_ALTERNATIVES}
    time_op("e11.module.legacy", _infer_stress_module,
            LegacyUnifierState, repeats=2, meta=module_meta)
    time_op("e11.module.current", _infer_stress_module,
            UnifierState, repeats=2, meta=module_meta)

    import benchreport
    timings = benchreport._TIMINGS
    rows = []
    speedups = {}
    for stem in ("e11.deep_chain", "e11.wide_tuple", "e11.module"):
        legacy_s = timings[f"{stem}.legacy"]["seconds"]
        current_s = timings[f"{stem}.current"]["seconds"]
        speedup = legacy_s / current_s
        speedups[stem] = speedup
        record_counter(f"{stem}.speedup", round(speedup, 2))
        rows.append((stem, "faster (union-find)",
                     f"{legacy_s * 1000:.1f}ms -> {current_s * 1000:.1f}ms "
                     f"({speedup:.1f}x)"))
    emit("E11: unifier stress, union-find vs seed dictionary chaser", rows)

    if report_only():
        pytest.skip("BENCH_REPORT_ONLY set: timings recorded, gate skipped")
    assert speedups["e11.deep_chain"] >= SPEEDUP_FLOOR, (
        f"deep-chain speedup {speedups['e11.deep_chain']:.2f}x fell below "
        f"the {SPEEDUP_FLOOR}x acceptance floor")
    # Softer regression tripwires for the other workloads (typically ~20x
    # and ~3x respectively; generous slack for noisy machines).
    assert speedups["e11.wide_tuple"] >= 2.0
    assert speedups["e11.module"] >= 1.5


def test_deep_chain_runs_under_default_recursion_limit():
    """The iterative solver must not consume stack proportional to the chain.

    The seed's conftest crutch was ``sys.setrecursionlimit(200_000)``; the
    production solver solves a 5000-deep chain within Python's *default*
    1000-frame limit.
    """
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        state = _deep_chain(UnifierState, n=5000)
    finally:
        sys.setrecursionlimit(previous)
    stats = state.stats
    assert stats.type_bindings == 5000
    record_counter("e11.recursion_limit_probe",
                   {"chain_depth": 5000, "recursion_limit": 1000})


def test_wide_tuple_second_pass_is_lookups_only():
    """Re-unifying an already-solved wide tuple must not re-bind anything."""
    state = UnifierState()
    rep_uvars = [state.fresh_rep_uvar() for _ in range(64)]
    concrete = TupleRep([INT_REP] * 64)
    state.unify_reps(TupleRep(rep_uvars), concrete)
    bindings_after_first = state.stats.rep_bindings
    state.unify_reps(TupleRep(rep_uvars), concrete)
    assert state.stats.rep_bindings == bindings_after_first


def test_module_inference_agrees_across_solvers():
    """Both solvers must infer identical schemes for the stress module."""
    current = _infer_stress_module(UnifierState)
    legacy = _infer_stress_module(LegacyUnifierState)
    for name, scheme in current.items():
        assert scheme.pretty() == legacy[name].pretty()
