"""E15: binding-level incremental re-checking on a ~100-binding module.

The tentpole measurement of the binding-granularity refactor: one module
with ``NUM_BINDINGS`` top-level bindings arranged as layered clusters
(each binding depends on one or two earlier ones, plus a recursive worker
per cluster) is checked cold into a unit cache; then a **single binding's
body** is edited and the module is re-checked warm.

Recorded into ``BENCH_perf.json``:

* ``e15.full_check``        — whole-module check, no cache (the old
  module-granularity cost of *any* edit);
* ``e15.cold_cache``        — cold run that also populates the cache;
* ``e15.warm_noop``         — warm run with nothing edited (pure
  hit-path overhead: parse + plan + key derivation);
* ``e15.single_edit``       — warm run after editing one leaf binding's
  body (re-checks exactly one unit);
* ``e15.edit_with_dependents`` — warm run after changing one mid-corpus
  binding's *scheme* (re-checks its SCC + transitive dependents only);
* counters: unit counts, hit/miss counts per scenario, and the headline
  ``e15.speedup.single_edit_vs_full`` ratio (gated at ≥ 5× unless
  ``BENCH_REPORT_ONLY``).

Correctness is asserted always: a warm incremental result must be
**byte-identical** (rendered schemes + diagnostics, spans included) to a
cold from-scratch check of the same source, and the miss counts must
cover exactly the edited binding's SCC and its transitive dependents.
"""

import os

import pytest

from benchreport import emit, record_counter, report_only, time_op
from repro.driver import DriverOptions, ResultCache, Session, build_plan
from repro.driver.batch import (
    CheckStats,
    payload_bytes,
    result_to_payload,
)
from repro.frontend import parse_module
from repro.telemetry import REGISTRY

NUM_BINDINGS = 100
CLUSTER = 10          # bindings per layered cluster
SPEEDUP_FLOOR = 5.0   # single-edit warm re-check vs whole-module check

FILENAME = "corpus100.lev"


def make_module(num=NUM_BINDINGS):
    """One module of ``num`` bindings in layered dependency clusters.

    Binding ``b{i}`` depends on ``b{i-1}`` (same cluster) and on the
    previous cluster's head; each cluster head is a small recursive
    worker, so the graph has both chains and self-loops.  Bodies are a
    few lines each — representative of real modules, where inference
    work per binding dominates the one-line toy case.
    """
    lines = []
    for i in range(num):
        if i % CLUSTER == 0:
            lines.append(f"b{i} :: Int# -> Int#")
            lines.append(
                f"b{i} n = case n <=# 0# of "
                f"{{ 1# -> {i}#; _ -> b{i} (n -# 1#) }}")
        elif i % CLUSTER == 1:
            lines.append(f"b{i} = b{i - 1} {i}#")
        else:
            head = i - i % CLUSTER
            lines.append(f"b{i} =")
            lines.append(f"  let scaled = b{i - 1} +# b{head} {i}# in")
            lines.append(f"  case scaled ==# 0# of")
            lines.append(f"    {{ 1# -> b{head} (scaled +# 1#)")
            lines.append(f"    ; _ -> (\\k -> k +# scaled) (b{head} 2#) }}")
        lines.append("")
    return "\n".join(lines)


def _dependents_of(source, name):
    """The names transitively depending on ``name`` (via the real plan)."""
    plan = build_plan(parse_module(source, FILENAME))
    dependents = set()
    changed = True
    dirty = {name}
    while changed:
        changed = False
        for unit in plan.units:
            if set(unit.names) & dirty:
                continue
            if set(unit.deps) & dirty:
                dirty.update(unit.names)
                dependents.update(unit.names)
                changed = True
    return dependents


def test_report_incremental_recheck(tmp_path):
    source = make_module()
    session = Session()

    # -- the old world: any edit costs a whole-module check ------------------
    full = time_op("e15.full_check",
                   lambda: session.check_many([(FILENAME, source)]),
                   repeats=3, meta={"bindings": NUM_BINDINGS})
    assert full[0].ok, [d.pretty() for d in full[0].diagnostics][:3]
    assert len(full[0].bindings) == NUM_BINDINGS

    # -- cold cache population ----------------------------------------------
    cache_path = str(tmp_path / "e15-cache.json")
    cold_stats = CheckStats()
    cold = time_op(
        "e15.cold_cache",
        lambda: session.check_many([(FILENAME, source)], cache=cache_path,
                                   stats=cold_stats),
        repeats=1, meta={"bindings": NUM_BINDINGS})
    record_counter("e15.units", cold_stats.units)
    assert cold_stats.checked == cold_stats.units

    def throwaway_cache():
        """A warm cache that never persists: every run starts from the
        pristine cold state (persisting would make repeat timings all-hit
        and misstate the miss counts)."""
        warm = ResultCache(cache_path)
        warm.save = lambda: None
        return warm

    # -- warm no-op: the pure hit path ---------------------------------------
    warm_stats = CheckStats()
    warm = time_op(
        "e15.warm_noop",
        lambda: session.check_many([(FILENAME, source)],
                                   cache=throwaway_cache(),
                                   stats=warm_stats),
        repeats=3, meta={"bindings": NUM_BINDINGS})
    assert warm_stats.cache_misses == 0
    assert payload_bytes(result_to_payload(warm[0])) == \
        payload_bytes(result_to_payload(cold[0]))
    # Store-level shape of the warm no-op (schema v4): one file-entry
    # shard read, nothing written back.
    probe = throwaway_cache()
    session.check_many([(FILENAME, source)], cache=probe)
    assert probe.shards_written == 0
    record_counter("e15.store.warm_shards_read", probe.shards_read)
    record_counter("e15.store.warm_shards_written", probe.shards_written)

    # -- the headline: edit one leaf binding's body --------------------------
    leaf = f"b{NUM_BINDINGS - 1}"          # nothing depends on the last one
    assert not _dependents_of(source, leaf)
    head = (NUM_BINDINGS - 1) - (NUM_BINDINGS - 1) % CLUSTER
    needle = f"b{NUM_BINDINGS - 2} +# b{head} {NUM_BINDINGS - 1}# in"
    edited_leaf = source.replace(
        needle, needle.replace(f"{NUM_BINDINGS - 1}#", "77#"))
    assert edited_leaf != source
    def recheck_after_leaf_edit():
        return session.check_many([(FILENAME, edited_leaf)],
                                  cache=throwaway_cache(),
                                  stats=None)

    edited_results = time_op("e15.single_edit", recheck_after_leaf_edit,
                             repeats=3, meta={"bindings": NUM_BINDINGS,
                                              "edited": leaf})
    last_run = CheckStats()
    session.check_many([(FILENAME, edited_leaf)],
                       cache=throwaway_cache(), stats=last_run)
    assert last_run.cache_misses == 1, \
        f"leaf edit re-checked {last_run.cache_misses} units"
    record_counter("e15.single_edit.misses", last_run.cache_misses)
    # Byte-identity against a cold from-scratch check of the edited source.
    scratch = Session().check(edited_leaf, FILENAME)
    assert payload_bytes(result_to_payload(scratch)) == \
        payload_bytes(result_to_payload(edited_results[0]))

    # -- a scheme-changing edit re-checks exactly SCC + dependents -----------
    victim = f"b{CLUSTER + 1}"             # early cluster: many dependents
    edited_mid = source.replace(f"{victim} = b{CLUSTER} {CLUSTER + 1}#",
                                f"{victim} = b{CLUSTER} 0#")
    assert edited_mid != source
    dependents = _dependents_of(source, victim)
    assert dependents, "victim must have dependents for this scenario"
    mid_results = time_op(
        "e15.edit_with_dependents",
        lambda: session.check_many([(FILENAME, edited_mid)],
                                   cache=throwaway_cache(),
                                   stats=None),
        repeats=1, meta={"edited": victim,
                         "dependents": len(dependents)})
    # The victim's scheme is unchanged (same type), so early cutoff keeps
    # every dependent a hit; only the victim itself re-checks.
    final = CheckStats()
    session.check_many([(FILENAME, edited_mid)],
                       cache=throwaway_cache(), stats=final)
    assert final.cache_misses <= 1 + len(dependents)
    record_counter("e15.edit_with_dependents.misses", final.cache_misses)
    record_counter("e15.edit_with_dependents.dependents", len(dependents))
    scratch_mid = Session().check(edited_mid, FILENAME)
    assert payload_bytes(result_to_payload(scratch_mid)) == \
        payload_bytes(result_to_payload(mid_results[0]))

    # -- canonical_scheme memo: repeated key derivation on this corpus -------
    # Re-deriving codegen keys from a retained CheckResult (what the REPL
    # and repeated `run` calls do) re-renders every dependency scheme;
    # the identity memo turns all repeat renders into hits.
    compiled_session = Session(DriverOptions(compiled=True))
    full_check = compiled_session.check(source, FILENAME)
    assert full_check.ok
    renders = REGISTRY.counter("solver.scheme_renders")
    render_hits = REGISTRY.counter("solver.scheme_render_hits")
    memo_cache = str(tmp_path / "e15-memo-cache")
    base_renders, base_hits = renders.value, render_hits.value
    compiled_session.run_from_check(full_check, entry="b1",
                                    cache=memo_cache)
    first_pass = renders.value - base_renders
    assert first_pass > 0 and render_hits.value == base_hits
    repeats = 3
    for _ in range(repeats):
        compiled_session.run_from_check(full_check, entry="b1",
                                        cache=memo_cache)
    memo_hits = render_hits.value - base_hits
    total_renders = renders.value - base_renders
    assert memo_hits == repeats * first_pass, \
        "every repeat render must hit the memo"
    record_counter("e15.scheme_memo.renders", total_renders)
    record_counter("e15.scheme_memo.hits", memo_hits)
    record_counter("e15.scheme_memo.hit_rate",
                   round(memo_hits / total_renders, 4))

    # -- report ---------------------------------------------------------------
    import benchreport
    full_s = benchreport._TIMINGS["e15.full_check"]["seconds"]
    warm_s = benchreport._TIMINGS["e15.warm_noop"]["seconds"]
    edit_s = benchreport._TIMINGS["e15.single_edit"]["seconds"]
    speedup = full_s / edit_s if edit_s > 0 else float("inf")
    record_counter("e15.speedup.single_edit_vs_full", round(speedup, 2))
    record_counter("e15.speedup.warm_noop_vs_full",
                   round(full_s / warm_s, 2) if warm_s > 0 else 0)

    emit("E15: binding-level incremental re-checking "
         f"({NUM_BINDINGS} bindings)", [
             ("full module check", "baseline", f"{full_s * 1000:.1f}ms"),
             ("warm no-op", f"{full_s / warm_s:.1f}x vs full",
              f"{warm_s * 1000:.1f}ms"),
             ("scheme render memo", f"{memo_hits}/{total_renders} hits",
              f"{memo_hits / total_renders:.0%} hit rate"),
             ("single-binding edit", f"{speedup:.1f}x vs full",
              f"{edit_s * 1000:.1f}ms"),
             ("scheme-changing edit", f"{final.cache_misses} unit(s) "
              "re-checked", "early cutoff"),
         ])

    if report_only():
        pytest.skip("BENCH_REPORT_ONLY set: timings recorded, gate skipped")
    assert speedup >= SPEEDUP_FLOOR, (
        f"single-binding warm re-check was only {speedup:.1f}x faster than "
        f"a whole-module check (floor: {SPEEDUP_FLOOR}x)")
