"""E18: cross-module incremental builds on a layered N-module project.

The tentpole measurement of the project layer: ``NUM_MODULES`` modules in
an import chain (each importing its predecessor and calling into its
exports, every module ``BINDINGS_PER_MODULE`` bindings deep) are built
cold into a schema-v3 cache; then a **single function body** in the base
module is edited without changing its exported scheme and the project is
rebuilt warm.

Recorded into ``BENCH_perf.json``:

* ``e18.cold_build``   — full project build populating the cache;
* ``e18.warm_noop``    — rebuild with nothing edited (one ``module:``
  entry per file reconstructs the module DAG without parsing, read in one
  batch; every module is a whole-file hit, its exports an ``exports:``
  entry);
* ``e18.body_edit``    — rebuild after the body-only edit: exactly **one
  unit** re-checks, and no importing module is even re-parsed
  (cross-file early cutoff);
* ``e18.scheme_edit``  — rebuild after changing the base module's
  exported scheme: precisely the downstream units naming it re-check;
* counters: module/unit counts, per-scenario misses, and the headline
  ``e18.speedup.body_edit_vs_cold`` ratio (gated at ≥ 5× unless
  ``BENCH_REPORT_ONLY``).

Correctness is asserted always: warm results must be byte-identical to
cold ones, the body-edit rebuild must re-check exactly one unit, and the
warm no-op must read at most three keys per module.
"""

import pytest

from benchreport import emit, record_counter, report_only, time_op
from repro.driver import CheckStats, DriverOptions, ResultCache, Session
from repro.driver.project import check_project
from repro.driver.batch import payload_bytes, result_to_payload
from repro.telemetry import REGISTRY

NUM_MODULES = 16
BINDINGS_PER_MODULE = 4
SPEEDUP_FLOOR = 5.0   # warm body-only edit vs cold full build


def make_project(num_modules=NUM_MODULES,
                 bindings=BINDINGS_PER_MODULE):
    """A chain of modules: ``M1 <- M2 <- ... <- Mn``.

    Each module's head binding calls the previous module's head across
    the import boundary (module 1 bottoms out on a recursive unboxed
    loop), followed by a few local helpers — so every module has both a
    cross-module dependency and local units the cache must keep apart.
    """
    items = []
    for m in range(1, num_modules + 1):
        lines = [f"module M{m} where"]
        if m > 1:
            lines.append(f"import M{m - 1}")
        lines.append("")
        if m == 1:
            lines.append("head1 :: Int# -> Int#")
            lines.append("head1 n = case n <=# 0# of "
                         "{ 1# -> 0#; _ -> n +# head1 (n -# 1#) }")
        else:
            lines.append(f"head{m} :: Int# -> Int#")
            lines.append(f"head{m} n = head{m - 1} (n +# {m}#)")
        for b in range(1, bindings):
            lines.append(f"local{m}_{b} :: Int#")
            lines.append(f"local{m}_{b} = head{m} {b}#")
        lines.append("")
        items.append((f"m{m}.lev", "\n".join(lines)))
    return items


def project_bytes(results):
    return [payload_bytes(result_to_payload(result)) for result in results]


def test_report_project_build(tmp_path):
    items = make_project()
    cache_path = str(tmp_path / "e18-cache.json")
    session = Session()

    # -- cold build: populate the cache ---------------------------------------
    cold_stats = CheckStats()
    cold_cache = ResultCache(cache_path)
    cold = time_op(
        "e18.cold_build",
        lambda: check_project(items, cache=cold_cache, session=session,
                              stats=cold_stats),
        repeats=1, meta={"modules": NUM_MODULES,
                         "bindings": NUM_MODULES * BINDINGS_PER_MODULE})
    assert cold.ok, [d.pretty() for r in cold.results
                     for d in r.diagnostics][:3]
    cold_cache.save()
    record_counter("e18.modules", NUM_MODULES)
    record_counter("e18.units", cold_stats.units)

    def throwaway_cache():
        """A warm cache that never persists: every repeat starts from the
        pristine cold state."""
        warm = ResultCache(cache_path)
        warm.save = lambda: None
        return warm

    def rebuild(edited_items, stats=None):
        return check_project(edited_items, cache=throwaway_cache(),
                             session=Session(), stats=stats)

    # -- warm no-op: DAG from module entries, every module a file hit ---------
    noop_stats = CheckStats()
    noop = time_op("e18.warm_noop", lambda: rebuild(items, noop_stats),
                   repeats=3, meta={"modules": NUM_MODULES})
    assert noop_stats.checked == 0
    assert project_bytes(noop.results) == project_bytes(cold.results)
    # Store-level shape of the warm no-op: one module entry, one file
    # entry and one exports entry per module, nothing written back.
    probe = throwaway_cache()
    check_project(items, cache=probe, session=Session())
    assert probe.entries_written == 0
    assert probe.keys_read <= 3 * NUM_MODULES, probe.keys_read
    record_counter("e18.store.warm_keys_read", probe.keys_read)
    record_counter("e18.store.warm_entries_written", probe.entries_written)

    # -- the headline: body-only edit in the base module ----------------------
    base_name, base_source = items[0]
    edited_source = base_source.replace("1# -> 0#", "1# -> 0# +# 0#")
    assert edited_source != base_source
    edited_items = [(base_name, edited_source)] + items[1:]
    edit_results = time_op(
        "e18.body_edit", lambda: rebuild(edited_items),
        repeats=3, meta={"modules": NUM_MODULES, "edited": "head1"})
    edit_stats = CheckStats()
    rebuild(edited_items, edit_stats)
    # head1's exported scheme is unchanged: every importing module stays
    # a whole-file hit (no re-parse), and only head1's unit re-checks.
    assert edit_stats.checked == 1, edit_stats.pretty()
    assert edit_stats.file_hits == NUM_MODULES - 1
    record_counter("e18.body_edit.checked", edit_stats.checked)
    record_counter("e18.body_edit.file_hits", edit_stats.file_hits)
    # Byte-identity against a cold from-scratch build of the edited state.
    scratch = check_project(edited_items, session=Session())
    assert project_bytes(scratch.results) == \
        project_bytes(edit_results.results)

    # -- scheme change: precisely the consumers re-check ----------------------
    scheme_edited = base_source.replace(
        "head1 :: Int# -> Int#\nhead1 n = case n <=# 0# of "
        "{ 1# -> 0#; _ -> n +# head1 (n -# 1#) }",
        "head1 :: Int -> Int\nhead1 n = n")
    assert scheme_edited != base_source
    scheme_stats = CheckStats()
    scheme_check = time_op(
        "e18.scheme_edit",
        lambda: rebuild([(base_name, scheme_edited)] + items[1:],
                        scheme_stats),
        repeats=1, meta={"modules": NUM_MODULES})
    # M1's units re-check; M2 names head1 and re-checks (now failing);
    # the failure propagates down the chain per-unit, but modules whose
    # referenced schemes are all unchanged would still hit — here every
    # module names its predecessor's (changed) head, so all re-open.
    assert scheme_stats.checked >= 2
    assert not scheme_check.ok
    record_counter("e18.scheme_edit.checked", scheme_stats.checked)

    # -- canonical_scheme memo: repeated key derivation on this corpus -------
    compiled_session = Session(DriverOptions(compiled=True))
    base_check = compiled_session.check(base_source, base_name)
    assert base_check.ok
    renders = REGISTRY.counter("solver.scheme_renders")
    render_hits = REGISTRY.counter("solver.scheme_render_hits")
    memo_cache = str(tmp_path / "e18-memo-cache")
    base_renders, base_hits = renders.value, render_hits.value
    compiled_session.run_from_check(base_check, entry="local1_1",
                                    cache=memo_cache)
    first_pass = renders.value - base_renders
    assert first_pass > 0 and render_hits.value == base_hits
    compiled_session.run_from_check(base_check, entry="local1_1",
                                    cache=memo_cache)
    memo_hits = render_hits.value - base_hits
    assert memo_hits == first_pass, \
        "every repeat render must hit the memo"
    record_counter("e18.scheme_memo.renders", renders.value - base_renders)
    record_counter("e18.scheme_memo.hits", memo_hits)
    record_counter("e18.scheme_memo.hit_rate",
                   round(memo_hits / (renders.value - base_renders), 4))

    # -- report ---------------------------------------------------------------
    import benchreport
    cold_s = benchreport._TIMINGS["e18.cold_build"]["seconds"]
    noop_s = benchreport._TIMINGS["e18.warm_noop"]["seconds"]
    edit_s = benchreport._TIMINGS["e18.body_edit"]["seconds"]
    speedup = cold_s / edit_s if edit_s > 0 else float("inf")
    record_counter("e18.speedup.body_edit_vs_cold", round(speedup, 2))
    record_counter("e18.speedup.warm_noop_vs_cold",
                   round(cold_s / noop_s, 2) if noop_s > 0 else 0)

    emit(f"E18: cross-module incremental build ({NUM_MODULES} modules, "
         f"{NUM_MODULES * BINDINGS_PER_MODULE} bindings)", [
             ("cold full build", "baseline", f"{cold_s * 1000:.1f}ms"),
             ("warm no-op", f"{cold_s / noop_s:.1f}x vs cold",
              f"{noop_s * 1000:.1f}ms"),
             ("body-only edit", f"{speedup:.1f}x vs cold",
              f"{edit_s * 1000:.1f}ms"),
             ("scheme-changing edit", f"{scheme_stats.checked} unit(s) "
              "re-checked", "precise invalidation"),
         ])

    if report_only():
        pytest.skip("BENCH_REPORT_ONLY set: timings recorded, gate skipped")
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm body-only rebuild was only {speedup:.1f}x faster than a "
        f"cold full build (floor: {SPEEDUP_FLOOR}x)")
