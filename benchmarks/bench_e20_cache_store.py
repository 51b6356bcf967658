"""E20: the SQLite cache store vs the monolithic file.

The measurement of the store (``repro.driver.store``, schema v5): a
synthetic cache of ``NUM_ENTRIES`` unit-shaped entries is written once
through :class:`~repro.driver.store.CacheStore` and once as the old
monolithic v3 document, then the workloads that used to scale with
*corpus history* are timed against both layouts:

* ``e20.warm_noop.legacy`` / ``.current`` — the no-change probe: the
  monolithic layout must parse the whole document to answer any lookup;
  the store reads only the keys it probes (gated at >= 5x at 10k
  entries unless ``BENCH_REPORT_ONLY``);
* ``e20.single_edit.legacy`` / ``.current`` — persisting one changed
  entry: whole-document read-merge-rewrite vs one transaction of the
  changed entries (the save is asserted — always — to write <= 2);
* ``e20.check_warm_noop`` — an end-to-end ``check_many`` no-op against a
  cache padded with the full synthetic corpus, proving the O(touched)
  property survives the driver stack (byte-identical results, one key
  read per file);
* two **processes** racing ``save()`` on one store directory, released
  by a barrier: the union of both write sets must survive (asserted
  always — this is the multi-writer contract the ROADMAP's
  checking-as-a-service story leans on);
* counters: per-scenario ``keys_read`` / ``entries_written`` and the
  process-wide ``cache.store.*`` registry counters.
"""

import hashlib
import json
import multiprocessing
import os

import pytest

from benchreport import drain_registry, emit, record_counter, report_only, \
    time_op
from repro.driver import CheckStats, ResultCache, Session
from repro.driver.batch import payload_bytes, result_to_payload
from repro.driver.store import CacheStore
from repro.telemetry import REGISTRY

NUM_ENTRIES = 10_000
PROBES = 8                    # keys a warm no-op actually touches
WARM_NOOP_SPEEDUP_FLOOR = 5.0
SINGLE_EDIT_MAX_ENTRIES = 2   # the edited unit + the file-level entry
STRESS_WRITES = 1_000         # per writer process


def _key(i):
    return hashlib.sha256(f"e20-entry-{i}".encode()).hexdigest()


def _payload(i):
    """A unit-payload-shaped entry of realistic size (~200 bytes)."""
    return {"members": [{
        "name": f"b{i}",
        "rendered": f"b{i} :: forall (r :: Rep). Int# -> Int#",
        "ok": True,
        "defaulted_rep_vars": ["r"],
        "span": [0, 1, 1, 1, 10],
        "scheme_src": "forall (r :: Rep). Int# -> Int#",
        "diagnostics": [],
    }]}


def make_corpus(num=NUM_ENTRIES):
    return {_key(i): _payload(i) for i in range(num)}


def _stress_writer(root, tag, count, barrier):
    store = CacheStore(root)
    for i in range(count):
        store.put(hashlib.sha256(f"stress-{tag}-{i}".encode()).hexdigest(),
                  {"writer": tag, "i": i})
    barrier.wait()  # line both saves up behind the barrier
    store.save()


def test_report_cache_store(tmp_path):
    drain_registry()  # isolate this section's cache.store.* counters
    corpus = make_corpus()
    probes = [_key(i) for i in range(0, NUM_ENTRIES, NUM_ENTRIES // PROBES)]

    # -- the two layouts, same 10k entries -----------------------------------
    store_root = str(tmp_path / "store")
    seed = CacheStore(store_root)
    for key, payload in corpus.items():
        seed.put(key, payload)
    seed.save()
    record_counter("e20.entries", NUM_ENTRIES)
    record_counter("e20.seed.entries_written", seed.entries_written)

    monolithic_path = str(tmp_path / "monolithic.json")
    with open(monolithic_path, "w", encoding="utf-8") as handle:
        json.dump({"schema": 3, "entries": corpus}, handle, sort_keys=True)
    record_counter("e20.monolithic_bytes", os.path.getsize(monolithic_path))

    # -- warm no-op: probe a handful of keys ---------------------------------
    def monolithic_noop():
        with open(monolithic_path, "r", encoding="utf-8") as handle:
            entries = json.load(handle)["entries"]
        return [entries[key] for key in probes]

    def store_noop():
        store = CacheStore(store_root)
        found = [store.get(key) for key in probes]
        assert store.save() == 0    # nothing put: nothing written
        return found, store

    legacy_found = time_op("e20.warm_noop.legacy", monolithic_noop,
                           repeats=3, meta={"entries": NUM_ENTRIES,
                                            "probes": PROBES})
    found, probe_store = time_op("e20.warm_noop.current", store_noop,
                                 repeats=3, meta={"entries": NUM_ENTRIES,
                                                  "probes": PROBES})
    assert found == legacy_found, "layouts disagree on the probed entries"
    assert probe_store.keys_read <= PROBES
    record_counter("e20.warm_noop.keys_read", probe_store.keys_read)

    # -- single edit: persist one changed entry ------------------------------
    edited_key = probes[0]

    def monolithic_single_edit():
        with open(monolithic_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["entries"][edited_key] = _payload(-1)
        with open(monolithic_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)

    counter = iter(range(10_000))

    def store_single_edit():
        store = CacheStore(store_root)
        store.put(edited_key, {"edit": next(counter)})
        store.put(f"pfile:{edited_key}", {"edit": "file entry"})
        written = store.save()
        assert written <= SINGLE_EDIT_MAX_ENTRIES, \
            f"single edit wrote {written} entries"
        return store

    time_op("e20.single_edit.legacy", monolithic_single_edit, repeats=3,
            meta={"entries": NUM_ENTRIES})
    edit_store = time_op("e20.single_edit.current", store_single_edit,
                         repeats=3, meta={"entries": NUM_ENTRIES})
    record_counter("e20.single_edit.entries_written",
                   edit_store.entries_written)
    # Put the seed corpus back so later sections see pristine entries.
    restore = CacheStore(store_root)
    restore.put(edited_key, corpus[edited_key])
    restore.save()

    # -- two processes, one store, saves released together -------------------
    stress_root = str(tmp_path / "stress")
    context = multiprocessing.get_context("fork") \
        if "fork" in multiprocessing.get_all_start_methods() \
        else multiprocessing.get_context()
    barrier = context.Barrier(2)
    writers = [context.Process(target=_stress_writer,
                               args=(stress_root, tag, STRESS_WRITES,
                                     barrier))
               for tag in ("a", "b")]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(120)
        assert writer.exitcode == 0
    survived = CacheStore(stress_root).load_all()
    lost = 2 * STRESS_WRITES - len(survived)
    record_counter("e20.stress.entries", len(survived))
    record_counter("e20.stress.lost", lost)
    assert lost == 0, f"concurrent writers lost {lost} entries"
    assert CacheStore(stress_root).verify() == []

    # -- end-to-end: a check_many no-op against the padded cache -------------
    check_corpus = [(f"p{i}.lev",
                     f"f{i} :: Int# -> Int#\nf{i} n = n +# {i}#\n")
                    for i in range(4)]
    check_root = str(tmp_path / "check-cache")
    cold = Session().check_many(check_corpus, cache=check_root)
    pad = CacheStore(check_root)
    for key, payload in corpus.items():
        pad.put(key, payload)
    pad.save()

    def warm_check():
        warm_cache = ResultCache(check_root)
        stats = CheckStats()
        results = Session().check_many(check_corpus, cache=warm_cache,
                                       stats=stats)
        assert stats.file_hits == len(check_corpus)
        assert warm_cache.entries_written == 0
        return results, warm_cache

    warm, warm_cache = time_op("e20.check_warm_noop", warm_check, repeats=3,
                               meta={"programs": len(check_corpus),
                                     "padding_entries": NUM_ENTRIES})
    assert [payload_bytes(result_to_payload(r)) for r in warm] == \
        [payload_bytes(result_to_payload(r)) for r in cold], \
        "warm results must be byte-identical to cold ones"
    assert warm_cache.keys_read <= len(check_corpus), \
        "a warm no-op read more keys than it has files"
    record_counter("e20.check_warm_noop.keys_read",
                   warm_cache.keys_read)
    record_counter("e20.store",
                   REGISTRY.counters_with_prefix("cache.store."))

    # -- report ---------------------------------------------------------------
    import benchreport
    legacy_s = benchreport._TIMINGS["e20.warm_noop.legacy"]["seconds"]
    current_s = benchreport._TIMINGS["e20.warm_noop.current"]["seconds"]
    edit_legacy_s = benchreport._TIMINGS["e20.single_edit.legacy"]["seconds"]
    edit_current_s = \
        benchreport._TIMINGS["e20.single_edit.current"]["seconds"]
    speedup = legacy_s / current_s if current_s > 0 else float("inf")
    record_counter("e20.speedup.warm_noop_vs_monolithic", round(speedup, 2))
    record_counter("e20.speedup.single_edit_vs_monolithic",
                   round(edit_legacy_s / edit_current_s, 2)
                   if edit_current_s > 0 else 0)

    emit(f"E20: SQLite cache store ({NUM_ENTRIES} entries)", [
        ("warm no-op, monolithic", "reads everything",
         f"{legacy_s * 1000:.1f}ms"),
        ("warm no-op, SQLite", f"{speedup:.1f}x vs monolithic",
         f"{current_s * 1000:.1f}ms "
         f"({probe_store.keys_read} key(s))"),
        ("single edit persist", f"{edit_legacy_s / edit_current_s:.1f}x "
         "vs monolithic",
         f"{edit_current_s * 1000:.1f}ms "
         f"({edit_store.entries_written} entr(ies))"),
        ("two-writer stress", "0 entries lost",
         f"{len(survived)} survived"),
    ])

    if report_only():
        pytest.skip("BENCH_REPORT_ONLY set: timings recorded, gate skipped")
    assert speedup >= WARM_NOOP_SPEEDUP_FLOOR, (
        f"SQLite warm no-op was only {speedup:.1f}x faster than the "
        f"monolithic layout at {NUM_ENTRIES} entries "
        f"(floor: {WARM_NOOP_SPEEDUP_FLOOR}x)")
