"""E13: batch checking through the incremental cache.

The scaling story on top of E12: the same generated corpus is pushed
through :meth:`repro.driver.Session.check_many` with

* ``e13.cache_cold`` / ``e13.cache_warm`` — the incremental cache
  (``cache=PATH``, keyed by SHA-256 of each source text): a cold run that
  checks and stores everything, then a warm re-run over the unchanged
  corpus that must be answered entirely from the cache.

The warm-to-cold fraction and the store's key and entry counts land in
``BENCH_perf.json`` under ``e13.*``.  Correctness (ordering, ok-ness,
cache hit counts, byte-identical warm results) is asserted always; the
warm-cache wall-clock gate is skipped under ``BENCH_REPORT_ONLY`` like
every other wall-clock gate.
"""

import os
import tempfile

import pytest

from benchreport import emit, record_counter, report_only, time_op
from bench_e12_frontend_pipeline import make_corpus
from repro.driver import Session
from repro.driver.batch import (
    CheckStats,
    ResultCache,
    payload_bytes,
    result_to_payload,
)

CORPUS_SIZE = 150

#: A warm-cache re-run must cost less than this fraction of the cold run.
WARM_CACHE_FRACTION = 0.10


def test_report_parallel_batch_throughput(tmp_path):
    corpus = make_corpus(CORPUS_SIZE)
    record_counter("e13.cpu_count", os.cpu_count() or 1)

    # -- incremental cache: cold run, then a warm re-run ---------------------
    cache_path = str(tmp_path / "e13-cache.json")
    cold = time_op("e13.cache_cold",
                   lambda: Session().check_many(corpus, cache=cache_path),
                   repeats=1, meta={"programs": CORPUS_SIZE})
    assert [result.filename for result in cold] == \
        [filename for filename, _ in corpus], "input order lost"
    bad = [result.filename for result in cold if not result.ok]
    assert not bad, f"corpus programs failed to check: {bad[:3]}"
    assert all(len(result.bindings) == 6 for result in cold)
    warm_cache = ResultCache(cache_path)
    warm_stats = CheckStats()
    warm = time_op("e13.cache_warm",
                   lambda: Session().check_many(corpus, cache=warm_cache,
                                                stats=warm_stats),
                   repeats=1, meta={"programs": CORPUS_SIZE})
    # The cache is hierarchical since schema v2: an unchanged file is
    # answered whole from its file-level entry (never re-parsed), so a
    # fully warm run hits once per file and never touches the unit layer.
    assert warm_stats.file_hits == CORPUS_SIZE \
        and warm_stats.cache_misses == 0, \
        "warm run was not answered entirely from the cache"
    assert [payload_bytes(result_to_payload(r)) for r in cold] == \
        [payload_bytes(result_to_payload(r)) for r in warm], \
        "cache hits must be byte-identical to the results they cached"
    # Store-level shape of the warm run: answered from the file entries
    # alone, and a no-op save writes nothing back.
    assert warm_cache.entries_written == 0
    record_counter("e13.store.warm_keys_read", warm_cache.keys_read)
    record_counter("e13.store.warm_entries_written",
                   warm_cache.entries_written)

    import benchreport
    cold_seconds = benchreport._TIMINGS["e13.cache_cold"]["seconds"]
    warm_seconds = benchreport._TIMINGS["e13.cache_warm"]["seconds"]
    warm_fraction = warm_seconds / cold_seconds
    record_counter("e13.cache.warm_fraction_of_cold", round(warm_fraction, 4))

    rows = [
        ("cache cold", "checks + stores all",
         f"{cold_seconds * 1000:.1f}ms"),
        ("cache warm", f"{warm_fraction:.1%} of cold",
         f"{warm_seconds * 1000:.1f}ms"),
    ]
    emit("E13: batch checking + incremental cache", rows)

    if report_only():
        pytest.skip("BENCH_REPORT_ONLY set: timings recorded, gate skipped")
    assert warm_fraction < WARM_CACHE_FRACTION, (
        f"warm-cache re-run took {warm_fraction:.1%} of the cold run "
        f"(floor: {WARM_CACHE_FRACTION:.0%})")


def test_cache_invalidation_is_per_binding():
    """Adding one binding to one program re-checks exactly that binding:
    the edited file drops to the unit layer where its pre-existing units
    all hit, and every other file short-circuits on its file entry."""
    corpus = make_corpus(8)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "cache.json")
        cold = Session().check_many(corpus, cache=path)
        edited = list(corpus)
        filename, source = edited[5]
        edited[5] = (filename, source + "\nextra :: Int\nextra = 1 + 1\n")
        stats = CheckStats()
        results = Session().check_many(edited, cache=ResultCache(path),
                                       stats=stats)
        assert stats.file_hits == len(corpus) - 1
        assert stats.cache_hits == len(cold[5].bindings) \
            and stats.cache_misses == 1
        assert any(b.name == "extra" for b in results[5].bindings)
