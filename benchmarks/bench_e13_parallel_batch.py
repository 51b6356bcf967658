"""E13: sharded parallel batch checking + incremental cache throughput.

The scaling story on top of E12: the same generated corpus is pushed
through :meth:`repro.driver.Session.check_many` with

* ``e13.jobs1`` / ``e13.jobs2`` / ``e13.jobs4`` — the corpus checked at 1,
  2 and 4 requested workers through **one shared session** (the worker
  pool is owned by the session and reused across calls; the serial-cutoff
  heuristics may keep small batches or 1-CPU hosts in-process — that is
  the point: ``--jobs`` must never be a pessimisation);
* ``e13.cache_cold`` / ``e13.cache_warm`` — the incremental cache
  (``cache=PATH``, keyed by SHA-256 of each source text): a cold run that
  checks and stores everything, then a warm re-run over the unchanged
  corpus that must be answered entirely from the cache.

``programs_per_sec`` counters, the jobs-N speedup ratios, and the
session's ``pool_stats`` land in ``BENCH_perf.json`` under ``e13.*``.
Correctness (ordering, ok-ness, cache hit counts, byte-identical warm
results, pool reuse under ``REPRO_PARALLEL=always``) is asserted always.

Wall-clock gates are two-sided now that the pool persists: ``--jobs 2``
must be **no slower than 0.9x serial on any machine** (on a 1-CPU
container the cutoff keeps it literally serial), and must deliver real
speedup (>= 1.5x) where the hardware has >= 4 CPUs.  Everything is
skipped under ``BENCH_REPORT_ONLY`` like every other wall-clock gate.
"""

import os
import tempfile

import pytest

from benchreport import emit, record_counter, report_only, time_op
from bench_e12_frontend_pipeline import make_corpus
from repro.driver import Session
from repro.driver.batch import (
    PARALLEL_MODE_ENV,
    CheckStats,
    ResultCache,
    payload_bytes,
    result_to_payload,
)

CORPUS_SIZE = 150

#: Two-sided --jobs 2 gates: never a pessimisation anywhere, a real
#: speedup where the hardware can deliver one.
JOBS2_NO_SLOWER_FLOOR = 0.9
JOBS2_SPEEDUP_FLOOR = 1.5
JOBS4_SPEEDUP_FLOOR = 2.0
MIN_CPUS_FOR_SPEEDUP_GATE = 4

#: A warm-cache re-run must cost less than this fraction of the cold run.
WARM_CACHE_FRACTION = 0.10


def _check_jobs(session, corpus, jobs):
    results = session.check_many(corpus, jobs=jobs)
    assert [result.filename for result in results] == \
        [filename for filename, _ in corpus], "input order lost"
    bad = [result.filename for result in results if not result.ok]
    assert not bad, f"corpus programs failed to check: {bad[:3]}"
    return results


def test_report_parallel_batch_throughput(tmp_path):
    corpus = make_corpus(CORPUS_SIZE)

    session = Session()
    timings = {}
    for jobs in (1, 2, 4):
        results = time_op(f"e13.jobs{jobs}", _check_jobs, session, corpus,
                          jobs, repeats=2, meta={"programs": CORPUS_SIZE,
                                                 "jobs": jobs})
        assert all(len(result.bindings) == 6 for result in results)

    import benchreport
    for jobs in (1, 2, 4):
        seconds = benchreport._TIMINGS[f"e13.jobs{jobs}"]["seconds"]
        timings[jobs] = seconds
        record_counter(f"e13.jobs{jobs}.programs_per_sec",
                       round(CORPUS_SIZE / seconds, 1))
    speedup2 = timings[1] / timings[2]
    speedup4 = timings[1] / timings[4]
    record_counter("e13.speedup.jobs2_vs_jobs1", round(speedup2, 2))
    record_counter("e13.speedup.jobs4_vs_jobs1", round(speedup4, 2))
    record_counter("e13.cpu_count", os.cpu_count() or 1)
    for key, value in session.pool_stats.items():
        record_counter(f"e13.pool.{key}", value)
    session.close()

    # -- pool reuse, proven by counters (forced past the serial cutoff) -----
    previous = os.environ.get(PARALLEL_MODE_ENV)
    os.environ[PARALLEL_MODE_ENV] = "always"
    try:
        forced = Session()
        serial_results = Session().check_many(corpus)
        first = _check_jobs(forced, corpus, 2)
        second = _check_jobs(forced, corpus[: CORPUS_SIZE // 2], 2)
        assert forced.pool_stats["pools_created"] == 1, forced.pool_stats
        assert forced.pool_stats["pools_reused"] >= 1, forced.pool_stats
        assert forced.pool_stats["parallel_batches"] == 2, forced.pool_stats
        assert [payload_bytes(result_to_payload(r)) for r in first] == \
            [payload_bytes(result_to_payload(r)) for r in serial_results], \
            "pooled results must be byte-identical to serial results"
        assert len(second) == CORPUS_SIZE // 2
        forced.close()
        assert forced._pool is None
    finally:
        if previous is None:
            del os.environ[PARALLEL_MODE_ENV]
        else:
            os.environ[PARALLEL_MODE_ENV] = previous

    # -- incremental cache: cold run, then a warm re-run ---------------------
    cache_path = str(tmp_path / "e13-cache.json")
    cold = time_op("e13.cache_cold",
                   lambda: Session().check_many(corpus, cache=cache_path),
                   repeats=1, meta={"programs": CORPUS_SIZE})
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
    # Store-level shape of the warm run (schema v4): answered from the
    # file-entry shards alone, and a no-op save writes nothing back.
    assert warm_cache.shards_written == 0
    record_counter("e13.store.warm_shards_read", warm_cache.shards_read)
    record_counter("e13.store.warm_shards_written",
                   warm_cache.shards_written)

    cold_seconds = benchreport._TIMINGS["e13.cache_cold"]["seconds"]
    warm_seconds = benchreport._TIMINGS["e13.cache_warm"]["seconds"]
    warm_fraction = warm_seconds / cold_seconds
    record_counter("e13.cache.warm_fraction_of_cold", round(warm_fraction, 4))

    rows = [
        (f"jobs=1 ({CORPUS_SIZE} programs)", "baseline",
         f"{timings[1] * 1000:.1f}ms "
         f"({CORPUS_SIZE / timings[1]:.0f} programs/s)"),
        ("jobs=2", f"{speedup2:.2f}x vs jobs=1",
         f"{timings[2] * 1000:.1f}ms"),
        ("jobs=4", f"{speedup4:.2f}x vs jobs=1",
         f"{timings[4] * 1000:.1f}ms"),
        ("cache cold", "checks + stores all",
         f"{cold_seconds * 1000:.1f}ms"),
        ("cache warm", f"{warm_fraction:.1%} of cold",
         f"{warm_seconds * 1000:.1f}ms"),
    ]
    emit("E13: sharded parallel batch checking + incremental cache", rows)

    if report_only():
        pytest.skip("BENCH_REPORT_ONLY set: timings recorded, gate skipped")
    assert warm_fraction < WARM_CACHE_FRACTION, (
        f"warm-cache re-run took {warm_fraction:.1%} of the cold run "
        f"(floor: {WARM_CACHE_FRACTION:.0%})")
    assert speedup2 >= JOBS2_NO_SLOWER_FLOOR, (
        f"--jobs 2 ran at {speedup2:.2f}x of serial; the serial cutoff "
        f"must keep it above {JOBS2_NO_SLOWER_FLOOR}x on any machine")
    cpus = os.cpu_count() or 1
    if cpus >= MIN_CPUS_FOR_SPEEDUP_GATE:
        assert speedup2 >= JOBS2_SPEEDUP_FLOOR, (
            f"--jobs 2 speedup {speedup2:.2f}x fell below "
            f"{JOBS2_SPEEDUP_FLOOR}x on a {cpus}-CPU machine")
        assert speedup4 >= JOBS4_SPEEDUP_FLOOR, (
            f"--jobs 4 speedup {speedup4:.2f}x fell below "
            f"{JOBS4_SPEEDUP_FLOOR}x on a {cpus}-CPU machine")


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
