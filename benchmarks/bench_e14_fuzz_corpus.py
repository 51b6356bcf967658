"""E14: fuzz-corpus throughput — generation, batch checking, differential.

The corpus-fuzzing subsystem (``repro.fuzz``, docs/FUZZ.md) turns the
150-program templated corpus of E12 into open-ended random program
synthesis.  This benchmark measures the full loop at the 1000+-program
scale the ISSUE demands:

* ``e14.generate``     — type-directed generation of the corpus (programs
  are built together with their reference semantics);
* ``e14.check_jobs1`` — the corpus through the batch checker
  (``Session.check_many``), in one process (the row keeps its name so
  earlier snapshots still compare);
* ``e14.cache_cold`` / ``e14.cache_warm`` — the corpus through the
  incremental result cache (a warm re-run must be answered entirely from
  the cache);
* ``e14.differential`` — a sample through the *full* differential harness
  (type-check + intended types, round-trip, evaluator, reference values,
  M-machine cross-check).

Correctness is asserted always: every program checks, the differential
sample reports zero failures, and the warm cache serves every hit.  The
loose wall-clock floors are skipped under ``BENCH_REPORT_ONLY``.
"""

import os

import pytest

from benchreport import emit, record_counter, report_only, time_op
from repro.driver import Session
from repro.driver.batch import CheckStats, ResultCache
from repro.fuzz import DifferentialHarness, GenOptions, generate_corpus

CORPUS_SEED = 14
CORPUS_SIZE = 1000
DIFFERENTIAL_SAMPLE = 150

#: Loose local floors (new capability — the floors only catch pathology).
GENERATE_FLOOR_PROGRAMS_PER_SEC = 50.0
CHECK_FLOOR_PROGRAMS_PER_SEC = 20.0
WARM_CACHE_FRACTION = 0.15


def _generate():
    corpus = generate_corpus(CORPUS_SEED, CORPUS_SIZE,
                             GenOptions(max_bindings=3))
    assert len(corpus) == CORPUS_SIZE
    return corpus


def _check(sources, cache=None, stats=None):
    results = Session().check_many(sources, cache=cache, stats=stats)
    bad = [result.filename for result in results if not result.ok]
    assert not bad, f"fuzz corpus programs failed to check: {bad[:3]}"
    return results


def test_report_fuzz_corpus_throughput(tmp_path):
    corpus = time_op("e14.generate", _generate, repeats=2,
                     meta={"programs": CORPUS_SIZE})
    sources = [(program.filename, program.source) for program in corpus]

    time_op("e14.check_jobs1", _check, sources, repeats=1,
            meta={"programs": CORPUS_SIZE, "jobs": 1})

    cache_path = str(tmp_path / "e14-cache.json")
    time_op("e14.cache_cold", lambda: _check(sources, cache=cache_path),
            repeats=1, meta={"programs": CORPUS_SIZE})
    warm_cache = ResultCache(cache_path)
    warm_stats = CheckStats()
    time_op("e14.cache_warm",
            lambda: _check(sources, cache=warm_cache, stats=warm_stats),
            repeats=1, meta={"programs": CORPUS_SIZE})
    # Hierarchical cache (schema v2): unchanged programs are answered
    # whole from their file-level entries.
    assert warm_stats.file_hits == CORPUS_SIZE \
        and warm_stats.cache_misses == 0, \
        "warm run was not answered entirely from the cache"
    # Store-level shape: a warm no-op writes nothing back.
    assert warm_cache.entries_written == 0
    record_counter("e14.store.warm_keys_read", warm_cache.keys_read)
    record_counter("e14.store.warm_entries_written",
                   warm_cache.entries_written)

    sample = corpus[:DIFFERENTIAL_SAMPLE]

    def _differential():
        report = DifferentialHarness().run_corpus(sample)
        assert report.ok, report.pretty(max_failures=3)
        return report

    report = time_op("e14.differential", _differential, repeats=1,
                     meta={"programs": DIFFERENTIAL_SAMPLE})

    import benchreport
    timings = {key: benchreport._TIMINGS[f"e14.{key}"]["seconds"]
               for key in ("generate", "check_jobs1", "cache_cold",
                           "cache_warm", "differential")}
    generate_rate = CORPUS_SIZE / timings["generate"]
    check_rate = CORPUS_SIZE / timings["check_jobs1"]
    warm_fraction = timings["cache_warm"] / timings["cache_cold"]
    differential_rate = DIFFERENTIAL_SAMPLE / timings["differential"]
    record_counter("e14.corpus.programs", CORPUS_SIZE)
    record_counter("e14.corpus.bytes",
                   sum(len(program.source) for program in corpus))
    record_counter("e14.corpus.fragment_programs",
                   sum(1 for program in corpus if program.fragment))
    record_counter("e14.generate.programs_per_sec", round(generate_rate, 1))
    record_counter("e14.check_jobs1.programs_per_sec", round(check_rate, 1))
    record_counter("e14.cache.warm_fraction_of_cold", round(warm_fraction, 4))
    record_counter("e14.differential.programs_per_sec",
                   round(differential_rate, 1))
    record_counter("e14.differential.machine_engaged",
                   report.counters.get("machine_engaged", 0))
    record_counter("e14.differential.reference_checked",
                   report.counters.get("reference_checked", 0))
    record_counter("e14.cpu_count", os.cpu_count() or 1)

    emit("E14: fuzz corpus at scale (generate -> check -> "
         "differential)", [
             (f"generate ({CORPUS_SIZE} programs)",
              "new capability (templated corpus in E12)",
              f"{timings['generate'] * 1000:.0f}ms "
              f"({generate_rate:.0f} programs/s)"),
             ("check", "batch checker",
              f"{timings['check_jobs1'] * 1000:.0f}ms "
              f"({check_rate:.0f} programs/s)"),
             ("cache cold -> warm", f"warm {warm_fraction:.1%} of cold",
              f"{timings['cache_cold'] * 1000:.0f}ms -> "
              f"{timings['cache_warm'] * 1000:.0f}ms"),
             (f"differential sample ({DIFFERENTIAL_SAMPLE})",
              "evaluator vs reference vs M machine",
              f"{timings['differential'] * 1000:.0f}ms "
              f"({differential_rate:.0f} programs/s)"),
         ])

    if report_only():
        pytest.skip("BENCH_REPORT_ONLY set: timings recorded, gate skipped")
    assert generate_rate >= GENERATE_FLOOR_PROGRAMS_PER_SEC, (
        f"corpus generation {generate_rate:.1f} programs/s fell below "
        f"{GENERATE_FLOOR_PROGRAMS_PER_SEC}")
    assert check_rate >= CHECK_FLOOR_PROGRAMS_PER_SEC, (
        f"corpus checking {check_rate:.1f} programs/s fell below "
        f"{CHECK_FLOOR_PROGRAMS_PER_SEC}")
    assert warm_fraction < WARM_CACHE_FRACTION, (
        f"warm-cache fuzz re-run took {warm_fraction:.1%} of the cold run")
