"""Lifecycle tests for the session-owned persistent worker pool (ISSUE 6).

``Session`` owns at most one lazily-spawned ``ProcessPoolExecutor`` and
reuses it across ``check_many`` calls; ``pool_stats`` makes every
decision observable.  The scheduling policy (``REPRO_PARALLEL`` ∈
auto/always/never plus the serial cutoff) decides per batch whether the
pool is used at all, and a pool that cannot spawn or breaks mid-batch
degrades to in-process checking without losing results.
"""

import gc
import os

import pytest

from repro.driver import CheckStats, DriverOptions, Session
from repro.driver.batch import (
    _MIN_UNITS_PER_WORKER,
    PARALLEL_MODE_ENV,
    _effective_jobs,
    payload_bytes,
    result_to_payload,
)


def make_corpus(count=10):
    """Small but unit-rich programs (3 dependent bindings per file)."""
    corpus = []
    for index in range(count):
        source = (f"a{index} :: Int\na{index} = {index}\n"
                  f"b{index} :: Int\nb{index} = a{index} + 1\n"
                  f"main :: Int\nmain = b{index} + {index}\n")
        corpus.append((f"p{index}.lev", source))
    return corpus


def _payloads(results):
    return [payload_bytes(result_to_payload(result)) for result in results]


class TestPoolLifecycle:
    def test_pool_reused_across_batches(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_MODE_ENV, "always")
        corpus = make_corpus()
        serial = Session().check_many(corpus)

        with Session() as session:
            first = session.check_many(corpus, jobs=2)
            second = session.check_many(corpus, jobs=2)
            assert session.pool_stats["pools_created"] == 1
            assert session.pool_stats["pools_reused"] == 1
            assert session.pool_stats["parallel_batches"] == 2
            assert _payloads(first) == _payloads(second) == _payloads(serial)
            assert session._pool is not None
        assert session._pool is None  # __exit__ closed it

    def test_close_is_idempotent_and_session_survives(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_MODE_ENV, "always")
        corpus = make_corpus(6)
        session = Session()
        session.check_many(corpus, jobs=2)
        session.close()
        session.close()
        assert session._pool is None
        # The session is still usable; the next batch respawns the pool.
        results = session.check_many(corpus, jobs=2)
        assert all(result.ok for result in results)
        assert session.pool_stats["pools_created"] == 2
        session.close()

    def test_gc_shuts_down_the_pool(self):
        session = Session()
        executor = session.acquire_pool(2)
        del session
        gc.collect()
        with pytest.raises(RuntimeError):
            executor.submit(len, ())

    def test_pool_replaced_when_grown_or_options_change(self):
        session = Session()
        pool = session.acquire_pool(2)
        assert session.acquire_pool(2) is pool  # same size, same options
        assert session.acquire_pool(1) is pool  # smaller fits too
        grown = session.acquire_pool(4)
        assert grown is not pool
        other = session.acquire_pool(4, DriverOptions(compiled=True))
        assert other is not grown
        assert session.pool_stats["pools_created"] == 3
        assert session.pool_stats["pools_reused"] == 2
        session.close()

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_MODE_ENV, "always")
        corpus = make_corpus(6)
        serial = Session().check_many(corpus)
        session = Session()

        def refuse(jobs, options=None):
            raise OSError("no process spawning here")

        monkeypatch.setattr(session, "acquire_pool", refuse)
        results = session.check_many(corpus, jobs=2)
        assert _payloads(results) == _payloads(serial)
        assert session.pool_stats["serial_batches"] == 1
        assert session.pool_stats["parallel_batches"] == 0
        assert session._pool is None

    def test_worker_dying_mid_batch_finishes_in_process(self, monkeypatch,
                                                        tmp_path):
        monkeypatch.setenv(PARALLEL_MODE_ENV, "always")
        corpus = make_corpus(6)
        serial_stats = CheckStats()
        serial = Session().check_many(corpus, cache=str(tmp_path / "one"),
                                      stats=serial_stats)
        session = Session()
        acquire = session.acquire_pool

        def dying_pool(jobs, options=None):
            pool = acquire(jobs, options)

            class Dying:
                @staticmethod
                def submit(fn, *args):
                    # The worker that takes the shard exits under it, so
                    # its future raises BrokenProcessPool.
                    return pool.submit(os._exit, 1)

            return Dying()

        monkeypatch.setattr(session, "acquire_pool", dying_pool)
        stats = CheckStats()
        results = session.check_many(corpus, jobs=2,
                                     cache=str(tmp_path / "two"), stats=stats)
        assert _payloads(results) == _payloads(serial)
        assert stats.checked == serial_stats.checked == 18
        assert session.pool_stats["serial_batches"] == 1
        assert session.pool_stats["parallel_batches"] == 0
        assert session._pool is None  # the broken pool was discarded

    def test_never_mode_stays_in_process(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_MODE_ENV, "never")
        session = Session()
        results = session.check_many(make_corpus(6), jobs=4)
        assert all(result.ok for result in results)
        assert session.pool_stats["serial_batches"] == 1
        assert session._pool is None


class TestSchedulingPolicy:
    """`_effective_jobs` is the whole policy; drive it directly."""

    def _cpus(self, monkeypatch, count):
        import repro.driver.batch as batch
        monkeypatch.setattr(batch.os, "cpu_count", lambda: count)

    def test_jobs_one_is_always_serial(self, monkeypatch):
        self._cpus(monkeypatch, 8)
        assert _effective_jobs(1, 1000, 100) == 1

    def test_auto_serial_on_one_cpu(self, monkeypatch):
        self._cpus(monkeypatch, 1)
        assert _effective_jobs(8, 1000, 100) == 1

    def test_auto_serial_for_single_file(self, monkeypatch):
        self._cpus(monkeypatch, 8)
        assert _effective_jobs(8, 1000, 1) == 1

    def test_auto_caps_at_cpu_count(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        assert _effective_jobs(8, 1000, 100) == 2

    def test_auto_full_fanout_on_big_batches(self, monkeypatch):
        self._cpus(monkeypatch, 8)
        pending = 4 * _MIN_UNITS_PER_WORKER
        assert _effective_jobs(4, pending, 40) == 4

    def test_auto_sheds_workers_on_small_batches(self, monkeypatch):
        self._cpus(monkeypatch, 8)
        assert _effective_jobs(4, 2 * _MIN_UNITS_PER_WORKER, 40) == 2
        assert _effective_jobs(4, 1, 40) == 1

    def test_always_bypasses_the_cutoff(self, monkeypatch):
        self._cpus(monkeypatch, 1)
        monkeypatch.setenv(PARALLEL_MODE_ENV, "always")
        assert _effective_jobs(8, 1, 1) == 8

    def test_never_bypasses_everything(self, monkeypatch):
        self._cpus(monkeypatch, 8)
        monkeypatch.setenv(PARALLEL_MODE_ENV, "never")
        assert _effective_jobs(8, 1000, 100) == 1
