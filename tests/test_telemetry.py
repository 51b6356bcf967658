"""Tests for the repro.telemetry layer (ISSUE-7).

Covers the subsystem's load-bearing guarantees:

* trace export is well-formed Chrome trace-event JSON — every ``B`` has a
  matching ``E`` and sibling spans never overlap on a (pid, tid) row;
* a disabled tracer is allocation-free on the hot path (gc-count pin);
* the metrics registry resets **in place** (held ``Counter`` references
  survive), which is what stops benchmark E-sections sharing one process
  from leaking counters into each other;
* ``CheckStats`` rows carry an explicit ``source`` (``hit`` /
  ``checked``) and cache hits no longer masquerade as 0.0-second units.
"""

import gc
import json
import os
import sys

import pytest

from repro.__main__ import main
from repro.driver import DriverOptions, Session
from repro.driver.batch import CheckStats, ResultCache
from repro.telemetry import (
    REGISTRY,
    TRACER,
    MetricsRegistry,
    Tracer,
    validate_events,
    validate_trace_document,
)
from repro.telemetry.trace import _NOOP_SPAN

TWO_UNIT_MODULE = """\
helper :: Int# -> Int#
helper x = x +# 1#
main :: Int
main = 1 + 2
"""

SECOND_MODULE = """\
double :: Int# -> Int#
double x = x +# x
main :: Int
main = 40 + 2
"""


@pytest.fixture(autouse=True)
def _clean_global_telemetry():
    """Tests drive the process-global singletons; leave them pristine."""
    TRACER.disable()
    TRACER.drain()
    REGISTRY.enabled = False
    REGISTRY.reset()
    yield
    TRACER.disable()
    TRACER.drain()
    REGISTRY.enabled = False
    REGISTRY.reset()


# ---------------------------------------------------------------------------
# Span well-formedness
# ---------------------------------------------------------------------------


class TestTraceExport:
    def test_traced_check_emits_wellformed_nested_spans(self):
        TRACER.enable()
        session = Session()
        result = session.check(TWO_UNIT_MODULE, "t.lev")
        assert result.ok
        events = TRACER.drain()
        validate_events(events)  # raises on any B/E violation
        begins = [e["name"] for e in events if e["ph"] == "B"]
        for expected in ("parse", "depgraph", "unit.infer", "unit.unify"):
            assert expected in begins, f"missing {expected} span"
        # unit.unify nests inside unit.infer: between a unit.infer B and
        # its E there is a unify B (stack discipline already proved no
        # sibling overlap; this pins the parent/child relationship).
        names = [(e["ph"], e["name"]) for e in events
                 if e["name"] in ("unit.infer", "unit.unify")]
        infer_open = False
        saw_nested = False
        for ph, name in names:
            if name == "unit.infer":
                infer_open = ph == "B"
            elif ph == "B" and infer_open:
                saw_nested = True
        assert saw_nested

    def test_every_begin_has_an_end_even_on_type_errors(self):
        TRACER.enable()
        session = Session()
        result = session.check("bad :: Int#\nbad = 1 +# True\n", "bad.lev")
        assert not result.ok
        validate_events(TRACER.drain())

    def test_export_document_shape(self, tmp_path):
        TRACER.enable()
        Session().check(TWO_UNIT_MODULE, "t.lev")
        path = str(tmp_path / "trace.json")
        TRACER.write(path)
        with open(path) as handle:
            doc = json.load(handle)
        events = validate_trace_document(doc)
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "M" and e["name"] == "process_name"
                   for e in events)

    def test_validate_events_rejects_overlapping_siblings(self):
        events = [
            {"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 0},
            {"name": "b", "ph": "B", "ts": 1.0, "pid": 1, "tid": 0},
            {"name": "a", "ph": "E", "ts": 2.0, "pid": 1, "tid": 0},
            {"name": "b", "ph": "E", "ts": 3.0, "pid": 1, "tid": 0},
        ]
        with pytest.raises(ValueError, match="overlap"):
            validate_events(events)

    def test_validate_events_rejects_unclosed_span(self):
        events = [{"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 0}]
        with pytest.raises(ValueError, match="unclosed"):
            validate_events(events)


# ---------------------------------------------------------------------------
# Trace export through the CLI
# ---------------------------------------------------------------------------


class TestCliTrace:
    def test_cli_trace_flag_writes_valid_document(self, tmp_path, capsys):
        source = tmp_path / "t.lev"
        source.write_text(TWO_UNIT_MODULE)
        out = tmp_path / "trace.json"
        assert main(["check", str(source), "--trace", str(out)]) == 0
        capsys.readouterr()
        with open(out) as handle:
            doc = json.load(handle)
        events = validate_trace_document(doc)
        assert any(e["name"] == "unit.infer" for e in events)
        # The walk runs in this process: one pid, one row.
        assert {(e["pid"], e["tid"]) for e in events} == {(os.getpid(), 0)}


# ---------------------------------------------------------------------------
# Disabled-path cost
# ---------------------------------------------------------------------------


class TestDisabledCost:
    def test_disabled_span_is_the_noop_singleton(self):
        tracer = Tracer()
        assert tracer.span("anything") is _NOOP_SPAN
        with tracer.span("anything"):
            pass
        assert tracer.drain() == []

    def test_disabled_tracer_allocates_nothing(self):
        tracer = Tracer()
        spins = [None] * 1000

        def spin():
            for _ in spins:
                tracer.span("hot")
                tracer.begin("hot")
                tracer.end("hot")

        spin()  # warm every code path (method caches, freelists)
        gc.collect()
        before = sys.getallocatedblocks()
        spin()
        after = sys.getallocatedblocks()
        # The sampling itself costs a couple of blocks (the result ints);
        # an allocating implementation would leak thousands over 3000
        # calls.  The enabled contrast below proves the probe can see it.
        assert after - before <= 8, \
            f"disabled tracer calls leaked {after - before} blocks"
        tracer.enable()
        gc.collect()
        before = sys.getallocatedblocks()
        spin()
        after = sys.getallocatedblocks()
        assert after - before > 1000, \
            "probe failed to observe the enabled tracer's allocations"

    def test_disabled_registry_hot_counters_stay_zero(self):
        from repro.runtime.evaluator import Evaluator
        from repro.runtime.programs import (
            SUM_TO_UNBOXED_SOURCE,
            checked_program,
        )
        from repro.runtime.values import UnboxedInt

        evaluator = Evaluator(checked_program(SUM_TO_UNBOXED_SOURCE),
                              compiled=True)
        evaluator.run("sumTo#", UnboxedInt(0), UnboxedInt(50))
        counters = REGISTRY.snapshot()["counters"]
        assert counters.get("runtime.compiled_calls", 0) == 0
        assert counters.get("runtime.trampoline_bounces", 0) == 0
        # The fold-point counters publish regardless of the enabled flag.
        assert counters.get("codegen.compiled", 0) > 0

    def test_enabled_registry_meters_the_trampoline(self):
        from repro.runtime.evaluator import Evaluator
        from repro.runtime.programs import (
            SUM_TO_UNBOXED_SOURCE,
            checked_program,
        )
        from repro.runtime.values import UnboxedInt

        program = checked_program(SUM_TO_UNBOXED_SOURCE)
        REGISTRY.enable()
        evaluator = Evaluator(program, compiled=True)
        evaluator.run("sumTo#", UnboxedInt(0), UnboxedInt(50))
        counters = REGISTRY.snapshot()["counters"]
        assert counters["runtime.compiled_calls"] > 0
        assert counters["runtime.trampoline_bounces"] >= 50


# ---------------------------------------------------------------------------
# Registry reset semantics (the benchmark section-leak bugfix)
# ---------------------------------------------------------------------------


class TestRegistryReset:
    def test_reset_zeroes_in_place_preserving_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc(5)
        registry.reset()
        assert registry.counter("x") is counter and counter.value == 0
        counter.inc(2)  # a held reference keeps counting after reset
        assert registry.snapshot()["counters"]["x"] == 2

    @staticmethod
    def _benchreport():
        bench_dir = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "benchmarks")
        sys.path.insert(0, bench_dir)
        try:
            import benchreport
        finally:
            sys.path.remove(bench_dir)
        return benchreport

    def test_sections_do_not_leak_through_drain(self):
        benchreport = self._benchreport()
        # Section 1: a check batch populates solver/batch counters.
        Session().check_many([("a.lev", TWO_UNIT_MODULE)], stats=CheckStats())
        first = benchreport.drain_registry()
        assert first["counters"]["batch.units_checked"] == 2
        # Section 2 starts from zero — nothing carried over.
        Session().check_many([("b.lev", SECOND_MODULE)], stats=CheckStats())
        second = benchreport.drain_registry()
        assert second["counters"]["batch.units_checked"] == 2
        assert second["counters"]["batch.files"] == 1

    def test_the_baseline_compares_only_the_same_workload(self):
        """Two timings are compared only when their ``meta`` agree on
        every key but ``repeats``; the other shared keys are listed."""
        benchreport = self._benchreport()
        timings = {"same": {"seconds": 1.0, "meta": {"repeats": 3, "n": 9}},
                   "other": {"seconds": 1.0, "meta": {"repeats": 3, "n": 9}},
                   "bare": {"seconds": 1.0},
                   "new": {"seconds": 1.0}}
        baseline = {"timings": {
            "same": {"seconds": 2.0, "meta": {"repeats": 5, "n": 9}},
            "other": {"seconds": 2.0, "meta": {"repeats": 3, "n": 90}},
            "bare": {"seconds": 3.0}}}
        speedups, mismatch = benchreport._baseline_speedups(timings,
                                                            baseline)
        assert {key: row["speedup"] for key, row in speedups.items()} == \
            {"same": 2.0, "bare": 3.0}
        assert mismatch == ["other"]

    def test_merge_counts_prefixes(self):
        registry = MetricsRegistry()
        registry.merge_counts({"finds": 3, "unions": 1}, "solver.")
        counters = registry.snapshot()["counters"]
        assert counters == {"solver.finds": 3, "solver.unions": 1}


# ---------------------------------------------------------------------------
# CheckStats source field
# ---------------------------------------------------------------------------


class TestCheckStatsSource:
    def test_hits_record_none_seconds_with_hit_source(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache.json"))
        cold = CheckStats()
        Session(DriverOptions()).check_many([("a.lev", TWO_UNIT_MODULE)],
                                            cache=cache, stats=cold)
        assert cold.checked == 2 and cold.cache_hits == 0
        assert all(t.source == "checked" and t.seconds is not None
                   for t in cold.timings)
        warm_cache = ResultCache(str(tmp_path / "cache.json"))
        warm = CheckStats()
        Session(DriverOptions()).check_many([("a.lev", TWO_UNIT_MODULE)],
                                            cache=warm_cache, stats=warm)
        # The whole file short-circuits on the file-level entry.
        assert warm.file_hits == 1 and warm.units == 0

    def test_unit_hits_are_untimed_not_zero_seconds(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache.json"))
        Session(DriverOptions()).check_many([("a.lev", TWO_UNIT_MODULE)],
                                            cache=cache, stats=CheckStats())
        edited = TWO_UNIT_MODULE.replace("1 + 2", "2 + 3")
        stats = CheckStats()
        Session(DriverOptions()).check_many([("a.lev", edited)],
                                            cache=cache, stats=stats)
        hits = [t for t in stats.timings if t.source == "hit"]
        checked = [t for t in stats.timings if t.source == "checked"]
        assert hits and checked
        assert all(t.seconds is None for t in hits)
        rendered = stats.pretty()
        assert "untimed units" in rendered and "hit: 1" in rendered

    def test_timing_rows_carry_their_source(self):
        stats = CheckStats()

        class FakeUnit:
            names = ("x",)

        stats.note("a.lev", FakeUnit(), 0.25, "checked")
        assert stats.timings[0].source == "checked"
