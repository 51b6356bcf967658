"""Tests for the one-process batch path.

Every check runs its unit walk in the calling process: there is no worker
pool, no ``--jobs`` flag and no ``REPRO_PARALLEL`` variable.  Covers what
that path guarantees:

* a :class:`Session` owns no process: ``with Session()`` returns the
  session, releases nothing and leaves it usable, every CLI command that
  enters a session exits it, and one session checks batch after batch
  with the results a fresh one gives;
* every unit is checked by the calling process, whatever
  ``REPRO_PARALLEL`` says;
* the CLI refuses ``--jobs`` and the library refuses ``jobs=``;
* a trace is one pid on tid 0, the metrics carry no ``pool.*`` counter,
  and every ``--stats`` row is ``checked`` or ``hit``;
* identical files are each walked without a cache, and with one the
  later copies hit the units the first stored.
"""

import os

import pytest

from repro.__main__ import main
from repro.driver import CheckStats, ResultCache, Session
from repro.driver.batch import payload_bytes, result_to_payload
from repro.driver.session import Pipeline
from repro.fuzz import DifferentialHarness
from repro.telemetry import REGISTRY, TRACER, validate_events

TWO_UNIT_MODULE = """\
helper :: Int# -> Int#
helper x = x +# 1#
main :: Int
main = 1 + 2
"""

PROJECT_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                           "examples", "project")


def make_corpus(count=6):
    """Programs of three dependent bindings (three units) each."""
    corpus = []
    for index in range(count):
        source = (f"a{index} :: Int\na{index} = {index}\n"
                  f"b{index} :: Int\nb{index} = a{index} + 1\n"
                  f"main :: Int\nmain = b{index} + {index}\n")
        corpus.append((f"p{index}.lev", source))
    return corpus


UNITS_PER_PROGRAM = 3


def project_sources():
    from repro.driver.project import discover_sources

    return discover_sources([PROJECT_DIR])


def _payloads(results):
    return [payload_bytes(result_to_payload(result)) for result in results]


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


@pytest.fixture
def unit_checks(monkeypatch):
    """Record the pid of every ``Pipeline.check_unit`` call."""
    calls = []
    original = Pipeline.check_unit

    def recording(self, *args, **kwargs):
        calls.append(os.getpid())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Pipeline, "check_unit", recording)
    return calls


# ---------------------------------------------------------------------------
# The session owns no process
# ---------------------------------------------------------------------------


class TestSessionLifecycle:
    def test_one_session_checks_batch_after_batch(self):
        corpus = make_corpus()
        session = Session()
        first = session.check_many(corpus)
        second = session.check_many(corpus)
        fresh = Session().check_many(corpus)
        assert _payloads(first) == _payloads(second) == _payloads(fresh)
        assert all(result.ok for result in first)

    def test_with_returns_the_session_and_leaves_it_usable(self):
        corpus = make_corpus(3)
        session = Session()
        with session as entered:
            assert entered is session
            inside = session.check_many(corpus)
        # Leaving the block releases nothing: the session checks on.
        after = session.check_many(corpus)
        assert _payloads(inside) == _payloads(after)

    def test_with_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError, match="boom"):
            with Session():
                raise RuntimeError("boom")

    def test_a_failing_file_does_not_spoil_the_next_batch(self):
        corpus = make_corpus(3)
        with Session() as session:
            broken = session.check_many(
                [("lex.lev", "a = 1#\n\nb = 2.5\n")] + corpus)
            assert not broken[0].ok
            assert all(result.ok for result in broken[1:])
            again = session.check_many(corpus)
        assert _payloads(again) == _payloads(broken[1:])
        assert _payloads(again) == _payloads(Session().check_many(corpus))

    @pytest.mark.parametrize("command", ["check", "build", "run", "fuzz"])
    def test_cli_commands_exit_every_session_they_enter(self, command,
                                                        monkeypatch, capsys):
        argv = {
            "check": ["check", os.path.join(PROJECT_DIR, "nat.lev")],
            "build": ["build", PROJECT_DIR],
            "run": ["run", os.path.join(PROJECT_DIR, os.pardir,
                                        "sumto.lev")],
            "fuzz": ["fuzz", "--seed", "3", "--count", "3", "--check"],
        }[command]
        events = []
        enter, leave = Session.__enter__, Session.__exit__

        def counting_enter(self):
            events.append("enter")
            return enter(self)

        def counting_exit(self, *exc_info):
            events.append("exit")
            return leave(self, *exc_info)

        monkeypatch.setattr(Session, "__enter__", counting_enter)
        monkeypatch.setattr(Session, "__exit__", counting_exit)
        assert main(argv) == 0
        capsys.readouterr()
        assert events == ["enter", "exit"]


# ---------------------------------------------------------------------------
# The walk runs where it is called
# ---------------------------------------------------------------------------


class TestInProcessWalk:
    def test_every_unit_is_checked_by_the_calling_process(self, unit_checks):
        corpus = make_corpus()
        stats = CheckStats()
        Session().check_many(corpus, stats=stats)
        assert stats.checked == len(corpus) * UNITS_PER_PROGRAM
        assert len(unit_checks) == stats.checked
        assert set(unit_checks) == {os.getpid()}

    def test_a_project_build_checks_every_unit_in_process(self, unit_checks):
        stats = CheckStats()
        check = Session().check_project(project_sources(), stats=stats)
        assert check.ok and stats.checked > 0
        assert len(unit_checks) == stats.checked
        assert set(unit_checks) == {os.getpid()}

    @pytest.mark.parametrize("value", ["always", "never", "auto", "4"])
    def test_repro_parallel_changes_nothing(self, value, monkeypatch,
                                            unit_checks):
        corpus = make_corpus()
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        baseline = _payloads(Session().check_many(corpus))
        del unit_checks[:]
        monkeypatch.setenv("REPRO_PARALLEL", value)
        stats = CheckStats()
        with Session() as session:
            results = session.check_many(corpus, stats=stats)
        assert _payloads(results) == baseline
        assert len(unit_checks) == stats.checked == \
            len(corpus) * UNITS_PER_PROGRAM
        assert set(unit_checks) == {os.getpid()}

    def test_an_empty_batch_is_empty(self, tmp_path):
        stats = CheckStats()
        assert Session().check_many([], cache=str(tmp_path / "cache"),
                                    stats=stats) == []
        assert (stats.files, stats.units, stats.checked) == (0, 0, 0)

    def test_project_build_with_and_without_a_cache_agree(self, tmp_path):
        sources = project_sources()
        plain = Session().check_project(sources)
        cache = str(tmp_path / "cache")
        cold = Session().check_project(sources, cache=cache)
        stats = CheckStats()
        warm = Session().check_project(sources, cache=ResultCache(cache),
                                       stats=stats)
        assert plain.ok and cold.ok and warm.ok
        assert _payloads(plain.results) == _payloads(cold.results) == \
            _payloads(warm.results)
        assert stats.file_hits == len(sources) and stats.checked == 0


# ---------------------------------------------------------------------------
# No jobs anywhere
# ---------------------------------------------------------------------------


class TestNoJobs:
    @pytest.mark.parametrize("argv", [
        ["check", "--jobs", "2", "a.lev"],
        ["build", "--jobs", "2", "project"],
        ["fuzz", "--jobs", "2", "--check"],
        # The fuzz harness's type-check pass has no cache either.
        ["fuzz", "--cache", "c", "--check"],
    ], ids=["check", "build", "fuzz", "fuzz-cache"])
    def test_cli_refuses_the_jobs_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("call", [
        lambda: Session().check_many([], jobs=2),
        lambda: Session().check_project([], jobs=2),
        lambda: DifferentialHarness().run_corpus([], jobs=2),
    ], ids=["check_many", "check_project", "run_corpus"])
    def test_library_refuses_a_jobs_argument(self, call):
        with pytest.raises(TypeError, match="jobs"):
            call()


# ---------------------------------------------------------------------------
# Telemetry of one process
# ---------------------------------------------------------------------------


def _assert_one_row(events):
    validate_events(events)
    assert {(e["pid"], e["tid"]) for e in events} == {(os.getpid(), 0)}
    names = {e["name"] for e in events}
    assert not names & {"pool.shard", "worker.file"}


class TestOneProcessTelemetry:
    def test_a_traced_batch_is_one_pid_on_tid_zero(self):
        TRACER.enable()
        stats = CheckStats()
        results = Session().check_many(make_corpus(4), stats=stats)
        assert all(result.ok for result in results)
        events = TRACER.drain()
        _assert_one_row(events)
        # Each unit here is one binding: one unit.infer span per check.
        infers = [e for e in events
                  if e["name"] == "unit.infer" and e["ph"] == "B"]
        assert len(infers) == stats.checked

    def test_a_traced_project_build_is_one_pid_on_tid_zero(self):
        TRACER.enable()
        check = Session().check_project(project_sources())
        assert check.ok
        events = TRACER.drain()
        _assert_one_row(events)
        assert any(e["name"] == "project.graph" for e in events)

    def test_batch_metrics_carry_no_pool_counters(self, tmp_path):
        corpus = make_corpus(4)
        stats = CheckStats()
        Session().check_many(corpus, cache=str(tmp_path / "cache"),
                             stats=stats)
        counters = REGISTRY.snapshot()["counters"]
        assert not [name for name, value in counters.items()
                    if name.startswith("pool.") and value]
        assert not counters.get("batch.units_skipped")
        assert counters["batch.files"] == len(corpus)
        assert counters["batch.units_checked"] == stats.checked
        assert counters["cache.unit_misses"] == stats.cache_misses

    def test_stats_rows_are_checked_or_hit(self, tmp_path):
        cache = str(tmp_path / "cache")
        source = TWO_UNIT_MODULE
        Session().check_many([("a.lev", source)], cache=cache)
        stats = CheckStats()
        Session().check_many(
            [("a.lev", source.replace("1 + 2", "2 + 3")), ("b.lev", source)],
            cache=ResultCache(cache), stats=stats)
        rows = [row["source"] for row in stats.as_dict()["timings"]]
        assert set(rows) == {"checked", "hit"}
        assert "skipped" not in stats.pretty()
        assert stats.units == stats.checked + stats.cache_hits

    def test_identical_files_without_a_cache_are_each_walked(self):
        stats = CheckStats()
        results = Session().check_many(
            [("a.lev", TWO_UNIT_MODULE), ("b.lev", TWO_UNIT_MODULE)],
            stats=stats)
        assert [result.filename for result in results] == ["a.lev", "b.lev"]
        assert all(result.ok for result in results)
        assert (stats.units, stats.checked, stats.cache_hits,
                stats.cache_misses) == (4, 4, 0, 0)

    def test_identical_files_with_a_cache_hit_the_first_copy(self, tmp_path):
        stats = CheckStats()
        results = Session().check_many(
            [("a.lev", TWO_UNIT_MODULE), ("b.lev", TWO_UNIT_MODULE)],
            cache=str(tmp_path / "cache"), stats=stats)
        assert (stats.checked, stats.cache_hits, stats.cache_misses) == \
            (2, 2, 2)
        assert [t.source for t in stats.timings] == \
            ["checked", "checked", "hit", "hit"]
        first, second = (result_to_payload(result) for result in results)
        assert second.pop("filename") == "b.lev"
        assert first.pop("filename") == "a.lev"
        assert first == second

    def test_cli_stats_of_identical_files_count_every_check(self, tmp_path,
                                                            capsys):
        files = []
        for name in ("a.lev", "b.lev"):
            path = tmp_path / name
            path.write_text(TWO_UNIT_MODULE)
            files.append(str(path))
        assert main(["check", "--stats", *files]) == 0
        out = capsys.readouterr().out
        assert "units: 4  checked: 4  cache hits: 0" in out
        # Counters other tests created in this process print at 0, so
        # look for skips where they would be reported, not for the word.
        stats = out.split("-- stats --\n", 1)[1].splitlines()
        assert "skipped" not in stats[0]  # the summary line
        assert not [row for row in stats if row.endswith("[skipped]")]
        assert not [row for row in stats
                    if row.strip().startswith("batch.units_skipped")]
