"""Tests for the cache store (``repro.driver.store``).

Covers the properties the v5 database promises:

* key→namespace assignment is total and stable;
* entries round-trip through the database (hypothesis);
* no-op saves write nothing, a single store writes one entry, and a warm
  no-op check reads only the keys it probes;
* two *processes* racing on one cache directory lose no entries;
* a cache path that is, or lies under, a regular file is refused and
  the file left byte-identical, by the store and by every command that
  takes ``--cache``; so is a database that is not one, is truncated, or
  is locked past the busy timeout, and a v4 shard tree is left alone;
* a save SQLite refuses to write (a full disk, a read-only database)
  leaves the database byte-identical;
* a check without a cache imports neither ``sqlite3`` nor the lowering;
* ``canonical_scheme`` memoisation renders each scheme object once;
* the ``python -m repro cache`` maintenance actions.
"""

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.driver import DriverOptions, ResultCache, Session
from repro.driver.batch import CheckStats, canonical_scheme
import repro.driver.store as store_module
from repro.driver.store import CACHE_SCHEMA, CacheStore, StoreError, table_of
from repro.telemetry import REGISTRY


MODULE = """\
base :: Int# -> Int#
base x = x +# 1#

mid = base 1#

top = mid +# 2#
"""


def entry_keys(root):
    return set(CacheStore(root).load_all())


def database(root):
    return os.path.join(root, store_module.DATABASE_NAME)


def hand_edit(root, sql, *parameters):
    """Run one statement on a cache's database, as a hand edit would."""
    db = sqlite3.connect(database(root))
    try:
        with db:
            db.execute(sql, parameters)
    finally:
        db.close()


def seeded(tmp_path):
    """A cache directory holding one checked module's entries."""
    root = str(tmp_path / "c")
    Session().check_many([("m.lev", MODULE)], cache=root)
    return root


def backdate(root, key, days=100):
    """Age one entry's GC stamp by ``days``, as time passing would."""
    hand_edit(root, "UPDATE entry SET stamp = ? WHERE key = ?",
              time.time() - days * 24 * 3600, key)


class TestKeyAssignment:
    def test_tables_by_prefix(self):
        hex64 = "ab" * 32
        assert table_of(hex64) == "unit"
        assert table_of(f"pfile:{hex64}") == "pfile"
        assert table_of(f"outline:{hex64}") == "outline"
        assert table_of(f"module:{hex64}") == "module"
        assert table_of(f"exports:{hex64}") == "exports"
        assert table_of(f"exports:pfile:{hex64}") == "exports"
        assert table_of(f"codegen1:{hex64}") == "codegen"
        assert table_of(f"codegen12:{hex64}") == "codegen"
        assert table_of(f"codegenx:{hex64}") == "unit"
        assert table_of(f"future:{hex64}") == "unit"

    @given(st.text(min_size=1, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_assignment_is_total_and_stable(self, key):
        # Any key — even junk — lands in exactly one namespace, and the
        # assignment is a pure function of the key.
        table = table_of(key)
        assert table in ("unit", "pfile", "outline", "module", "exports",
                         "codegen")
        assert table_of(key) == table


# JSON-able payloads: the value space cache entries live in.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**31, 2**31)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8)


class TestRoundTrip:
    @given(st.dictionaries(
        st.from_regex(r"\A(pfile:|outline:|codegen1:|)[0-9a-f]{64}\Z"),
        st.dictionaries(st.text(max_size=8), _json_values, max_size=4),
        min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_store_encode_decode_round_trips(self, entries):
        import tempfile

        with tempfile.TemporaryDirectory() as base:
            root = os.path.join(base, "store")
            store = CacheStore(root)
            for key, payload in entries.items():
                store.put(key, payload)
            store.save()
            # A fresh store sees exactly what was written, per key and in
            # aggregate, and the database self-verifies.
            fresh = CacheStore(root)
            for key, payload in entries.items():
                assert fresh.get(key) == payload
            assert fresh.load_all() == entries
            assert CacheStore(root).verify() == []

    def test_save_returns_written_and_merges_concurrents(self, tmp_path):
        root = str(tmp_path / "c")
        one = CacheStore(root)
        two = CacheStore(root)
        key_a = "aa" + "0" * 62
        key_b = "bb" + "0" * 62
        one.put(key_a, {"v": 1})
        two.put(key_b, {"v": 2})
        assert one.save() == 1
        assert two.save() == 1  # added to, not clobbered
        assert CacheStore(root).load_all() == {key_a: {"v": 1},
                                               key_b: {"v": 2}}


class TestDirtyTracking:
    def test_identical_put_is_free(self, tmp_path):
        root = str(tmp_path / "c")
        store = CacheStore(root)
        key = "cc" + "0" * 62
        assert store.put(key, {"v": 1}) is True
        assert store.save() == 1
        warm = CacheStore(root)
        assert warm.put(key, {"v": 1}) is False
        assert warm.save() == 0

    def test_single_store_writes_a_single_entry(self, tmp_path):
        root = str(tmp_path / "c")
        seed = CacheStore(root)
        for byte in range(8):
            seed.put(f"{byte:02x}" + "0" * 62, {"v": byte})
        seed.save()
        editor = CacheStore(root)
        editor.put("05" + "0" * 62, {"v": "edited"})
        assert editor.save() == 1
        assert editor.entries_written == 1
        assert CacheStore(root).get("05" + "0" * 62) == {"v": "edited"}

    def test_warm_noop_reads_only_probed_keys(self, tmp_path):
        # The O(touched) property at the checking level: a warm no-op
        # check against a padded cache reads only the key it probes.
        root = str(tmp_path / "c")
        Session().check_many([("m.lev", MODULE)], cache=root)
        pad = CacheStore(root)
        for byte in range(64):
            pad.put(f"{byte:02x}" + "f" * 62, {"pad": byte})
        pad.save()
        warm = ResultCache(root)
        stats = CheckStats()
        Session().check_many([("m.lev", MODULE)], cache=warm, stats=stats)
        assert stats.file_hits == 1
        assert warm.keys_read == 1       # the file-level entry
        assert warm.entries_written == 0


class TestGetMany:
    def test_one_read_counts_every_key_and_answers_like_get(self, tmp_path):
        root = str(tmp_path / "c")
        store = CacheStore(root)
        for i in range(3):
            store.put(f"k{i}", {"i": i})
        store.save()
        hand_edit(root, "UPDATE entry SET payload = '{ torn' WHERE key = 'k1'")
        reader = CacheStore(root)
        reader.put("new", {"i": 9})      # reads "new" to compare
        found = reader.get_many(["k0", "k1", "k2", "absent", "new", "k0"])
        # A payload that is not JSON is absent, as get() has it; the
        # others decode one by one around it.
        assert found == {"k0": {"i": 0}, "k2": {"i": 2}, "new": {"i": 9}}
        assert reader.keys_read == 1 + 4  # k0, k1, k2, absent: once each
        assert reader.get_many(["k2", "absent"]) == {"k2": {"i": 2}}
        assert reader.keys_read == 1 + 4  # nothing read twice
        assert [reader.get(key) for key in ("k0", "k1", "absent")] == \
            [{"i": 0}, None, None]

    def test_more_keys_than_one_statement_binds(self, tmp_path):
        root = str(tmp_path / "c")
        store = CacheStore(root)
        keys = [f"k{i}" for i in range(store_module._BATCH_KEYS * 2 + 7)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        store.save()
        reader = CacheStore(root)
        found = reader.get_many(keys)
        assert found == {key: {"i": i} for i, key in enumerate(keys)}
        assert reader.keys_read == len(keys)


def _writer_main(root, tag, count, barrier):
    store = CacheStore(root)
    for i in range(count):
        payload_key = f"{i % 16:x}{tag}" + "0" * 56
        key = payload_key[:64].ljust(64, "0")
        store.put(key, {"writer": tag, "i": i})
    barrier.wait()  # maximise save overlap
    store.save()


class TestConcurrency:
    def test_two_processes_lose_nothing(self, tmp_path):
        # Two real processes, one cache directory, saves released
        # simultaneously: the union of both write sets must survive.
        root = str(tmp_path / "shared")
        context = multiprocessing.get_context("fork") \
            if "fork" in multiprocessing.get_all_start_methods() \
            else multiprocessing.get_context()
        barrier = context.Barrier(2)
        writers = [
            context.Process(target=_writer_main,
                            args=(root, tag, 64, barrier))
            for tag in ("a", "b")]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(60)
            assert writer.exitcode == 0
        merged = CacheStore(root).load_all()
        for tag in ("a", "b"):
            tagged = [key for key, payload in merged.items()
                      if payload.get("writer") == tag]
            assert len(tagged) == 16  # 64 writes over 16 distinct keys
        assert CacheStore(root).verify() == []
        assert os.listdir(root) == [store_module.DATABASE_NAME]

    def test_two_check_processes_share_one_cache_dir(self, tmp_path):
        # Two concurrent CLI processes sharing one --cache directory; both
        # runs' entries survive.
        root = str(tmp_path / "cli-cache")
        corpora = []
        for tag in ("x", "y"):
            corpus = tmp_path / f"corpus_{tag}"
            corpus.mkdir()
            for i in range(4):
                (corpus / f"{tag}{i}.lev").write_text(
                    f"f{tag}{i} :: Int# -> Int#\nf{tag}{i} n = n +# {i}#\n")
            corpora.append(corpus)
        env = dict(os.environ,
                   PYTHONPATH="src" + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        processes = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "check", "--cache", root]
                + sorted(str(p) for p in corpus.glob("*.lev")),
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            for corpus in corpora]
        for process in processes:
            assert process.wait(timeout=120) == 0
        keys = entry_keys(root)
        # 4 unit entries + 4 file entries + 8 block outlines per run, all
        # distinct sources.
        assert len(keys) == 32
        # And both runs replay warm out of the shared cache.
        stats = CheckStats()
        Session().check_many(
            [(f"{tag}{i}.lev",
              f"f{tag}{i} :: Int# -> Int#\nf{tag}{i} n = n +# {i}#\n")
             for tag in ("x", "y") for i in range(4)],
            cache=root, stats=stats)
        assert stats.checked == 0


class TestRefusal:
    def test_a_file_at_the_cache_path_is_refused_untouched(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_bytes(b"keep")
        with pytest.raises(FileExistsError):
            CacheStore(str(path))
        with pytest.raises(FileExistsError):
            Session().check_many([("m.lev", MODULE)], cache=str(path))
        assert path.read_bytes() == b"keep"

    def test_a_path_under_a_file_is_refused(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_bytes(b"keep")
        with pytest.raises(NotADirectoryError):
            CacheStore(str(path / "sub"))
        assert path.read_bytes() == b"keep"

    @pytest.mark.parametrize("command", [
        ["check", "{src}"],
        ["build", "{src}"],
        ["run", "--compiled", "{src}"],
    ])
    @pytest.mark.parametrize("under", [False, True])
    def test_every_command_refuses_before_any_work(self, tmp_path, capsys,
                                                   command, under):
        source = tmp_path / "m.lev"
        source.write_text(MODULE + "\nmain = top\n")
        blocker = tmp_path / "notes.txt"
        blocker.write_bytes(b"keep")
        cache = str(blocker / "sub") if under else str(blocker)
        argv = [arg.format(src=source) for arg in command]
        assert main(argv + ["--cache", cache]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and cache in line
        assert blocker.read_bytes() == b"keep"


class TestUnusableDatabase:
    """A ``cache.sqlite`` SQLite cannot use ends a ``repro check --cache``
    in one ``error:`` line with exit 2, and the file is left as it was."""

    def refused(self, tmp_path, capsys, root):
        source = tmp_path / "m.lev"
        source.write_text(MODULE)
        before = Path(database(root)).read_bytes()
        assert main(["check", "--cache", root, str(source)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        assert Path(database(root)).read_bytes() == before
        assert os.listdir(root) == [store_module.DATABASE_NAME]
        return line

    def test_a_file_that_is_not_a_database(self, tmp_path, capsys):
        root = tmp_path / "c"
        root.mkdir()
        (root / store_module.DATABASE_NAME).write_bytes(b"not sqlite " * 64)
        line = self.refused(tmp_path, capsys, str(root))
        assert "not a database" in line

    def test_a_truncated_database(self, tmp_path, capsys):
        root = seeded(tmp_path)
        data = Path(database(root)).read_bytes()
        with open(database(root), "wb") as handle:
            handle.write(data[:len(data) // 2])
        line = self.refused(tmp_path, capsys, root)
        assert "malformed" in line

    def test_a_database_locked_past_the_timeout(self, tmp_path, capsys,
                                                monkeypatch):
        root = seeded(tmp_path)
        monkeypatch.setattr(store_module, "BUSY_TIMEOUT_SECONDS", 0.1)
        holder = sqlite3.connect(database(root), isolation_level=None)
        holder.execute("BEGIN EXCLUSIVE")
        try:
            started = time.monotonic()
            line = self.refused(tmp_path, capsys, root)
            assert time.monotonic() - started < 30
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert "locked" in line

    def test_the_store_raises_a_store_error(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / store_module.DATABASE_NAME).write_bytes(b"junk" * 64)
        with pytest.raises(StoreError):
            CacheStore(str(root))
        with pytest.raises(StoreError):
            Session().check_many([("m.lev", MODULE)], cache=str(root))
        assert (root / store_module.DATABASE_NAME).read_bytes() == \
            b"junk" * 64

    def test_a_v4_shard_tree_is_ignored_not_deleted(self, tmp_path):
        root = tmp_path / "c"
        (root / "unit").mkdir(parents=True)
        shard = root / "unit" / "ab.json"
        shard.write_text('{"schema": 4, "entries": {}, "stamps": {}}')
        (root / "unit" / "ab.json.lock").write_bytes(b"")
        stats = CheckStats()
        Session().check_many([("m.lev", MODULE)], cache=str(root),
                             stats=stats)
        assert stats.cache_misses == 3
        assert shard.read_text() == \
            '{"schema": 4, "entries": {}, "stamps": {}}'
        assert sorted(os.listdir(root)) == [store_module.DATABASE_NAME,
                                            "unit"]
        assert sorted(os.listdir(root / "unit")) == ["ab.json",
                                                     "ab.json.lock"]


class TestRefusedSave:
    """A save SQLite refuses to write ends a ``repro check --cache`` in one
    ``error:`` line with exit 2, and the database is left as it was.

    The store's connection is given a pragma under which SQLite refuses
    the write itself: ``max_page_count`` at the current page count fails
    as a full disk does, and ``query_only`` as a read-only directory does
    (a chmod cannot refuse a process that runs as root).
    """

    @pytest.mark.parametrize("pragma, message", [
        ("max_page_count", "database or disk is full"),
        ("query_only", "attempt to write a readonly database"),
    ])
    def test_the_save_is_refused_and_the_database_untouched(
            self, tmp_path, capsys, monkeypatch, pragma, message):
        source = tmp_path / "m.lev"
        source.write_text(MODULE)
        root = str(tmp_path / "c")
        assert main(["check", "--cache", root, str(source)]) == 0
        # Forty new bindings: their entries need pages the file lacks.
        source.write_text(MODULE + "".join(
            f"\nadded{i} :: Int# -> Int#\nadded{i} n = n +# {i}#\n"
            for i in range(40)))
        before = Path(database(root)).read_bytes()
        connect = sqlite3.connect

        def refusing(*args, **kwargs):
            db = connect(*args, **kwargs)
            if pragma == "query_only":
                db.execute("PRAGMA query_only = 1")
            else:
                (pages,) = db.execute("PRAGMA page_count").fetchone()
                db.execute(f"PRAGMA max_page_count = {pages}")
            return db

        monkeypatch.setattr(sqlite3, "connect", refusing)
        capsys.readouterr()
        assert main(["check", "--cache", root, str(source)]) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0]
        assert "Traceback" not in captured.out + captured.err
        assert Path(database(root)).read_bytes() == before
        assert os.listdir(root) == [store_module.DATABASE_NAME]


class TestLazyImports:
    def test_a_check_without_a_cache_imports_no_lowering_or_sqlite(self):
        """A one-file check loads no lowering, no project layer (it builds
        no module DAG) and no sqlite3."""
        script = (
            "import sys\n"
            "import repro.driver\n"
            "from repro.driver import Session\n"
            "assert Session().check('f :: Int# -> Int#\\nf x = x +# 1#\\n',"
            " 'm.lev').ok\n"
            "print(sorted(name for name in sys.modules if name in "
            "('repro.driver.lower', 'repro.driver.project', 'repro.lang_l',"
            " 'sqlite3')))\n")
        env = dict(os.environ,
                   PYTHONPATH="src" + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        output = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120,
                                check=True).stdout
        assert output.strip() == "[]"


class TestGcAndCompact:
    def test_gc_drops_only_old_entries(self, tmp_path):
        root = str(tmp_path / "c")
        store = CacheStore(root)
        old_key = "aa" + "0" * 62
        new_key = "bb" + "0" * 62
        store.put(old_key, {"v": "old"})
        store.put(new_key, {"v": "new"})
        store.save()
        backdate(root, old_key)
        kept, dropped = CacheStore(root).gc(30 * 24 * 3600)
        assert (kept, dropped) == (1, 1)
        survivors = CacheStore(root).load_all()
        assert set(survivors) == {new_key}

    def test_recent_hit_keeps_an_entry_alive(self, tmp_path):
        root = str(tmp_path / "c")
        store = CacheStore(root)
        key = "cc" + "0" * 62
        store.put(key, {"v": 1})
        store.save()
        backdate(root, key)
        # A read refreshes the stale stamp at save time...
        reader = CacheStore(root)
        assert reader.get(key) == {"v": 1}
        assert reader.save() == 1   # the refresh wrote the entry
        # ...so a subsequent age-bounded gc keeps the entry.
        assert CacheStore(root).gc(30 * 24 * 3600) == (1, 0)

    def test_compact_preserves_entries(self, tmp_path):
        root = str(tmp_path / "c")
        Session().check_many([("m.lev", MODULE)], cache=root)
        before = CacheStore(root).load_all()
        CacheStore(root).compact()
        assert CacheStore(root).load_all() == before
        assert CacheStore(root).verify() == []


class TestVerify:
    def test_unreadable_payload_is_reported(self, tmp_path):
        root = str(tmp_path / "c")
        store = CacheStore(root)
        store.put("aa" + "0" * 62, {"v": 1})
        store.save()
        hand_edit(root, "UPDATE entry SET payload = '{ torn'")
        problems = CacheStore(root).verify()
        assert len(problems) == 1
        assert "unreadable payload" in problems[0]
        # The lookup path treats the same row as a miss.
        assert CacheStore(root).get("aa" + "0" * 62) is None

    def test_a_damaged_index_is_reported(self, tmp_path):
        # One byte changed in the primary-key index's copy of a key: the
        # database still opens, and SQLite's integrity check finds it.
        root = str(tmp_path / "c")
        store = CacheStore(root)
        key = "ab" * 32
        store.put(key, {"v": 1})
        store.save()
        data = Path(database(root)).read_bytes()
        at = data.rindex(key.encode())
        assert at != data.index(key.encode())  # the index's copy
        with open(database(root), "r+b") as handle:
            handle.seek(at)
            handle.write(b"c")
        problems = CacheStore(root).verify()
        assert problems
        assert all(problem.startswith(database(root))
                   for problem in problems)


class TestSchemeRenderMemo:
    def test_each_scheme_object_renders_once(self):
        check = Session().check(MODULE, "m.lev")
        scheme = next(b.scheme for b in check.bindings
                      if b.scheme is not None)
        renders = REGISTRY.counter("solver.scheme_renders")
        hits = REGISTRY.counter("solver.scheme_render_hits")
        base_renders, base_hits = renders.value, hits.value
        first = canonical_scheme(scheme)
        assert renders.value == base_renders + 1
        for _ in range(3):
            assert canonical_scheme(scheme) == first
        assert renders.value == base_renders + 4
        assert hits.value >= base_hits + 3

    def test_memo_hits_on_repeated_codegen_key_derivation(self, tmp_path):
        # Re-running a retained CheckResult re-derives codegen keys from
        # the same scheme objects; the memo turns those re-renders into
        # hits (the REPL and the benches hold results exactly this way).
        session = Session(DriverOptions(compiled=True))
        check = session.check(MODULE, "m.lev")
        renders = REGISTRY.counter("solver.scheme_renders")
        hits = REGISTRY.counter("solver.scheme_render_hits")
        cache = str(tmp_path / "c")
        base_renders, base_hits = renders.value, hits.value
        session.run_from_check(check, entry="top", cache=cache)
        cold_renders = renders.value - base_renders
        assert cold_renders > 0
        assert hits.value == base_hits
        session.run_from_check(check, entry="top", cache=cache)
        assert hits.value - base_hits == cold_renders  # every render hits


class TestCacheCli:
    def test_stats_json(self, tmp_path, capsys):
        root = seeded(tmp_path)
        assert main(["cache", "stats", "--json", root]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == CACHE_SCHEMA == 6
        # 3 units + 1 file entry + 4 block outlines
        assert document["entries"] == 8
        assert document["tables"]["unit"]["entries"] == 3
        assert document["tables"]["pfile"]["entries"] == 1
        assert document["tables"]["outline"]["entries"] == 4

    def test_verify_ok_and_failure(self, tmp_path, capsys):
        root = seeded(tmp_path)
        assert main(["cache", "verify", root]) == 0
        assert "ok" in capsys.readouterr().out
        hand_edit(root, "UPDATE entry SET payload = '{ torn' "
                  "WHERE key LIKE 'pfile:%'")
        assert main(["cache", "verify", root]) == 1
        assert "unreadable" in capsys.readouterr().out

    def test_verify_reports_a_malformed_module_entry(self, tmp_path, capsys):
        root = str(tmp_path / "c")
        Session().check_project([("a.lev", "module A where\n\nx :: Int\n"
                                 "x = 1\n")], cache=root)
        assert main(["cache", "stats", "--json", root]) == 0
        tables = json.loads(capsys.readouterr().out)["tables"]
        assert tables["module"]["entries"] == 1
        assert main(["cache", "verify", root]) == 0
        capsys.readouterr()
        hand_edit(root, "UPDATE entry SET payload = ? WHERE key LIKE "
                  "'module:%'", json.dumps({"name": "A", "imports": []}))
        assert main(["cache", "verify", root]) == 1
        [problem, summary] = capsys.readouterr().out.splitlines()
        assert "invalid payload under module:" in problem
        assert summary == "verify: FAILED (1 problem(s))"

    def test_gc_and_compact(self, tmp_path, capsys):
        root = seeded(tmp_path)
        assert main(["cache", "gc", "--max-age", "30d", "--json",
                     root]) == 0
        assert json.loads(capsys.readouterr().out) == {"kept": 8,
                                                       "dropped": 0}
        assert main(["cache", "compact", root]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", root]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 8
        assert main(["cache", "gc", "--max-age", "0s", root]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", root]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_gc_requires_max_age(self, tmp_path, capsys):
        root = seeded(tmp_path)
        assert main(["cache", "gc", root]) == 2
        assert "--max-age" in capsys.readouterr().err

    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        assert main(["cache", "stats", str(tmp_path / "absent")]) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_garbage_database_is_a_usage_error(self, tmp_path, capsys):
        root = tmp_path / "c"
        root.mkdir()
        (root / store_module.DATABASE_NAME).write_bytes(b"junk" * 64)
        assert main(["cache", "stats", str(root)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "not a database" in line

    def test_legacy_file_is_explained(self, tmp_path, capsys):
        path = tmp_path / "cache.json"
        path.write_text("{\"schema\": 3, \"entries\": {}}")
        assert main(["cache", "stats", str(path)]) == 2
        assert "not a cache directory" in capsys.readouterr().err
