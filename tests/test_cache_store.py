"""Tests for the sharded cache store (``repro.driver.store``).

Covers the properties the v4 layout promises:

* key→table/shard assignment is total, stable and verifiable;
* entries round-trip through shard files byte-for-byte (hypothesis);
* per-shard dirty tracking — no-op saves write nothing, a single store
  writes exactly one shard;
* two *processes* racing on one cache directory lose no entries;
* a cache path that is, or lies under, a regular file is refused and
  the file left byte-identical, by the store and by every command that
  takes ``--cache``;
* ``canonical_scheme`` memoisation renders each scheme object once;
* the ``python -m repro cache`` maintenance actions.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.driver import DriverOptions, ResultCache, Session
from repro.driver.batch import CheckStats, canonical_scheme
from repro.driver.store import (
    CACHE_SCHEMA,
    SHARD_COUNT,
    ShardStore,
    shard_of,
    table_of,
)
from repro.telemetry import REGISTRY


MODULE = """\
base :: Int# -> Int#
base x = x +# 1#

mid = base 1#

top = mid +# 2#
"""


def entry_keys(root):
    return set(ShardStore(root).load_all())


class TestKeyAssignment:
    def test_tables_by_prefix(self):
        hex64 = "ab" * 32
        assert table_of(hex64) == "unit"
        assert table_of(f"pfile:{hex64}") == "pfile"
        assert table_of(f"outline:{hex64}") == "outline"
        assert table_of(f"exports:{hex64}") == "exports"
        assert table_of(f"exports:pfile:{hex64}") == "exports"
        assert table_of(f"codegen1:{hex64}") == "codegen"
        assert table_of(f"codegen12:{hex64}") == "codegen"
        assert table_of(f"codegenx:{hex64}") == "unit"
        assert table_of(f"future:{hex64}") == "unit"

    def test_shard_of_uses_the_trailing_digest(self):
        hex64 = "7f" + "0" * 62
        assert shard_of(hex64) == 0x7F
        assert shard_of(f"pfile:{hex64}") == 0x7F
        assert shard_of(f"exports:pfile:{hex64}") == 0x7F
        assert shard_of(f"codegen1:{hex64}") == 0x7F

    @given(st.text(min_size=1, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_assignment_is_total_and_stable(self, key):
        # Any key — even junk — lands in exactly one (table, shard), and
        # the assignment is a pure function of the key.
        table = table_of(key)
        index = shard_of(key)
        assert table in ("unit", "pfile", "outline", "exports", "codegen")
        assert 0 <= index < SHARD_COUNT
        assert (table_of(key), shard_of(key)) == (table, index)


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
            store = ShardStore(root)
            for key, payload in entries.items():
                store.put(key, payload)
            store.save()
            # A fresh store sees exactly what was written, per key and in
            # aggregate, and every shard file self-verifies.
            fresh = ShardStore(root)
            for key, payload in entries.items():
                assert fresh.get(key) == payload
            assert fresh.load_all() == entries
            assert ShardStore(root).verify() == []

    def test_save_returns_written_and_merges_concurrents(self, tmp_path):
        root = str(tmp_path / "c")
        one = ShardStore(root)
        two = ShardStore(root)
        key_a = "aa" + "0" * 62
        key_b = "bb" + "0" * 62
        one.put(key_a, {"v": 1})
        two.put(key_b, {"v": 2})
        assert one.save() == 1
        assert two.save() == 1  # merged, not clobbered
        assert ShardStore(root).load_all() == {key_a: {"v": 1},
                                               key_b: {"v": 2}}


class TestDirtyTracking:
    def test_identical_put_is_free(self, tmp_path):
        root = str(tmp_path / "c")
        store = ShardStore(root)
        key = "cc" + "0" * 62
        assert store.put(key, {"v": 1}) is True
        assert store.save() == 1
        warm = ShardStore(root)
        assert warm.put(key, {"v": 1}) is False
        assert warm.save() == 0

    def test_single_store_writes_a_single_shard(self, tmp_path):
        root = str(tmp_path / "c")
        seed = ShardStore(root)
        for byte in range(8):
            seed.put(f"{byte:02x}" + "0" * 62, {"v": byte})
        seed.save()
        editor = ShardStore(root)
        editor.put("05" + "0" * 62, {"v": "edited"})
        assert editor.save() == 1
        assert editor.shards_written == 1

    def test_warm_noop_reads_only_probed_shards(self, tmp_path):
        # The O(touched) property at the checking level: a warm no-op
        # check against a cache padded with entries in many shards reads
        # only the shard(s) it probes.
        root = str(tmp_path / "c")
        Session().check_many([("m.lev", MODULE)], cache=root)
        pad = ShardStore(root)
        for byte in range(64):
            pad.put(f"{byte:02x}" + "f" * 62, {"pad": byte})
        pad.save()
        warm = ResultCache(root)
        stats = CheckStats()
        Session().check_many([("m.lev", MODULE)], cache=warm, stats=stats)
        assert stats.file_hits == 1
        assert warm.shards_read == 1     # the file-level entry's shard
        assert warm.shards_written == 0


def _writer_main(root, tag, count, barrier):
    store = ShardStore(root)
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
        merged = ShardStore(root).load_all()
        for tag in ("a", "b"):
            tagged = [key for key, payload in merged.items()
                      if payload.get("writer") == tag]
            assert len(tagged) == 16  # 64 writes over 16 distinct keys
        assert ShardStore(root).verify() == []

    def test_two_check_processes_share_one_cache_dir(self, tmp_path):
        # The CLI-level stress from the issue: two `--jobs` runs sharing
        # one --cache directory; both runs' entries survive.
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
                [sys.executable, "-m", "repro", "check", "--jobs", "2",
                 "--cache", root]
                + sorted(str(p) for p in corpus.glob("*.lev")),
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            for corpus in corpora]
        for process in processes:
            assert process.wait(timeout=120) == 0
        keys = entry_keys(root)
        # 4 unit entries + 4 file entries per run, all distinct sources.
        assert len(keys) == 16
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
            ShardStore(str(path))
        with pytest.raises(FileExistsError):
            Session().check_many([("m.lev", MODULE)], cache=str(path))
        assert path.read_bytes() == b"keep"

    def test_a_path_under_a_file_is_refused(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_bytes(b"keep")
        with pytest.raises(NotADirectoryError):
            ShardStore(str(path / "sub"))
        assert path.read_bytes() == b"keep"

    @pytest.mark.parametrize("command", [
        ["check", "{src}"],
        ["build", "{src}"],
        ["run", "--compiled", "{src}"],
        ["fuzz", "--check", "--count", "1"],
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


class TestGcAndCompact:
    def test_gc_drops_only_old_entries(self, tmp_path):
        import time

        root = str(tmp_path / "c")
        store = ShardStore(root)
        old_key = "aa" + "0" * 62
        new_key = "bb" + "0" * 62
        store.put(old_key, {"v": "old"})
        store.put(new_key, {"v": "new"})
        store.save()
        # Backdate one entry's stamp by rewriting its shard document.
        shard_path = os.path.join(root, "unit", "aa.json")
        with open(shard_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["stamps"][old_key] = time.time() - 100 * 24 * 3600
        with open(shard_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        kept, dropped = ShardStore(root).gc(30 * 24 * 3600)
        assert (kept, dropped) == (1, 1)
        survivors = ShardStore(root).load_all()
        assert set(survivors) == {new_key}
        # The emptied shard file is gone entirely.
        assert not os.path.exists(shard_path)

    def test_recent_hit_keeps_an_entry_alive(self, tmp_path):
        import time

        root = str(tmp_path / "c")
        store = ShardStore(root)
        key = "cc" + "0" * 62
        store.put(key, {"v": 1})
        store.save()
        shard_path = os.path.join(root, "unit", "cc.json")
        with open(shard_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["stamps"][key] = time.time() - 100 * 24 * 3600
        with open(shard_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        # A read refreshes the stale stamp at save time...
        reader = ShardStore(root)
        assert reader.get(key) == {"v": 1}
        assert reader.save() == 1   # the refresh dirtied the shard
        # ...so a subsequent age-bounded gc keeps the entry.
        assert ShardStore(root).gc(30 * 24 * 3600) == (1, 0)

    def test_compact_preserves_entries(self, tmp_path):
        root = str(tmp_path / "c")
        Session().check_many([("m.lev", MODULE)], cache=root)
        before = ShardStore(root).load_all()
        ShardStore(root).compact()
        assert ShardStore(root).load_all() == before
        assert ShardStore(root).verify() == []


class TestVerify:
    def test_misplaced_entry_is_reported(self, tmp_path):
        root = str(tmp_path / "c")
        store = ShardStore(root)
        store.put("aa" + "0" * 62, {"v": 1})
        store.save()
        os.rename(os.path.join(root, "unit", "aa.json"),
                  os.path.join(root, "unit", "bb.json"))
        problems = ShardStore(root).verify()
        assert len(problems) == 1
        assert "belongs in" in problems[0]

    def test_wrong_schema_is_reported(self, tmp_path):
        root = str(tmp_path / "c")
        os.makedirs(os.path.join(root, "unit"))
        with open(os.path.join(root, "unit", "00.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"schema": CACHE_SCHEMA + 1, "entries": {}}, handle)
        problems = ShardStore(root).verify()
        assert len(problems) == 1
        assert "schema" in problems[0]


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
    def seeded(self, tmp_path):
        root = str(tmp_path / "c")
        Session().check_many([("m.lev", MODULE)], cache=root)
        return root

    def test_stats_json(self, tmp_path, capsys):
        root = self.seeded(tmp_path)
        assert main(["cache", "stats", "--json", root]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == CACHE_SCHEMA
        assert document["entries"] == 4  # 3 units + 1 file entry
        assert document["tables"]["unit"]["shards"] >= 1

    def test_verify_ok_and_failure(self, tmp_path, capsys):
        root = self.seeded(tmp_path)
        assert main(["cache", "verify", root]) == 0
        assert "ok" in capsys.readouterr().out
        shard = next(os.path.join(root, "unit", name)
                     for name in sorted(os.listdir(
                         os.path.join(root, "unit"))))
        with open(shard, "w", encoding="utf-8") as handle:
            handle.write("{ torn")
        assert main(["cache", "verify", root]) == 1
        assert "unreadable" in capsys.readouterr().out

    def test_gc_and_compact(self, tmp_path, capsys):
        root = self.seeded(tmp_path)
        assert main(["cache", "gc", "--max-age", "30d", "--json",
                     root]) == 0
        assert json.loads(capsys.readouterr().out) == {"kept": 4,
                                                       "dropped": 0}
        assert main(["cache", "compact", root]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", root]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 4

    def test_gc_requires_max_age(self, tmp_path, capsys):
        root = self.seeded(tmp_path)
        assert main(["cache", "gc", root]) == 2
        assert "--max-age" in capsys.readouterr().err

    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        assert main(["cache", "stats", str(tmp_path / "absent")]) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_legacy_file_is_explained(self, tmp_path, capsys):
        path = tmp_path / "cache.json"
        path.write_text("{\"schema\": 3, \"entries\": {}}")
        assert main(["cache", "stats", str(path)]) == 2
        assert "not a cache directory" in capsys.readouterr().err
