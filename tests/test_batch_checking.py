"""Tests for batch checking and the incremental cache.

Covers the batch-path guarantees the driver makes:

* output order matches input order;
* a poisoned binding in one program never affects another program;
* cache hits return byte-identical results, and editing one source
  invalidates exactly that entry;
* an incremental re-check counts exactly the units it re-checked;
* the walk runs in the calling process: no module imports a process
  pool.
"""

import ast
import os
import pathlib

import pytest

from repro.driver import CheckStats, DriverOptions, ResultCache, Session
from repro.driver.batch import (
    cache_key,
    options_fingerprint,
    payload_bytes,
    result_from_payload,
    result_to_payload,
)
from repro.__main__ import main


def make_corpus(count=12):
    corpus = []
    for i in range(count):
        corpus.append((f"prog_{i}.lev", f"""\
add{i} :: Int# -> Int# -> Int#
add{i} x y = x +# y
main :: Int
main = {i} + 1
"""))
    return corpus


#: Each corpus program has two independent bindings = two check units.
UNITS_PER_PROGRAM = 2


def _rewrite_entries(path, mutate):
    """Edit a cache in place: load every entry, apply ``mutate`` to the
    entries dict, write the changed ones back (the moral equivalent of
    hand-editing the database)."""
    from repro.driver.store import CacheStore

    store = CacheStore(path)
    entries = store.load_all()
    mutate(entries)
    for key, payload in entries.items():
        store.put(key, payload)
    store.save()


def _cache_files(root):
    """{relative path: file bytes} for every file under a cache root."""
    snapshot = {}
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as handle:
                snapshot[os.path.relpath(full, root)] = handle.read()
    return snapshot


class TestSharding:
    def test_output_order_matches_input_order(self):
        corpus = make_corpus(11)
        results = Session().check_many(corpus)
        assert [r.filename for r in results] == [fn for fn, _ in corpus]
        # Each program's own binding is in its own result.
        for i, result in enumerate(results):
            assert result.bindings[0].name == f"add{i}"

    def test_poisoned_binding_does_not_leak_across_shards(self):
        corpus = make_corpus(8)
        corpus[2] = ("poison.lev",
                     "bad :: Int#\nbad = notInScope\nalso = 1 + 1\n")
        results = Session().check_many(corpus)
        assert not results[2].ok
        assert any("not in scope" in d.message for d in results[2].diagnostics)
        # The poisoned module still checked its other binding...
        assert any(b.name == "also" and b.ok for b in results[2].bindings)
        # ...and every other program is untouched.
        assert all(r.ok for i, r in enumerate(results) if i != 2)

    def test_duplicate_sources_check_once(self, tmp_path):
        source = "v :: Int\nv = 1 + 2\n"
        corpus = [("a.lev", source), ("b.lev", source), ("c.lev", source)]
        cache = ResultCache(str(tmp_path / "cache.json"))
        stats = CheckStats()
        results = Session().check_many(corpus, cache=cache, stats=stats)
        # One check, one store: the copies hit the unit the first stored,
        # and every caller still gets its own filename.
        assert stats.checked == 1
        assert [r.filename for r in results] == ["a.lev", "b.lev", "c.lev"]
        assert all(r.ok for r in results)
        for result in results:
            assert result.diagnostics == [] and \
                result.bindings[0].rendered == "Int"


class TestIncrementalCache:
    def test_cache_hits_are_byte_identical(self, tmp_path):
        corpus = make_corpus(5)
        path = str(tmp_path / "cache.json")
        session = Session()
        cold = session.check_many(corpus, cache=path)
        stats = CheckStats()
        warm = session.check_many(corpus, cache=ResultCache(path),
                                  stats=stats)
        # Unchanged files short-circuit on their whole-file entry; the
        # unit layer is never consulted.
        assert stats.file_hits == len(corpus)
        assert stats.cache_hits == 0 and stats.cache_misses == 0
        assert [payload_bytes(result_to_payload(r)) for r in cold] == \
            [payload_bytes(result_to_payload(r)) for r in warm]

    def test_editing_one_binding_invalidates_exactly_one_unit(self, tmp_path):
        corpus = make_corpus(6)
        path = str(tmp_path / "cache.json")
        Session().check_many(corpus, cache=path)
        filename, source = corpus[4]
        # Edit the body of 'main' in one program: only that binding's unit
        # misses — the sibling 'add4' and every other program stay hits.
        corpus[4] = (filename, source.replace("+ 1", "+ 2"))
        stats = CheckStats()
        results = Session().check_many(corpus, cache=ResultCache(path),
                                       stats=stats)
        # The edited file drops to the unit layer: its 'main' misses, its
        # untouched 'add4' unit hits; every other file short-circuits.
        assert stats.file_hits == len(corpus) - 1
        assert stats.cache_misses == 1 and stats.cache_hits == 1
        assert all(r.ok for r in results)

    def test_renamed_file_reuses_cached_result_with_new_name(self, tmp_path):
        corpus = make_corpus(3)
        path = str(tmp_path / "cache.json")
        Session().check_many(corpus, cache=path)
        renamed = [(f"renamed_{i}.lev", source)
                   for i, (_, source) in enumerate(corpus)]
        stats = CheckStats()
        results = Session().check_many(renamed, cache=ResultCache(path),
                                       stats=stats)
        assert stats.file_hits == 3   # keys never include the filename
        assert [r.filename for r in results] == [fn for fn, _ in renamed]

    def test_failing_results_are_cached_too(self, tmp_path):
        corpus = [("bad.lev", "x = mystery\n")]
        path = str(tmp_path / "cache.json")
        cold = Session().check_many(corpus, cache=path)
        stats = CheckStats()
        warm = Session().check_many(corpus, cache=ResultCache(path),
                                    stats=stats)
        assert stats.file_hits == 1
        assert not warm[0].ok
        assert [d.pretty() for d in warm[0].diagnostics] == \
            [d.pretty() for d in cold[0].diagnostics]

    def test_key_depends_on_options_and_source(self):
        default = options_fingerprint(DriverOptions())
        explicit = options_fingerprint(
            DriverOptions(explicit_runtime_reps=True))
        assert default != explicit
        assert cache_key("x = 1\n", default) != cache_key("x = 2\n", default)
        assert cache_key("x = 1\n", default) != cache_key("x = 1\n", explicit)

    def test_key_depends_on_the_prelude(self, monkeypatch):
        from repro.driver import batch

        default = DriverOptions()
        before = options_fingerprint(default)
        schemes = batch.prelude_schemes()
        del schemes["plusInt"]
        monkeypatch.setattr(batch, "prelude_schemes", lambda: schemes)
        batch._prelude_digest.cache_clear()
        try:
            assert options_fingerprint(default) != before
        finally:
            batch._prelude_digest.cache_clear()

    def test_corrupt_cache_file_is_a_cold_cache(self, tmp_path):
        # A file at the cache path is not a cache directory: it is refused
        # before any checking and left byte-identical, never replaced.
        path = tmp_path / "cache.json"
        path.write_bytes(b"{ not json")
        with pytest.raises(FileExistsError):
            Session().check_many(make_corpus(2), cache=str(path))
        assert path.read_bytes() == b"{ not json"

    def test_malformed_cache_entry_is_a_miss(self, tmp_path):
        corpus = make_corpus(2)
        path = str(tmp_path / "cache.json")
        Session().check_many(corpus, cache=path)
        # Truncate every whole-file entry plus one unit entry: the files
        # drop to the unit layer, where the bad unit is a miss.
        corrupted = None

        def truncate(entries):
            nonlocal corrupted
            corrupted = sorted(k for k, v in entries.items()
                               if "members" in v)[0]
            for key, value in entries.items():
                if "members" not in value or key == corrupted:
                    entries[key] = {}

        _rewrite_entries(path, truncate)
        stats = CheckStats()
        results = Session().check_many(corpus, cache=ResultCache(path),
                                       stats=stats)
        assert all(r.ok for r in results)
        # The counters are truthful: the bad unit entry counted as a miss.
        assert stats.file_hits == 0
        assert stats.cache_hits == 2 * UNITS_PER_PROGRAM - 1
        assert stats.cache_misses == 1
        # The re-check repaired the entries.
        repaired = ResultCache(path)
        assert repaired.entries[corrupted] != {}
        assert all(value != {} for value in repaired.entries.values())

    def test_run_only_options_do_not_invalidate_the_cache(self, tmp_path):
        # The evaluator backend never affects checking, so changing
        # it must not cold-start the check cache.
        corpus = make_corpus(3)
        path = str(tmp_path / "cache.json")
        Session().check_many(corpus, cache=path)
        stats = CheckStats()
        Session(DriverOptions(compiled=True)).check_many(
            corpus, cache=ResultCache(path), stats=stats)
        assert stats.file_hits == 3
        assert stats.cache_misses == 0


#: The rendering of ``f x = x`` under each ``explicit_runtime_reps``.
IDENTITY_RENDERED = {False: "a -> a", True: "forall (a :: Type). a -> a"}


def _check_with(api, explicit, cache=None, stats=None):
    session = Session(DriverOptions(explicit_runtime_reps=explicit))
    items = [("f.lev", "f x = x\n")]
    if api == "check_many":
        return session.check_many(items, cache=cache, stats=stats)
    return session.check_project(items, cache=cache, stats=stats).results


class TestOneCacheTwoOptionSets:
    """The session that checks is the one whose options key the cache, so
    one cache directory answers each option set with its own results."""

    @pytest.mark.parametrize("api", ["check_many", "check_project"])
    @pytest.mark.parametrize("order", [(False, True), (True, False)],
                             ids=["default-first", "explicit-first"])
    def test_each_session_renders_what_a_cold_check_renders(
            self, api, order, tmp_path):
        cache = str(tmp_path / "cache")
        # The first pass fills the cache for each option set in turn; the
        # second is answered from it whole.
        for file_hits in (0, 1):
            for explicit in order:
                stats = CheckStats()
                results = _check_with(api, explicit, cache, stats)
                cold = _check_with(api, explicit)
                assert [b.rendered for b in results[0].bindings] == \
                    [IDENTITY_RENDERED[explicit]]
                assert [payload_bytes(result_to_payload(r))
                        for r in results] == \
                    [payload_bytes(result_to_payload(r)) for r in cold]
                assert stats.file_hits == file_hits
                assert stats.checked == 1 - file_hits


class TestPayloads:
    def test_payload_round_trip_preserves_diagnostics_and_spans(self):
        result = Session().check("f :: Int#\nf = notHere\n", "p.lev")
        rebuilt = result_from_payload(result_to_payload(result))
        assert rebuilt.ok == result.ok
        assert [d.pretty() for d in rebuilt.diagnostics] == \
            [d.pretty() for d in result.diagnostics]
        assert [(b.name, b.rendered, b.ok, b.span) for b in rebuilt.bindings] \
            == [(b.name, b.rendered, b.ok, b.span) for b in result.bindings]


class TestCli:
    def test_check_jobs_and_cache_flags(self, tmp_path, capsys):
        files = []
        for i in range(3):
            path = tmp_path / f"cli_{i}.lev"
            path.write_text(f"v{i} :: Int\nv{i} = {i} + {i}\n")
            files.append(str(path))
        cache = str(tmp_path / "cache.json")
        code = main(["check", "--cache", cache, *files])
        assert code == 0
        assert os.path.exists(cache)
        out = capsys.readouterr().out
        assert "v0 :: Int" in out and "v2 :: Int" in out
        # Warm re-run through the CLI exits cleanly too.
        assert main(["check", "--cache", cache, *files]) == 0


# ---------------------------------------------------------------------------
# Binding-level incrementality
# ---------------------------------------------------------------------------


DEP_MODULE = """\
base :: Int# -> Int#
base x = x +# 1#

mid = base 1#

top = mid +# 2#

lone :: Int#
lone = 7#
"""


class TestBindingLevelInvalidation:
    def test_editing_one_binding_rechecks_only_its_dependents(self, tmp_path):
        path = str(tmp_path / "cache.json")
        Session().check_many([("dep.lev", DEP_MODULE)], cache=path)
        # Change mid's *scheme* (Int# -> Int): top must re-check, but
        # 'base' and 'lone' stay hits.
        edited = DEP_MODULE.replace("mid = base 1#", "mid = 5")
        stats = CheckStats()
        results = Session().check_many([("dep.lev", edited)],
                                       cache=ResultCache(path), stats=stats)
        assert stats.cache_misses == 2    # mid + its dependent top
        assert stats.cache_hits == 2      # base, lone untouched
        assert not results[0].ok          # top now misuses a boxed Int

    def test_early_cutoff_when_the_scheme_is_unchanged(self, tmp_path):
        path = str(tmp_path / "cache.json")
        Session().check_many([("dep.lev", DEP_MODULE)], cache=path)
        # Edit base's *body* without changing its scheme: only base itself
        # re-checks — its dependents' keys (source + dep schemes) are
        # unchanged, so they hit.
        edited = DEP_MODULE.replace("x +# 1#", "x +# 2#")
        stats = CheckStats()
        results = Session().check_many([("dep.lev", edited)],
                                       cache=ResultCache(path), stats=stats)
        assert stats.cache_misses == 1 and stats.cache_hits == 3
        assert results[0].ok

    def test_moved_binding_is_still_a_hit_with_rebased_spans(self, tmp_path):
        path = str(tmp_path / "cache.json")
        bad_tail = "tail' :: Int\ntail' = stillMissing\n"
        source = "head' :: Int#\nhead' = 1#\n" + bad_tail
        Session().check_many([("move.lev", source)], cache=path)
        # Grow the first binding by two lines: the failing tail binding
        # moves down but its unit text is unchanged — a cache hit whose
        # diagnostic span must be re-based to the new absolute line.
        grown = ("head' :: Int#\nhead' =\n  1#\n    +# 1#\n" + bad_tail)
        stats = CheckStats()
        results = Session().check_many([("move.lev", grown)],
                                       cache=ResultCache(path), stats=stats)
        # head' changed; tail' is a hit.
        assert stats.cache_hits == 1 and stats.cache_misses == 1

        [diagnostic] = results[0].errors
        assert diagnostic.binding == "tail'"
        expected_line = grown.split("\n").index("tail' = stillMissing") + 1
        assert diagnostic.span.line == expected_line
        # And the cached result is byte-identical to a cold from-scratch
        # check of the grown module (modulo nothing: including spans).
        cold = Session().check(grown, "move.lev")
        assert payload_bytes(result_to_payload(cold)) == \
            payload_bytes(result_to_payload(results[0]))

    def test_incremental_results_match_cold_full_pipeline(self, tmp_path):
        """Slim cached results must be byte-identical to a cold check."""
        path = str(tmp_path / "cache.json")
        session = Session()
        session.check_many([("dep.lev", DEP_MODULE)], cache=path)
        warm = session.check_many([("dep.lev", DEP_MODULE)],
                                  cache=ResultCache(path))
        cold = session.check(DEP_MODULE, "dep.lev")
        assert payload_bytes(result_to_payload(cold)) == \
            payload_bytes(result_to_payload(warm[0]))


#: Two files sharing one identical unit (`shared`, same slice, no deps).
SHARED_UNIT = [
    ("a.lev", "shared :: Int# -> Int#\nshared x = x +# 1#\n\n"
              "a :: Int#\na = shared 1#\n"),
    ("b.lev", "shared :: Int# -> Int#\nshared x = x +# 1#\n\n"
              "b :: Int#\nb = shared 2#\n"),
]


class TestOneWalk:
    """``Session.check`` and every batch call run one unit walk; keys and
    payloads exist only where a unit meets a cache."""

    def test_without_a_cache_a_shared_unit_is_checked_in_each_file(self):
        from repro.driver import CheckStats

        stats = CheckStats()
        Session().check_many(SHARED_UNIT, stats=stats)
        shared = [t.source for t in stats.timings if t.names == ("shared",)]
        assert shared == ["checked", "checked"]
        assert stats.checked == 4 and stats.cache_hits == 0

    def test_with_a_cache_a_shared_unit_is_checked_once(self, tmp_path):
        from repro.driver import CheckStats

        stats = CheckStats()
        Session().check_many(SHARED_UNIT, cache=str(tmp_path / "c"),
                             stats=stats)
        shared = [t.source for t in stats.timings if t.names == ("shared",)]
        assert shared == ["checked", "hit"]
        assert stats.checked == 3 and stats.cache_hits == 1

    def test_a_check_without_a_cache_builds_no_key_or_payload(
            self, monkeypatch):
        import repro.driver.batch as batch
        from repro.driver import CheckStats

        def forbidden(*_args, **_kwargs):
            raise AssertionError("built without a cache")

        for name in ("options_fingerprint", "file_key", "unit_key",
                     "payload_from_unit_outcome"):
            monkeypatch.setattr(batch, name, forbidden)
        check = Session().check(DEP_MODULE, "dep.lev")
        assert check.ok and check.parsed is not None
        assert [b.rendered for b in check.bindings] == \
            ["Int# -> Int#", "Int#", "Int#", "Int#"]
        stats = CheckStats()
        results = Session().check_many(SHARED_UNIT, stats=stats)
        assert all(r.ok and r.parsed is not None for r in results)
        assert stats.checked == 4

    def test_batch_results_equal_session_check_with_schemes(self):
        corpus = [("dep.lev", DEP_MODULE), ("bad.lev", "a = mystery\n")] \
            + SHARED_UNIT
        session = Session()
        batch = session.check_many(corpus)
        for (filename, source), result in zip(corpus, batch):
            single = session.check(source, filename)
            assert result.parsed is not None
            assert result.bindings == single.bindings
            assert all(b.scheme is not None for b in result.bindings
                       if b.ok)
            assert result.diagnostics == single.diagnostics
            assert result.ok == single.ok

    def test_identical_files_keep_their_own_filenames(self):
        from repro.driver import CheckStats

        source = "bad :: Int#\nbad = notInScope\n"
        stats = CheckStats()
        results = Session().check_many([("a.lev", source), ("b.lev", source)],
                                       stats=stats)
        assert [t.source for t in stats.timings] == ["checked", "checked"]
        for result in results:
            assert result.parsed is not None
            assert [d.filename for d in result.diagnostics] == \
                [result.filename]

    def test_an_edit_against_a_warm_cache_gives_a_slim_result(self, tmp_path):
        path = str(tmp_path / "cache")
        Session().check_many([("dep.lev", DEP_MODULE)], cache=path)
        edited = DEP_MODULE.replace("lone = 7#", "lone = 8#")
        (result,) = Session().check_many([("dep.lev", edited)],
                                         cache=ResultCache(path))
        assert result.ok and result.parsed is None
        schemes = {b.name: b.scheme for b in result.bindings}
        assert schemes["lone"] is not None  # re-checked here
        assert [schemes[name] for name in ("base", "mid", "top")] == \
            [None, None, None]  # served by the cache


def _tagged(tag):
    """DEP_MODULE with every name suffixed, so two files share no unit."""
    source = DEP_MODULE
    for name in ("base", "mid", "top", "lone"):
        source = source.replace(name, name + tag)
    return source


def _counts(stats):
    return stats.checked, stats.cache_hits, stats.cache_misses


class TestJobsDoNotChangeWhatIsRechecked:
    """An incremental re-check counts exactly the units it re-checked."""

    def test_body_edits_in_two_files(self, tmp_path):
        from repro.driver import CheckStats

        cache = str(tmp_path / "cache")
        cold = [(f"dep_{tag}.lev", _tagged(tag)) for tag in ("a", "b")]
        # Each file's first binding keeps its scheme: its three dependents
        # stay hits (early cutoff).
        edited = [(name, source.replace("x +# 1#", "x +# 2#"))
                  for name, source in cold]
        with Session() as session:
            session.check_many(cold, cache=cache)
            stats = CheckStats()
            session.check_many(edited, cache=cache, stats=stats)
        assert _counts(stats) == (2, 6, 2)

    def test_cold_run_counts_every_check_as_a_miss(self, tmp_path):
        from repro.driver import CheckStats

        stats = CheckStats()
        with Session() as session:
            session.check_many([("dep.lev", DEP_MODULE)],
                               cache=str(tmp_path / "cache"), stats=stats)
        assert _counts(stats) == (4, 0, 4)


class TestOneProcess:
    def test_no_module_imports_a_process_pool(self):
        """The unit walk runs where it is called: nothing under
        ``repro`` imports ``concurrent.futures`` or ``multiprocessing``."""
        import repro

        forbidden = ("concurrent.futures", "multiprocessing")
        offenders = []
        root = pathlib.Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module] + [f"{node.module}.{alias.name}"
                                             for alias in node.names]
                else:
                    continue
                offenders.extend(
                    f"{path.relative_to(root)}:{node.lineno}: {name}"
                    for name in names
                    if any(name == module or name.startswith(module + ".")
                           for module in forbidden))
        assert offenders == []


class TestStats:
    def test_stats_report_units_and_cache_counters(self, tmp_path):
        from repro.driver import CheckStats

        path = str(tmp_path / "cache.json")
        stats = CheckStats()
        Session().check_many([("dep.lev", DEP_MODULE)], cache=path,
                             stats=stats)
        assert stats.files == 1
        assert stats.units == 4 and stats.checked == 4
        assert stats.cache_hits == 0 and stats.cache_misses == 4
        warm = CheckStats()
        Session().check_many([("dep.lev", DEP_MODULE)],
                             cache=ResultCache(path), stats=warm)
        # Fully warm: answered from the whole-file entry.
        assert warm.file_hits == 1 and warm.checked == 0
        assert "file hits: 1" in warm.pretty()
        # Edit one binding: the file drops to the unit layer.
        edited = DEP_MODULE.replace("lone = 7#", "lone = 8#")
        partial = CheckStats()
        Session().check_many([("dep.lev", edited)],
                             cache=ResultCache(path), stats=partial)
        assert partial.cache_hits == 3 and partial.cache_misses == 1
        text = partial.pretty()
        assert "cache hits: 3" in text and "units: 4" in text

    def test_stats_without_cache_time_every_unit(self):
        from repro.driver import CheckStats

        stats = CheckStats()
        results = Session().check_many([("dep.lev", DEP_MODULE)], stats=stats)
        assert results[0].ok
        assert stats.units == 4 and stats.checked == 4
        assert all(t.seconds is not None for t in stats.timings)

    def test_cli_stats_flag(self, tmp_path, capsys):
        path = tmp_path / "stats.lev"
        path.write_text(DEP_MODULE)
        cache = str(tmp_path / "cache.json")
        assert main(["check", "--cache", cache, "--stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "-- stats --" in out
        assert "cache misses: 4" in out
        assert main(["check", "--cache", cache, "--stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "file hits: 1" in out and "cache misses: 0" in out


class TestAtomicCache:
    def test_concurrent_saves_merge_instead_of_clobbering(self, tmp_path):
        """Two runs sharing a --cache path must not lose each other's
        entries: save() writes only its own entries, in one transaction."""
        path = str(tmp_path / "shared.json")
        one = ResultCache(path)
        two = ResultCache(path)   # loaded before 'one' saves
        Session().check_many(make_corpus(2), cache=one)
        Session().check_many([("other.lev", "w :: Int#\nw = 3#\n")],
                             cache=two)
        # 'two' saved last but must still contain 'one's entries
        # (per-unit and per-file entries both).
        merged = ResultCache(path)
        assert len(merged.entries) == (2 * UNITS_PER_PROGRAM + 2) + (1 + 1)

    def test_failed_save_rolls_back_and_leaves_no_side_file(
            self, tmp_path, monkeypatch):
        import json as json_module

        import repro.driver.store as store_module

        path = str(tmp_path / "cache.json")
        Session().check_many(make_corpus(1), cache=path)
        before = _cache_files(path)
        assert list(before) == ["cache.sqlite"]
        cache = ResultCache(path)
        cache.store("deadbeef", {"members": []})
        cache.store("feedface", {"members": []})
        real_dumps = json_module.dumps
        calls = []

        def explode_on_the_second_entry(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("disk full")
            return real_dumps(*args, **kwargs)

        monkeypatch.setattr(store_module.json, "dumps",
                            explode_on_the_second_entry)
        with pytest.raises(RuntimeError):
            cache.save()
        monkeypatch.setattr(store_module.json, "dumps", real_dumps)
        # The first entry was inserted before the failure; the rollback
        # took it back, the database is byte-identical, and no journal
        # is left beside it.
        assert len(calls) == 2
        assert _cache_files(path) == before
        entries = ResultCache(path).entries
        assert entries and not {"deadbeef", "feedface"} & set(entries)

    def test_save_is_a_noop_when_nothing_changed(self, tmp_path):
        path = str(tmp_path / "cache.json")
        Session().check_many(make_corpus(1), cache=path)
        before = _cache_files(path)
        warm = ResultCache(path)
        Session().check_many(make_corpus(1), cache=warm)  # all hits
        # A no-op run writes no entry and reads only the key it probes:
        # the file-level entry, of the three the corpus stored.
        assert warm.entries_written == 0
        assert warm.keys_read == 1 < len(ResultCache(path).entries)
        assert _cache_files(path) == before


class TestReviewRegressions:
    def test_unit_entry_missing_fields_is_a_miss_not_a_crash(self, tmp_path):
        """A truncated unit entry (span/scheme_src stripped) must degrade
        to a cache miss, never a KeyError during assembly."""
        path = str(tmp_path / "cache.json")
        Session().check_many([("dep.lev", DEP_MODULE)], cache=path)

        def truncate(entries):
            for key, value in entries.items():
                if "members" in value:
                    value["members"] = [
                        {field: member[field] for field in member
                         if field not in ("scheme_src", "span")}
                        for member in value["members"]]
                else:
                    entries[key] = {}  # drop the file short-circuit

        _rewrite_entries(path, truncate)
        stats = CheckStats()
        results = Session().check_many([("dep.lev", DEP_MODULE)],
                                       cache=ResultCache(path), stats=stats)
        assert results[0].ok
        assert stats.cache_hits == 0 and stats.cache_misses == 4

    def test_duplicate_identical_bindings_keep_their_own_spans(self):
        # Two textually identical failing bindings: each diagnostic must
        # point at its own occurrence, not both at the last one.
        source = "a = mystery\n\nb :: Int#\nb = 1#\n\na = mystery\n"
        check = Session().check(source, "dup.lev")
        lines = sorted(d.span.line for d in check.errors)
        assert lines == [1, 6]

    def test_json_with_stats_keeps_stdout_machine_readable(self, tmp_path,
                                                           capsys):
        import json

        path = tmp_path / "j.lev"
        path.write_text(DEP_MODULE)
        cache = str(tmp_path / "cache.json")
        assert main(["check", "--json", "--stats", "--cache", cache,
                     str(path)]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout is one JSON document
        assert payload["results"][0]["ok"]
        assert payload["stats"]["check"]["checked"] > 0
        assert "batch.units_checked" in payload["stats"]["metrics"]["counters"]
        # Plain --json (no --stats) keeps the bare result-list shape.
        assert main(["check", "--json", str(path)]) == 0
        captured = capsys.readouterr()
        bare = json.loads(captured.out)
        assert isinstance(bare, list) and bare[0]["ok"]
