"""Tests for the project layer: module/import syntax, the module DAG,
and cross-module incremental builds.

Covers the guarantees ``python -m repro build`` makes:

* ``module M where`` headers and ``import N`` declarations parse, print
  and validate (header first, imports before code);
* the module graph rejects import cycles, self-imports, unknown imports
  and duplicate module names with span-carrying diagnostics, and skips
  modules downstream of a failure structurally;
* diamond imports resolve each shared dependency once; whole-module
  results come back in input order;
* the schema-v3 cache gives **cross-file early cutoff**: a body-only
  edit re-checks exactly one unit (importing modules are file-level
  hits, never re-parsed), a scheme change invalidates precisely the
  downstream units naming it, a moved-but-unedited module stays a hit,
  and warm results are byte-identical to cold ones;
* a body edit re-checks one unit, and ``check`` and ``build`` entries
  never answer each other;
* a schema-v2 cache document degrades to a cold cache, not an error;
* scope errors over a sibling module's export gain an "add import" note;
* the REPL ``:load`` rides the same plan and re-checks cross-module
  dependents on redefinition.
"""

import json
import os
import sqlite3

import pytest

from repro.driver import CheckStats, ResultCache, Session
from repro.driver.project import (
    build_project_plan,
    check_project,
    discover_sources,
    module_key,
    run_project,
)
from repro.driver.batch import (
    CACHE_SCHEMA,
    payload_bytes,
    result_to_payload,
)
from repro.driver.session import Pipeline
from repro.driver.store import CacheStore
from repro.frontend import parse_module
from repro.frontend.parser import ParseError
from repro.surface.ast import ImportDecl, ModuleHeader
from repro.telemetry import REGISTRY, TRACER, validate_events

NAT = """module Nat where

sumTo# :: Int# -> Int# -> Int#
sumTo# acc n = case n ==# 0# of { 1# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }

double# :: Int# -> Int#
double# n = n +# n
"""

BOX = """module Box where

unbox :: Int -> Int#
unbox b = case b of { I# x -> x }

rebox :: Int# -> Int
rebox n = I# n
"""

WORLD = """module World where
import Nat

runSum# :: Int# -> Int#
runSum# n = runRW# (\\s -> sumTo# 0# n)
"""

MAIN = """module Main where
import Box
import Nat
import World

main :: Int
main = rebox (double# (runSum# 10#))
"""

PROJECT = [("nat.lev", NAT), ("box.lev", BOX), ("world.lev", WORLD),
           ("main.lev", MAIN)]


def project_bytes(results):
    return [payload_bytes(result_to_payload(result)) for result in results]


def counted(action, *names):
    """``action()`` and how much each named registry counter rose."""
    before = [REGISTRY.counter(name).value for name in names]
    result = action()
    return result, {name: REGISTRY.counter(name).value - value
                    for name, value in zip(names, before)}


class TestModuleSyntax:
    def test_header_and_imports_parse(self):
        parsed = parse_module(MAIN, "main.lev")
        assert parsed.module.name == "Main"
        header = parsed.module.header()
        assert isinstance(header, ModuleHeader)
        assert parsed.module.imports() == ["Box", "Nat", "World"]

    def test_pretty_round_trips(self):
        parsed = parse_module(WORLD, "world.lev")
        printed = parsed.module.pretty()
        assert "module World where" in printed
        assert "import Nat" in printed
        again = parse_module(printed, "world.lev")
        assert again.module.pretty() == printed

    def test_header_must_be_first(self):
        with pytest.raises(ParseError) as exc:
            parse_module("x = 1\nmodule Late where\n", "bad.lev")
        assert "first declaration" in str(exc.value)

    def test_duplicate_header_rejected(self):
        with pytest.raises(ParseError):
            parse_module("module A where\nmodule B where\n", "bad.lev")

    def test_imports_precede_code(self):
        with pytest.raises(ParseError) as exc:
            parse_module("module A where\nx = 1\nimport B\n", "bad.lev")
        assert "before all other declarations" in str(exc.value)

    def test_import_decl_spans_recorded(self):
        parsed = parse_module(MAIN, "main.lev")
        spans = [span for decl, span
                 in zip(parsed.module.decls, parsed.decl_span_list)
                 if isinstance(decl, ImportDecl)]
        assert [span.line for span in spans] == [2, 3, 4]

    def test_single_file_mode_warns_on_imports(self):
        result = Session().check(WORLD, "world.lev")
        warnings = [d for d in result.diagnostics if d.severity == "warning"]
        assert any("single-file mode" in d.message for d in warnings)
        # The import itself does not resolve: the foreign name is an error.
        assert not result.ok


class TestProjectPlan:
    def test_dag_levels(self):
        session = Session()
        plan = build_project_plan(PROJECT, session.pipeline)
        assert plan.ok
        by_file = {node.filename: node for node in plan.nodes}
        assert by_file["nat.lev"].level == 0
        assert by_file["box.lev"].level == 0
        assert by_file["world.lev"].level == 1
        assert by_file["main.lev"].level == 2

    def test_import_cycle_rejected_with_spans(self):
        cyc_a = "module A where\nimport B\n\nx :: Int\nx = 1\n"
        cyc_b = "module B where\nimport A\n\ny :: Int\ny = 2\n"
        check = check_project([("a.lev", cyc_a), ("b.lev", cyc_b)],
                              session=Session())
        assert not check.ok
        for result in check.results:
            (diag,) = result.errors
            assert "import cycle: A -> B -> A" in diag.message
            # The span points at the import declaration itself.
            assert diag.span is not None and diag.span.line == 2

    def test_self_import_rejected(self):
        src = "module A where\nimport A\n\nx :: Int\nx = 1\n"
        check = check_project([("a.lev", src)], session=Session())
        (diag,) = check.results[0].errors
        assert "imports itself" in diag.message

    def test_unknown_import(self):
        src = "module A where\nimport Nowhere\n\nx :: Int\nx = 1\n"
        check = check_project([("a.lev", src)], session=Session())
        (diag,) = check.results[0].errors
        assert "unknown module 'Nowhere'" in diag.message
        assert diag.span is not None and diag.span.line == 2

    def test_duplicate_module_names(self):
        one = "module A where\n\nx :: Int\nx = 1\n"
        two = "module A where\n\ny :: Int\ny = 2\n"
        check = check_project([("one.lev", one), ("two.lev", two)],
                              session=Session())
        assert check.results[0].ok          # first file wins
        (diag,) = check.results[1].errors
        assert "duplicate module 'A'" in diag.message

    def test_parse_failure_skips_importers(self):
        broken = "module B where\n\nx = = 1\n"
        importer = "module A where\nimport B\n\ny :: Int\ny = 1\n"
        check = check_project([("b.lev", broken), ("a.lev", importer)],
                              session=Session())
        assert not check.results[0].ok      # the parse error itself
        (diag,) = check.results[1].errors
        assert "its import 'B' failed" in diag.message
        assert diag.span is not None and diag.span.line == 2

    def test_diamond_imports_resolve_once(self):
        base = "module D where\n\nv :: Int\nv = 4\n"
        left = "module B where\nimport D\n\nl :: Int\nl = v\n"
        right = "module C where\nimport D\n\nr :: Int\nr = v\n"
        top = "module A where\nimport B\nimport C\n\nt :: Int\nt = l + r\n"
        stats = CheckStats()
        check = check_project(
            [("d.lev", base), ("b.lev", left), ("c.lev", right),
             ("a.lev", top)],
            session=Session(), stats=stats)
        assert check.ok
        assert stats.files == 4
        assert stats.checked == 4           # one unit each, D checked once
        assert [len(level) for level in check.plan.levels] == [1, 2, 1]

    def test_headerless_files_check_but_cannot_be_imported(self):
        plain = "x :: Int\nx = 1\n"
        importer = "module A where\nimport Main\n\ny :: Int\ny = 2\n"
        check = check_project([("plain.lev", plain), ("a.lev", importer)],
                              session=Session())
        assert check.results[0].ok
        (diag,) = check.results[1].errors
        assert "unknown module 'Main'" in diag.message


class TestCrossModuleIncremental:
    def fresh_cache(self, tmp_path):
        return str(tmp_path / "project-cache.json")

    def build(self, items, path, stats=None):
        session = Session()
        cache = ResultCache(path)
        check = check_project(items, cache=cache, session=session,
                              stats=stats)
        cache.save()
        return check

    def test_warm_build_rechecks_nothing(self, tmp_path):
        path = self.fresh_cache(tmp_path)
        cold_stats = CheckStats()
        cold = self.build(PROJECT, path, cold_stats)
        assert cold.ok and cold_stats.checked > 0
        warm_stats = CheckStats()
        warm = self.build(PROJECT, path, warm_stats)
        assert warm_stats.checked == 0
        assert warm_stats.file_hits == len(PROJECT)
        assert project_bytes(warm.results) == project_bytes(cold.results)

    def test_body_edit_rechecks_exactly_one_unit(self, tmp_path):
        path = self.fresh_cache(tmp_path)
        self.build(PROJECT, path)
        edited = NAT.replace("double# n = n +# n", "double# n = n *# 2#")
        assert edited != NAT
        stats = CheckStats()
        check = self.build([("nat.lev", edited)] + PROJECT[1:], path, stats)
        assert check.ok
        # double#'s exported scheme is unchanged: the three importing
        # modules stay whole-file hits (never re-parsed), and within
        # nat.lev only the edited unit misses.
        assert stats.checked == 1, stats.pretty()
        assert stats.file_hits == 3

    def _outline_counts(self, build):
        return counted(build, "cache.outline_hits", "cache.outline_misses",
                       "frontend.blocks_parsed", "cache.module_hits",
                       "cache.module_misses")

    def test_the_graph_reads_block_outlines_once_per_build(self, tmp_path):
        """A warm build plans the graph from the 4 ``module:`` entries and
        reads no block outline.  After a body edit only nat.lev's entry
        misses: the graph reads its 5 block outlines, and re-opening it
        for the edited unit answers them from the session's block memo,
        so none is read twice."""
        path = self.fresh_cache(tmp_path)
        self.build(PROJECT, path)
        _, counts = self._outline_counts(lambda: self.build(PROJECT, path))
        assert counts == {"cache.outline_hits": 0,
                          "cache.outline_misses": 0,
                          "frontend.blocks_parsed": 0,
                          "cache.module_hits": 4,
                          "cache.module_misses": 0}
        edited = NAT.replace("double# n = n +# n", "double# n = n *# 2#")
        stats = CheckStats()
        check, counts = self._outline_counts(lambda: self.build(
            [("nat.lev", edited)] + PROJECT[1:], path, stats))
        assert check.ok and stats.checked == 1
        # The edited block misses and is parsed; its signature block is
        # parsed for the re-checked unit.
        assert counts == {"cache.outline_hits": 4,
                          "cache.outline_misses": 1,
                          "frontend.blocks_parsed": 2,
                          "cache.module_hits": 3,
                          "cache.module_misses": 1}
        scratch = check_project([("nat.lev", edited)] + PROJECT[1:],
                                session=Session())
        assert project_bytes(check.results) == project_bytes(scratch.results)

    def test_a_module_that_fails_to_parse_is_planned_from_outlines(
            self, tmp_path):
        broken = NAT.replace("double# n = n +# n", "double# n = (n +# n")
        items = [("nat.lev", broken)] + PROJECT[1:]
        path = self.fresh_cache(tmp_path)
        cold = self.build(items, path)
        assert not cold.ok
        assert cold.plan.nodes[0].parse_error
        assert cold.plan.nodes[0].name == "Nat"
        warm, counts = self._outline_counts(lambda: self.build(items, path))
        assert counts["frontend.blocks_parsed"] == 0
        assert project_bytes(warm.results) == project_bytes(cold.results)
        scratch = check_project(items, session=Session())
        assert project_bytes(warm.results) == project_bytes(scratch.results)

    def test_scheme_change_invalidates_only_consumers(self, tmp_path):
        base = "module D where\n\nv :: Int\nv = 4\nw :: Int\nw = 5\n"
        left = "module B where\nimport D\n\nl :: Int\nl = v\n"
        right = "module C where\nimport D\n\nr :: Int\nr = w\n"
        items = [("d.lev", base), ("b.lev", left), ("c.lev", right)]
        path = self.fresh_cache(tmp_path)
        self.build(items, path)
        # Change v's scheme (Int -> Bool): B names v and must re-check
        # (and now fails); C references only w and stays a file hit.
        edited = base.replace("v :: Int\nv = 4", "v :: Bool\nv = True")
        stats = CheckStats()
        check = self.build([("d.lev", edited), ("b.lev", left),
                            ("c.lev", right)], path, stats)
        assert check.results[0].ok
        assert not check.results[1].ok      # l = v is now ill-typed
        assert check.results[2].ok
        assert stats.file_hits == 1         # C only
        checked_names = {binding for result in (check.results[0],
                                                check.results[1])
                         for binding in [b.name for b in result.bindings]}
        assert "l" in checked_names

    def test_moved_module_stays_a_hit(self, tmp_path):
        path = self.fresh_cache(tmp_path)
        self.build(PROJECT, path)
        moved = [("src/" + filename, source) for filename, source in PROJECT]
        stats = CheckStats()
        check = self.build(moved, path, stats)
        assert check.ok
        assert stats.checked == 0
        assert [r.filename for r in check.results] == \
            [filename for filename, _ in moved]

    def test_v3_monolithic_document_degrades_to_cold(self, tmp_path):
        # A legacy monolithic cache *file* at the cache path (v3 entries
        # can never hit under v4 — the schema is hashed into every key)
        # is not a cache directory: the build refuses it before checking
        # anything and leaves it byte-identical.
        path = self.fresh_cache(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": CACHE_SCHEMA - 1,
                       "entries": {"junk": {"members": []}}}, handle)
        with open(path, "rb") as handle:
            before = handle.read()
        stats = CheckStats()
        with pytest.raises(FileExistsError):
            self.build(PROJECT, path, stats)
        assert stats.files == 0             # refused before any checking
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_body_edit_rechecks_one_unit_for_every_jobs(self, tmp_path):
        chain = ("module A where\n\nbase :: Int# -> Int#\nbase x = x +# 1#\n"
                 "\nmid = base 1#\n\ntop = mid +# 2#\n\nlone :: Int#\n"
                 "lone = 7#\n")
        user = "module B where\nimport A\n\nuse :: Int#\nuse = top +# lone\n"
        cold = [("a.lev", chain), ("b.lev", user)]
        edited = [("a.lev", chain.replace("x +# 1#", "x +# 2#")),
                  ("b.lev", user)]
        cache = str(tmp_path / "cache")
        with Session() as session:
            check_project(cold, cache=cache, session=session)
            stats = CheckStats()
            check = check_project(edited, cache=cache, session=session,
                                  stats=stats)
        assert check.ok and stats.file_hits == 1   # B, never re-parsed
        # base re-checks; mid, top and lone stay hits.
        assert (stats.checked, stats.cache_hits, stats.cache_misses) == \
            (1, 3, 1)

    def test_check_and_build_entries_never_answer_each_other(self, tmp_path,
                                                             capsys):
        from repro.__main__ import main

        for filename, source in PROJECT:
            (tmp_path / filename).write_text(source)
        cache = str(tmp_path / "cache")
        world = str(tmp_path / "world.lev")
        unresolved = "import Nat is not resolved in single-file mode"
        # Single-file mode: the import warns and sumTo# stays unbound.
        assert main(["check", "--cache", cache, world]) == 1
        assert unresolved in capsys.readouterr().out
        # The build resolves it for real, in spite of the check's entries.
        assert main(["build", str(tmp_path), "--cache", cache]) == 0
        assert unresolved not in capsys.readouterr().out
        # And the build's entries do not answer a later check.
        assert main(["check", "--cache", cache, world]) == 1
        assert unresolved in capsys.readouterr().out



class TestOneSavePerBuild:
    """On a cache path, a build opens one connection and commits at most
    once, however many DAG levels it walks."""

    NAT_BODY = NAT.replace("double# n = n +# n", "double# n = n *# 2#")
    NAT_SIGNATURE = NAT.replace("double# :: Int# -> Int#\ndouble# n = n +# n",
                                "double# :: Int -> Int\ndouble# n = n")

    def store_counts(self, build):
        return counted(build, "cache.store.connections",
                       "cache.store.commits")

    def test_check_project_commits_once_per_build(self, tmp_path):
        root = str(tmp_path / "cache")
        builds = [
            ("cold", PROJECT, 1, 6),
            ("no-op", PROJECT, 0, 0),
            ("body edit", [("nat.lev", self.NAT_BODY)] + PROJECT[1:], 1, 1),
            # double#'s scheme changes: main.lev re-opens and fails.
            ("signature edit", [("nat.lev", self.NAT_SIGNATURE)]
             + PROJECT[1:], 1, 2),
            ("no-op", [("nat.lev", self.NAT_SIGNATURE)] + PROJECT[1:], 0, 0),
        ]
        for what, items, commits, checked in builds:
            stats = CheckStats()
            check, counts = self.store_counts(lambda: check_project(
                items, cache=root, session=Session(), stats=stats))
            assert len(check.plan.levels) == 3
            assert counts == {"cache.store.connections": 1,
                              "cache.store.commits": commits}, what
            assert stats.checked == checked, what

    def test_check_many_commits_once_per_build(self, tmp_path):
        root = str(tmp_path / "cache")
        inc = "inc :: Int# -> Int#\ninc n = n +# 1#\n\ntwice n = inc (inc n)\n"
        const = "k :: Int\nk = 3\n"
        files = [("inc.lev", inc), ("const.lev", const)]
        builds = [
            ("cold", files, 1, 3),
            ("no-op", files, 0, 0),
            ("body edit", [("inc.lev", inc.replace("1#", "2#")),
                           ("const.lev", const)], 1, 1),
            ("signature edit", [("inc.lev", inc.replace("1#", "2#")),
                                ("const.lev", "k :: Bool\nk = True\n")],
             1, 1),
        ]
        for what, items, commits, checked in builds:
            stats = CheckStats()
            results, counts = self.store_counts(lambda: Session().check_many(
                items, cache=root, stats=stats))
            assert all(result.ok for result in results), what
            assert counts == {"cache.store.connections": 1,
                              "cache.store.commits": commits}, what
            assert stats.checked == checked, what

    def test_a_build_that_stops_in_its_second_level_writes_nothing(
            self, tmp_path, monkeypatch):
        root = str(tmp_path / "cache")
        check_project(PROJECT, cache=root, session=Session())
        database = os.path.join(root, "cache.sqlite")
        with open(database, "rb") as handle:
            before = handle.read()
        check_unit = Pipeline.check_unit

        def interrupted(pipeline, plan, unit, available):
            if "runSum#" in unit.names:
                raise RuntimeError("interrupted")
            return check_unit(pipeline, plan, unit, available)

        monkeypatch.setattr(Pipeline, "check_unit", interrupted)
        edited = [("nat.lev", self.NAT_BODY), ("box.lev", BOX),
                  ("world.lev", WORLD.replace("sumTo# 0# n", "sumTo# 1# n")),
                  ("main.lev", MAIN)]
        stats = CheckStats()
        with pytest.raises(RuntimeError, match="interrupted"):
            check_project(edited, cache=root, session=Session(), stats=stats)
        # Level 0 re-checked double#, whose entries the build never saved.
        assert stats.checked == 1
        with open(database, "rb") as handle:
            assert handle.read() == before
        assert os.listdir(root) == ["cache.sqlite"]
        monkeypatch.undo()
        check = check_project(edited, cache=root, session=Session())
        scratch = check_project(edited, session=Session())
        assert project_bytes(check.results) == project_bytes(scratch.results)


def _hand_edit(root, key, payload):
    """Overwrite one entry's payload, as a hand edit would."""
    db = sqlite3.connect(os.path.join(root, "cache.sqlite"))
    try:
        with db:
            db.execute("UPDATE entry SET payload = ? WHERE key = ?",
                       (json.dumps(payload), key))
    finally:
        db.close()


#: Marks a field the malformed-row test deletes.
_DELETED = object()


class TestModuleEntries:
    """With a cache the module graph is built from one ``module:`` entry
    per file; a malformed entry is a miss, planned from block outlines."""

    def plan_facts(self, plan):
        return [(node.name, node.parse_error, node.header_span, node.imports,
                 node.foreign, node.level) for node in plan.nodes]

    @pytest.mark.parametrize("field, value", [
        ("foreign", _DELETED),
        ("parse_error", "no"),
        ("name", ["World"]),
        ("imports", [["Nat", [2, 1, 2]]]),
        ("header_span", [1, 1, 1, "19"]),
    ], ids=["missing-field", "wrong-type", "name-not-a-string",
            "short-import-span", "bad-header-span"])
    def test_a_malformed_entry_is_a_miss_and_overwritten(
            self, tmp_path, field, value):
        root = str(tmp_path / "cache")
        cold = check_project(PROJECT, cache=root, session=Session())
        key = module_key(WORLD)
        good = CacheStore(root).get(key)
        bad = dict(good)
        if value is _DELETED:
            del bad[field]
        else:
            bad[field] = value
        _hand_edit(root, key, bad)
        warm, counts = counted(
            lambda: check_project(PROJECT, cache=root, session=Session()),
            "cache.module_hits", "cache.module_misses",
            "cache.outline_hits", "cache.outline_misses",
            "frontend.blocks_parsed")
        # world.lev is planned from its 4 block outlines, parsing none.
        assert counts == {"cache.module_hits": 3, "cache.module_misses": 1,
                          "cache.outline_hits": 4, "cache.outline_misses": 0,
                          "frontend.blocks_parsed": 0}
        assert CacheStore(root).get(key) == good
        assert self.plan_facts(warm.plan) == self.plan_facts(cold.plan)
        assert project_bytes(warm.results) == project_bytes(cold.results)

    @pytest.mark.parametrize("items, message", [
        ([("one.lev", "module A where\n\nx :: Int\nx = 1\n"),
          ("two.lev", "module A where\n\nx :: Int\nx = 1\n")],
         "duplicate module 'A'"),
        ([("nat.lev", NAT.replace("double# n = n +# n",
                                  "double# n = (n +# n"))] + PROJECT[1:],
         "its import 'Nat' failed"),
    ], ids=["one-source-twice", "parse-failure"])
    def test_a_warm_build_plans_every_file_from_its_entry(
            self, tmp_path, items, message):
        root = str(tmp_path / "cache")
        check_project(items, cache=root, session=Session())
        warm, counts = counted(
            lambda: check_project(items, cache=root, session=Session()),
            "cache.module_hits", "cache.module_misses",
            "cache.outline_hits", "frontend.blocks_parsed")
        assert counts == {"cache.module_hits": len(items),
                          "cache.module_misses": 0,
                          "cache.outline_hits": 0,
                          "frontend.blocks_parsed": 0}
        scratch = check_project(items, session=Session())
        assert self.plan_facts(warm.plan) == self.plan_facts(scratch.plan)
        assert project_bytes(warm.results) == project_bytes(scratch.results)
        assert any(message in diagnostic.message
                   for result in warm.results
                   for diagnostic in result.diagnostics)


class TestCrossModuleScopeHints:
    def test_missing_import_gets_a_note(self):
        user = "module User where\n\nq :: Int\nq = rebox 1#\n"
        check = check_project([("box.lev", BOX), ("user.lev", user)],
                              session=Session())
        result = check.results[1]
        assert not result.ok
        notes = [d for d in result.diagnostics if d.severity == "note"]
        assert any("defined in module 'Box'; add 'import Box'" in d.message
                   for d in notes)

    def test_no_note_when_already_imported(self):
        # 'rebox' is imported but misapplied: the scope error does not
        # occur, so no hint either.
        user = "module User where\nimport Box\n\nq :: Int\nq = rebox 1#\n"
        check = check_project([("box.lev", BOX), ("user.lev", user)],
                              session=Session())
        assert check.results[1].ok
        assert not [d for d in check.results[1].diagnostics
                    if d.severity == "note"]


class TestRunAndDiscovery:
    def test_run_project_entry(self):
        session = Session()
        check = check_project(PROJECT, session=session)
        assert check.ok
        result = run_project(session, check, "main")
        assert result.ok
        assert result.value == "(I# 110#)"

    def test_discover_sources_walks_directories(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.lev").write_text("x = 1\n")
        (tmp_path / "sub" / "b.lev").write_text("y = 2\n")
        (tmp_path / "notes.txt").write_text("ignored\n")
        items = discover_sources([str(tmp_path)])
        assert [source for _, source in items] == ["x = 1\n", "y = 2\n"]

    def test_build_cli_end_to_end(self, tmp_path, capsys):
        from repro.__main__ import main

        for filename, source in PROJECT:
            (tmp_path / filename).write_text(source)
        cache = str(tmp_path / "cache.json")
        assert main(["build", str(tmp_path), "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["build", str(tmp_path), "--cache", cache,
                     "--stats", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"]
        assert document["stats"]["check"]["checked"] == 0
        modules = {entry["module"] for entry in document["modules"]}
        assert modules == {"Nat", "Box", "World", "Main"}

    def test_project_spans_traced(self):
        TRACER.enable()
        try:
            check_project(PROJECT, session=Session())
            events = TRACER.drain()
        finally:
            TRACER.disable()
            TRACER.drain()
        validate_events(events)
        names = {event["name"] for event in events if event["ph"] == "B"}
        assert {"project.graph", "module.resolve"} <= names


class TestReplLoad:
    def write_project(self, tmp_path):
        for filename, source in PROJECT:
            (tmp_path / filename).write_text(source)

    def test_load_and_eval(self, tmp_path):
        self.write_project(tmp_path)
        session = Session()
        out = session.repl_input(f":load {tmp_path}")
        assert "loaded 4 file(s)" in out
        assert session.repl_input("rebox (runSum# 4#)") == "(I# 10#)"
        assert session.repl_input(":t runSum#") \
            .endswith("runSum# :: Int# -> Int#")

    def test_redefinition_rechecks_cross_module_dependents(self, tmp_path):
        self.write_project(tmp_path)
        session = Session()
        session.repl_input(f":load {tmp_path}")
        # Body-only redefinition: early cutoff, one unit.
        out = session.repl_input("double# n = n *# 2#")
        assert "re-checked 1 unit(s)" in out
        # Scheme-changing redefinition: the cross-module dependents of
        # double# (main in Main) re-check — and fail against Int.
        out = session.repl_input("double# :: Int -> Int\ndouble# n = n + n")
        assert "error" in out

    def test_echo_is_the_display_rendering(self, tmp_path):
        self.write_project(tmp_path)
        definition = "idf :: forall a. a -> a\nidf x = x"
        session = Session()
        session.repl_input(f":load {tmp_path}")
        out = session.repl_input(definition)
        # What `repro check` and the plain REPL print, not the cache's
        # canonical rendering (forall (a :: Type). a -> a).
        assert out.splitlines()[0] == "idf :: a -> a"
        assert Session().repl_input(definition) == "idf :: a -> a"

    def test_new_overlay_binding_sees_imports(self, tmp_path):
        self.write_project(tmp_path)
        session = Session()
        session.repl_input(f":load {tmp_path}")
        out = session.repl_input("quad# :: Int# -> Int#\n"
                                 "quad# n = double# (double# n)")
        assert "quad# :: Int# -> Int#" in out
        assert session.repl_input("rebox (quad# 3#)") == "(I# 12#)"
