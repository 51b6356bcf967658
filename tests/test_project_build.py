"""Tests for the project layer: module/import syntax, the module DAG,
and cross-module incremental builds.

Covers the guarantees ``python -m repro build`` makes:

* ``module M where`` headers and ``import N`` declarations parse, print
  and validate (header first, imports before code);
* the module graph rejects import cycles, self-imports, unknown imports
  and duplicate module names with span-carrying diagnostics, and skips
  modules downstream of a failure structurally;
* diamond imports resolve each shared dependency once; whole-module
  results come back in input order under ``--jobs``;
* the schema-v3 cache gives **cross-file early cutoff**: a body-only
  edit re-checks exactly one unit (importing modules are file-level
  hits, never re-parsed), a scheme change invalidates precisely the
  downstream units naming it, a moved-but-unedited module stays a hit,
  and warm results are byte-identical to cold ones;
* ``--jobs`` never changes what a build re-checks, and ``check`` and
  ``build`` entries never answer each other;
* a schema-v2 cache document degrades to a cold cache, not an error;
* scope errors over a sibling module's export gain an "add import" note;
* the REPL ``:load`` rides the same plan and re-checks cross-module
  dependents on redefinition.
"""

import json

import pytest

from repro.driver import (
    CheckStats,
    ResultCache,
    Session,
    build_project_plan,
    check_project,
    discover_sources,
    run_project,
)
from repro.driver.batch import (
    CACHE_SCHEMA,
    payload_bytes,
    result_to_payload,
)
from repro.frontend import parse_module
from repro.frontend.parser import ParseError
from repro.surface.ast import ImportDecl, ModuleHeader
from repro.telemetry import TRACER, validate_events

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
        plan = build_project_plan(PROJECT, session.pipeline, session.options)
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

    def test_body_edit_rechecks_one_unit_for_every_jobs(self, across_jobs):
        chain = ("module A where\n\nbase :: Int# -> Int#\nbase x = x +# 1#\n"
                 "\nmid = base 1#\n\ntop = mid +# 2#\n\nlone :: Int#\n"
                 "lone = 7#\n")
        user = "module B where\nimport A\n\nuse :: Int#\nuse = top +# lone\n"
        cold = [("a.lev", chain), ("b.lev", user)]
        edited = [("a.lev", chain.replace("x +# 1#", "x +# 2#")),
                  ("b.lev", user)]

        def scenario(jobs, cache):
            with Session() as session:
                check_project(cold, jobs=jobs, cache=cache, session=session)
                stats = CheckStats()
                check = check_project(edited, jobs=jobs, cache=cache,
                                      session=session, stats=stats)
            assert check.ok and stats.file_hits == 1   # B, never re-parsed
            return stats, check.results

        # base re-checks; mid, top and lone stay hits wherever A's walk runs.
        assert across_jobs(scenario) == (1, 3, 1)

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

    def test_parallel_build_matches_serial(self, tmp_path):
        serial = check_project(PROJECT, session=Session())
        with Session() as session:
            parallel = check_project(PROJECT, jobs=2, session=session,
                                     cache=ResultCache(),
                                     stats=CheckStats())
        assert project_bytes(parallel.results) == \
            [payload_bytes(result_to_payload(r)) for r in
             check_project(PROJECT, session=Session(), cache=ResultCache(),
                           stats=CheckStats()).results]
        assert [r.ok for r in parallel.results] == \
            [r.ok for r in serial.results]


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
