"""Tests for the end-to-end driver: Session/Pipeline, CLI, golden rejects."""

import glob
import json
import os

import pytest

from repro.__main__ import main as cli_main
from repro.driver import Diagnostic, DriverOptions, Session
from repro.driver.lower import LoweringError, lower_entry
from repro.frontend import parse_module

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
EXAMPLES_DIR = os.path.join(os.path.dirname(HERE), "examples")

SUM_TO = """\
sumTo# :: Int# -> Int# -> Int#
sumTo# acc n = case n ==# 0# of { 1# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }

main :: Int#
main = sumTo# 0# 100#
"""

DOLLAR = """\
myError :: forall (r :: Rep) (a :: TYPE r). String -> a
myError s = error s

unbox :: Int -> Int#
unbox b = case b of { I# x -> x }

main :: Int#
main = unbox $ I# 42#
"""

FRAGMENT = """\
unbox :: Int -> Int#
unbox b = case b of { I# x -> x }

main :: Int#
main = unbox (I# 17#)
"""

#: The same binding defined twice: two identical units, one key.
DUP = """\
g :: Int# -> Int#
g x = x +# 1#

g :: Int# -> Int#
g x = x +# 1#

main :: Int#
main = g 41#
"""


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Session.check
# ---------------------------------------------------------------------------


class TestCheck:
    def test_accepts_and_renders_schemes(self):
        check = Session().check(SUM_TO, "sumto.lev")
        assert check.ok
        assert check.scheme_of("sumTo#").pretty() == "Int# -> Int# -> Int#"
        assert check.scheme_of("main").pretty() == "Int#"

    def test_explicit_reps_rendering(self):
        options = DriverOptions(explicit_runtime_reps=True)
        check = Session(options).check(DOLLAR, "dollar.lev")
        assert check.ok
        [my_error] = [b for b in check.bindings if b.name == "myError"]
        assert my_error.rendered == \
            "forall (r :: Rep) (a :: TYPE r). String -> a"

    def test_levity_rejection_has_span(self):
        check = Session().check(
            "f :: forall (r :: Rep) (a :: TYPE r). a -> a\nf x = x\n",
            "bad.lev")
        assert not check.ok
        [diagnostic] = check.errors
        assert diagnostic.stage == "levity"
        assert diagnostic.binding == "f"
        assert diagnostic.span.line == 2
        assert diagnostic.span.column == 1
        assert "bad.lev:2:1" in diagnostic.pretty()

    def test_one_bad_binding_does_not_hide_the_rest(self):
        source = ("good :: Int#\ngood = 1#\n"
                  "bad :: Int\nbad = 2#\n"
                  "alsoGood :: Int#\nalsoGood = good +# 1#\n")
        check = Session().check(source, "mixed.lev")
        assert not check.ok
        by_name = {b.name: b for b in check.bindings}
        assert by_name["good"].ok
        assert not by_name["bad"].ok
        assert by_name["alsoGood"].ok  # still checked, sees 'good'

    def test_failed_binding_with_signature_stays_usable(self):
        # The declared signature is trusted downstream even when the body
        # fails, exactly like a batch compiler recovering per declaration.
        source = ("bad :: Int# -> Int#\nbad x = missingVariable\n"
                  "uses :: Int#\nuses = bad 1#\n")
        check = Session().check(source, "recover.lev")
        by_name = {b.name: b for b in check.bindings}
        assert not by_name["bad"].ok
        assert by_name["uses"].ok

    def test_defaulted_rep_vars_surface(self):
        check = Session().check("f x = x\n", "id.lev")
        [binding] = check.bindings
        assert binding.ok
        assert binding.defaulted_rep_vars  # "never infer levity polymorphism"

    def test_signature_without_binding_warns(self):
        check = Session().check("lonely :: Int\n", "lonely.lev")
        assert check.ok  # warning, not error
        assert any(d.severity == "warning" for d in check.diagnostics)

    def test_check_many_batches(self):
        session = Session()
        results = session.check_many(
            [("a.lev", SUM_TO), ("b.lev", DOLLAR), ("c.lev", "g :: Int\ng = 1#\n")])
        assert [r.ok for r in results] == [True, True, False]


# ---------------------------------------------------------------------------
# Session.run / Session.compile
# ---------------------------------------------------------------------------


class TestRunAndCompile:
    def test_run_unboxed_loop(self):
        result = Session().run(SUM_TO, "sumto.lev")
        assert result.ok
        assert result.value == "5050#"
        assert result.costs["heap_allocations"] == 0

    def test_run_levity_polymorphic_program_end_to_end(self):
        result = Session().run(DOLLAR, "dollar.lev")
        assert result.ok
        assert result.value == "42#"

    def test_run_fragment_cross_checks_on_machine(self):
        result = Session().run(FRAGMENT, "fragment.lev")
        assert result.ok
        assert result.value == "17#"
        assert result.machine_value == "17"
        assert result.machine_steps > 0

    def test_run_with_a_repeated_unit_keeps_a_full_check(self):
        # Both copies of `g` are checked here, so the check keeps its
        # parse tree and schemes and the run can seed the evaluator.
        result = Session().run(DUP, "dup.lev")
        assert result.ok
        assert result.check.parsed is not None
        assert "main = 42#" in result.pretty()
        assert result.machine_agrees is True

    def test_run_missing_entry(self):
        result = Session().run("f :: Int#\nf = 1#\n", "noentry.lev")
        assert not result.ok
        assert any(d.stage == "run" for d in result.diagnostics)

    def test_run_rejects_parameterised_entry(self):
        result = Session().run("main :: Int# -> Int#\nmain x = x\n",
                               "arity.lev")
        assert not result.ok

    def test_compile_shows_l_and_m(self):
        result = Session().compile(FRAGMENT, "fragment.lev")
        assert result.ok
        assert "case" in result.l_source
        assert result.l_type == "Int#"
        assert "let" in result.m_code
        assert result.machine_value == "17"
        assert result.lazy_lets >= 1  # the boxed argument gets a lazy let

    def test_compile_outside_fragment_reports_diagnostic(self):
        # A String-typed binding is genuinely out of the fragment.
        result = Session().compile(
            "main :: String\nmain = \"hi\"\n", "string.lev")
        assert not result.ok
        assert any(d.stage == "compile" for d in result.diagnostics)

    def test_lower_entry_accepts_recursion_via_fix(self):
        # Recursive bindings lower through L's fix form and the machine
        # agrees with the evaluator on the result.
        parsed = parse_module(SUM_TO, "sumto.lev")
        check = Session().check(SUM_TO, "sumto.lev")
        schemes = {b.name: b.scheme for b in check.bindings}
        term = lower_entry(parsed.module, schemes, "sumTo#")
        assert "fix sumTo#" in term.pretty()
        result = Session().run(SUM_TO, "sumto.lev")
        assert result.ok and result.value == "5050#"
        assert result.machine_agrees is True


# ---------------------------------------------------------------------------
# Golden rejects
# ---------------------------------------------------------------------------


GOLDEN_CASES = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.lev")))


class TestGolden:
    @pytest.mark.parametrize(
        "path", GOLDEN_CASES, ids=[os.path.basename(p) for p in GOLDEN_CASES])
    def test_rejected_program_diagnostics(self, path):
        source = _read(path)
        expected = _read(path[: -len(".lev")] + ".expected")
        check = Session().check(source, os.path.basename(path))
        assert not check.ok, f"{path} unexpectedly accepted"
        actual = "\n".join(d.pretty() for d in check.diagnostics) + "\n"
        assert actual == expected

    def test_golden_corpus_is_nonempty(self):
        assert len(GOLDEN_CASES) >= 5


# ---------------------------------------------------------------------------
# Examples via the CLI entry point
# ---------------------------------------------------------------------------


EXAMPLE_FILES = sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.lev")))


class TestCli:
    def test_examples_exist(self):
        assert len(EXAMPLE_FILES) >= 2

    def test_check_examples(self, capsys):
        status = cli_main(["check"] + EXAMPLE_FILES)
        assert status == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_check_json(self, capsys):
        status = cli_main(["check", "--json"] + EXAMPLE_FILES[:1])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["ok"]
        assert payload[0]["bindings"]

    def test_run_example(self, capsys):
        path = os.path.join(EXAMPLES_DIR, "sumto.lev")
        status = cli_main(["run", path])
        assert status == 0
        assert "5050#" in capsys.readouterr().out

    def test_compile_example(self, capsys):
        path = os.path.join(EXAMPLES_DIR, "unbox_apply.lev")
        status = cli_main(["compile", path])
        assert status == 0
        out = capsys.readouterr().out
        assert "M  code" in out
        assert "17" in out

    def test_check_failure_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.lev"
        bad.write_text("g :: Int\ng = 3#\n")
        status = cli_main(["check", str(bad)])
        assert status == 1


# ---------------------------------------------------------------------------
# REPL
# ---------------------------------------------------------------------------


class TestRepl:
    def test_declare_then_evaluate(self):
        session = Session()
        assert session.repl_input("inc :: Int# -> Int#") == "defined."
        out = session.repl_input("inc n = n +# 1#")
        assert out == "inc :: Int# -> Int#"
        assert session.repl_input("inc 41#") == "42#"

    def test_type_query(self):
        session = Session()
        out = session.repl_input(":t \\x -> x")
        assert "->" in out

    def test_type_query_levity_poly(self):
        session = Session(DriverOptions(explicit_runtime_reps=True))
        out = session.repl_input(":t error")
        assert "String -> a" in out

    def test_error_reported_not_raised(self):
        session = Session()
        out = session.repl_input("notInScope 1#")
        assert "not in scope" in out

    def test_bad_declaration_not_recorded(self):
        session = Session()
        out = session.repl_input("g = missingThing")
        assert "not in scope" in out
        assert session._repl_decls == []

    def test_redefinition_is_last_wins(self):
        session = Session()
        session.repl_input("f = 5")
        out = session.repl_input("f x = x +# 1#")
        assert out == "f :: Int# -> Int#"
        assert session.repl_input("f 41#") == "42#"

    def test_zero_param_binding_usable_as_value(self):
        # Regression: a CAF must evaluate to its value, not an unapplied
        # closure, when referenced from another binding or expression.
        session = Session()
        session.repl_input("a :: Int#")
        session.repl_input("a = 1#")
        session.repl_input("b :: Int#")
        session.repl_input("b = a +# 1#")
        assert session.repl_input("b +# a") == "3#"


# ---------------------------------------------------------------------------
# REPL redefinition / shadowing (rides the unit-granularity pipeline)
# ---------------------------------------------------------------------------


class TestReplRedefinition:
    def test_dependents_see_the_new_scheme_after_redefinition(self):
        session = Session()
        session.repl_input("a :: Int#")
        session.repl_input("a = 1#")
        session.repl_input("b = a +# 1#")
        assert session.repl_input("b") == "2#"
        # Redefine the dependency: references resolve last-wins, checking
        # is dependency-ordered, so 'b' is re-checked against the new 'a'.
        out = session.repl_input("a = 10#")
        assert out == "a :: Int#"
        assert session.repl_input("b") == "11#"

    def test_redefinition_to_incompatible_type_reports_the_dependent(self):
        session = Session()
        session.repl_input("a = 1#")
        session.repl_input("b = a +# 1#")
        # 'a = True' would break dependent 'b'; the decl is rejected and
        # NOT recorded, and the error names the dependent that broke.
        out = session.repl_input("a = True")
        assert "b" in out and "error" in out
        assert session.repl_input("b") == "2#"  # old world still intact

    def test_load_style_multi_decl_input(self):
        session = Session()
        out = session.repl_input(
            "inc :: Int# -> Int#\ninc n = n +# 1#\ntwice x = inc (inc x)\n")
        assert "inc :: Int# -> Int#" in out
        assert "twice :: Int# -> Int#" in out
        assert session.repl_input("twice 40#") == "42#"

    def test_multi_decl_input_may_use_forward_references(self):
        session = Session()
        out = session.repl_input("first = second +# 1#\nsecond :: Int#\n"
                                 "second = 1#")
        assert "first :: Int#" in out
        assert session.repl_input("first") == "2#"


# ---------------------------------------------------------------------------
# Caret snippets
# ---------------------------------------------------------------------------


class TestSnippets:
    def test_caret_lands_on_the_offending_identifier(self):
        # Pinned against the golden nested-scope reproducer: the caret
        # must underline exactly 'missingName' deep inside the binding.
        path = os.path.join(GOLDEN_DIR, "reject_nested_scope.lev")
        source = _read(path)
        check = Session().check(source, "reject_nested_scope.lev")
        rendered = check.pretty(source=source)
        lines = rendered.split("\n")
        [code_at] = [i for i, line in enumerate(lines)
                     if "let j = n -# 1# in missingName j" in line
                     and "|" in line]
        code_line, caret_line = lines[code_at], lines[code_at + 1]
        gutter = code_line.index("|")
        assert caret_line[:gutter + 1].strip() == "|"
        start = caret_line.index("^")
        width = len(caret_line) - start
        code_body = code_line[start:start + width]
        assert code_body == "missingName"
        assert caret_line[start:] == "^" * len("missingName")

    def test_snippet_omitted_without_source(self):
        check = Session().check("g :: Int\ng = 3#\n", "nosrc.lev")
        assert "^" not in check.pretty()
        assert "^" in check.pretty(source="g :: Int\ng = 3#\n")

    def test_cli_check_prints_snippets(self, capsys, tmp_path):
        bad = tmp_path / "bad.lev"
        bad.write_text("g :: Int\ng = unknownThing\n")
        assert cli_main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "^" * len("unknownThing") in out
