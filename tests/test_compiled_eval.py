"""The closure-compilation backend against the tree-walker (ISSUE 6).

The referee for the compiled evaluator is the existing differential
harness: the same fixed-seed corpus that gates the fuzzing PR is pushed
through ``DriverOptions(compiled=True)`` and must satisfy all five
oracles, and every program's entry expression must produce the *same
shown value* through both evaluators.  On top of that, the per-unit
codegen cache (schema-v2 side-table) is exercised for round-trips,
stale-arity invalidation and corrupt-entry regeneration, and every row
of the primop registry is run through both engines.
"""

import itertools
import json
import pathlib
import sys

import pytest

from repro.core.errors import EvaluationError, ReproError
from repro.core.primops import INT_PRIMOPS, PRIMOP_ROWS, primop_delta
from repro.driver import DriverOptions, Session
from repro.driver.batch import ResultCache, codegen_cache_key
from repro.fuzz import DifferentialHarness, generate_corpus
from repro.__main__ import main as cli_main
from repro.runtime import compiler
from repro.runtime.compiler import CODEGEN_VERSION
from repro.runtime.evaluator import Evaluator, Program
from repro.runtime.values import UnboxedInt
from repro.surface.ast import ELitDoubleHash, ELitIntHash, EVar, apply
from repro.surface.prelude import prelude_schemes
from repro.telemetry import REGISTRY, TRACER, validate_trace_document

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: The same corpus the fuzzing PR gates on (tests/test_fuzz_differential.py)
#: — bump deliberately, never implicitly.
CORPUS_SEED = 20260731
CORPUS_SIZE = 1050


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CORPUS_SEED, CORPUS_SIZE)


@pytest.fixture(scope="module")
def session():
    return Session()


# ---------------------------------------------------------------------------
# The tentpole referee: the full fixed-seed corpus, compiled
# ---------------------------------------------------------------------------


class TestCompiledCorpus:
    def test_full_corpus_compiled_zero_disagreements(self, corpus):
        """All five oracles hold with the compiled evaluator driving the
        ``run``/``reference``/``differential`` checks."""
        harness = DifferentialHarness(DriverOptions(compiled=True))
        report = harness.run_corpus(corpus)
        assert report.programs == CORPUS_SIZE
        assert report.ok, report.pretty(max_failures=3)
        # The oracles must actually engage, not silently skip:
        assert report.counters["machine_engaged"] >= CORPUS_SIZE // 10
        assert report.counters["reference_checked"] >= CORPUS_SIZE // 2

    def test_compiled_and_interpreted_values_identical(self, corpus, session):
        """Every corpus entry evaluates to the identical shown value (or
        the identical error) through both evaluators."""
        disagreements = []
        for program in corpus:
            check = session.check(program.source, program.filename)
            if not check.ok:  # pragma: no cover - corpus always checks
                continue
            interpreted = _eval_entry(check, compiled=False)
            compiled = _eval_entry(check, compiled=True)
            if interpreted != compiled:
                disagreements.append(
                    (program.filename, interpreted, compiled))
        assert not disagreements, disagreements[:3]


def _eval_entry(check, compiled):
    return _eval_expr(check.parsed.module.bindings()["main"].rhs, compiled,
                      Program.from_check(check))


def _eval_expr(expr, compiled, program=None):
    evaluator = Evaluator(program, compiled=compiled)
    try:
        value = evaluator.force(evaluator.eval(expr))
    except ReproError as exc:
        return ("error", str(exc))
    return ("ok", value.show(evaluator.heap))


# ---------------------------------------------------------------------------
# The primop registry on every backend
# ---------------------------------------------------------------------------


#: Operands per unboxed type: zero divisors, negatives, and an Int# past
#: 2**62 (beyond a 64-bit product, exact in every backend).
SAMPLES = {
    "Int#": (0, 1, -7, 2 ** 62 + 1),
    "Char#": (0, 97),
    "Word#": (0, 5),
    "Double#": (0.0, 1.5, -7.0, 1e308),
    "Float#": (0.0, 1.5, -7.0),
}


class TestPrimopRegistry:
    def test_int_primops_agree_with_l_and_the_machine(self):
        """Every ``Int#`` row through ``Session.run`` on both engines: the
        same value (or ⊥) as the registry's delta, and the L/M
        cross-check agrees on it."""
        engines = (Session(), Session(DriverOptions(compiled=True)))
        for name, arity in INT_PRIMOPS.items():
            for operands in itertools.product(SAMPLES["Int#"],
                                              repeat=arity):
                arguments = " ".join(f"({n}#)" for n in operands)
                source = f"main :: Int#\nmain = ({name}) {arguments}\n"
                expected = primop_delta(name, operands)
                for engine in engines:
                    result = engine.run(source, "primop.lev")
                    assert result.machine_agrees is True, source
                    if expected is None:
                        assert not result.ok, source
                        assert any(f"{name} by zero" in d.message
                                   for d in result.check.errors), source
                    else:
                        assert result.ok and result.value == f"{expected}#", \
                            (source, result.value)

    def test_other_rows_agree_between_engines(self):
        for name, row in PRIMOP_ROWS.items():
            if name in INT_PRIMOPS:
                continue
            for operands in itertools.product(
                    *(SAMPLES[type_name] for type_name in row.arguments)):
                expr = apply(EVar(name), *(
                    ELitDoubleHash(value) if isinstance(value, float)
                    else ELitIntHash(value) for value in operands))
                interpreted = _eval_expr(expr, compiled=False)
                assert interpreted == _eval_expr(expr, compiled=True), \
                    (name, operands)

    @pytest.mark.parametrize("compiled", [False, True])
    def test_every_prelude_name_has_a_runtime_definition(self, compiled):
        """A name that type-checks must also run: each prelude scheme has
        a value on both engines (``undefined`` is ⊥ by design)."""
        for name in prelude_schemes():
            evaluator = Evaluator(Program(), compiled=compiled)
            if name == "undefined":
                with pytest.raises(EvaluationError):
                    evaluator.global_value(name)
            else:
                evaluator.global_value(name)


# ---------------------------------------------------------------------------
# Direct compiled-evaluator behaviour
# ---------------------------------------------------------------------------


UNBOXED_LOOP = """\
sumTo# :: Int# -> Int# -> Int#
sumTo# acc n = case n ==# 0# of { 1# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }

main :: Int#
main = sumTo# 0# 100#
"""


class TestCompiledEvaluator:
    def test_unboxed_loop_runs_flat(self, session):
        """The signature compiled win: a tail-recursive unboxed loop far
        deeper than any Python recursion budget the tree-walker gets."""
        check = session.check(UNBOXED_LOOP, "loop.lev")
        assert check.ok
        program = Program.from_check(check)
        evaluator = Evaluator(program, compiled=True)
        result = evaluator.run("sumTo#", UnboxedInt(0), UnboxedInt(100_000))
        assert evaluator.int_result(result) == 100_000 * 100_001 // 2

    def test_compiled_session_matches_interpreted(self):
        interpreted = Session().run(UNBOXED_LOOP, "loop.lev")
        compiled = Session(DriverOptions(compiled=True)).run(
            UNBOXED_LOOP, "loop.lev")
        assert interpreted.ok and compiled.ok
        assert interpreted.value == compiled.value == "5050#"
        assert interpreted.codegen_compiled is None
        assert compiled.codegen_compiled == 2
        assert "codegen: 2 function(s) compiled, 0 cached" \
            in compiled.pretty()

    def test_repl_uses_compiled_backend(self):
        repl = Session(DriverOptions(compiled=True))
        assert repl.repl_input("double x = x + x").startswith("double")
        assert repl.repl_input("double 21") == "(I# 42#)"

    def test_corrupt_provided_source_is_regenerated(self, session):
        """A stale/corrupt cache entry that fails to link is silently
        re-lowered from the AST — never trusted, never fatal.  A ``None``
        source is one more corrupt entry."""
        check = session.check(UNBOXED_LOOP, "loop.lev")
        program = Program.from_check(check)
        stale = "def _bind(R, G):\n    raise RuntimeError('stale')\n"
        for name, source in (("sumTo#", stale), ("main", None)):
            evaluator = Evaluator(program, compiled=True,
                                  compiled_sources={name: source})
            backend = evaluator._compiled
            result = evaluator.run("sumTo#", UnboxedInt(0), UnboxedInt(100))
            assert evaluator.int_result(result) == 5050
            value = evaluator.force(evaluator.global_value("main"))
            assert evaluator.int_result(value) == 5050
            # Both bindings lowered: the corrupt one regenerated.
            assert backend.codegen_count == 2 and backend.cache_hits == 0
            assert isinstance(backend.sources[name], str)
            assert backend.sources[name] != stale

    def test_repl_lowers_only_what_a_line_reaches(self):
        """Each REPL line runs on a fresh evaluator over every definition
        so far; it lowers the definitions the line reaches, not all of
        them."""
        repl = Session(DriverOptions(compiled=True))
        for index in range(20):
            assert repl.repl_input(f"d{index} x = x +# {index}#") \
                .startswith(f"d{index}")
        lowered = REGISTRY.counter("codegen.compiled")
        before = lowered.value
        assert repl.repl_input("1#") == "1#"
        assert lowered.value == before
        assert repl.repl_input("d7 1#") == "8#"
        assert lowered.value == before + 1

    def test_repl_lowers_a_definition_once_across_lines(self):
        """A definition an earlier line linked is reused by later lines
        until a new definition replaces the REPL's program."""
        repl = Session(DriverOptions(compiled=True))
        assert repl.repl_input("d7 x = x +# 7#").startswith("d7")
        lowered = REGISTRY.counter("codegen.compiled")
        before = lowered.value
        for _ in range(3):
            assert repl.repl_input("d7 1#") == "8#"
        assert lowered.value == before + 1
        assert repl.repl_input("d7 x = x +# 8#").startswith("d7")
        assert repl.repl_input("d7 1#") == "9#"
        assert lowered.value == before + 2


# ---------------------------------------------------------------------------
# Linking on first use
# ---------------------------------------------------------------------------


PARTLY_REACHED = """\
inc :: Int# -> Int#
inc x = x +# 1#

unused :: Int# -> Int#
unused x = x *# 2#

main :: Int#
main = inc 41#
"""


def _spy_on_lowering(monkeypatch):
    """Record the name of every binding lowered from here on."""
    lowered = []
    generate = compiler.generate_function_source

    def spy(function, known):
        lowered.append(function.name)
        return generate(function, known)

    monkeypatch.setattr(compiler, "generate_function_source", spy)
    return lowered


class TestLinkOnFirstUse:
    def test_unreached_binding_is_never_lowered(self, session):
        check = session.check(PARTLY_REACHED, "partly.lev")
        evaluator = Evaluator(Program.from_check(check), compiled=True)
        entry = check.parsed.module.bindings()["main"].rhs
        assert evaluator.int_result(evaluator.eval(entry)) == 42
        assert set(evaluator._compiled.sources) == {"inc", "main"}

        lowered = REGISTRY.counter("codegen.compiled")
        before = lowered.value
        result = Session(DriverOptions(compiled=True)).run(
            PARTLY_REACHED, "partly.lev")
        assert result.ok and result.value == "42#"
        assert result.codegen_compiled == 2 and result.codegen_cached == 0
        assert lowered.value - before == 2

    def test_entry_is_lowered_once_as_a_binding(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("the entry was lowered as an expression")

        monkeypatch.setattr(compiler, "generate_expression_source", refuse)
        lowered = _spy_on_lowering(monkeypatch)
        result = Session(DriverOptions(compiled=True)).run(
            PARTLY_REACHED, "partly.lev")
        assert result.ok and result.value == "42#"
        assert sorted(lowered) == ["inc", "main"]

    def test_helper_first_reached_in_a_base_case(self, session):
        """``base`` and its boxed helper link in the middle of the run,
        at the bottom of the recursion, and the value is the
        tree-walker's."""
        source = ("base :: Int -> Int\nbase x = plusInt x 100\n"
                  "count :: Int# -> Int\n"
                  "count n = case n of { 0# -> base 0; "
                  "_ -> plusInt 1 (count (n -# 1#)) }\n"
                  "main :: Int\nmain = count 20#\n")
        check = session.check(source, "base.lev")
        assert check.ok
        evaluator = Evaluator(Program.from_check(check), compiled=True)
        backend = evaluator._compiled
        assert backend.sources == {}
        depth = []
        install = backend._install

        def record(name):
            depth.append((name, _stack_depth()))
            return install(name)

        backend.functions._install = record
        value = evaluator.force(evaluator.global_value("main"))
        assert value.show(evaluator.heap) == "(I# 120#)"
        assert [name for name, _ in depth] == ["main", "count", "base"]
        # count recursed 20 times before base was first looked up.
        assert depth[2][1] > depth[1][1] + 20
        assert _eval_entry(check, compiled=False) == \
            _eval_entry(check, compiled=True) == ("ok", "(I# 120#)")

    def test_sumto_example_links_two_bindings_and_allocates_nothing(self):
        """The boxed ``sumTo`` of ``examples/sumto.lev`` is never called,
        so neither it nor the helpers it names are linked."""
        path = EXAMPLES / "sumto.lev"
        result = Session(DriverOptions(compiled=True)).run(
            path.read_text(), str(path))
        assert result.ok and result.value == "5050#"
        lines = result.pretty().splitlines()
        assert "codegen: 2 function(s) compiled, 0 cached" in lines
        assert "costs: heap_allocations=0, thunk_forces=0, primops=0, " \
            "function_calls=0, estimated_cycles=0" in lines


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


# ---------------------------------------------------------------------------
# The per-unit codegen cache
# ---------------------------------------------------------------------------


CACHED_SOURCE = """\
inc :: Int# -> Int#
inc x = x +# 1#

twice :: Int# -> Int#
twice x = inc (inc x)

main :: Int#
main = twice 40#
"""


class TestCodegenCache:
    def test_round_trip_skips_codegen(self, tmp_path):
        path = str(tmp_path / "cache.json")
        options = DriverOptions(compiled=True)
        cold = Session(options).run(CACHED_SOURCE, "cache.lev", cache=path)
        assert cold.ok and cold.value == "42#"
        assert cold.codegen_compiled == 3 and cold.codegen_cached == 0

        cache = ResultCache(path)
        warm = Session(options).run(CACHED_SOURCE, "cache.lev", cache=cache)
        assert warm.ok and warm.value == cold.value
        assert warm.codegen_compiled == 0, \
            "warm run re-generated code the cache should have served"
        assert warm.codegen_cached == 3
        assert "codegen: 0 function(s) compiled, 3 cached" in warm.pretty()

    def test_none_source_entry_is_a_miss(self, tmp_path):
        """A stored ``None`` source fails the payload check, so its unit is
        re-lowered rather than linked."""
        path = str(tmp_path / "cache.json")
        options = DriverOptions(compiled=True)
        Session(options).run(CACHED_SOURCE, "cache.lev", cache=path)
        cache = ResultCache(path)
        key, payload = next(
            (key, payload) for key, payload in cache.entries.items()
            if key.startswith(f"codegen{CODEGEN_VERSION}:")
            and "main" in payload["functions"])
        cache.store(key, {"functions": {"main": None},
                          "arities": payload["arities"]})
        cache.save()
        warm = Session(options).run(CACHED_SOURCE, "cache.lev",
                                    cache=ResultCache(path))
        assert warm.ok and warm.value == "42#"
        assert warm.codegen_compiled == 1 and warm.codegen_cached == 2

    def test_keys_are_versioned(self, tmp_path):
        """Codegen entries live under a ``codegenN:`` prefix in the same
        schema-v2 document as check results — bumping CODEGEN_VERSION
        orphans them without touching check entries."""
        path = str(tmp_path / "cache.json")
        Session(DriverOptions(compiled=True)).run(CACHED_SOURCE,
                                                  "cache.lev", cache=path)
        cache = ResultCache(path)
        prefix = f"codegen{CODEGEN_VERSION}:"
        assert codegen_cache_key("k").startswith(prefix)
        stored = [key for key in cache.entries if key.startswith(prefix)]
        assert len(stored) == 3

    def test_interpreted_runs_ignore_the_codegen_cache(self, tmp_path):
        path = str(tmp_path / "cache.json")
        result = Session().run(CACHED_SOURCE, "cache.lev", cache=path)
        assert result.ok and result.codegen_compiled is None

    def test_stale_dep_arity_invalidates_the_entry(self, tmp_path):
        """Compiled call sites bake in each callee's *syntactic arity*,
        which the scheme does not determine: ``f x y = ...`` vs
        ``f x = \\y -> ...`` share a scheme but not a calling convention.
        An entry whose recorded dep arities changed must be re-lowered."""
        v1 = ("f :: Int -> Int -> Int\nf x y = x + y\n"
              "g :: Int -> Int\ng x = f x 1\n"
              "main :: Int\nmain = g 41\n")
        v2 = ("f :: Int -> Int -> Int\nf x = \\y -> x + y\n"
              "g :: Int -> Int\ng x = f x 1\n"
              "main :: Int\nmain = g 41\n")
        path = str(tmp_path / "cache.json")
        options = DriverOptions(compiled=True)
        first = Session(options).run(v1, "arity.lev", cache=path)
        assert first.ok and first.value == "(I# 42#)"
        assert first.codegen_compiled == 3

        second = Session(options).run(v2, "arity.lev", cache=path)
        assert second.ok and second.value == "(I# 42#)", \
            "stale baked-in arity corrupted the call to f"
        # f's unit source changed (cache miss) and g's entry recorded
        # f@arity-2, so both re-lower; main depends only on g, whose
        # scheme *and* arity are unchanged — still a hit.
        assert second.codegen_compiled == 2
        assert second.codegen_cached == 1

    def test_warm_run_links_from_cache_and_an_edit_lowers_what_it_reaches(
            self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache")
        options = DriverOptions(compiled=True)
        cold = Session(options).run(PARTLY_REACHED, "partly.lev", cache=path)
        assert cold.codegen_compiled == 2 and cold.codegen_cached == 0
        warm = Session(options).run(PARTLY_REACHED, "partly.lev", cache=path)
        assert warm.codegen_compiled == 0 and warm.codegen_cached == 2

        lowered = _spy_on_lowering(monkeypatch)
        edited = PARTLY_REACHED.replace("main = inc 41#",
                                        "main = unused (inc 20#)")
        result = Session(options).run(edited, "partly.lev", cache=path)
        assert result.ok and result.value == "42#"
        # main's own text changed; unused is the one binding it newly
        # reaches; inc is served from the cache.
        assert sorted(lowered) == ["main", "unused"]
        assert result.codegen_compiled == 2 and result.codegen_cached == 1

    def test_partly_reached_unit_keeps_its_cached_sources(self, tmp_path):
        """A run that links one binding of a recursive group stores the
        group's entry with the others' cached sources still in it."""
        source = ("isEven :: Int# -> Int#\n"
                  "isEven n = case n of { 0# -> 1#; _ -> isOdd (n -# 1#) }\n"
                  "isOdd :: Int# -> Int#\n"
                  "isOdd n = case n of { 0# -> 0#; _ -> isEven (n -# 1#) }\n"
                  "main :: Int#\nmain = isEven 4#\n"
                  "zero :: Int#\nzero = isEven 0#\n")
        path = str(tmp_path / "cache")
        options = DriverOptions(compiled=True)
        cold = Session(options).run(source, "even.lev", cache=path)
        assert cold.value == "1#" and cold.codegen_compiled == 3
        part = Session(options).run(source, "even.lev", entry="zero",
                                    cache=path)
        assert part.value == "1#"
        assert part.codegen_compiled == 1 and part.codegen_cached == 1
        warm = Session(options).run(source, "even.lev", cache=path)
        assert warm.codegen_compiled == 0 and warm.codegen_cached == 3


# ---------------------------------------------------------------------------
# Codegen telemetry
# ---------------------------------------------------------------------------


@pytest.fixture
def tracer():
    TRACER.enable()
    try:
        yield TRACER
    finally:
        TRACER.disable()
        TRACER.drain()


class TestCodegenTelemetry:
    def test_arity_drift_is_counted(self, tmp_path):
        v1 = ("f :: Int -> Int -> Int\nf x y = x + y\n"
              "g :: Int -> Int\ng x = f x 1\n"
              "main :: Int\nmain = g 41\n")
        v2 = v1.replace("f x y = x + y", "f x = \\y -> x + y")
        path = str(tmp_path / "cache")
        options = DriverOptions(compiled=True)
        Session(options).run(v1, "arity.lev", cache=path)
        discards = REGISTRY.counter("codegen.arity_discards")
        before = discards.value
        second = Session(options).run(v2, "arity.lev", cache=path)
        assert second.ok and second.value == "(I# 42#)"
        # g's entry recorded f at arity 2; f's own entry is a plain miss.
        assert discards.value - before == 1

    def test_relinks_are_counted(self, tmp_path):
        path = str(tmp_path / "cache")
        options = DriverOptions(compiled=True)
        Session(options).run(CACHED_SOURCE, "cache.lev", cache=path)
        cache = ResultCache(path)
        key, payload = next(
            (key, payload) for key, payload in cache.entries.items()
            if key.startswith(f"codegen{CODEGEN_VERSION}:")
            and "main" in payload["functions"])
        cache.store(key, {"functions": {"main": "def _bind(:\n"},
                          "arities": payload["arities"]})
        cache.save()
        relinks = REGISTRY.counter("codegen.relinks")
        before = relinks.value
        warm = Session(options).run(CACHED_SOURCE, "cache.lev",
                                    cache=ResultCache(path))
        assert warm.ok and warm.value == "42#"
        assert warm.codegen_compiled == 1 and warm.codegen_cached == 2
        assert relinks.value - before == 1

    def test_traced_run_links_inside_eval_run(self, tmp_path, tracer,
                                              capsys):
        source = tmp_path / "partly.lev"
        source.write_text(PARTLY_REACHED)
        out = tmp_path / "trace.json"
        assert cli_main(["run", "--compiled", str(source),
                         "--trace", str(out)]) == 0
        capsys.readouterr()
        with open(out) as handle:
            events = validate_trace_document(json.load(handle))
        open_spans, inside = [], []
        for event in events:
            if event["ph"] == "B":
                if event["name"] in ("codegen.lower", "codegen.link"):
                    inside.append((event["name"], event["args"]["binding"],
                                   "eval.run" in open_spans))
                open_spans.append(event["name"])
            elif event["ph"] == "E":
                open_spans.pop()
        assert sorted(inside) == [
            ("codegen.link", "inc", True), ("codegen.link", "main", True),
            ("codegen.lower", "inc", True), ("codegen.lower", "main", True)]
