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

import pytest

from repro.core.errors import EvaluationError, ReproError
from repro.core.primops import INT_PRIMOPS, PRIMOP_ROWS, primop_delta
from repro.driver import DriverOptions, Session
from repro.driver.batch import ResultCache, codegen_cache_key
from repro.fuzz import DifferentialHarness, generate_corpus
from repro.runtime.compiler import CODEGEN_VERSION
from repro.runtime.evaluator import Evaluator, Program
from repro.runtime.values import UnboxedInt
from repro.surface.ast import ELitDoubleHash, ELitIntHash, EVar, apply
from repro.surface.prelude import prelude_schemes

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
        stale = "def _bind(R, G, C):\n    raise RuntimeError('stale')\n"
        for name, source in (("sumTo#", stale), ("main", None)):
            evaluator = Evaluator(program, compiled=True,
                                  compiled_sources={name: source})
            backend = evaluator._compiled
            # Both bindings lowered: the corrupt one regenerated.
            assert backend.codegen_count == 2 and backend.cache_hits == 0
            assert isinstance(backend.sources[name], str)
            result = evaluator.run("sumTo#", UnboxedInt(0), UnboxedInt(100))
            assert evaluator.int_result(result) == 5050
            value = evaluator.force(evaluator.global_value("main"))
            assert evaluator.int_result(value) == 5050


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
        assert cache.codegen_hits == 3
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
        cache.store_codegen(key, {"functions": {"main": None},
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
