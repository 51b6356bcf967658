"""E16: closure-compiled evaluator vs the tree-walker, + codegen cache.

The ISSUE-6 tentpole gate.  Two measurements land in ``BENCH_perf.json``:

* ``e16.interpreted_*`` / ``e16.compiled_*`` — the Section 2.1 ``sumTo``
  loops (unboxed and boxed) run through the tree-walking evaluator and
  through the closure-compilation backend
  (:mod:`repro.runtime.compiler`).  The compiled unboxed loop must be at
  least :data:`COMPILED_SPEEDUP_FLOOR` times faster — that is the "kinds
  are calling conventions, so bake them in" payoff: the generated code is
  a flat Python loop over raw machine integers (trampolined tail calls,
  direct primop references, no per-step dispatch).
* ``e16.codegen_cold`` / ``e16.codegen_warm`` — ``Session.run`` with
  ``compiled=True`` against a cold vs warm per-unit codegen cache.  The
  warm run must link cached sources only (``codegen_compiled == 0``);
  the wall-clock ratio is recorded but not gated (codegen is cheap for
  small modules — the zero-codegen counter is the meaningful assertion).

Correctness (identical results between the two evaluators, exact loop
sums) is asserted always; wall-clock gates respect ``BENCH_REPORT_ONLY``.
"""

import sys

import pytest

from benchreport import emit, record_counter, report_only, time_op
from repro.driver import DriverOptions, Session
from repro.driver.batch import ResultCache
from repro.runtime.evaluator import Evaluator
from repro.runtime.programs import (
    SUM_TO_BOXED_SOURCE,
    SUM_TO_UNBOXED_SOURCE,
    checked_program,
)
from repro.runtime.values import UnboxedInt

#: Loop sizes — large enough to dominate the per-call setup, small enough
#: that the *interpreted* baseline neither takes seconds nor exhausts the
#: recursion headroom (the tree-walker recurses a few Python frames per
#: iteration; the compiled loop is flat).
N_UNBOXED = 4000
N_BOXED = 2000

#: The tentpole gate: compiled-vs-interpreted on the unboxed loop.
COMPILED_SPEEDUP_FLOOR = 10.0

#: Bindings in the synthetic module for the codegen-cache timing.
CODEGEN_BINDINGS = 30


def _run_loop(source, name, n, compiled):
    evaluator = Evaluator(checked_program(source), compiled=compiled)
    result = evaluator.run(name, UnboxedInt(0) if name == "sumTo#"
                           else evaluator.boxed_int(0),
                           UnboxedInt(n) if name == "sumTo#"
                           else evaluator.boxed_int(n))
    return evaluator.int_result(result)


def _codegen_source():
    lines = []
    for index in range(CODEGEN_BINDINGS):
        feed = f"f{index - 1} (x +# {index}#)" if index else "x +# 1#"
        lines.append(f"f{index} :: Int# -> Int#")
        lines.append(f"f{index} x = {feed}")
    lines.append("main :: Int#")
    lines.append(f"main = f{CODEGEN_BINDINGS - 1} 0#")
    return "\n".join(lines) + "\n"


def test_report_compiled_eval_throughput(tmp_path):
    # The tree-walker makes the loop's tail calls as Python recursion.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 50 * N_UNBOXED))

    expected_unboxed = N_UNBOXED * (N_UNBOXED + 1) // 2
    expected_boxed = N_BOXED * (N_BOXED + 1) // 2

    timings = {}
    runs = [
        ("interpreted_unboxed", SUM_TO_UNBOXED_SOURCE, "sumTo#",
         N_UNBOXED, False, expected_unboxed),
        ("compiled_unboxed", SUM_TO_UNBOXED_SOURCE, "sumTo#",
         N_UNBOXED, True, expected_unboxed),
        ("interpreted_boxed", SUM_TO_BOXED_SOURCE, "sumTo",
         N_BOXED, False, expected_boxed),
        ("compiled_boxed", SUM_TO_BOXED_SOURCE, "sumTo",
         N_BOXED, True, expected_boxed),
    ]
    for label, source, name, n, compiled, expected in runs:
        result = time_op(f"e16.{label}", _run_loop, source, name, n,
                         compiled, repeats=3, meta={"n": n})
        assert result == expected, \
            f"{label} computed {result}, expected {expected}"

    import benchreport
    for label, *_ in runs:
        timings[label] = benchreport._TIMINGS[f"e16.{label}"]["seconds"]
    speedup_unboxed = timings["interpreted_unboxed"] \
        / timings["compiled_unboxed"]
    speedup_boxed = timings["interpreted_boxed"] / timings["compiled_boxed"]
    record_counter("e16.speedup.unboxed_compiled_vs_interpreted",
                   round(speedup_unboxed, 2))
    record_counter("e16.speedup.boxed_compiled_vs_interpreted",
                   round(speedup_boxed, 2))

    # -- per-unit codegen cache: cold run, then a warm re-run ----------------
    source = _codegen_source()
    cache_path = str(tmp_path / "e16-codegen.json")
    options = DriverOptions(compiled=True)

    cold = time_op(
        "e16.codegen_cold",
        lambda: Session(options).run(source, "codegen.lev",
                                     cache=cache_path),
        repeats=1, meta={"bindings": CODEGEN_BINDINGS + 1})
    warm_cache = ResultCache(cache_path)
    warm = time_op(
        "e16.codegen_warm",
        lambda: Session(options).run(source, "codegen.lev",
                                     cache=warm_cache),
        repeats=1, meta={"bindings": CODEGEN_BINDINGS + 1})
    assert cold.ok and warm.ok and cold.value == warm.value
    assert cold.codegen_compiled == CODEGEN_BINDINGS + 1
    assert warm.codegen_compiled == 0, \
        "warm run re-generated code the cache should have served"
    assert warm.codegen_cached == CODEGEN_BINDINGS + 1
    assert warm_cache.codegen_hits == CODEGEN_BINDINGS + 1

    import benchreport
    cold_seconds = benchreport._TIMINGS["e16.codegen_cold"]["seconds"]
    warm_seconds = benchreport._TIMINGS["e16.codegen_warm"]["seconds"]
    record_counter("e16.codegen.warm_fraction_of_cold",
                   round(warm_seconds / cold_seconds, 4))

    rows = [
        (f"unboxed interpreted (n={N_UNBOXED})", "> 2s in the paper",
         f"{timings['interpreted_unboxed'] * 1000:.1f}ms"),
        ("unboxed compiled", f"{speedup_unboxed:.1f}x faster",
         f"{timings['compiled_unboxed'] * 1000:.1f}ms"),
        (f"boxed interpreted (n={N_BOXED})", "baseline",
         f"{timings['interpreted_boxed'] * 1000:.1f}ms"),
        ("boxed compiled", f"{speedup_boxed:.1f}x faster",
         f"{timings['compiled_boxed'] * 1000:.1f}ms"),
        ("codegen cold", f"{CODEGEN_BINDINGS + 1} fn(s) lowered",
         f"{cold_seconds * 1000:.1f}ms"),
        ("codegen warm", "0 lowered, all cached",
         f"{warm_seconds * 1000:.1f}ms"),
    ]
    emit("E16: closure-compiled evaluator + per-unit codegen cache", rows)

    if report_only():
        pytest.skip("BENCH_REPORT_ONLY set: timings recorded, gate skipped")
    assert speedup_unboxed >= COMPILED_SPEEDUP_FLOOR, (
        f"compiled unboxed loop only {speedup_unboxed:.1f}x faster than "
        f"the tree-walker (floor: {COMPILED_SPEEDUP_FLOOR:.0f}x)")
    assert speedup_boxed > 1.0, (
        f"compiled boxed loop slower than the tree-walker "
        f"({speedup_boxed:.2f}x)")
