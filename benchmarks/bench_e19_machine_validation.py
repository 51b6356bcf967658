"""E19: whole-language machine validation — coverage, cross-check, discharge.

The whole-language extension (``fix`` + primops in L/M, docs/VALIDATION.md)
is about *coverage*: entries that previously skipped the M-machine
cross-check ("recursion is outside the fragment", "no primops in L") now
lower, compile and validate.  This benchmark records what that costs and
what it buys:

* ``e19.crosscheck``  — a mixed fixed-seed corpus through the differential
  harness with validation off: machine-engagement counters show how much
  of the corpus the machine oracle now covers;
* ``e19.discharge``   — an all-fragment corpus through the harness with
  per-program Simulation discharge on (capped ``align_steps``): the added
  cost of translation validation per program;
* ``e19.fix_memo``    — the compiled ``sumTo#`` loop on the M machine:
  the FIX rule ties the knot through a heap thunk, so ``fix_unrollings``
  must stay O(1) while ``branches``/``primops`` scale with the loop.

Correctness is asserted always (zero oracle failures, 100% engagement on
the all-fragment corpus, O(1) unrollings); the loose wall-clock floors
are skipped under ``BENCH_REPORT_ONLY``.
"""

import pytest

from benchreport import emit, record_counter, report_only, time_op
from repro.fuzz import DifferentialHarness, GenOptions, generate_corpus
from repro.lang_m.machine import run as run_machine

SEED = 19
MIXED_SIZE = 150
FRAGMENT_SIZE = 100
ALIGN_STEPS = 12
LOOP_ITERATIONS = 200

#: Loose local floor — discharge is machine-bound, pathology only.
DISCHARGE_FLOOR_PROGRAMS_PER_SEC = 5.0


def _compiled_loop():
    from repro.compile import compile_expr
    from repro.driver import Session
    from repro.driver.lower import lower_checked

    source = (
        "sumTo# :: Int# -> Int# -> Int#\n"
        "sumTo# acc n = case n <=# 0# of "
        "{ 1# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n"
        "main :: Int#\n"
        f"main = sumTo# 0# {LOOP_ITERATIONS}#\n")
    return compile_expr(lower_checked(Session().check(source)))


def test_report_machine_validation(tmp_path):
    mixed = generate_corpus(SEED, MIXED_SIZE)
    fragment = generate_corpus(SEED + 1, FRAGMENT_SIZE,
                               GenOptions(fragment_bias=1.0))

    def _crosscheck():
        report = DifferentialHarness(validate=False).run_corpus(mixed)
        assert report.ok, report.pretty(max_failures=3)
        return report

    def _discharge():
        harness = DifferentialHarness(align_steps=ALIGN_STEPS)
        report = harness.run_corpus(fragment)
        assert report.ok, report.pretty(max_failures=3)
        assert report.counters["machine_engaged"] == FRAGMENT_SIZE, \
            "an all-fragment corpus must engage the machine everywhere"
        return report

    crosscheck = time_op("e19.crosscheck", _crosscheck, repeats=1,
                         meta={"programs": MIXED_SIZE})
    discharge = time_op("e19.discharge", _discharge, repeats=1,
                        meta={"programs": FRAGMENT_SIZE,
                              "align_steps": ALIGN_STEPS})

    compiled = _compiled_loop()
    outcome = time_op("e19.fix_memo", lambda: run_machine(compiled.code),
                      repeats=3, meta={"iterations": LOOP_ITERATIONS})
    total = LOOP_ITERATIONS * (LOOP_ITERATIONS + 1) // 2
    assert outcome.unwrap().value == total
    assert outcome.costs.fix_unrollings <= 3, (
        f"{outcome.costs.fix_unrollings} fix unrollings for "
        f"{LOOP_ITERATIONS} iterations — the heap knot is not memoised")
    assert outcome.costs.branches >= LOOP_ITERATIONS

    import benchreport
    timings = {key: benchreport._TIMINGS[f"e19.{key}"]["seconds"]
               for key in ("crosscheck", "discharge", "fix_memo")}
    engaged = crosscheck.counters.get("machine_engaged", 0)
    skipped = crosscheck.counters.get("machine_skipped_out_of_fragment", 0)
    obligations = discharge.counters.get("obligations_discharged", 0)
    discharge_rate = FRAGMENT_SIZE / timings["discharge"]

    record_counter("e19.crosscheck.machine_engaged", engaged)
    record_counter("e19.crosscheck.machine_skipped_out_of_fragment", skipped)
    record_counter("e19.crosscheck.coverage",
                   round(engaged / MIXED_SIZE, 3))
    record_counter("e19.discharge.validated",
                   discharge.counters.get("validated", 0))
    record_counter("e19.discharge.obligations", obligations)
    record_counter("e19.discharge.programs_per_sec",
                   round(discharge_rate, 1))
    record_counter("e19.fix_memo.unrollings", outcome.costs.fix_unrollings)
    record_counter("e19.fix_memo.machine_steps", outcome.costs.steps)
    record_counter("e19.fix_memo.primops", outcome.costs.primops)

    emit("E19: whole-language machine validation (fix + primops + "
         "per-program discharge)", [
             (f"cross-check coverage ({MIXED_SIZE} mixed programs)",
              "recursion/primops skipped before the whole-language L",
              f"{engaged}/{MIXED_SIZE} engaged, {skipped} out-of-fragment "
              f"skips ({timings['crosscheck'] * 1000:.0f}ms)"),
             (f"Simulation discharge ({FRAGMENT_SIZE} fragment programs, "
              f"align={ALIGN_STEPS})",
              "new capability (docs/VALIDATION.md)",
              f"{obligations} obligations in "
              f"{timings['discharge'] * 1000:.0f}ms "
              f"({discharge_rate:.0f} programs/s)"),
             (f"fix memoisation ({LOOP_ITERATIONS} loop iterations)",
              "FIX + EVAL/FCE heap sharing",
              f"{outcome.costs.fix_unrollings} unrollings, "
              f"{outcome.costs.steps} machine steps "
              f"({timings['fix_memo'] * 1000:.1f}ms)"),
         ])

    if report_only():
        pytest.skip("BENCH_REPORT_ONLY set: timings recorded, gate skipped")
    assert discharge_rate >= DISCHARGE_FLOOR_PROGRAMS_PER_SEC, (
        f"Simulation discharge {discharge_rate:.1f} programs/s fell below "
        f"{DISCHARGE_FLOOR_PROGRAMS_PER_SEC}")
