"""The differential harness at scale: fixed seeds, zero disagreements.

The acceptance bar for the fuzzing PR: **1000+ generated programs** run
through the full differential harness (type-check + intended types,
parse∘pretty round-trip, evaluator execution, reference-semantics values,
and the evaluator↔M-machine cross-check on the compilable fragment) with
zero unexplained failures, on fixed seeds so the corpus is reproducible.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.fuzz import (
    DifferentialHarness,
    GenOptions,
    generate_corpus,
    generated_programs,
    shrink_counterexample,
)
from repro.fuzz.generator import INT_HASH_TY

#: Fixed corpus seed — bump deliberately, never implicitly.
CORPUS_SEED = 20260731
CORPUS_SIZE = 1050


@pytest.fixture(scope="module")
def harness():
    return DifferentialHarness()


class TestFixedSeedCorpus:
    def test_1000_plus_programs_zero_disagreements(self, harness):
        corpus = generate_corpus(CORPUS_SEED, CORPUS_SIZE)
        report = harness.run_corpus(corpus)
        assert report.programs == CORPUS_SIZE
        assert report.ok, report.pretty(max_failures=3)
        # The oracles must actually engage, not silently skip:
        assert report.counters["fragment_programs"] >= CORPUS_SIZE // 10
        assert report.counters["machine_engaged"] >= CORPUS_SIZE // 10
        assert report.counters["reference_checked"] >= CORPUS_SIZE // 2
        assert report.counters["unsigned_bindings"] >= 10
        # Tri-state accounting (the old `machine_agrees is None` test
        # conflated "ran, not comparable" with "never ran"): skips are
        # counted separately, and engaged + skipped covers the corpus.
        assert report.counters["machine_engaged"] \
            + report.counters["machine_skipped_out_of_fragment"] \
            == CORPUS_SIZE
        # Per-program Simulation discharge (§6.3) runs on every
        # machine-engaged program in the corpus.
        assert report.counters["validated"] \
            + report.counters.get("validation_skipped", 0) \
            == report.counters["machine_engaged"]
        assert report.counters["obligations_discharged"] \
            >= report.counters["validated"]

    def test_all_fragment_corpus_engages_the_machine_everywhere(self):
        # "Zero programs skipped for recursion or primops": with the
        # whole-language fragment (fix + primops + literal cases + loop
        # helpers) every fragment-mode program must lower and cross-check.
        harness = DifferentialHarness()
        corpus = generate_corpus(CORPUS_SEED + 2, 150,
                                 GenOptions(fragment_bias=1.0))
        report = harness.run_corpus(corpus)
        assert report.ok, report.pretty(max_failures=3)
        assert report.counters["fragment_programs"] == 150
        assert report.counters["machine_engaged"] == 150
        assert "machine_skipped_out_of_fragment" not in report.counters

    def test_deeper_corpus_smoke(self, harness):
        corpus = generate_corpus(CORPUS_SEED + 1, 60,
                                 GenOptions(depth=6, max_bindings=5))
        report = harness.run_corpus(corpus)
        assert report.ok, report.pretty(max_failures=3)


class TestHypothesisIntegration:
    @given(generated_programs())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large,
                                     HealthCheck.filter_too_much])
    def test_every_drawn_program_passes_all_oracles(self, program):
        failures = DifferentialHarness().check_program(program)
        assert not failures, failures[0].pretty() + "\n" + program.source

    def test_shrinking_finds_a_minimal_example(self):
        # A synthetic "failure" predicate: hypothesis must both find a
        # matching program and shrink it down — this keeps the
        # counterexample-minimisation path exercised even while the real
        # oracles stay green.
        predicate = (lambda program:
                     program.fragment and program.main_type == INT_HASH_TY)
        shrunk = shrink_counterexample(
            predicate, GenOptions(depth=2, max_bindings=2,
                                  fragment_bias=1.0),
            max_examples=120)
        assert shrunk is not None
        assert predicate(shrunk)
        # Shrinking is heuristic, but it must stay within the generator's
        # structural bounds and produce a modest reproducer.
        assert len(shrunk.module.bindings()) <= 3
        assert len(shrunk.source) < 4000
