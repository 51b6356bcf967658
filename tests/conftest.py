"""Shared pytest configuration for the repro test suite."""

import sys

import pytest

# The cost-model evaluator and the L semantics are recursive interpreters;
# deep (but bounded) workloads need more Python stack than the default.
sys.setrecursionlimit(200_000)


@pytest.fixture
def prelude_env():
    from repro.surface.prelude import prelude_env as make_env
    return make_env()


#: The jobs / REPRO_PARALLEL combinations that must agree on what an
#: incremental check re-checks.
JOB_MODES = ((1, "auto"), (2, "always"), (2, "never"))


@pytest.fixture
def across_jobs(monkeypatch, tmp_path):
    """Run ``scenario(jobs, cache_dir)`` once per JOB_MODES combination,
    each against a fresh cache directory.  ``scenario`` returns ``(stats,
    results)``; every run must report the same checked / cache_hits /
    cache_misses and byte-identical results.  Returns those counts."""
    from repro.driver.batch import (
        PARALLEL_MODE_ENV,
        payload_bytes,
        result_to_payload,
    )

    def run(scenario):
        runs = []
        for index, (jobs, mode) in enumerate(JOB_MODES):
            monkeypatch.setenv(PARALLEL_MODE_ENV, mode)
            stats, results = scenario(jobs, str(tmp_path / f"cache{index}"))
            runs.append((
                (stats.checked, stats.cache_hits, stats.cache_misses),
                [payload_bytes(result_to_payload(r)) for r in results]))
        for (jobs, mode), (counts, payloads) in zip(JOB_MODES, runs):
            assert counts == runs[0][0], \
                f"jobs={jobs} {mode}: {counts} != {runs[0][0]}"
            assert payloads == runs[0][1], f"jobs={jobs} {mode}: results"
        return runs[0][0]

    return run


@pytest.fixture
def class_setup():
    """A (class_env, env) pair with Num/Eq and their instances registered."""
    from repro.classes import standard_class_env
    from repro.infer import Inferencer
    from repro.surface.prelude import prelude_env as make_env

    inferencer = Inferencer()
    env = make_env()
    class_env = standard_class_env(levity_polymorphic=True,
                                   inferencer=inferencer, env=env)
    env = env.bind_many(class_env.all_method_schemes())
    return class_env, env
