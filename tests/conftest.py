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
