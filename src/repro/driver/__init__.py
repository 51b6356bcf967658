"""End-to-end driver for textual surface programs.

``repro.driver`` glues the concrete-syntax frontend to the rest of the
reproduction as one pipeline::

    parse → infer → levity-check → Rep defaulting → pretty-print
                                                   ↘ compile (L → M) → run

* :class:`~repro.driver.session.Session` — cached-prelude sessions with
  one-shot ``check``/``run``/``compile`` entry points, a batch
  ``check_many`` API, and REPL state;
* :class:`~repro.driver.session.Pipeline` — the staged checker: it parses
  a file and checks one unit at a time, producing structured
  :class:`~repro.driver.session.Diagnostic` values with source spans;
* :mod:`repro.driver.depgraph` — binding-level dependency graphs: each
  module is broken into SCC-condensed **compilation units** checked in
  dependency order (the granularity of error recovery and caching);
* :mod:`repro.driver.batch` — the one unit walk every check runs, in
  the calling process (``Session.check`` is the walk over one file
  without a cache), over a binding-level incremental result cache
  (``Session.check_many(cache=..., stats=...)`` and
  ``python -m repro check --cache PATH --stats``);
* :mod:`repro.driver.store` — the sharded, content-addressed on-disk
  store behind the result cache (schema v4): 256 lazily-loaded shards
  per key namespace, per-shard dirty tracking and atomic merge-then-
  replace saves, and the ``python -m repro cache
  stats|verify|gc|compact`` maintenance surface;
* :mod:`repro.driver.project` — the module-level layer on top: ``module``
  / ``import`` resolution, the project DAG with cycle rejection, and
  cross-module incremental builds (``Session.check_project`` and
  ``python -m repro build DIR``);
* :mod:`repro.driver.lower` — the bridge from checked surface programs
  into the formal calculus L (and from there through ``compile/`` to the
  M machine).

The ``python -m repro`` command line lives in :mod:`repro.__main__` and is
a thin wrapper over this package.
"""

from .batch import CheckStats, ResultCache
from .depgraph import CheckUnit, ModulePlan, build_plan
from .store import CACHE_SCHEMA, ShardStore
from .lower import LoweringError, lower_binding, lower_entry, lower_type
from .project import (
    ModuleNode,
    ProjectCheck,
    ProjectPlan,
    build_project_plan,
    check_project,
    discover_sources,
    run_project,
)
from .session import (
    BindingSummary,
    CheckResult,
    CompileResult,
    Diagnostic,
    DriverOptions,
    Pipeline,
    RunResult,
    Session,
    render_snippet,
)

__all__ = [
    "BindingSummary",
    "CACHE_SCHEMA",
    "CheckResult",
    "CheckStats",
    "CheckUnit",
    "CompileResult",
    "Diagnostic",
    "DriverOptions",
    "LoweringError",
    "ModuleNode",
    "ModulePlan",
    "Pipeline",
    "ProjectCheck",
    "ProjectPlan",
    "ResultCache",
    "RunResult",
    "Session",
    "ShardStore",
    "build_plan",
    "build_project_plan",
    "check_project",
    "discover_sources",
    "run_project",
    "lower_binding",
    "lower_entry",
    "lower_type",
    "render_snippet",
]
