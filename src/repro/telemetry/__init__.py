"""repro.telemetry — zero-dependency tracing + metrics for the pipeline.

Two process-global singletons:

* :data:`TRACER` — nested spans exported as Chrome trace-event JSON
  (``--trace out.json``, loadable in Perfetto), all on one process row.
* :data:`REGISTRY` — the unified counter registry that absorbs the
  pipeline's formerly scattered counters (solver ops, cache hit/miss,
  codegen, compiled-runtime calls).

Both are off by default and near-free when off; see docs/OBSERVABILITY.md
for the span taxonomy and metric names.
"""

from .metrics import (
    Counter,
    MetricsRegistry,
    REGISTRY,
    stats_document,
)
from .trace import (
    TRACE_ENV,
    TRACER,
    Tracer,
    env_trace_path,
    validate_events,
    validate_trace_document,
)

__all__ = [
    "Counter",
    "MetricsRegistry",
    "REGISTRY",
    "stats_document",
    "TRACE_ENV",
    "TRACER",
    "Tracer",
    "env_trace_path",
    "validate_events",
    "validate_trace_document",
]
