"""A single process-wide metrics registry for the whole pipeline.

Before this module existed the pipeline's counters were scattered:
union-find ops lived on each ``UnifierState``, per-unit hit/miss on
``CheckStats``, codegen counts on ``CompiledProgram``, and benchmarks
reached into module internals to read them.  The :class:`MetricsRegistry`
absorbs all of them under namespaced metric names (``solver.*``,
``cache.*``, ``cache.store.*`` for the on-disk store,
``batch.*``, ``codegen.*``, ``runtime.*``, ``eval.*`` — see
docs/OBSERVABILITY.md) and emits one machine-readable document via
:meth:`MetricsRegistry.snapshot`.

Cost model:

* *Fold points* (once per binding / per program / per run) publish
  unconditionally — a handful of dict lookups per unit of work.
* *Hot-path counters* (compiled-call entry, trampoline bounces, per-force
  paths) are guarded by the single ``REGISTRY.enabled`` flag so the
  disabled pipeline pays one attribute load + branch, nothing more.

``reset()`` zeroes every metric **in place**: callers that cached a
``Counter`` reference (hot loops do) keep counting into the same object
after a reset, which is what lets benchmark sections share one process
without leaking counts into each other.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional


class Counter:
    """A monotonically increasing count (between resets)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class MetricsRegistry:
    """Name → metric map with get-or-create accessors.

    Metric identity is stable across :meth:`reset` — the registry never
    discards a metric object once created, it only zeroes it — so hot
    loops may hoist ``REGISTRY.counter("runtime.trampoline_bounces")``
    out of the loop and keep the reference forever.
    """

    __slots__ = ("enabled", "_counters")

    def __init__(self):
        #: Gates *hot-path* counters only (compiled-call entry, trampoline
        #: bounces).  Fold-point publishing ignores this flag.
        self.enabled = False
        self._counters: Dict[str, Counter] = {}

    def enable(self) -> None:
        self.enabled = True

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def merge_counts(self, counts: Mapping[str, Any],
                     prefix: str = "") -> None:
        """Fold a plain ``name -> count`` mapping into the counters.

        The fold point for legacy per-object stat dicts
        (``UnifierStats.as_dict()``, ``CostModel`` counters, …).
        """
        for name, value in counts.items():
            self.counter(prefix + name).inc(value)

    # -- reporting -----------------------------------------------------------

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """Current counter values under one namespace (``"cache.store."``,
        ``"solver."``, …) — the benchmark-recording affordance, so benches
        capture a layer's counters without snapshotting everything."""
        return {name: metric.value
                for name, metric in sorted(self._counters.items())
                if name.startswith(prefix)}

    def snapshot(self) -> Dict[str, Any]:
        """One nested, JSON-ready document of every live metric."""
        return {"counters": {name: metric.value for name, metric
                             in sorted(self._counters.items())}}

    def reset(self) -> None:
        """Zero every metric in place (identities survive — see class doc)."""
        for metric in self._counters.values():
            metric.reset()

    def pretty(self, indent: str = "  ") -> str:
        """Human-readable dump for the ``--stats`` text path."""
        return "\n".join(f"{indent}{name}: {value}" for name, value
                         in self.snapshot()["counters"].items())


#: The process-global registry every layer publishes into.
REGISTRY = MetricsRegistry()


def stats_document(check: Optional[Any] = None) -> Dict[str, Any]:
    """The unified ``--stats --json`` payload.

    ``check`` is an optional ``CheckStats``-like object exposing
    ``as_dict()`` (kept duck-typed so this module stays dependency-free).
    """
    doc: Dict[str, Any] = {"schema": 1, "metrics": REGISTRY.snapshot()}
    if check is not None:
        doc["check"] = check.as_dict()
    return doc
