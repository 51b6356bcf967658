"""Per-layer spans for the traced run, recorded from the benchmark's side.

:func:`install` wraps each layer's public entry points **where their
callers look the name up** (a module global read at call time, or a class
attribute), so the program under test runs unmodified.  Each wrapper is a
span: it adds its duration to the layer's inclusive time, and that
duration minus the time of the spans nested inside it to the layer's
*self* time.  Counts are taken at the same boundaries, or as deltas of
the program's own always-on ``repro.telemetry`` counters.

``LAYERS`` is the single table of layers: the calls each one times, the
per-request metrics it yields, and which end-to-end metric it should move
on which workload.  ``FIRES``/``BYPASSED`` state which spans each
workload's timed phase must and must not reach (the span self-check).
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: layer -> (public calls it times, its metrics with their units, and the
#: end-to-end metric each should move on which workload).  Times and
#: counts are per request of the traced phase.
LAYERS = {
    "startup": (
        "import repro.driver; Session()",
        (("startup.import_ms", "ms"), ("startup.session_ms", "ms")),
        "setup_s on every workload"),
    "frontend": (
        "frontend.parser.parse_module_incremental",
        (("frontend.parse_ms", "ms"), ("frontend.bytes_per_s", "B/s")),
        "throughput_rps and latency_p50_ms on check_cold; ~0 on "
        "run_programs and validate_programs"),
    "driver.depgraph": (
        "build_plan, as driver.session, driver.batch and driver.project "
        "call it",
        (("driver.depgraph_ms", "ms"),),
        "throughput_rps on check_cold"),
    "infer": (
        "Pipeline.check_unit",
        (("infer.unit_ms", "ms"), ("infer.units", "count"),
         ("infer.solver_ops", "count")),
        "latency_p95_ms on check_cold (large files); signature-edit "
        "latency on edit_rebuild"),
    "driver.project": (
        "driver.project.build_project_plan",
        (("driver.project_plan_ms", "ms"),),
        "latency_p50_ms on edit_rebuild"),
    "driver.store": (
        "ResultCache.lookup, lookup_file, lookup_exports, lookup_outline, "
        "lookup_codegen and save",
        (("driver.store.lookup_ms", "ms"), ("driver.store.save_ms", "ms"),
         ("driver.store.shards_read", "count"),
         ("driver.store.shards_written", "count"),
         ("driver.batch.units_checked", "count"),
         ("driver.batch.unit_hit_ratio", "ratio")),
        "latency_p50_ms and latency_p95_ms on edit_rebuild"),
    "runtime": (
        "Evaluator construction (codegen + link under compiled=True) and "
        "the outermost Evaluator.eval/force",
        (("runtime.eval_ms", "ms"), ("runtime.codegen_ms", "ms"),
         ("runtime.functions_compiled", "count"),
         ("runtime.compiled_eval_ms", "ms")),
        "throughput_rps and latency_p50_ms on run_programs"),
    "driver.lower": (
        "driver.lower.lower_entry",
        (("driver.lower_ms", "ms"),),
        "throughput_rps on run_programs and validate_programs"),
    "compile": (
        "compile.compiler.compile_and_run",
        (("compile.machine_ms", "ms"), ("lang_m.steps", "count")),
        "throughput_rps on run_programs"),
    "validate": (
        "validate.runner.validate_term and, as validate.alignment calls "
        "them, lang_l evaluate, compile_expr and joinable",
        (("validate.total_ms", "ms"), ("lang_l.trace_ms", "ms"),
         ("compile.pair_ms", "ms"), ("lang_m.joinability_ms", "ms"),
         ("validate.obligations", "count"),
         ("validate.obligations_per_s", "1/s")),
        "throughput_rps on validate_programs"),
    "bench": (
        "the timed phase",
        (("bench.unattributed_ms", "ms"),
         ("bench.trace_overhead_ratio", "ratio"),
         ("bench.failed_ratio", "ratio")),
        "none: wall time outside every layer span, traced/untraced "
        "throughput, and failed/attempted requests"),
}
PER_LAYER_UNITS = {metric: unit for _calls, metrics, _moves
                   in LAYERS.values() for metric, unit in metrics}

#: Span name -> per-layer metric carrying its time (self time, except
#: ``validate`` whose metric is inclusive; its self time still enters
#: ``bench.unattributed_ms``).
SPAN_METRICS = {
    "frontend.parse": "frontend.parse_ms",
    "driver.depgraph": "driver.depgraph_ms",
    "infer.unit": "infer.unit_ms",
    "driver.project_plan": "driver.project_plan_ms",
    "driver.store.lookup": "driver.store.lookup_ms",
    "driver.store.save": "driver.store.save_ms",
    "runtime.eval": "runtime.eval_ms",
    "runtime.codegen": "runtime.codegen_ms",
    "runtime.compiled_eval": "runtime.compiled_eval_ms",
    "driver.lower": "driver.lower_ms",
    "compile.machine": "compile.machine_ms",
    "validate": "validate.total_ms",
    "lang_l.trace": "lang_l.trace_ms",
    "compile.pair": "compile.pair_ms",
    "lang_m.joinability": "lang_m.joinability_ms",
}
INCLUSIVE = {"validate"}

_FRONT = {"frontend.parse", "driver.depgraph", "infer.unit"}
_STORE = {"driver.store.lookup", "driver.store.save", "driver.project_plan"}
_RUNTIME = {"runtime.eval", "runtime.codegen", "runtime.compiled_eval",
            "compile.machine"}
_VALIDATE = {"validate", "lang_l.trace", "compile.pair",
             "lang_m.joinability"}

#: Spans each workload's traced phase must reach ...
FIRES = {
    "check_cold": _FRONT,
    "edit_rebuild": _FRONT | _STORE,
    "run_programs": _RUNTIME | {"driver.lower"},
    "validate_programs": _VALIDATE | {"driver.lower"},
}
#: ... and the predicted bypasses: spans it must never reach.
BYPASSED = {
    "check_cold": _STORE | _RUNTIME | _VALIDATE | {"driver.lower"},
    "edit_rebuild": _RUNTIME | _VALIDATE | {"driver.lower"},
    "run_programs": _FRONT | _STORE | _VALIDATE,
    "validate_programs": _FRONT | _STORE | _RUNTIME,
}

#: Always-on program counters read as deltas over the traced phase.
#: ``solver.scheme_render*`` count cache-key renderings in the batch
#: driver, not solver work, so they stay out of ``infer.solver_ops``.
REGISTRY_DELTAS = {
    "driver.store.shards_read": "cache.store.shards_read",
    "driver.store.shards_written": "cache.store.shards_written",
    "driver.batch.units_checked": "batch.units_checked",
    "runtime.functions_compiled": "codegen.compiled",
}


class Recorder:
    """In-memory span aggregation: self and inclusive nanoseconds, calls
    and boundary counts per span name."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Child time accumulated by each open span, innermost last.
        self._open: List[int] = []

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``count(result, args)`` runs
        after the span closes, outside its time."""
        def span(*args, **kwargs):
            with Span(self, name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(result, args)
            return result

        return span


class Span:
    """One span of ``recorder``, as a context manager."""

    __slots__ = ("recorder", "name", "start")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> None:
        self.recorder._open.append(0)
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc_info) -> None:
        recorder = self.recorder
        duration = time.perf_counter_ns() - self.start
        child = recorder._open.pop()
        recorder.self_ns[self.name] += duration - child
        recorder.total_ns[self.name] += duration
        recorder.calls[self.name] += 1
        if recorder._open:
            recorder._open[-1] += duration


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary in ``LAYERS``; returns the function that
    puts the originals back."""
    mod = importlib.import_module
    counts = recorder.counts
    saved: List[tuple] = []

    def patch(owner, attr: str, name: str,
              count: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(name, original, count))

    def count_bytes(_result, args) -> None:
        counts["frontend.bytes"] += len(args[0])

    patch(mod("repro.frontend.parser"), "parse_module_incremental",
          "frontend.parse", count_bytes)
    for module in ("repro.driver.session", "repro.driver.batch",
                   "repro.driver.project"):
        patch(mod(module), "build_plan", "driver.depgraph")
    patch(mod("repro.driver.session").Pipeline, "check_unit", "infer.unit")
    patch(mod("repro.driver.project"), "build_project_plan",
          "driver.project_plan")

    cache_cls = mod("repro.driver.batch").ResultCache

    def count_unit_lookup(result, _args) -> None:
        counts["store.unit_lookups"] += 1
        counts["store.unit_hits"] += result is not None

    patch(cache_cls, "lookup", "driver.store.lookup", count_unit_lookup)
    for attr in ("lookup_file", "lookup_exports", "lookup_outline",
                 "lookup_codegen"):
        patch(cache_cls, attr, "driver.store.lookup")
    patch(cache_cls, "save", "driver.store.save")

    evaluator_module = mod("repro.runtime.evaluator")
    saved.append((evaluator_module, "Evaluator", evaluator_module.Evaluator))
    evaluator_module.Evaluator = _traced_evaluator(
        recorder, evaluator_module.Evaluator)
    patch(mod("repro.driver.lower"), "lower_entry", "driver.lower")

    def count_steps(outcome, _args) -> None:
        counts["lang_m.steps"] += outcome.costs.steps

    patch(mod("repro.compile.compiler"), "compile_and_run",
          "compile.machine", count_steps)

    def count_obligations(report, _args) -> None:
        counts["validate.obligations"] += report.obligations_checked

    patch(mod("repro.validate.runner"), "validate_term", "validate",
          count_obligations)
    alignment = mod("repro.validate.alignment")
    patch(alignment, "evaluate", "lang_l.trace")
    patch(alignment, "compile_expr", "compile.pair")
    patch(alignment, "joinable", "lang_m.joinability")

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def _traced_evaluator(recorder: Recorder, base: type) -> type:
    """``Session.run_from_check`` imports ``Evaluator`` from its module at
    call time, so a subclass bound there sees every run.  Construction is
    the codegen + link span under ``compiled=True``.  The outermost
    ``eval``/``force`` of each evaluator are spans; the wrappers remove
    themselves while they run, so the tree-walker's recursive calls stay
    unwrapped and its stack depth (see ``workloads.LOOP_SIZES``) is
    unchanged."""

    class TracedEvaluator(base):
        def __init__(self, *args, **kwargs):
            compiled = bool(kwargs.get("compiled"))
            construct = "runtime.codegen" if compiled else "runtime.eval"
            with Span(recorder, construct):
                super().__init__(*args, **kwargs)
            run_span = "runtime.compiled_eval" if compiled \
                else "runtime.eval"
            evaluator = self

            def eval_outer(expr, env=None):
                evaluator.__dict__.pop("eval", None)
                evaluator.__dict__.pop("force", None)
                try:
                    with Span(recorder, run_span):
                        return base.eval(evaluator, expr, env)
                finally:
                    evaluator.force = force_outer

            def force_outer(value):
                evaluator.__dict__.pop("force", None)
                with Span(recorder, run_span):
                    return base.force(evaluator, value)

            self.eval = eval_outer
            self.force = force_outer

    return TracedEvaluator


def self_check(workload: str, recorder: Recorder) -> List[str]:
    """Violations of the workload's declared span coverage (empty = ok)."""
    problems = []
    for name in sorted(FIRES[workload]):
        if not recorder.calls.get(name):
            problems.append(f"span {name} never fired on {workload}")
    for name in sorted(BYPASSED[workload]):
        if recorder.calls.get(name):
            problems.append(f"span {name} fired {recorder.calls[name]} "
                            f"time(s) on {workload}, which should bypass it")
    return problems


def layer_metrics(recorder: Recorder, deltas: Dict[str, int],
                  requests: int, wall_ns: int) -> Dict[str, float]:
    """Per-request layer metrics of one traced phase."""
    per = max(requests, 1)
    out: Dict[str, float] = {}
    for span, metric in SPAN_METRICS.items():
        ns = recorder.total_ns[span] if span in INCLUSIVE \
            else recorder.self_ns[span]
        out[metric] = ns / 1e6 / per
    parse_s = recorder.self_ns["frontend.parse"] / 1e9
    out["frontend.bytes_per_s"] = \
        recorder.counts["frontend.bytes"] / parse_s if parse_s else 0.0
    out["infer.units"] = recorder.calls["infer.unit"] / per
    out["infer.solver_ops"] = deltas["infer.solver_ops"] / per
    for metric in REGISTRY_DELTAS:
        out[metric] = deltas[metric] / per
    lookups = recorder.counts["store.unit_lookups"]
    out["driver.batch.unit_hit_ratio"] = \
        recorder.counts["store.unit_hits"] / lookups if lookups else 0.0
    out["lang_m.steps"] = recorder.counts["lang_m.steps"] / per
    out["validate.obligations"] = \
        recorder.counts["validate.obligations"] / per
    validate_s = recorder.total_ns["validate"] / 1e9
    out["validate.obligations_per_s"] = \
        recorder.counts["validate.obligations"] / validate_s \
        if validate_s else 0.0
    attributed = sum(recorder.self_ns.values())
    out["bench.unattributed_ms"] = (wall_ns - attributed) / 1e6 / per
    return out


def registry_counts() -> Dict[str, int]:
    """Snapshot of the program counters ``layer_metrics`` turns into deltas."""
    from repro.telemetry import REGISTRY

    counters = REGISTRY.snapshot()["counters"]
    snap = {metric: counters.get(name, 0)
            for metric, name in REGISTRY_DELTAS.items()}
    snap["infer.solver_ops"] = sum(
        value for name, value in counters.items()
        if name.startswith("solver.")
        and not name.startswith("solver.scheme_render"))
    return snap
