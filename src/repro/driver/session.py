"""The end-to-end driver pipeline: parse → infer → levity-check → default →
pretty-print / compile / run.

Two layers:

* :class:`Pipeline` — the staged checker.  It parses a file and checks
  one compilation unit at a time, appending structured
  :class:`Diagnostic` values (with source spans from the frontend)
  instead of raising, so one bad binding never hides the others.

* :class:`Session` — a long-lived wrapper that caches the prelude
  environment, exposes the one-shot conveniences (:meth:`Session.check`,
  :meth:`Session.run`, :meth:`Session.compile`) and the **batch API**
  (:meth:`Session.check_many`) used by the throughput benchmark and the
  CLI, plus the small amount of mutable state the REPL needs.  Every
  check runs one unit walk (:mod:`repro.driver.batch`): ``check`` is
  that walk over one file without a cache.

Stage inventory (``Pipeline.STAGES``):

``parse``
    :mod:`repro.frontend` — source text to surface AST with spans.
``infer``
    :mod:`repro.infer` — per-binding type inference / signature checking.
    Each binding gets a fresh :class:`~repro.infer.infer.Inferencer` so a
    unification failure in one binding cannot poison the next; bindings
    see the schemes of the bindings they use through the environment.
``levity``
    the Section 5.1 post-pass (already threaded through ``infer_binding``);
    violations become diagnostics carrying the binding's source span.
``default``
    Rep defaulting (Section 5.2) — surfaced as the per-binding
    ``defaulted_rep_vars`` so callers can see "never infer levity
    polymorphism" happening.
``compile``
    the optional L→M bridge (:mod:`repro.driver.lower` +
    :mod:`repro.compile`) for entries inside the L fragment.
``run``
    the cost-model evaluator (:mod:`repro.runtime`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.errors import ParseError, ReproError
from ..frontend.lexer import Span
from ..frontend.parser import ParsedModule, parse_expr, parse_module
from ..infer.infer import Inferencer, InferOptions
from ..infer.schemes import Scheme, TypeEnv
from ..pretty.printer import PrinterOptions, render_scheme
from ..surface.ast import FunBind
from ..surface.prelude import prelude_env
from ..telemetry import REGISTRY as _REGISTRY, TRACER as _TRACER
# ``build_plan`` is unused here, but perfbench wraps it as an attribute
# of this module to time the depgraph layer; keep the name importable.
from .depgraph import CheckUnit, ModulePlan, build_plan  # noqa: F401

__all__ = [
    "Diagnostic",
    "BindingSummary",
    "CheckResult",
    "RunResult",
    "CompileResult",
    "MemberOutcome",
    "UnitOutcome",
    "Pipeline",
    "Session",
    "render_snippet",
]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding, with a source span when one is known."""

    severity: str          # "error" | "warning" | "note"
    stage: str             # "parse" | "infer" | "levity" | "compile" | "run"
    message: str
    filename: str = "<input>"
    span: Optional[Span] = None
    binding: Optional[str] = None

    def pretty(self) -> str:
        location = self.filename
        if self.span is not None:
            location = f"{self.filename}:{self.span.line}:{self.span.column}"
        subject = f" in {self.binding!r}" if self.binding else ""
        return f"{location}: {self.stage} {self.severity}{subject}: " \
               f"{self.message}"

    def __repr__(self) -> str:
        return self.pretty()


def render_snippet(source: str, span: Span, indent: str = "  ") -> str:
    """GHC-style caret snippet for ``span`` within ``source``::

          |
        3 | h = plusInt mystery 1
          |             ^^^^^^^

    Returns an empty string when the span's line is outside the source
    (a stale cached span against an edited file, defensively).
    """
    lines = source.split("\n")
    if span.line < 1 or span.line > len(lines):
        return ""
    text = lines[span.line - 1].rstrip("\n")
    gutter = str(span.line)
    pad = " " * len(gutter)
    start = max(span.column, 1)
    if span.end_line == span.line and span.end_column > span.column:
        width = span.end_column - span.column      # spans are half-open
    else:
        width = max(len(text) - start + 1, 1)      # multi-line: to line end
    caret = " " * (start - 1) + "^" * max(width, 1)
    return "\n".join([f"{indent}{pad} |",
                      f"{indent}{gutter} | {text}",
                      f"{indent}{pad} | {caret}"])


@dataclass
class BindingSummary:
    """What the pipeline learned about one top-level binding."""

    name: str
    scheme: Optional[Scheme]
    rendered: str
    ok: bool
    defaulted_rep_vars: Tuple[str, ...] = ()
    span: Optional[Span] = None


@dataclass
class CheckResult:
    """Outcome of running a module through parse → infer → levity → default."""

    filename: str
    ok: bool = True
    bindings: List[BindingSummary] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    parsed: Optional[ParsedModule] = None
    env: Optional[TypeEnv] = None

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def scheme_of(self, name: str) -> Optional[Scheme]:
        # Last match wins, consistent with Module.bindings() on redefinition.
        for binding in reversed(self.bindings):
            if binding.name == name:
                return binding.scheme
        return None

    def pretty(self, source: Optional[str] = None) -> str:
        """Render the result; with ``source``, diagnostics that carry a
        span also print a GHC-style caret snippet under their message."""
        lines: List[str] = []
        for binding in self.bindings:
            if binding.ok:
                lines.append(f"{binding.name} :: {binding.rendered}")
        for diagnostic in self.diagnostics:
            lines.append(diagnostic.pretty())
            if source is not None and diagnostic.span is not None:
                snippet = render_snippet(source, diagnostic.span)
                if snippet:
                    lines.append(snippet)
        status = "ok" if self.ok else "FAILED"
        lines.append(f"{self.filename}: {status} "
                     f"({len(self.bindings)} binding(s), "
                     f"{len(self.errors)} error(s))")
        return "\n".join(lines)


@dataclass
class RunResult:
    """Outcome of evaluating an entry point on the cost-model machine."""

    check: CheckResult
    entry: str
    ok: bool = False
    value: str = ""
    costs: Dict[str, int] = field(default_factory=dict)
    #: Filled in when the entry also lowered to L and ran on the M machine.
    machine_value: Optional[str] = None
    machine_steps: Optional[int] = None
    #: True/False when the two results are comparable values (integers,
    #: boxed integers, or agreement on bottom); None when the machine ran
    #: but the result has no canonical comparison (e.g. a function value).
    machine_agrees: Optional[bool] = None
    #: Why the machine cross-check did not engage: the lowering error
    #: message when the entry's types leave the L fragment.  None when the
    #: machine ran (even if the result was not comparable) — the
    #: ``machine_agrees`` tri-state alone cannot distinguish "skipped"
    #: from "ran, not comparable".
    machine_skipped: Optional[str] = None
    #: Closure-compilation counters (``options.compiled`` runs only):
    #: bindings lowered to Python this run vs served from the per-unit
    #: codegen cache.  None when the tree-walker evaluated the entry.
    codegen_compiled: Optional[int] = None
    codegen_cached: Optional[int] = None

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return self.check.diagnostics

    def pretty(self) -> str:
        lines = [self.check.pretty()]
        if self.ok:
            lines.append(f"{self.entry} = {self.value}")
            lines.append(
                "costs: " + ", ".join(
                    f"{key}={value}" for key, value in self.costs.items()
                    if key in ("heap_allocations", "thunk_forces", "primops",
                               "function_calls", "estimated_cycles")))
            if self.codegen_compiled is not None:
                lines.append(
                    f"codegen: {self.codegen_compiled} function(s) "
                    f"compiled, {self.codegen_cached} cached")
            if self.machine_value is not None:
                if self.machine_agrees is None:
                    verdict = "ran (result not comparable)"
                else:
                    verdict = "agrees" if self.machine_agrees else "DISAGREES"
                lines.append(f"M machine {verdict}: {self.machine_value} "
                             f"({self.machine_steps} steps)")
        elif self.machine_agrees is True:
            lines.append("M machine agrees: both sides reached bottom "
                         f"({self.machine_steps} steps)")
        return "\n".join(lines)


@dataclass
class CompileResult:
    """Outcome of the L→M bridge on one entry point."""

    check: CheckResult
    entry: str
    ok: bool = False
    l_source: str = ""
    l_type: str = ""
    m_code: str = ""
    machine_value: Optional[str] = None
    machine_steps: Optional[int] = None
    lazy_lets: int = 0
    strict_lets: int = 0

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return self.check.diagnostics

    def pretty(self) -> str:
        lines = [self.check.pretty()]
        if self.ok:
            lines.append(f"L  source : {self.l_source}")
            lines.append(f"L  type   : {self.l_type}")
            lines.append(f"M  code   : {self.m_code}")
            if self.machine_value is not None:
                lines.append(f"M  result : {self.machine_value} "
                             f"({self.machine_steps} machine steps)")
        return "\n".join(lines)


def _machine_agreement(value, heap, machine_result) -> Optional[bool]:
    """Structurally compare an evaluator value with an M-machine value.

    The compilable fragment produces three value shapes: raw integers
    (``42#`` vs ``42``), boxed integers (``I# 42#`` vs ``I#[42]``) and
    functions.  Integers compare exactly; functions return None ("not
    comparable") — the old rendering-based digit comparison reported a
    bogus DISAGREES whenever a function *body* contained literals (found
    by corpus fuzzing, pinned in tests/golden/fuzz/function_entry.lev).
    """
    from ..lang_m.syntax import MConLit, MLam, MLit
    from ..runtime.values import ConstructorCell, HeapRef, UnboxedInt

    if isinstance(machine_result, MLit):
        return isinstance(value, UnboxedInt) \
            and value.value == machine_result.value
    if isinstance(machine_result, MConLit):
        if isinstance(value, HeapRef):
            cell = heap.load_for_show(value)
            if isinstance(cell, ConstructorCell) \
                    and cell.constructor == "I#" and cell.fields:
                unboxed = cell.fields[0]
                return isinstance(unboxed, UnboxedInt) \
                    and unboxed.value == machine_result.value
        return False
    if isinstance(machine_result, MLam):
        return None
    return None


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


@dataclass
class DriverOptions:
    """Behaviour switches shared by the pipeline, the CLI and the REPL."""

    #: Mirror of ``-fprint-explicit-runtime-reps`` for rendered schemes.
    explicit_runtime_reps: bool = False
    #: Skip the Section 5.1 post-pass (ablation; mirrors InferOptions).
    run_levity_check: bool = True
    #: Evaluate through the closure-compilation backend
    #: (:mod:`repro.runtime.compiler`) instead of the tree-walker.
    #: Semantics-identical; the cost counters are not modelled.
    compiled: bool = False

    def printer_options(self) -> PrinterOptions:
        return PrinterOptions(
            print_explicit_runtime_reps=self.explicit_runtime_reps)

    def infer_options(self) -> InferOptions:
        return InferOptions(collect_levity_violations=True,
                            run_levity_check=self.run_levity_check)


@dataclass
class MemberOutcome:
    """What checking one unit member (one ``FunBind`` decl) produced."""

    decl_index: int
    summary: BindingSummary
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: The scheme dependent units should see: the inferred scheme, or the
    #: declared signature when the body failed but a signature exists
    #: (batch-compiler style recovery), or None when nothing trustworthy
    #: is available.
    env_scheme: Optional[Scheme] = None


@dataclass
class UnitOutcome:
    """The result of checking one compilation unit (binding/SCC group)."""

    unit: CheckUnit
    members: List[MemberOutcome]
    #: Wall-clock seconds this unit's check took (``--stats``).
    seconds: float = 0.0


class Pipeline:
    """The staged parse → infer → levity → default checker.

    It parses a file and checks one **compilation unit** (a single
    binding, or an SCC group of mutually recursive ones) at a time; the
    unit walk of :mod:`repro.driver.batch` calls it in dependency order.
    Each unit's typing environment is the prelude plus exactly the
    schemes of the unit's direct dependencies.  That makes a unit's
    outcome a pure function of its own source text and those schemes —
    the property the per-unit incremental cache keys on — and turns
    per-binding error recovery structural: a unit whose dependency failed
    without leaving a trusted scheme is *skipped* with a precise
    diagnostic instead of producing a misleading cascade.
    """

    STAGES = ("parse", "infer", "levity", "default")

    def __init__(self, base_env: TypeEnv,
                 options: Optional[DriverOptions] = None) -> None:
        self.base_env = base_env
        self.options = options or DriverOptions()
        #: Session-lived memo of declaration-block parses: re-checking a
        #: module re-lexes/parses only the blocks whose text changed.
        self._block_memo: Dict[str, object] = {}

    # -- parse ---------------------------------------------------------------

    def parse(self, source: str, filename: str) -> Tuple[Optional[ParsedModule],
                                                         List[Diagnostic]]:
        from ..frontend.parser import parse_module_incremental

        traced = _TRACER.enabled
        if traced:
            _TRACER.begin("parse", file=filename)
        try:
            try:
                return parse_module_incremental(source, filename,
                                                memo=self._block_memo), []
            except ParseError as exc:
                span = Span(exc.line or 1, exc.column or 1,
                            exc.line or 1, exc.column or 1)
                return None, [Diagnostic("error", "parse", exc.message,
                                         filename, span)]
        finally:
            if traced:
                _TRACER.end("parse")

    # -- infer + levity + default, one unit ----------------------------------

    def check_unit(self, plan: ModulePlan, unit: CheckUnit,
                   available: Mapping[str, Optional[Scheme]]) -> UnitOutcome:
        """Check one unit against the schemes of its direct dependencies."""
        parsed = plan.parsed
        start = time.perf_counter()

        dep_schemes: Dict[str, Scheme] = {}
        missing: List[str] = []
        for dep in unit.deps:
            scheme = available.get(dep)
            if scheme is None:
                missing.append(dep)
            else:
                dep_schemes[dep] = scheme
        # Foreign references (names no local declaration binds) resolve only
        # when the caller seeded ``available`` with imported modules' exports
        # (project mode); an entry that is present but None marks an import
        # whose defining binding failed — the unit skips structurally, the
        # same recovery as a failed local dependency.  Names absent from
        # ``available`` stay unbound and surface as ordinary scope errors.
        for name in unit.foreign:
            if name in available:
                scheme = available[name]
                if scheme is None:
                    missing.append(name)
                else:
                    dep_schemes[name] = scheme
        env = self.base_env.bind_many(dep_schemes) if dep_schemes \
            else self.base_env

        signatures = parsed.module.signatures()
        if missing:
            members = self._skip_members(parsed, unit, signatures, missing)
        elif unit.is_group:
            members = self._check_group(parsed, unit, signatures, env)
        else:
            members = [self._check_member(parsed, unit.member_decls[0],
                                          signatures, env)]
        return UnitOutcome(unit, members, time.perf_counter() - start)

    def _check_member(self, parsed: ParsedModule, decl_index: int,
                      signatures: Dict[str, "SType"],
                      env: TypeEnv) -> MemberOutcome:
        decl = parsed.module.decls[decl_index]
        filename = parsed.filename
        span = parsed.decl_span_list[decl_index]
        signature = signatures.get(decl.name)
        traced = _TRACER.enabled
        if traced:
            _TRACER.begin("unit.infer", binding=decl.name, file=filename)
        try:
            return self._check_member_inner(parsed, decl_index, decl,
                                            filename, span, signature, env)
        finally:
            if traced:
                _TRACER.end("unit.infer")

    def _check_member_inner(self, parsed: ParsedModule, decl_index: int,
                            decl, filename: str, span, signature,
                            env: TypeEnv) -> MemberOutcome:
        inferencer = Inferencer(self.options.infer_options(),
                                spans=parsed.expr_spans)
        try:
            binding = inferencer.infer_binding(
                env, decl.name, decl.params, decl.rhs, signature)
        except ReproError as exc:
            stage = "levity" if "levity" in type(exc).__name__.lower() \
                else "infer"
            diagnostic = Diagnostic("error", stage, str(exc), filename,
                                    exc.span or span, decl.name)
            env_scheme = (Scheme.from_type(signature)
                          if signature is not None else None)
            # Later bindings may still check against the declaration.
            return MemberOutcome(
                decl_index,
                BindingSummary(decl.name, None, "", False, span=span),
                [diagnostic], env_scheme)

        diagnostics = [
            Diagnostic("error", "levity", violation.pretty(), filename,
                       violation.span or span, decl.name)
            for violation in binding.levity_report.violations]
        rendered = render_scheme(binding.scheme,
                                 self.options.printer_options())
        summary = BindingSummary(decl.name, binding.scheme, rendered,
                                 binding.ok, binding.defaulted_rep_vars,
                                 span)
        return MemberOutcome(decl_index, summary, diagnostics,
                             binding.scheme)

    def _check_group(self, parsed: ParsedModule, unit: CheckUnit,
                     signatures: Dict[str, "SType"],
                     env: TypeEnv) -> List[MemberOutcome]:
        """A mutually recursive SCC: every member needs a signature; the
        group is then checked member by member against the declared
        schemes (polymorphic mutual recursion, GHC-style)."""
        module = parsed.module
        declared: Dict[str, Scheme] = {}
        unsigned: List[str] = []
        for decl_index in unit.member_decls:
            decl = module.decls[decl_index]
            signature = signatures.get(decl.name)
            if signature is None:
                unsigned.append(decl.name)
            else:
                declared[decl.name] = Scheme.from_type(signature)

        if unsigned:
            group = ", ".join(repr(name) for name in unit.names)
            members = []
            for decl_index in unit.member_decls:
                decl = module.decls[decl_index]
                span = parsed.decl_span_list[decl_index]
                if decl.name in unsigned:
                    detail = f"{decl.name!r} has none"
                else:
                    detail = "missing: " + ", ".join(
                        repr(name) for name in unsigned)
                members.append(MemberOutcome(
                    decl_index,
                    BindingSummary(decl.name, None, "", False, span=span),
                    [Diagnostic(
                        "error", "infer",
                        f"mutually recursive group ({group}) needs a type "
                        f"signature for every member; {detail}",
                        parsed.filename, span, decl.name)],
                    declared.get(decl.name)))
            return members

        group_env = env.bind_many(declared)
        return [self._check_member(parsed, decl_index, signatures, group_env)
                for decl_index in unit.member_decls]

    def _skip_members(self, parsed: ParsedModule, unit: CheckUnit,
                      signatures: Dict[str, "SType"],
                      missing: List[str]) -> List[MemberOutcome]:
        """Structural error recovery: a dependency failed without leaving a
        trusted scheme, so this unit cannot be checked meaningfully."""
        module = parsed.module
        deps = ", ".join(repr(name) for name in missing)
        label = "dependency" if len(missing) == 1 else "dependencies"
        members = []
        for decl_index in unit.member_decls:
            decl = module.decls[decl_index]
            span = parsed.decl_span_list[decl_index]
            signature = signatures.get(decl.name)
            members.append(MemberOutcome(
                decl_index,
                BindingSummary(decl.name, None, "", False, span=span),
                [Diagnostic(
                    "error", "infer",
                    f"{decl.name!r} was not checked: its {label} {deps} "
                    "failed to check", parsed.filename, span, decl.name)],
                Scheme.from_type(signature) if signature is not None
                else None))
        return members


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


def _shutdown_executor(executor) -> None:
    """GC/close hook for a session's worker pool (must not capture the
    session itself, or the ``weakref.finalize`` would keep it alive)."""
    executor.shutdown(wait=False, cancel_futures=True)


class Session:
    """A long-lived driver session: cached prelude, batch checking, REPL state."""

    def __init__(self, options: Optional[DriverOptions] = None) -> None:
        self.options = options or DriverOptions()
        self._base_env = prelude_env()
        self.pipeline = Pipeline(self._base_env, self.options)
        #: REPL state.  The REPL's own declarations form the overlay
        #: module of a project: the ``:load``-ed ``(filename, source)``
        #: items, or nothing at all (``_repl_project`` is None).  The
        #: session-lived in-memory cache makes every re-check incremental;
        #: ``_repl_project_check`` is the last ProjectCheck (overlay last,
        #: when there is one) and ``_repl_check`` its merged CheckResult,
        #: which ``:t`` and evaluation run against.
        self._repl_decls: List[str] = []
        self._repl_project: Optional[List[Tuple[str, str]]] = None
        self._repl_cache = None
        self._repl_project_check = None
        self._repl_check: Optional[CheckResult] = None
        #: Generated sources of the bindings earlier lines linked against
        #: ``_repl_check``; dropped whenever that check is replaced.
        self._repl_sources: Dict[str, str] = {}
        #: The persistent worker pool (lazily spawned, reused across
        #: ``check_many`` calls) and the counters that make its lifecycle
        #: observable to benchmarks and tests.
        self._pool = None
        self._pool_size = 0
        self._pool_options: Optional[tuple] = None
        self._pool_finalizer = None
        self.pool_stats: Dict[str, int] = {
            "pools_created": 0,
            "pools_reused": 0,
            "parallel_batches": 0,
            "serial_batches": 0,
        }

    # -- the persistent worker pool -------------------------------------------

    def acquire_pool(self, jobs: int, options: Optional[DriverOptions] = None):
        """The session's :class:`~concurrent.futures.ProcessPoolExecutor`.

        Created on first use and **reused across batch calls** — worker
        processes keep their warm per-process :class:`Session` (prelude
        built once) between calls, so repeated ``check_many(jobs=N)`` pays
        process spawn at most once.  The pool is replaced only when a
        caller needs more workers than it has or checks under different
        options (workers bake options in at init).  CPython spawns the
        actual worker processes lazily on first submit, so an unused pool
        costs nothing.

        Raising is the caller's signal to fall back to in-process
        checking; :meth:`discard_pool` then drops any broken pool.
        """
        import dataclasses as _dataclasses
        from concurrent.futures import ProcessPoolExecutor

        from .batch import _worker_init

        options_state = _dataclasses.asdict(options if options is not None
                                            else self.options)
        # Tracing state is baked into the workers at init, so it is part
        # of the pool's identity: enabling --trace between batches must
        # respawn the pool rather than reuse untraced workers.
        pool_key = (options_state, _TRACER.enabled)
        if self._pool is not None:
            if self._pool_size >= jobs and self._pool_options == pool_key:
                self.pool_stats["pools_reused"] += 1
                _REGISTRY.inc("pool.pools_reused")
                return self._pool
            self._shutdown_pool()
        pool = ProcessPoolExecutor(max_workers=jobs,
                                   initializer=_worker_init,
                                   initargs=(options_state, _TRACER.enabled))
        self._pool = pool
        self._pool_size = jobs
        self._pool_options = pool_key
        self.pool_stats["pools_created"] += 1
        _REGISTRY.inc("pool.pools_created")
        import weakref

        self._pool_finalizer = weakref.finalize(self, _shutdown_executor,
                                                pool)
        return pool

    def discard_pool(self) -> None:
        """Drop the worker pool (after a BrokenProcessPool, or to force the
        next batch to respawn)."""
        self._shutdown_pool()

    def _shutdown_pool(self) -> None:
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self._pool is not None:
            _shutdown_executor(self._pool)
            self._pool = None
            self._pool_size = 0
            self._pool_options = None

    def close(self) -> None:
        """Shut down the worker pool.  Idempotent; the session remains
        usable (a later batch call simply respawns the pool)."""
        self._shutdown_pool()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the one-shot pipeline entry points ----------------------------------

    def check(self, source: str, filename: str = "<input>") -> CheckResult:
        """parse → infer → levity-check → Rep-default one module: the unit
        walk over one file without a cache, so the result is complete
        (``parsed`` and every scheme object set)."""
        from .batch import check_modules

        return check_modules([(filename, source, None)], self.options, 1,
                             None, self)[0][0]

    def check_many(self, sources: Iterable[Tuple[str, str]],
                   jobs: Optional[int] = None,
                   cache=None, stats=None) -> List[CheckResult]:
        """Batch API: check many ``(filename, source)`` programs per call.

        Reuses the cached prelude environment across programs — the
        throughput benchmarks (``bench_e12``/``bench_e13``/``bench_e15``)
        and the CLI's multi-file mode both call this.

        * ``jobs`` — walk the files that missed the file-level cache
          across that many worker processes; results come back in input
          order regardless of completion order, and the units re-checked
          are the same for every ``jobs``.
        * ``cache`` — a path (or :class:`repro.driver.batch.ResultCache`)
          keyed per compilation unit by the unit's source slice plus the
          schemes of its direct dependencies; editing one binding
          re-checks only that binding's SCC and the dependents whose
          dependency schemes actually changed.
        * ``stats`` — a :class:`repro.driver.batch.CheckStats` collecting
          per-unit timing and cache hit/miss counts (``--stats``).

        A file whose every unit was checked in this process gets a full
        result, as :meth:`check` returns; one with any unit from the cache
        or a worker gets the slim payload form (rendered schemes and
        diagnostics preserved; ``scheme``/``parsed``/``env`` are ``None``)
        — see :mod:`repro.driver.batch`.
        """
        from .batch import check_many_sharded

        return check_many_sharded(sources, self.options,
                                  jobs=jobs or 1, cache=cache, session=self,
                                  stats=stats)

    def check_project(self, sources: Iterable[Tuple[str, str]],
                      jobs: Optional[int] = None,
                      cache=None, stats=None):
        """Check a multi-module project (``module``/``import`` files).

        Builds the module DAG over the ``(filename, source)`` items,
        rejects import cycles with span-carrying diagnostics, and walks
        the DAG level by level with each module's imported schemes in
        scope — whole modules shard across the worker pool in level
        order, and with a ``cache`` the build is incremental across both
        bindings *and* module boundaries (see
        :mod:`repro.driver.project` and docs/PROJECTS.md).  Returns a
        :class:`repro.driver.project.ProjectCheck`.
        """
        from .project import check_project as _check_project

        return _check_project(sources, self.options, jobs=jobs or 1,
                              cache=cache, session=self, stats=stats)

    def run(self, source: str, filename: str = "<input>",
            entry: str = "main", cache=None) -> RunResult:
        """Check, then evaluate ``entry`` on the cost-model machine.

        When the entry also fits the compilable L fragment, the program is
        additionally lowered, compiled to M (Figure 7) and executed on the
        M machine as a cross-check.

        With ``options.compiled`` and a ``cache`` (a path or
        :class:`repro.driver.batch.ResultCache`), generated Python sources
        are stored per compilation unit next to the check results, so a
        warm run links cached code instead of re-lowering each binding.
        """
        return self.run_from_check(self.check(source, filename), entry,
                                   cache=cache)

    def run_from_check(self, check: CheckResult,
                       entry: str = "main", cache=None) -> RunResult:
        """Evaluate ``entry`` of an already-checked module (full results
        only: ``check.parsed`` must be present, so slim batch/cache results
        do not qualify).  Lets callers that already paid for inference —
        the fuzz harness, notably — skip a second parse+infer pass."""
        result = RunResult(check, entry)
        if not check.ok:
            return result
        filename = check.filename

        from ..runtime.evaluator import Evaluator, Program

        module = check.parsed.module
        if entry not in module.bindings():
            check.diagnostics.append(Diagnostic(
                "error", "run", f"no entry point named {entry!r}", filename))
            check.ok = False
            return result
        entry_bind = module.bindings()[entry]
        if entry_bind.params:
            check.diagnostics.append(Diagnostic(
                "error", "run",
                f"entry point {entry!r} must take no parameters "
                f"(it takes {len(entry_bind.params)})",
                filename, check.parsed.span_of_binding(entry), entry))
            check.ok = False
            return result

        compiled = self.options.compiled
        sources = None
        codegen_units = None
        cache_obj = None
        if compiled and cache is not None:
            from .batch import ResultCache, load_codegen

            cache_obj = ResultCache(cache) if isinstance(cache, str) \
                else cache
            sources, codegen_units = load_codegen(cache_obj, check,
                                                  self.options)
        traced = _TRACER.enabled
        try:
            evaluator = Evaluator(Program.from_check(check),
                                  compiled=compiled,
                                  compiled_sources=sources)
            if traced:
                _TRACER.begin("eval.run", entry=entry, file=filename)
            try:
                value = evaluator.force(evaluator.eval(entry_bind.rhs))
            finally:
                if traced:
                    _TRACER.end("eval.run")
                # Bindings link when the run first reaches them, so the
                # codegen counts and sources exist only now, bottom or not.
                backend = evaluator._compiled
                if backend is not None:
                    result.codegen_compiled = backend.codegen_count
                    result.codegen_cached = backend.cache_hits
                    if cache_obj is not None:
                        from .batch import store_codegen

                        store_codegen(cache_obj, codegen_units,
                                      {**sources, **backend.sources})
                        cache_obj.save()
            result.value = value.show(evaluator.heap)
            result.costs = evaluator.costs.as_dict()
            _REGISTRY.merge_counts(result.costs, "eval.")
            result.ok = True
        except ReproError as exc:
            check.diagnostics.append(Diagnostic(
                "error", "run", str(exc), filename,
                check.parsed.span_of_binding(entry), entry))
            check.ok = False
            self._machine_crosscheck(check, entry, result)
            return result

        self._machine_crosscheck(check, entry, result, value,
                                 evaluator.heap)
        return result

    def _machine_crosscheck(self, check: CheckResult, entry: str,
                            result: RunResult, value=None, heap=None) -> None:
        """Lower ``entry`` to L, compile it to M and run the machine.

        ``value`` (read through ``heap``) is the evaluator's answer; None
        means the evaluator reached bottom, so the machine must abort.
        Bottom is an observable outcome (S_PRIMBOT in L, the ABORT rule in
        M), so agreement on it is as meaningful as agreement on 42 — a
        machine that *succeeds* where the evaluator errored is a real
        divergence.
        """
        from .lower import LoweringError, lower_checked

        try:
            term = lower_checked(check, entry)
        except LoweringError as exc:
            result.machine_skipped = str(exc)
            check.diagnostics.append(Diagnostic(
                "note", "compile",
                f"entry not cross-checked on the M machine: {exc}",
                check.filename, binding=entry))
            return
        from ..compile.compiler import compile_and_run

        try:
            outcome = compile_and_run(term)
        except ReproError as exc:
            check.diagnostics.append(Diagnostic(
                "warning", "compile",
                f"L→M cross-check failed: {exc}", check.filename,
                binding=entry))
            return
        aborted = outcome.aborted
        result.machine_value = ("error" if aborted
                                else outcome.unwrap().pretty())
        result.machine_steps = outcome.costs.steps
        if value is None:
            result.machine_agrees = aborted
            if not aborted:
                check.diagnostics.append(Diagnostic(
                    "warning", "compile",
                    f"M machine produced {result.machine_value!r} but the "
                    f"evaluator reached bottom", check.filename,
                    binding=entry))
            return
        result.machine_agrees = False if aborted else _machine_agreement(
            value, heap, outcome.unwrap())
        if result.machine_agrees is False:
            check.diagnostics.append(Diagnostic(
                "warning", "compile",
                f"M machine result {result.machine_value!r} disagrees "
                f"with the evaluator's {result.value!r}",
                check.filename, binding=entry))
        elif result.machine_agrees is None:
            check.diagnostics.append(Diagnostic(
                "note", "compile",
                "M machine ran but the result has no canonical "
                "comparison (function value)",
                check.filename, binding=entry))

    def compile(self, source: str, filename: str = "<input>",
                entry: str = "main") -> CompileResult:
        """Check, lower ``entry`` to L, compile to M, and run the machine."""
        check = self.check(source, filename)
        result = CompileResult(check, entry)
        if not check.ok:
            return result

        from .lower import LoweringError, lower_checked
        from ..compile.compiler import compile_expr
        from ..lang_l.typing import type_of
        from ..lang_l.syntax import Context
        from ..lang_m.machine import run as run_machine

        try:
            term = lower_checked(check, entry)
            l_type = type_of(Context(), term)
            compiled = compile_expr(term)
            outcome = run_machine(compiled.code)
        except (LoweringError, ReproError) as exc:
            check.diagnostics.append(Diagnostic(
                "error", "compile", str(exc), filename,
                check.parsed.span_of_binding(entry), entry))
            check.ok = False
            return result

        result.ok = True
        result.l_source = term.pretty()
        result.l_type = l_type.pretty()
        result.m_code = compiled.pretty()
        result.lazy_lets = compiled.lazy_lets
        result.strict_lets = compiled.strict_lets
        result.machine_value = ("error" if outcome.aborted
                                else outcome.unwrap().pretty())
        result.machine_steps = outcome.costs.steps
        return result

    # -- REPL support ---------------------------------------------------------

    def repl_input(self, line: str) -> str:
        """Process one REPL line; returns the text to display."""
        stripped = line.strip()
        if not stripped:
            return ""
        if stripped.startswith(":t "):
            return self._repl_type_of(stripped[3:])
        if stripped == ":load" or stripped.startswith(":load "):
            return self._repl_load(stripped[5:].strip())
        if stripped.startswith(":"):
            return f"unknown command {stripped.split()[0]!r} " \
                   "(try :t expr, :load DIR, :q)"
        try:
            decls = parse_module(stripped, "<repl>").module.decls
        except ParseError as exc:
            # Perhaps an expression; if it is not one either, the error
            # further into the input is the one reported.
            return self._repl_eval(stripped, exc)
        if decls:
            # Use the stripped line: pasted indentation must not trip the
            # column-1 declaration rule when the module is re-assembled.
            # Several column-1 declarations may be pasted at once.
            return self._repl_define(stripped, decls)
        return self._repl_eval(stripped)

    def _repl_build(self, items: List[Tuple[str, str]]):
        """Check the REPL's project against the session-lived in-memory
        cache, which makes every re-check incremental."""
        from .batch import CheckStats, ResultCache

        if self._repl_cache is None:
            self._repl_cache = ResultCache()
        stats = CheckStats()
        return self.check_project(items, cache=self._repl_cache,
                                  stats=stats), stats

    def _repl_load(self, args_text: str) -> str:
        """``:load DIR|FILE...`` — check a project and bring its exports
        into the REPL scope.  The project rides the same ProjectPlan as
        ``python -m repro build``, against a session-lived in-memory
        cache, so later redefinitions re-check only the cross-module
        dependents of the edited binding."""
        from .project import discover_sources, merged_check

        if not args_text:
            return "usage: :load DIR|FILE..."
        try:
            items = discover_sources(args_text.split())
        except OSError as exc:
            return f"cannot load: {exc}"
        if not items:
            return f"no .lev files found under {args_text}"
        check, stats = self._repl_build(items)
        summary = (f"loaded {len(items)} file(s): "
                   f"{stats.checked} unit(s) checked, "
                   f"{stats.cache_hits} from cache")
        if not check.ok:
            errors = "\n".join(d.pretty() for r in check.results
                               for d in r.errors)
            return f"{errors}\n{summary} — load failed"
        self._repl_project = items
        self._repl_project_check = check
        self._repl_decls = []
        self._repl_check = merged_check(check, self.pipeline)
        self._repl_sources = {}
        return summary

    def _repl_define(self, text: str, added) -> str:
        """Add or redefine declarations.

        The REPL's declarations are the overlay module of a project whose
        other modules are the ``:load``-ed ones, if any.  A redefinition
        of a binding defined by exactly one loaded module is appended to
        *that module's* source (last definition wins), so the incremental
        re-check walks precisely the cross-module dependents whose
        imported schemes changed.  Anything else lands in the overlay, a
        headerless file importing every loaded module.  The echo is each
        (re)defined binding's display rendering, as ``check`` prints it.
        """
        from .project import merged_check

        project = self._repl_project
        loaded = list(project or [])
        names = list(dict.fromkeys(
            decl.name for decl in added if isinstance(decl, FunBind)))
        exports = self._repl_project_check.exports \
            if self._repl_project_check is not None else []
        homes = {index for index, module in enumerate(exports[:len(loaded)])
                 for name in names if name in (module or {})}
        # A name the overlay already defines stays there: the overlay's
        # definition would shadow one appended to its old home.
        in_overlay = bool(self._repl_decls) and \
            any(name in (exports[-1] or {}) for name in names)
        target = homes.pop() if len(homes) == 1 and not in_overlay else None

        items = list(loaded)
        decls = list(self._repl_decls)
        if target is not None:
            filename, source = items[target]
            items[target] = (filename, source.rstrip("\n") + "\n\n" +
                             text.rstrip() + "\n")
        else:
            decls.append(text.rstrip())
        if decls:
            imports = "" if project is None else "".join(
                f"import {name}\n" for name in
                sorted(self._repl_project_check.plan.by_name)) + "\n"
            items.append(("<repl>", imports + "\n".join(decls) + "\n"))

        check, stats = self._repl_build(items)
        if not check.ok:
            return "\n".join(d.pretty() for r in check.results
                             for d in r.errors)
        if project is not None:
            self._repl_project = items[:len(loaded)]
        self._repl_decls = decls
        self._repl_project_check = check
        self._repl_check = merged_check(check, self.pipeline)
        self._repl_sources = {}
        echo = check.results[target if target is not None else -1]
        lines = []
        for name in names:
            for binding in reversed(echo.bindings):
                if binding.name == name:
                    lines.append(f"{binding.name} :: {binding.rendered}")
                    break
        if project is not None:
            lines.append(f"(re-checked {stats.checked} unit(s) across "
                         f"{len(items)} file(s))")
        return "\n".join(lines) if lines else "defined."

    def _repl_it(self, text: str, decl_error: Optional[ParseError] = None):
        """Parse ``text`` and infer it as the binding ``it = <expr>``, so
        its scheme is generalised with Rep defaulting, exactly as GHCi's
        ``:type`` does.  Returns ``(expr, binding)``, or the error text to
        print: of a parse error here and ``decl_error`` (the input's error
        as declarations), the one further into the input."""
        from ..infer.infer import infer_binding

        try:
            expr = parse_expr(text, "<repl>")
        except ParseError as exc:
            if decl_error is not None and \
                    (decl_error.line, decl_error.column) > (exc.line,
                                                            exc.column):
                exc = decl_error
            return f"parse error: {exc}"
        check = self._repl_check
        env = check.env if check is not None else self._base_env
        try:
            binding = infer_binding("it", (), expr, env=env,
                                    options=self.options.infer_options())
        except ReproError as exc:
            return f"type error: {exc}"
        if not binding.ok:
            return "type error: " + binding.levity_report.pretty()
        return expr, binding

    def _repl_type_of(self, text: str) -> str:
        it = self._repl_it(text)
        if isinstance(it, str):
            return it
        return f"{text.strip()} :: " \
               f"{render_scheme(it[1].scheme, self.options.printer_options())}"

    def _repl_eval(self, text: str,
                   decl_error: Optional[ParseError] = None) -> str:
        from ..runtime.evaluator import Evaluator, Program

        it = self._repl_it(text, decl_error)
        if isinstance(it, str):
            return it
        check = self._repl_check
        program = Program.from_check(check) if check is not None \
            else Program()
        evaluator = Evaluator(program, compiled=self.options.compiled,
                              compiled_sources=self._repl_sources)
        try:
            value = evaluator.force(evaluator.eval(it[0]))
            return value.show(evaluator.heap)
        except ReproError as exc:
            return f"runtime error: {exc}"
        finally:
            if evaluator._compiled is not None:
                # Later lines link these instead of lowering them again.
                self._repl_sources.update(evaluator._compiled.sources)
