"""Project-level planning: the module DAG over binding-level plans.

PR 5 made the *binding* the unit of checking within a file; this module
makes the **module** the unit of organisation across files.  A project is
a set of ``.lev`` files, each optionally naming itself with a
``module M where`` header and pulling sibling modules' exports into scope
with ``import N`` declarations.  The planner builds a two-level plan:

* the **module graph** — nodes are files, edges are imports.  Import
  cycles are rejected with span-carrying diagnostics (the reproduction's
  module system is a DAG, like GHC's without ``hs-boot`` files); unknown
  imports, duplicate module names and modules downstream of a failure are
  likewise diagnosed at their import/header spans and skipped
  structurally rather than cascading bogus scope errors;
* within each module, the existing binding-level
  :class:`~repro.driver.depgraph.ModulePlan` — name resolution flows the
  *exported schemes* of imported modules into each unit's environment,
  and each unit's cache key folds in the canonical renderings of the
  imported schemes it actually references.

That second point is the cross-file early-cutoff property:

* editing a function body in module ``A`` without changing its exported
  scheme re-checks exactly that unit — every dependent module's file key
  (:func:`repro.driver.batch.file_key`) still matches, so dependents are
  answered from the file-level cache without even re-parsing;
* changing an exported *scheme* re-opens exactly the modules that import
  it, and within them re-checks exactly the units that name it.

Warm no-op builds never parse at all: the module graph is rebuilt from
``outline:`` side-table entries (name + imports + foreign references per
source text), and per-module exports come from ``exports:`` entries.

Checking walks the DAG level by level (every module's imports live in
strictly earlier levels), handing each level to
:func:`repro.driver.batch.check_modules` — the unit walk single-file
``check`` uses too, so whole modules shard across the session's
persistent worker pool in DAG level order.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..core.errors import ParseError
from ..frontend.lexer import Span
from ..frontend.parser import ParsedModule, parse_scheme
from ..surface.ast import ImportDecl, Module, ModuleHeader
from ..telemetry import REGISTRY as _REGISTRY, TRACER as _TRACER
from .batch import (
    CheckStats,
    ResultCache,
    _span_to_list,
    check_modules,
    options_fingerprint,
    outline_key,
)
from .depgraph import _tarjan, build_plan
from .session import (
    BindingSummary,
    CheckResult,
    Diagnostic,
    DriverOptions,
    Pipeline,
    RunResult,
    Session,
)

__all__ = [
    "ModuleNode",
    "ProjectCheck",
    "ProjectPlan",
    "build_project_plan",
    "check_project",
    "discover_sources",
    "merged_check",
    "run_project",
]


# ---------------------------------------------------------------------------
# Source discovery
# ---------------------------------------------------------------------------


def discover_sources(paths: Sequence[str]) -> List[Tuple[str, str]]:
    """Expand files and directories into ``(filename, source)`` items.

    Directories are walked recursively for ``.lev`` files in sorted order
    (deterministic build plans); explicit files are taken as-is.  Raises
    ``OSError`` for unreadable paths — the CLI turns that into a friendly
    message.
    """
    items: List[Tuple[str, str]] = []
    seen: Set[str] = set()

    def add(path: str) -> None:
        resolved = os.path.abspath(path)
        if resolved in seen:
            return
        seen.add(resolved)
        with open(path, "r", encoding="utf-8") as handle:
            items.append((path, handle.read()))

    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(".lev"):
                        add(os.path.join(root, name))
        else:
            add(path)
    return items


# ---------------------------------------------------------------------------
# Module outlines and the project plan
# ---------------------------------------------------------------------------


@dataclass
class ModuleNode:
    """One file's place in the module graph.

    ``name`` is the ``module M where`` header's name; None marks a
    headerless file (checkable, and free to import, but not importable —
    there is no name to import it by).
    """

    index: int
    filename: str
    source: str
    name: Optional[str]
    parse_error: bool
    header_span: Optional[Span]
    #: Import declarations in declaration order (name, span), duplicates
    #: kept so diagnostics can point at the exact occurrence.
    imports: Tuple[Tuple[str, Span], ...]
    #: Union of foreign references across the module's units (sorted).
    foreign: Tuple[str, ...]
    level: int = 0

    @property
    def import_names(self) -> Tuple[str, ...]:
        """Imported module names, declaration order, de-duplicated."""
        seen: Dict[str, None] = {}
        for name, _span in self.imports:
            seen.setdefault(name, None)
        return tuple(seen)


#: A ``module M where`` header at column 1 — the decl-0 shape the parser
#: enforces, matched textually so a file whose *body* fails to parse
#: still registers its name (importers then get "its import failed"
#: rather than a misleading "unknown module").
_HEADER_RE = re.compile(r"^module\s+([A-Z][A-Za-z0-9_']*#?)\s+where\s*$")


def _salvage_name(source: str) -> Optional[str]:
    for line in source.split("\n"):
        if not line.strip() or line.lstrip().startswith("--"):
            continue
        match = _HEADER_RE.match(line)
        return match.group(1) if match else None
    return None


def _outline_node(index: int, filename: str, source: str,
                  pipeline: Pipeline, options: DriverOptions,
                  cache: Optional[ResultCache],
                  fingerprint: Optional[str]) -> ModuleNode:
    """Resolve one file's outline: from the cache side-table, else by
    parsing (and storing the outline for the next build)."""
    key = outline_key(source, options, fingerprint)
    if cache is not None:
        payload = cache.lookup_outline(key)
        if payload is not None:
            _REGISTRY.inc("project.outline_hits")
            header = payload.get("header_span")
            return ModuleNode(
                index, filename, source, payload["name"],
                payload["parse_error"],
                Span(*header) if header else None,
                tuple((name, Span(*span))
                      for name, span in payload["imports"]),
                tuple(payload["foreign"]))
    _REGISTRY.inc("project.outline_misses")
    parsed, _diagnostics = pipeline.parse(source, filename)
    if parsed is None:
        node = ModuleNode(index, filename, source, _salvage_name(source),
                          True, None, (), ())
    else:
        plan = build_plan(parsed)
        foreign = sorted({name for unit in plan.units
                          for name in unit.foreign})
        node = ModuleNode(
            index, filename, source,
            plan.module_name if plan.has_header else None,
            False, plan.header_span, plan.imports, tuple(foreign))
    if cache is not None:
        cache.store(key, {
            "name": node.name,
            "parse_error": node.parse_error,
            "header_span": _span_to_list(node.header_span),
            "imports": [[name, _span_to_list(span)]
                        for name, span in node.imports],
            "foreign": list(node.foreign),
        })
    return node


@dataclass
class ProjectPlan:
    """The module-level DAG of one project build."""

    nodes: List[ModuleNode]
    #: importable module name -> node index (first file wins; duplicates
    #: are diagnosed and skipped).
    by_name: Dict[str, int]
    #: node indices in dependency (topological) order.
    order: List[int]
    #: DAG levels of the checkable nodes: every module's imports resolve
    #: to strictly earlier levels.  This is the sharding order.
    levels: List[List[int]]
    #: node index -> graph-level diagnostics.  Membership means the module
    #: is structurally skipped (cycle member, duplicate name, failed or
    #: unknown import) and produces an error result without being checked.
    graph_diagnostics: Dict[int, List[Diagnostic]] = field(
        default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.graph_diagnostics


def build_project_plan(items: Sequence[Tuple[str, str]],
                       pipeline: Pipeline,
                       options: DriverOptions,
                       cache: Optional[ResultCache] = None,
                       fingerprint: Optional[str] = None) -> ProjectPlan:
    """Build the module graph over ``(filename, source)`` items.

    Outlines come from the cache side-table when possible — a warm build
    reconstructs the whole graph without parsing a single file.
    """
    fingerprint = fingerprint or options_fingerprint(options)
    with _TRACER.span("project.graph", modules=len(items)):
        nodes = [_outline_node(index, filename, source, pipeline, options,
                               cache, fingerprint)
                 for index, (filename, source) in enumerate(items)]

        diagnostics: Dict[int, List[Diagnostic]] = {}
        failed: Set[int] = set()

        def diagnose(index: int, message: str,
                     span: Optional[Span]) -> None:
            diagnostics.setdefault(index, []).append(Diagnostic(
                "error", "parse", message, nodes[index].filename, span))

        by_name: Dict[str, int] = {}
        for node in nodes:
            if node.name is None:
                continue
            first = by_name.setdefault(node.name, node.index)
            if first != node.index:
                diagnose(node.index,
                         f"duplicate module {node.name!r}: already defined "
                         f"by {nodes[first].filename}", node.header_span)
                failed.add(node.index)

        edges: Dict[int, List[int]] = {}
        for node in nodes:
            targets = {by_name[name] for name, _span in node.imports
                       if name in by_name}
            edges[node.index] = sorted(targets)

        sccs = _tarjan(list(range(len(nodes))), edges)
        order = [index for scc in sccs for index in scc]

        for scc in sccs:
            cyclic = len(scc) > 1 or scc[0] in edges.get(scc[0], [])
            if not cyclic:
                continue
            members = set(scc)
            names = sorted(nodes[index].name or nodes[index].filename
                           for index in scc)
            if len(scc) == 1:
                message = f"module {names[0]!r} imports itself"
            else:
                message = "import cycle: " + \
                    " -> ".join(names + [names[0]])
            for index in scc:
                span = next((span for name, span in nodes[index].imports
                             if by_name.get(name) in members), None)
                diagnose(index, message, span)
                failed.add(index)
            _REGISTRY.inc("project.cycles")

        # Structural failure propagation, in dependency order: a module
        # whose import is unknown, failed, or downstream of a failure is
        # itself skipped (exporting nothing), so one broken module yields
        # one precise diagnostic chain instead of a scope-error cascade.
        bad_exporters: Set[int] = set(failed) | {
            node.index for node in nodes if node.parse_error}
        for index in order:
            if index in failed or nodes[index].parse_error:
                continue
            node = nodes[index]
            bad = False
            for name, span in node.imports:
                target = by_name.get(name)
                if target is None:
                    diagnose(index,
                             f"import of unknown module {name!r} "
                             "(no module in this build defines it)", span)
                    bad = True
                elif target in bad_exporters:
                    diagnose(index,
                             f"module not checked: its import {name!r} "
                             "failed", span)
                    bad = True
            if bad:
                failed.add(index)
                bad_exporters.add(index)

        # DAG levels over the checkable nodes (parse failures sit at
        # level 0 and produce their parse-error results there).
        level_of: Dict[int, int] = {}
        levels: List[List[int]] = []
        for index in order:
            if index in failed:
                continue
            node = nodes[index]
            parents = [level_of[by_name[name]]
                       for name, _span in node.imports
                       if by_name.get(name) in level_of]
            level = 1 + max(parents) if parents else 0
            level_of[index] = level
            node.level = level
            while len(levels) <= level:
                levels.append([])
            levels[level].append(index)

    return ProjectPlan(nodes=nodes, by_name=by_name, order=order,
                       levels=levels, graph_diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Project checking
# ---------------------------------------------------------------------------


@dataclass
class ProjectCheck:
    """Everything one project build produced."""

    plan: ProjectPlan
    #: Per input file, in input order.
    results: List[CheckResult]
    #: Per input file: defined name -> canonical exported scheme rendering
    #: (None value = that binding failed; None entry = module failed).
    exports: List[Optional[Dict[str, Optional[str]]]]
    stats: CheckStats

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)


#: The scope-error shape :func:`repro.infer.infer` produces; group 1 is
#: the missing name.  Cross-module hints key off it.
_NOT_IN_SCOPE = re.compile(r"^variable '([^']+)' is not in scope")


def _add_cross_module_hints(plan: ProjectPlan,
                            results: List[CheckResult],
                            exports: List[Optional[Dict[str, Optional[str]]]]
                            ) -> None:
    """Append "defined in module B; add ``import B``" notes after scope
    errors whose missing name is exported by a sibling module.

    Runs *after* cache assembly (the notes are a pure function of the
    plan and the export maps), so warm and cold results stay
    byte-identical.
    """
    exporters: Dict[str, List[str]] = {}
    for node in plan.nodes:
        if node.name is None or exports[node.index] is None:
            continue
        for name in exports[node.index]:
            exporters.setdefault(name, []).append(node.name)
    for candidates in exporters.values():
        candidates.sort()
    if not exporters:
        return

    hints = 0
    for node in plan.nodes:
        result = results[node.index]
        if result is None or result.ok:
            continue
        imported = set(node.import_names)
        rewritten: List[Diagnostic] = []
        for diagnostic in result.diagnostics:
            rewritten.append(diagnostic)
            if diagnostic.severity != "error":
                continue
            match = _NOT_IN_SCOPE.match(diagnostic.message)
            if match is None:
                continue
            name = match.group(1)
            sources = [module for module in exporters.get(name, ())
                       if module != node.name and module not in imported]
            if not sources:
                continue
            rewritten.append(Diagnostic(
                "note", diagnostic.stage,
                f"{name!r} is defined in module {sources[0]!r}; "
                f"add 'import {sources[0]}'",
                result.filename, diagnostic.span, diagnostic.binding))
            hints += 1
        result.diagnostics[:] = rewritten
    if hints:
        _REGISTRY.inc("project.hints", hints)


def check_project(sources: Iterable[Tuple[str, str]],
                  options: Optional[DriverOptions] = None,
                  jobs: int = 1,
                  cache: Union[ResultCache, str, None] = None,
                  session: Optional[Session] = None,
                  stats: Optional[CheckStats] = None) -> ProjectCheck:
    """Check a whole project: build the module DAG, walk it level by
    level, and resolve each module through the incremental batch
    machinery with its imports' exported schemes in scope.

    Results come back in input order.  Modules the graph rejects (cycle
    members, duplicates, failed imports) get error results carrying the
    graph diagnostics and are never checked.
    """
    if session is None:
        session = Session(options)
    if options is None:
        options = session.options
    if isinstance(cache, str):
        cache = ResultCache(cache)
    if stats is None:
        stats = CheckStats()

    items = list(sources)
    plan = build_project_plan(items, session.pipeline, options, cache)
    _REGISTRY.inc("project.builds")
    _REGISTRY.inc("project.modules", len(items))
    _REGISTRY.inc("project.dag_levels", len(plan.levels))

    results: List[Optional[CheckResult]] = [None] * len(items)
    exports: List[Optional[Dict[str, Optional[str]]]] = [None] * len(items)

    for index, graph_diagnostics in sorted(plan.graph_diagnostics.items()):
        node = plan.nodes[index]
        result = CheckResult(node.filename, ok=False)
        result.diagnostics.extend(graph_diagnostics)
        results[index] = result
        stats.files += 1
        _REGISTRY.inc("project.modules_skipped")

    for level_nodes in plan.levels:
        modules = []
        for index in level_nodes:
            node = plan.nodes[index]
            with _TRACER.span("module.resolve", file=node.filename,
                              module=node.name or ""):
                in_scope: Dict[str, Optional[str]] = {}
                for import_name in node.import_names:
                    target = plan.by_name.get(import_name)
                    if target is None:
                        continue
                    # Later imports win on collision (documented in
                    # docs/PROJECTS.md; avoids use-site ambiguity).
                    in_scope.update(exports[target] or {})
                scope = {name: in_scope[name] for name in node.foreign
                         if name in in_scope}
            modules.append((node.filename, node.source, scope))
        checked = check_modules(modules, options, jobs, cache, session,
                                stats)
        for index, (result, module_exports) in zip(level_nodes, checked):
            results[index] = result
            exports[index] = module_exports

    assert all(result is not None for result in results)
    _add_cross_module_hints(plan, results, exports)  # type: ignore[arg-type]
    return ProjectCheck(plan=plan, results=results,  # type: ignore[arg-type]
                        exports=exports, stats=stats)


# ---------------------------------------------------------------------------
# Running a project
# ---------------------------------------------------------------------------


def merged_check(check: ProjectCheck,
                 pipeline: Pipeline) -> Optional[CheckResult]:
    """Synthesize a full :class:`CheckResult` for the whole project.

    Concatenates every module's declarations in dependency order (headers
    and imports dropped) and rebuilds each binding's scheme from the
    *exported canonical renderings* — so a warm project can be evaluated
    without re-running inference.  Returns None unless every module
    checked cleanly.
    """
    if not check.ok:
        return None
    decls: List[object] = []
    bindings: List[BindingSummary] = []
    env_schemes: Dict[str, Optional[object]] = {}
    for index in check.plan.order:
        node = check.plan.nodes[index]
        parsed, _diagnostics = pipeline.parse(node.source, node.filename)
        if parsed is None:
            return None
        for decl in parsed.module.decls:
            if isinstance(decl, (ModuleHeader, ImportDecl)):
                continue
            decls.append(decl)
        node_exports = check.exports[index] or {}
        for name in parsed.module.bindings():
            scheme_src = node_exports.get(name)
            scheme = None
            if scheme_src is not None:
                try:
                    scheme = parse_scheme(scheme_src)
                except ParseError:
                    scheme = None
            bindings.append(BindingSummary(name, scheme, scheme_src or "",
                                           scheme is not None))
            env_schemes[name] = scheme
    module = Module("Project", decls)
    result = CheckResult("<project>", ok=True,
                         parsed=ParsedModule(module, "<project>", ""))
    result.bindings = bindings
    live = {name: scheme for name, scheme in env_schemes.items()
            if scheme is not None}
    result.env = pipeline.base_env.bind_many(live) if live \
        else pipeline.base_env
    return result


def run_project(session: Session, check: ProjectCheck,
                entry: str = "main", cache=None) -> RunResult:
    """Evaluate ``entry`` over the merged project on the cost-model
    machine (with the usual M-machine cross-check when the entry fits the
    compilable fragment)."""
    merged = merged_check(check, session.pipeline)
    if merged is None:
        combined = CheckResult("<project>", ok=False)
        for result in check.results:
            combined.diagnostics.extend(result.diagnostics)
        return RunResult(combined, entry)
    return session.run_from_check(merged, entry, cache=cache)
