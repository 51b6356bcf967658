"""Binding-level dependency graphs: the driver's compilation units.

The paper's checking discipline is inherently per-binding — each top-level
binding is inferred, levity-checked and Rep-defaulted against the schemes
of the bindings it *uses* — so the driver's unit of work is not the module
but the **binding group**:

* :func:`decl_references` computes which module-level names a binding's
  right-hand side mentions (its free variables minus its parameters);
* :func:`build_plan` resolves those references (**last definition wins**,
  consistent with :meth:`repro.surface.ast.Module.bindings`) from the
  declarations' outlines alone, so no block need be parsed to plan it;
  it then builds the binding dependency graph over the module's
  ``FunBind`` declarations and condenses it into strongly connected
  components with an iterative Tarjan pass;
* the resulting :class:`ModulePlan` lists :class:`CheckUnit` values in
  **dependency order** (every unit appears after all the units it depends
  on), so the pipeline can thread a typing environment unit by unit.  An
  SCC with more than one member is a mutually recursive group and is
  checked as one unit.

Each unit also knows its **source segments** — the exact line slices of
its declarations (type signatures included).  Two consumers rely on them:

* the incremental cache (:mod:`repro.driver.batch`) keys a unit by the
  hash of its source text plus the schemes of its direct dependencies, so
  editing one binding invalidates only that unit and (transitively) the
  units whose dependency schemes actually change;
* cached diagnostics store spans *relative to their segment*, so a unit
  that merely moved (because an earlier binding grew or shrank) can be
  answered from the cache with correctly re-based line numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..frontend.lexer import Span
from ..frontend.parser import ParsedModule
from ..surface.ast import FunBind

__all__ = [
    "CheckUnit",
    "ModulePlan",
    "Segment",
    "build_plan",
    "decl_references",
]


@dataclass(frozen=True)
class Segment:
    """One declaration's slice of the module source.

    ``start_line``/``end_line`` are 1-based and inclusive; ``text`` is the
    corresponding lines of the source, newline-terminated.
    """

    decl_index: int
    start_line: int
    end_line: int
    text: str

    def contains_line(self, line: int) -> bool:
        return self.start_line <= line <= self.end_line


@dataclass(frozen=True)
class CheckUnit:
    """One compilation unit: a binding (or mutually recursive group).

    ``uid`` is the unit's position in :attr:`ModulePlan.units` — a
    dependency-ordered (topological) index.  ``names`` are the member
    binding names in declaration order; for the common case of a single
    non-recursive binding there is exactly one.  ``deps`` are the *names*
    of the module bindings this unit directly uses (sorted, excluding the
    unit's own members).
    """

    uid: int
    names: Tuple[str, ...]
    member_decls: Tuple[int, ...]      # decl indices of the member FunBinds
    segments: Tuple[Segment, ...]      # sigs + binds, declaration order
    deps: Tuple[str, ...]
    source: str                        # concatenated segment texts
    #: References bound by no declaration in this module (sorted).  In
    #: project mode these are the candidates for resolution against the
    #: exports of imported modules; unresolved leftovers surface as the
    #: usual not-in-scope diagnostics.
    foreign: Tuple[str, ...] = ()

    @property
    def is_group(self) -> bool:
        """More than one member: a mutually recursive binding group."""
        return len(self.member_decls) > 1

    def segment_of_line(self, line: int) -> Optional[int]:
        """Index (into ``segments``) of the segment containing ``line``."""
        for index, segment in enumerate(self.segments):
            if segment.contains_line(line):
                return index
        return None

    def relativize_span(self, span: Span) -> Tuple[int, List[int]]:
        """Express ``span`` relative to the segment that contains it.

        Returns ``(segment_index, [dline, col, dend_line, end_col])`` where
        the line fields are offsets from the segment's first line.  A span
        outside every segment (defensive case) is returned absolute with
        segment index ``-1``.
        """
        index = self.segment_of_line(span.line)
        if index is None:
            return -1, [span.line, span.column, span.end_line,
                        span.end_column]
        base = self.segments[index].start_line
        return index, [span.line - base, span.column,
                       span.end_line - base, span.end_column]

    def absolutize_span(self, segment_index: int,
                        fields: Sequence[int]) -> Span:
        """Inverse of :meth:`relativize_span` against *this* unit's layout."""
        dline, column, dend, end_column = fields
        if segment_index < 0 or segment_index >= len(self.segments):
            return Span(dline, column, dend, end_column)
        base = self.segments[segment_index].start_line
        return Span(base + dline, column, base + dend, end_column)


@dataclass
class ModulePlan:
    """A module broken into dependency-ordered check units."""

    parsed: ParsedModule
    units: List[CheckUnit]
    #: name -> decl index of its *defining* (last) FunBind.
    defining_decl: Dict[str, int]
    #: name -> uid of the unit whose member is the defining decl.
    defining_unit: Dict[str, int]
    #: The module's name: the ``module M where`` header's name when the
    #: file has one, else the parser's default ("Main").
    module_name: str = "Main"
    #: Span of the header declaration, if present.
    header_span: Optional[Span] = None
    #: ``import`` declarations in declaration order (name, span), duplicates
    #: kept so diagnostics can point at the exact occurrence.
    imports: Tuple[Tuple[str, Span], ...] = ()
    #: References bound by no declaration of the module (sorted): the
    #: union of the units' ``foreign`` names.
    foreign: Tuple[str, ...] = ()

    @property
    def has_header(self) -> bool:
        return self.header_span is not None


def decl_references(bind: FunBind) -> FrozenSet[str]:
    """Names a binding's right-hand side references (minus its parameters).

    The binding's own name *is* included when it recurses — the planner
    turns that into a self-edge, which Tarjan keeps inside the singleton
    SCC.
    """
    return bind.rhs.free_vars() - frozenset(bind.params)


def _segment(source_lines: List[str], decl_index: int, span: Span) -> Segment:
    start = max(1, span.line)
    end = min(len(source_lines), max(span.end_line, start))
    text = "\n".join(source_lines[start - 1:end]) + "\n"
    return Segment(decl_index, start, end, text)


def _tarjan(order: List[int],
            edges: Dict[int, List[int]]) -> List[List[int]]:
    """Iterative Tarjan SCC.  Returns SCCs in dependency order: every SCC
    appears after the SCCs it depends on (reverse-topological completion
    order of the condensation)."""
    index_of: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Dict[int, bool] = {}
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = 0

    for root in order:
        if root in index_of:
            continue
        # Each work item is (node, iterator-position into its edge list).
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, edge_pos = work[-1]
            if edge_pos == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            successors = edges.get(node, [])
            while edge_pos < len(successors):
                succ = successors[edge_pos]
                edge_pos += 1
                if succ not in index_of:
                    work[-1] = (node, edge_pos)
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack.get(succ):
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                component.sort()
                sccs.append(component)
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def build_plan(parsed: ParsedModule, units: bool = True) -> ModulePlan:
    """Break a module into dependency-ordered check units.

    Only the declarations' outlines are read (``decl_keys``, spans and
    ``decl_refs``), so a module whose blocks are not parsed yet plans as
    well as a parsed one.  With ``units=False`` the plan holds the
    module-level facts alone (name, header, imports, definitions and
    foreign references) and no units: the project graph needs no more.
    """
    bound_names: Dict[str, int] = {}
    header_span: Optional[Span] = None
    imports: List[Tuple[str, Span]] = []
    refs: Dict[int, FrozenSet[str]] = {}
    memoised_refs = parsed.decl_refs
    decl_span = dict(enumerate(parsed.decl_span_list))
    for index, (kind, name) in enumerate(parsed.decl_keys):
        if kind == "bind":
            bound_names[name] = index       # last definition wins
            # The parser keeps per-decl references; a module assembled
            # elsewhere walks the AST.
            found = None
            if memoised_refs is not None and index < len(memoised_refs):
                found = memoised_refs[index]
            refs[index] = found if found is not None \
                else decl_references(parsed.module.decls[index])
        elif kind == "module":
            header_span = decl_span.get(index)
        elif kind == "import" and index in decl_span:
            imports.append((name, decl_span[index]))
    foreign = {name for names in refs.values() for name in names
               if name not in bound_names}
    layout = _layout(parsed, bound_names, refs) if units else []
    defining_unit = {name: unit.uid for unit in layout
                     for index, name in zip(unit.member_decls, unit.names)
                     if bound_names[name] == index}
    return ModulePlan(parsed=parsed, units=layout,
                      defining_decl=bound_names, defining_unit=defining_unit,
                      module_name=parsed.module.name,
                      header_span=header_span, imports=tuple(imports),
                      foreign=tuple(sorted(foreign)))


def _layout(parsed: ParsedModule, bound_names: Dict[str, int],
            refs: Dict[int, FrozenSet[str]]) -> List[CheckUnit]:
    """The check units, in dependency order: the reference graph between
    the FunBind decls (``refs``, in declaration order), condensed."""
    source_lines = parsed.source.split("\n")
    decl_span = dict(enumerate(parsed.decl_span_list))
    names = [name for _kind, name in parsed.decl_keys]
    sig_decls_of: Dict[str, List[int]] = {}
    for index, (kind, name) in enumerate(parsed.decl_keys):
        if kind == "sig":
            sig_decls_of.setdefault(name, []).append(index)
    # Edges between FunBind decl indices; references resolve to the
    # *defining* declaration of the referenced name.
    edges = {index: sorted({bound_names[name] for name in names_used
                            if name in bound_names})
             for index, names_used in refs.items()}

    units: List[CheckUnit] = []
    for uid, members in enumerate(_tarjan(list(refs), edges)):
        member_names: List[str] = []
        segment_decls: List[int] = []
        deps: set = set()
        foreign: set = set()
        for index in members:
            member_names.append(names[index])
            segment_decls.extend(sig_decls_of.get(names[index], []))
            segment_decls.append(index)
            for name in refs[index]:
                if name in bound_names:
                    if bound_names[name] not in members:
                        deps.add(name)
                else:
                    foreign.add(name)
        segment_decls = sorted(set(segment_decls))
        segments = tuple(
            _segment(source_lines, decl_index, decl_span[decl_index])
            for decl_index in segment_decls
            if decl_span.get(decl_index) is not None)
        units.append(CheckUnit(
            uid=uid,
            names=tuple(member_names),
            member_decls=tuple(members),
            segments=segments,
            deps=tuple(sorted(deps)),
            source="".join(segment.text for segment in segments),
            foreign=tuple(sorted(foreign))))
    return units
