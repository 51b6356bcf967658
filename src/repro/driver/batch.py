"""Batch checking with a **binding-level** incremental cache.

PR 3 cached whole source texts; this version caches **compilation units**
(single bindings or mutually recursive SCC groups, see
:mod:`repro.driver.depgraph`).  A unit's cache key is::

    sha256( schema : options-fingerprint : unit source slice
            : for each direct dependency, its name + the canonical
              rendering of its scheme )

so editing one binding invalidates exactly that unit plus the units whose
*dependency schemes actually change* — a dependent whose dependency was
edited but re-checked to the same scheme is still a cache hit (early
cutoff).  Parse is always re-done (it is cheap and yields the plan the
walk needs); inference, the levity post-pass and Rep defaulting are what
the cache skips.

Three layers:

* **Unit payloads** — :func:`payload_from_unit_outcome` converts one
  checked unit into a slim JSON dict: per-member rendered schemes, status,
  diagnostics, and the *canonical* (explicit-runtime-reps) scheme
  rendering dependents key on and reconstruct typing environments from
  (via :func:`repro.frontend.parser.parse_scheme`).  Spans are stored
  **relative to the unit's source segments**, so a unit that merely moved
  (an earlier binding grew) is still a hit and is re-stamped with correct
  absolute lines on the way out.

* **The cache** — :class:`ResultCache`, mapping unit keys to unit
  payloads.  On disk it is one SQLite table (:mod:`repro.driver.store`,
  schema v5) — a warm no-op run reads only the keys it probes and writes
  nothing, a single-unit edit writes only its own entries, in one
  transaction, and concurrent runs sharing a cache directory lose none
  of each other's entries.

* **The walk** — every check goes through one per-file unit walk
  (:func:`_walk`), in the calling process: a file's units in dependency
  order, each either a cache hit or a check.  :func:`check_modules` runs
  it over one level of modules — ``Session.check`` is a one-file level
  without a cache, ``Session.check_many`` a one-level project build whose
  modules have no imports in scope, and :mod:`repro.driver.project`
  calls it once per DAG level.  A unit checked here keeps its
  :class:`UnitOutcome`; keys and payloads are built only where a unit
  meets a cache, so a walk without a cache computes no fingerprint, key
  or payload.

File-level payload helpers (:func:`result_to_payload` /
:func:`result_from_payload` / :func:`payload_bytes`) are unchanged from
the v1 format and remain the canonical way to compare results for byte
identity.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from ..core.errors import ParseError
from ..frontend.lexer import Span
from ..infer.schemes import Scheme
from ..surface.ast import ImportDecl, TypeSig
from ..surface.prelude import prelude_schemes
from ..telemetry import REGISTRY as _REGISTRY, TRACER as _TRACER
from .depgraph import CheckUnit, ModulePlan, build_plan
from .store import CACHE_SCHEMA, CacheStore
from .session import (
    BindingSummary,
    CheckResult,
    Diagnostic,
    DriverOptions,
    Pipeline,
    Session,
    UnitOutcome,
)

__all__ = [
    "CACHE_SCHEMA",
    "CheckStats",
    "ResultCache",
    "cache_key",
    "canonical_scheme",
    "check_modules",
    "codegen_cache_key",
    "file_key",
    "load_codegen",
    "options_fingerprint",
    "outline_key",
    "payload_bytes",
    "payload_from_unit_outcome",
    "result_from_payload",
    "result_to_payload",
    "store_codegen",
    "unit_key",
]


# ---------------------------------------------------------------------------
# File-level payloads (the result wire format, unchanged from v1)
# ---------------------------------------------------------------------------


def _span_to_list(span: Optional[Span]) -> Optional[List[int]]:
    if span is None:
        return None
    return [span.line, span.column, span.end_line, span.end_column]


def _span_from_list(data: Optional[Sequence[int]]) -> Optional[Span]:
    if data is None:
        return None
    return Span(*data)


def result_to_payload(result: CheckResult) -> dict:
    """The slim, JSON-able view of a whole-file check result.

    Drops the heavyweight fields (``scheme`` objects, the parsed module,
    the typing environment) and keeps what batch consumers need: rendered
    schemes, per-binding status, and diagnostics with spans.
    """
    return {
        "filename": result.filename,
        "ok": result.ok,
        "bindings": [
            {
                "name": binding.name,
                "rendered": binding.rendered,
                "ok": binding.ok,
                "defaulted_rep_vars": list(binding.defaulted_rep_vars),
                "span": _span_to_list(binding.span),
            }
            for binding in result.bindings
        ],
        "diagnostics": [
            {
                "severity": diagnostic.severity,
                "stage": diagnostic.stage,
                "message": diagnostic.message,
                "span": _span_to_list(diagnostic.span),
                "binding": diagnostic.binding,
            }
            for diagnostic in result.diagnostics
        ],
    }


def result_from_payload(payload: dict,
                        filename: Optional[str] = None) -> CheckResult:
    """Rebuild a (slim) :class:`CheckResult` from a file-level payload."""
    name = filename if filename is not None else payload["filename"]
    result = CheckResult(name, ok=payload["ok"])
    for binding in payload["bindings"]:
        result.bindings.append(BindingSummary(
            binding["name"], None, binding["rendered"], binding["ok"],
            tuple(binding["defaulted_rep_vars"]),
            _span_from_list(binding["span"])))
    for diagnostic in payload["diagnostics"]:
        result.diagnostics.append(Diagnostic(
            diagnostic["severity"], diagnostic["stage"],
            diagnostic["message"], name,
            _span_from_list(diagnostic["span"]), diagnostic["binding"]))
    return result


def payload_bytes(payload: dict) -> bytes:
    """The canonical byte encoding of a payload (for identity tests)."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------------------
# Unit payloads (the cache format)
# ---------------------------------------------------------------------------


def canonical_scheme(scheme: Scheme) -> str:
    """The canonical textual form of a scheme: the fully explicit rendering.

    This is what unit cache keys hash and what cache hits parse
    back (via :func:`repro.frontend.parser.parse_scheme`) to rebuild a
    dependent's typing environment.  Explicit runtime reps are mandatory —
    the display-defaulted rendering would erase levity polymorphism.

    The rendering is memoised on the scheme object itself (schemes are
    frozen, and their type/rep nodes are hash-consed, so the text can
    never go stale): key derivation renders each scheme once per
    *definition*, not once per *dependent*.  The
    ``solver.scheme_renders`` / ``solver.scheme_render_hits`` counter
    pair makes the hit rate observable.
    """
    _REGISTRY.inc("solver.scheme_renders")
    text = getattr(scheme, "_canonical_src", None)
    if text is None:
        text = scheme.pretty(explicit_runtime_reps=True)
        # Scheme is a frozen dataclass; object.__setattr__ is the same
        # door its own __init__ uses.  The memo is identity-keyed and
        # invisible to dataclass equality/hashing.
        object.__setattr__(scheme, "_canonical_src", text)
    else:
        _REGISTRY.inc("solver.scheme_render_hits")
    return text


def _rel_span(unit: CheckUnit, span: Optional[Span]) -> Optional[List[int]]:
    if span is None:
        return None
    segment, fields = unit.relativize_span(span)
    return [segment] + fields


def _abs_span(unit: CheckUnit,
              data: Optional[Sequence[int]]) -> Optional[Span]:
    if data is None:
        return None
    return unit.absolutize_span(data[0], data[1:])


def payload_from_unit_outcome(outcome: UnitOutcome) -> dict:
    """Convert one checked unit into its slim cache payload."""
    unit = outcome.unit
    members = []
    for member in outcome.members:
        summary = member.summary
        members.append({
            "name": summary.name,
            "rendered": summary.rendered,
            "ok": summary.ok,
            "defaulted_rep_vars": list(summary.defaulted_rep_vars),
            "span": _rel_span(unit, summary.span),
            "scheme_src": (canonical_scheme(member.env_scheme)
                           if member.env_scheme is not None else None),
            "diagnostics": [
                {
                    "severity": diagnostic.severity,
                    "stage": diagnostic.stage,
                    "message": diagnostic.message,
                    "binding": diagnostic.binding,
                    "span": _rel_span(unit, diagnostic.span),
                }
                for diagnostic in member.diagnostics
            ],
        })
    return {"members": members}


def _unit_payload_valid(payload: dict) -> bool:
    """Shape-check a unit payload before trusting a cache entry."""
    try:
        members = payload["members"]
        if not isinstance(members, list):
            return False
        for member in members:
            member["name"]; member["rendered"]; member["ok"]
            member["scheme_src"]
            list(member["defaulted_rep_vars"])
            if member["span"] is not None:
                Span(*member["span"][1:])
            for diagnostic in member["diagnostics"]:
                diagnostic["severity"]; diagnostic["stage"]
                diagnostic["message"]; diagnostic["binding"]
                if diagnostic["span"] is not None:
                    Span(*diagnostic["span"][1:])
    except (KeyError, TypeError, IndexError):
        return False
    return True


def _file_payload_valid(payload: dict) -> bool:
    """Shape-check a whole-file payload before trusting a cache entry."""
    try:
        result_from_payload(payload, "<probe>")
    except (KeyError, TypeError, IndexError):
        return False
    return True


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


#: DriverOptions fields that cannot affect a check's output.
#: Everything NOT listed here invalidates the cache when it changes, so a
#: future option is cache-safe by default and must be excluded explicitly.
_CHECK_IRRELEVANT_OPTIONS = frozenset({
    "compiled",           # evaluator backend choice; checking is unaffected
})


@functools.lru_cache(maxsize=None)
def _prelude_digest() -> str:
    """A digest of every prelude scheme's explicit rendering.

    Every unit is checked against the prelude, so changing a prelude
    scheme (or removing one) must change every key.  The prelude is
    fixed for the life of the process, so this is computed once.
    """
    hasher = hashlib.sha256()
    for name, scheme in sorted(prelude_schemes().items()):
        hasher.update(f"{name} :: "
                      f"{scheme.pretty(explicit_runtime_reps=True)}\n"
                      .encode("utf-8"))
    return hasher.hexdigest()


def options_fingerprint(options: DriverOptions) -> str:
    """A stable digest of the prelude and of every option that can change
    a check's output."""
    state = json.dumps(
        {name: value for name, value in dataclasses.asdict(options).items()
         if name not in _CHECK_IRRELEVANT_OPTIONS},
        sort_keys=True)
    return hashlib.sha256(f"{_prelude_digest()}:{state}".encode("utf-8")
                          ).hexdigest()[:16]


def cache_key(source: str, fingerprint: str) -> str:
    """SHA-256 of a source text, namespaced by schema + options.

    ``fingerprint`` is :func:`options_fingerprint` of the options the
    check runs under.  For units the ``source`` is the unit's declaration
    slice; filenames are deliberately excluded, so renaming a file (or
    moving a binding within one) re-uses its cached results.
    """
    hasher = hashlib.sha256()
    hasher.update(f"repro-check:{CACHE_SCHEMA}:"
                  f"{fingerprint}:".encode("utf-8"))
    hasher.update(source.encode("utf-8"))
    return hasher.hexdigest()


#: Key marker for a dependency that failed without leaving a scheme; no
#: real rendering can collide with it (schemes never start with \x01).
_FAILED_DEP = "\x01failed"


def unit_key(unit_source: str,
             dep_items: Iterable[Tuple[str, Optional[str]]],
             fingerprint: str) -> str:
    """The cache key of one unit: source slice + direct-dependency schemes.

    ``dep_items`` pairs each direct dependency's name with the canonical
    rendering of its scheme (or None when the dependency failed to produce
    one).  Editing a dependency only invalidates this key when its
    *scheme* changes — the early-cutoff property.
    """
    hasher = hashlib.sha256()
    hasher.update(cache_key(unit_source, fingerprint).encode("utf-8"))
    for name, scheme_src in sorted(dep_items):
        hasher.update(b"\x00dep\x00")
        hasher.update(name.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update((scheme_src if scheme_src is not None
                       else _FAILED_DEP).encode("utf-8"))
    return hasher.hexdigest()


def file_key(source: str, scope: Optional[Dict[str, Optional[str]]],
             fingerprint: str) -> str:
    """The key of a module's whole-file entry (the ``pfile:`` table).

    ``scope`` maps each imported name the module references to the
    canonical rendering of its exported scheme, exactly as the module's
    units see them — so a dependency edit that leaves every referenced
    scheme unchanged keeps the module a file-level hit (no re-parse),
    while a scheme change re-opens it for its unit walk.  ``None`` is
    single-file mode (``repro check``), where ``import`` declarations stay
    unresolved and each draws a warning; the mode is hashed in, so a
    ``check`` entry never answers a ``build`` of the same source or the
    other way round.
    """
    mode = "file" if scope is None else "module"
    return "pfile:" + unit_key(f"{mode}:{source}", (scope or {}).items(),
                               fingerprint)


def outline_key(source: str, fingerprint: str) -> str:
    """Key of a source's ``outline:`` side-table entry.

    An outline is a pure function of the source text (module name, import
    declarations with spans, union of foreign references) that lets the
    project planner build the module graph for unchanged files without
    re-parsing them.
    """
    return "outline:" + cache_key(source, fingerprint)


def codegen_cache_key(key: str) -> str:
    """Namespace a unit key for the codegen side-table.

    Compiled Python sources live in the same cache document as check
    payloads, under the unit's existing key prefixed with the code
    generator's version — bumping ``CODEGEN_VERSION`` orphans stale
    generated code without touching check results.
    """
    from ..runtime.compiler import CODEGEN_VERSION

    return f"codegen{CODEGEN_VERSION}:{key}"


def _codegen_payload_valid(payload: dict) -> bool:
    """Shape-check a codegen payload before trusting a cache entry."""
    try:
        functions = payload["functions"]
        arities = payload["arities"]
        if not isinstance(functions, dict) or not isinstance(arities, dict):
            return False
        for name, source in functions.items():
            if not isinstance(name, str) or not isinstance(source, str):
                return False
        for name, arity in arities.items():
            if not isinstance(name, str) or not isinstance(arity, int):
                return False
    except (KeyError, TypeError):
        return False
    return True


def _exports_payload_valid(payload: dict) -> bool:
    """Shape-check an ``exports:`` side-table entry.

    ``{"exports": null}`` is valid and marks a module that failed entirely
    (did not parse): importers skip structurally instead of re-checking.
    """
    try:
        exports = payload["exports"]
        if exports is None:
            return True
        if not isinstance(exports, dict):
            return False
        for name, scheme_src in exports.items():
            if not isinstance(name, str):
                return False
            if scheme_src is not None and not isinstance(scheme_src, str):
                return False
    except (KeyError, TypeError):
        return False
    return True


def _outline_payload_valid(payload: dict) -> bool:
    """Shape-check an ``outline:`` side-table entry."""
    try:
        name = payload["name"]
        if name is not None and not isinstance(name, str):
            return False
        if not isinstance(payload["parse_error"], bool):
            return False
        for import_name, span in payload["imports"]:
            if not isinstance(import_name, str):
                return False
            Span(*span)
        for foreign in payload["foreign"]:
            if not isinstance(foreign, str):
                return False
    except (KeyError, TypeError, ValueError, IndexError):
        return False
    return True


# ---------------------------------------------------------------------------
# The incremental cache
# ---------------------------------------------------------------------------


class ResultCache:
    """A store-backed map from cache keys to payloads.

    With a ``path`` the entries live in the cache directory's database,
    managed by :class:`repro.driver.store.CacheStore` (see that module for
    the table, transactions and GC); entries are read key by key, so
    construction is O(1) regardless of cache size.  Without a path the
    cache is a plain in-process dict (the REPL's state, tests).

    Every lookup shape-checks what it reads: a malformed entry
    (hand-edited row, payload of another shape) is a miss, which the
    re-check overwrites.  Hit and miss counts live in :class:`CheckStats`
    and the ``cache.*``/``codegen.*`` telemetry counters.  :meth:`save`
    writes **exactly the entries stored since the last save**, in one
    transaction — concurrent ``repro`` processes sharing one ``--cache``
    directory cannot drop each other's work.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._store = CacheStore(path) if path is not None else None
        self._memory: Dict[str, dict] = {}

    @property
    def entries(self) -> Dict[str, dict]:
        """Every entry, as one dict.

        In-memory caches return their live dict; store-backed caches
        materialise the whole store (disk plus unsaved writes) — an
        inspection affordance for tests and tooling, not a fast path.
        """
        if self._store is None:
            return self._memory
        return self._store.load_all()

    @property
    def keys_read(self) -> int:
        return self._store.keys_read if self._store is not None else 0

    @property
    def entries_written(self) -> int:
        return self._store.entries_written if self._store is not None else 0

    def _get(self, key: str,
             valid: Callable[[dict], bool]) -> Optional[dict]:
        payload = self._store.get(key) if self._store is not None \
            else self._memory.get(key)
        return payload if payload is not None and valid(payload) else None

    def store(self, key: str, payload: dict) -> None:
        """Store a payload; storing what is already there is free."""
        if self._store is not None:
            self._store.put(key, payload)
        else:
            self._memory[key] = payload

    def lookup(self, key: str) -> Optional[dict]:
        return self._get(key, _unit_payload_valid)

    def lookup_file(self, key: str) -> Optional[dict]:
        return self._get(key, _file_payload_valid)

    def lookup_exports(self, file_key: str) -> Optional[dict]:
        """The ``exports:`` entry of a project file key, or None.

        The returned payload's ``"exports"`` field is either a
        ``{name: canonical scheme rendering | None}`` map or None (the
        module failed entirely — e.g. did not parse)."""
        return self._get("exports:" + file_key, _exports_payload_valid)

    def store_exports(self, file_key: str,
                      exports: Optional[Dict[str, Optional[str]]]) -> None:
        self.store("exports:" + file_key, {"exports": exports})

    def lookup_outline(self, key: str) -> Optional[dict]:
        return self._get(key, _outline_payload_valid)

    def lookup_codegen(self, key: str) -> Optional[dict]:
        return self._get(key, _codegen_payload_valid)

    def save(self) -> None:
        """Write the entries stored since the last save (see
        :meth:`CacheStore.save`); a no-op for in-memory caches and when
        nothing changed."""
        if self._store is not None:
            self._store.save()


# ---------------------------------------------------------------------------
# The per-unit codegen side-table
# ---------------------------------------------------------------------------


def load_codegen(cache: ResultCache, check: CheckResult, fingerprint: str):
    """Resolve cached compiled sources for a fully-checked module.

    Returns ``(sources, units)``.  ``sources`` maps binding names to the
    generated Python source served from the cache.  ``units`` lists
    ``(key, names, arities)`` per compilation unit, in plan order, for
    :func:`store_codegen` to write fresh codegen back after the evaluator
    lowered the misses it reached.

    Keys are the **existing per-unit check keys** (source slice +
    dependency schemes, under the ``fingerprint`` of the options ``check``
    was made with) in the :func:`codegen_cache_key` namespace.
    One extra validation is needed that check results do not: compiled
    call sites bake in each callee's *syntactic arity* (how many
    parameters its equation binds), which a scheme does not determine —
    ``f x = \\y -> …`` and ``f x y = …`` share a scheme but not an arity.
    Each entry therefore records its dependencies' arities and is
    discarded when any changed.
    """
    plan = build_plan(check.parsed)
    arity_of = {name: len(bind.params)
                for name, bind in check.parsed.module.bindings().items()}
    scheme_srcs = {
        binding.name: (canonical_scheme(binding.scheme)
                       if binding.scheme is not None else None)
        for binding in check.bindings}
    sources: Dict[str, str] = {}
    units: List[Tuple[str, Tuple[str, ...], Dict[str, int]]] = []
    for unit in plan.units:
        key = codegen_cache_key(unit_key(
            unit.source,
            [(dep, scheme_srcs.get(dep)) for dep in unit.deps],
            fingerprint))
        arities = {dep: arity_of[dep] for dep in unit.deps
                   if dep in arity_of}
        units.append((key, unit.names, arities))
        payload = cache.lookup_codegen(key)
        if payload is None:
            continue
        if payload["arities"] != arities:
            _REGISTRY.inc("codegen.arity_discards")
            continue
        for name in unit.names:
            if name in payload["functions"]:
                sources[name] = payload["functions"][name]
    return sources, units


def store_codegen(cache: ResultCache, units,
                  sources: Dict[str, str]) -> None:
    """Persist generated sources by binding name, one entry per
    compilation unit from :func:`load_codegen`'s ``units`` listing.

    A run links only the bindings it reaches, so ``sources`` is what the
    run linked over what the cache served: a unit the run reached only
    partly keeps its other cached sources."""
    for key, names, arities in units:
        functions = {name: sources[name] for name in names
                     if name in sources}
        if not functions:
            continue
        cache.store(key, {"functions": functions, "arities": arities})


# ---------------------------------------------------------------------------
# --stats bookkeeping
# ---------------------------------------------------------------------------




@dataclass
class UnitTiming:
    """One unit's row in the ``--stats`` table."""

    filename: str
    names: Tuple[str, ...]
    #: Wall seconds the check took; None for a cache hit, which was never
    #: timed.
    seconds: Optional[float]
    #: Where the row came from: "checked" (type-checked this call) or
    #: "hit" (served from the unit cache).  Cache hits used to record 0.0
    #: seconds, which made them indistinguishable from genuinely instant
    #: units; the explicit source plus ``seconds=None`` removes that
    #: ambiguity.
    source: str


@dataclass
class CheckStats:
    """Per-unit timing and cache behaviour of one ``check_many`` call."""

    files: int = 0
    parse_failures: int = 0
    #: Files answered whole from a file-level cache entry (never parsed).
    file_hits: int = 0
    units: int = 0
    checked: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    timings: List[UnitTiming] = field(default_factory=list)

    def note(self, filename: str, unit: CheckUnit,
             seconds: Optional[float], source: str) -> None:
        self.units += 1
        if source == "hit":
            self.cache_hits += 1
            _REGISTRY.inc("cache.unit_hits")
        else:
            self.checked += 1
            _REGISTRY.inc("batch.units_checked")
        self.timings.append(UnitTiming(filename, unit.names, seconds,
                                       source))

    def as_dict(self) -> dict:
        """JSON-ready form for the unified ``--stats --json`` document."""
        return {
            "files": self.files,
            "parse_failures": self.parse_failures,
            "file_hits": self.file_hits,
            "units": self.units,
            "checked": self.checked,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "timings": [
                {"filename": t.filename, "names": list(t.names),
                 "seconds": t.seconds, "source": t.source}
                for t in self.timings],
        }

    def pretty(self, slowest: int = 10) -> str:
        lines = [
            f"files: {self.files}  file hits: {self.file_hits}  "
            f"units: {self.units}  checked: {self.checked}  "
            f"cache hits: {self.cache_hits}  "
            f"cache misses: {self.cache_misses}"
        ]
        if self.parse_failures:
            lines.append(f"parse failures: {self.parse_failures}")
        timed = [t for t in self.timings if t.seconds is not None]
        timed.sort(key=lambda t: t.seconds, reverse=True)
        if timed:
            lines.append(f"slowest units (of {len(timed)} timed):")
            for timing in timed[:slowest]:
                names = ", ".join(timing.names)
                lines.append(f"  {timing.filename}:{names}  "
                             f"{timing.seconds * 1000:.2f}ms  "
                             f"[{timing.source}]")
        untimed = [t for t in self.timings if t.seconds is None]
        if untimed:
            counts: Dict[str, int] = {}
            for timing in untimed:
                counts[timing.source] = counts.get(timing.source, 0) + 1
            rendered = "  ".join(f"{source}: {count}" for source, count
                                 in sorted(counts.items()))
            lines.append(f"untimed units ({len(untimed)}):  {rendered}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The unit walk
# ---------------------------------------------------------------------------

#: name -> canonical scheme rendering (None = that binding failed): a
#: module's export map, and the imported slice of it a module sees.
_Renderings = Dict[str, Optional[str]]


class _FileState:
    """One module's parse, plan and per-unit records.

    Each unit resolves to one of two records: the :class:`UnitOutcome` of
    a check in this process, or the payload of a cache hit.  A defined
    name's scheme is kept in the form its record gave it (an object from
    an outcome, a canonical rendering from a payload) and converted only
    on demand: to an object for the environment of a unit checked here,
    to a rendering for a cache key or an export map.  A rendering that
    fails to re-parse (a printer gap) re-checks its defining unit here
    instead of propagating junk.

    ``scope`` maps the imported names the module references to the
    canonical renderings of their exported schemes, or is None in
    single-file mode, where ``import`` declarations stay unresolved and
    draw a warning.  It seeds ``scheme_srcs``; imported names are the
    plan's foreign references, which no local declaration binds, so they
    never collide with local names.
    """

    def __init__(self, filename: str, source: str, pipeline: Pipeline,
                 scope: Optional[_Renderings] = None) -> None:
        self.filename = filename
        self.scope = scope
        self.pipeline = pipeline
        self.parsed, self.parse_diagnostics = pipeline.parse(source, filename)
        self.plan: Optional[ModulePlan] = None
        if self.parsed is not None:
            with _TRACER.span("depgraph", file=filename):
                self.plan = build_plan(self.parsed)
        #: uid -> the unit's outcome (checked here) or cached payload.
        self.records: Dict[int, Union[UnitOutcome, dict]] = {}
        #: name -> canonical scheme rendering (None = failed).
        self.scheme_srcs: _Renderings = dict(scope or {})
        #: name -> Scheme object (None = failed).
        self.schemes: Dict[str, Optional[Scheme]] = {}

    def resolve(self, unit: CheckUnit, record: Union[UnitOutcome, dict],
               payload: Optional[dict] = None) -> None:
        """Keep ``unit``'s record and export its defining schemes: objects
        from an outcome, renderings from a payload (``payload`` also gives
        an outcome's, when one was built for the cache)."""
        self.records[unit.uid] = record
        defining = self.plan.defining_decl
        if isinstance(record, UnitOutcome):
            for member in record.members:
                name = member.summary.name
                if defining.get(name) == member.decl_index:
                    self.schemes[name] = member.env_scheme
        else:
            payload = record
        if payload is not None:
            for decl_index, member in zip(unit.member_decls,
                                          payload["members"]):
                name = member["name"]
                if defining.get(name) == decl_index:
                    self.scheme_srcs[name] = member["scheme_src"]

    def scheme(self, name: str) -> Optional[Scheme]:
        if name in self.schemes:
            return self.schemes[name]
        src = self.scheme_srcs.get(name)
        scheme: Optional[Scheme] = None
        if src is not None:
            from ..frontend.parser import parse_scheme

            try:
                scheme = parse_scheme(src)
            except ParseError:
                scheme = self._recheck(name)
        self.schemes[name] = scheme
        return scheme

    def rendering(self, name: str) -> Optional[str]:
        if name in self.scheme_srcs:
            return self.scheme_srcs[name]
        scheme = self.schemes.get(name)
        src = canonical_scheme(scheme) if scheme is not None else None
        self.scheme_srcs[name] = src
        return src

    def _recheck(self, name: str) -> Optional[Scheme]:
        uid = self.plan.defining_unit.get(name)
        if uid is None:
            return None
        unit = self.plan.units[uid]
        outcome = self.pipeline.check_unit(self.plan, unit,
                                           self.available_for(unit))
        for member in outcome.members:
            if member.summary.name == name:
                return member.env_scheme
        return None

    def available_for(self, unit: CheckUnit) -> Dict[str, Optional[Scheme]]:
        available = {dep: self.scheme(dep) for dep in unit.deps}
        # Foreign names resolve only when the scope has an entry for them
        # (a present-but-None entry means the exporting binding failed).
        # Absent names stay unbound: ordinary scope errors.
        for name in unit.foreign:
            if name in self.scheme_srcs:
                available[name] = self.scheme(name)
        return available

    def dep_items(self, unit: CheckUnit
                  ) -> List[Tuple[str, Optional[str]]]:
        items = [(dep, self.rendering(dep)) for dep in unit.deps]
        # Imported schemes the unit references are part of its key: a
        # change to one invalidates exactly the units naming it.
        items.extend((name, self.scheme_srcs[name]) for name in unit.foreign
                     if name in self.scheme_srcs)
        return items

    def exports(self) -> Optional[_Renderings]:
        """The module's export map (None when the file did not parse)."""
        if self.plan is None:
            return None
        return {name: self.rendering(name)
                for name in sorted(self.plan.defining_decl)}

    def assemble(self) -> CheckResult:
        """Stitch the unit records back into declaration order.

        Summaries and diagnostics come straight from outcomes, and are
        rebuilt from payloads with their spans re-based onto this file.
        Orphan signatures, and in single-file mode ``import``
        declarations, draw warnings at their source positions.  The
        result carries ``parsed``, and every binding its scheme object,
        exactly when every unit has an outcome: only such a result can
        seed :meth:`Session.run_from_check`.
        """
        result = CheckResult(self.filename)
        result.diagnostics.extend(self.parse_diagnostics)
        parsed = self.parsed
        if parsed is None:
            result.ok = False
            return result
        filename = self.filename
        plan = self.plan
        entries: Dict[int, Tuple[BindingSummary, List[Diagnostic]]] = {}
        complete = True
        for unit in plan.units:
            record = self.records[unit.uid]
            if isinstance(record, UnitOutcome):
                for member in record.members:
                    entries[member.decl_index] = (member.summary,
                                                  member.diagnostics)
                continue
            complete = False
            for decl_index, member in zip(unit.member_decls,
                                          record["members"]):
                summary = BindingSummary(
                    member["name"], None, member["rendered"], member["ok"],
                    tuple(member["defaulted_rep_vars"]),
                    _abs_span(unit, member["span"]))
                entries[decl_index] = (summary, [
                    Diagnostic(d["severity"], d["stage"], d["message"],
                               filename, _abs_span(unit, d["span"]),
                               d["binding"])
                    for d in member["diagnostics"]])

        bound_names = plan.defining_decl
        single_file = self.scope is None
        for index, decl in enumerate(parsed.module.decls):
            if single_file and isinstance(decl, ImportDecl):
                result.diagnostics.append(Diagnostic(
                    "warning", "parse",
                    f"import {decl.name} is not resolved in single-file mode "
                    "(use 'python -m repro build' to check a project)",
                    filename, parsed.decl_span_list[index]))
                continue
            if isinstance(decl, TypeSig) and decl.name not in bound_names:
                result.diagnostics.append(Diagnostic(
                    "warning", "infer",
                    f"type signature for {decl.name!r} lacks a binding",
                    filename, parsed.decl_spans.get(("sig", decl.name)),
                    decl.name))
                continue
            entry = entries.get(index)
            if entry is None:
                continue
            summary, diagnostics = entry
            result.diagnostics.extend(diagnostics)
            result.bindings.append(summary)
        if complete:
            result.parsed = parsed
        result.ok = not result.errors
        return result


def _walk(state: _FileState, cache: Optional[ResultCache],
          fingerprint: Optional[str], stats: CheckStats) -> None:
    """The unit walk: ``state``'s units in dependency order, each a cache
    hit or a check, noted in ``stats``.

    A hit exports its scheme renderings just as a check does, so the next
    unit's key resolves either way: a dependent of an edited unit whose
    scheme came out unchanged is still a hit (early cutoff).  A check is
    stored into ``cache`` at once, so a later unit of the batch with the
    same key hits.  Without a cache every unit is checked, and no key or
    payload is built.
    """
    pipeline = state.pipeline
    plan = state.plan
    filename = state.filename
    for unit in plan.units:
        if cache is not None:
            key = unit_key(unit.source, state.dep_items(unit), fingerprint)
            with _TRACER.span("cache.lookup"):
                payload = cache.lookup(key)
            if payload is not None:
                state.resolve(unit, payload)
                stats.note(filename, unit, None, "hit")
                continue
        outcome = pipeline.check_unit(plan, unit, state.available_for(unit))
        payload = None
        if cache is not None:
            payload = payload_from_unit_outcome(outcome)
            cache.store(key, payload)
            stats.cache_misses += 1
            _REGISTRY.inc("cache.unit_misses")
        state.resolve(unit, outcome, payload)
        stats.note(filename, unit, outcome.seconds, "checked")


# ---------------------------------------------------------------------------
# The batch entry point
# ---------------------------------------------------------------------------


def check_modules(modules: Sequence[Tuple[str, str, Optional[_Renderings]]],
                  cache: Optional[ResultCache], session: Session,
                  stats: Optional[CheckStats] = None
                  ) -> List[Tuple[CheckResult, Optional[_Renderings]]]:
    """Check one level of modules, given as ``(filename, source, scope)``.

    ``session`` checks and renders, and its options are the ones every
    key is made with, so an entry always answers the options it was
    checked under.

    ``scope`` maps the imported names a module references to their
    exported renderings, or is None in single-file mode (see
    :func:`file_key`).  Returns ``(result, exports)`` per module in input
    order; ``exports`` is None in single-file mode and for a module that
    did not parse.  With a cache, an unchanged module is answered from
    its file-level entry — in project mode together with its
    ``exports:`` entry, which importers need without a re-parse; every
    other module goes through the unit walk, so a later copy of an
    identical module hits the units an earlier one stored.  ``stats``
    counters accumulate, so the project build threads one object through
    its levels.
    """
    if stats is None:
        # Counting always (into an internal CheckStats) keeps the
        # telemetry registry's cache.*/batch.* counters accurate whether
        # or not the caller asked for a --stats table.
        stats = CheckStats()
    pipeline = session.pipeline
    fingerprint = options_fingerprint(pipeline.options) \
        if cache is not None else None

    done: List[Optional[Tuple[CheckResult, Optional[_Renderings]]]] = \
        [None] * len(modules)
    keys: Dict[int, str] = {}
    active: List[Tuple[int, _FileState]] = []
    for index, (filename, source, scope) in enumerate(modules):
        if cache is not None:
            key = keys[index] = file_key(source, scope, fingerprint)
            payload = cache.lookup_file(key)
            exports = cache.lookup_exports(key) \
                if payload is not None and scope is not None else None
            if payload is not None and (scope is None or exports is not None):
                done[index] = (result_from_payload(payload, filename),
                               exports["exports"] if exports else None)
                _REGISTRY.inc("cache.file_hits")
                stats.file_hits += 1
                continue
        active.append((index, _FileState(filename, source, pipeline, scope)))

    parse_failures = sum(1 for _, state in active if state.plan is None)
    _REGISTRY.inc("batch.files", len(modules))
    if parse_failures:
        _REGISTRY.inc("batch.parse_failures", parse_failures)
    stats.files += len(modules)
    stats.parse_failures += parse_failures

    for index, state in active:
        if state.plan is not None:
            _walk(state, cache, fingerprint, stats)
        result = state.assemble()
        exports = state.exports() if state.scope is not None else None
        done[index] = (result, exports)
        if cache is not None:
            # File-level short-circuit entry for the next unchanged run.
            # The filename is normalised out (re-stamped on load), so
            # identical sources share one entry regardless of name.
            payload = result_to_payload(result)
            payload["filename"] = ""
            cache.store(keys[index], payload)
            if state.scope is not None:
                cache.store_exports(keys[index], exports)

    if cache is not None:
        cache.save()
    return done  # type: ignore[return-value]
