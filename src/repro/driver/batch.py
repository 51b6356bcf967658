"""Sharded parallel batch checking with a **binding-level** incremental cache.

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
  payloads.  On disk it is a **sharded store**
  (:mod:`repro.driver.store`, schema v4): 256 key-prefix shards per key
  namespace, loaded lazily and persisted per-shard with the atomic
  merge-then-replace discipline — a warm no-op run reads only the shards
  it probes, a single-unit edit rewrites only the shards it dirtied, and
  concurrent runs sharing a cache directory cannot tear a shard or
  clobber each other's fresh entries.  An optional session-owned
  :class:`~repro.driver.store.HotTier` serves hot shards from memory.

* **The walk** — every incremental check goes through one per-file unit
  walk (:func:`_walk`): a file's units in dependency order, each either a
  cache hit or a check.  :func:`check_modules` runs it over one level of
  modules — :func:`check_many_sharded` is a one-level project build whose
  modules have no imports in scope, and :mod:`repro.driver.project` calls
  it once per DAG level.  The walk runs in-process, or with ``jobs > 1``
  inside the session's worker processes, one whole file per job: workers
  open the cache directory read-only and ship every unit's payload back,
  and the parent alone stores and saves.  Where the walk runs therefore
  never changes what it re-checks.

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
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.errors import ParseError
from ..frontend.lexer import Span
from ..infer.schemes import Scheme
from ..surface.prelude import prelude_schemes
from ..telemetry import (
    REGISTRY as _REGISTRY,
    SHARD_TID_BASE,
    TRACER as _TRACER,
)
from .depgraph import CheckUnit, ModulePlan, build_plan
from .store import CACHE_SCHEMA, HotTier, ShardStore
from .session import (
    BindingSummary,
    CheckResult,
    Diagnostic,
    DriverOptions,
    Pipeline,
    Session,
    UnitOutcome,
    assemble_decl_order,
)

__all__ = [
    "CACHE_SCHEMA",
    "PARALLEL_MODE_ENV",
    "CheckStats",
    "ResultCache",
    "cache_key",
    "canonical_scheme",
    "check_many_sharded",
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

# CACHE_SCHEMA now lives in repro.driver.store (the on-disk layer owns
# the on-disk version number) and is re-exported here for key derivation
# and compatibility.


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
# Unit payloads (the cache + worker-IPC format)
# ---------------------------------------------------------------------------


def canonical_scheme(scheme: Scheme) -> str:
    """The canonical textual form of a scheme: the fully explicit rendering.

    This is what unit cache keys hash and what workers/cache hits parse
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
    """Convert one checked unit into its slim cache/IPC payload."""
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


#: DriverOptions fields that cannot affect ``Pipeline.check`` output.
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


def cache_key(source: str, options: DriverOptions,
              _fingerprint: Optional[str] = None) -> str:
    """SHA-256 of a source text, namespaced by schema + options.

    For units the ``source`` is the unit's declaration slice; filenames
    are deliberately excluded, so renaming a file (or moving a binding
    within one) re-uses its cached results.  ``_fingerprint`` lets batch
    loops amortise the options digest across thousands of keys.
    """
    fingerprint = _fingerprint or options_fingerprint(options)
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
             options: DriverOptions,
             _fingerprint: Optional[str] = None) -> str:
    """The cache key of one unit: source slice + direct-dependency schemes.

    ``dep_items`` pairs each direct dependency's name with the canonical
    rendering of its scheme (or None when the dependency failed to produce
    one).  Editing a dependency only invalidates this key when its
    *scheme* changes — the early-cutoff property.
    """
    hasher = hashlib.sha256()
    hasher.update(cache_key(unit_source, options,
                            _fingerprint).encode("utf-8"))
    for name, scheme_src in sorted(dep_items):
        hasher.update(b"\x00dep\x00")
        hasher.update(name.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update((scheme_src if scheme_src is not None
                       else _FAILED_DEP).encode("utf-8"))
    return hasher.hexdigest()


def file_key(source: str, scope: Optional[Dict[str, Optional[str]]],
             options: DriverOptions,
             _fingerprint: Optional[str] = None) -> str:
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
                               options, _fingerprint)


def outline_key(source: str, options: DriverOptions,
                _fingerprint: Optional[str] = None) -> str:
    """Key of a source's ``outline:`` side-table entry.

    An outline is a pure function of the source text (module name, import
    declarations with spans, union of foreign references) that lets the
    project planner build the module graph for unchanged files without
    re-parsing them.
    """
    return "outline:" + cache_key(source, options, _fingerprint)


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
    """A store-backed map from unit keys to unit payloads.

    With a ``path`` the entries live in a sharded directory managed by
    :class:`repro.driver.store.ShardStore` (see that module for the
    layout, atomicity and GC story); shards load lazily, so construction
    is O(1) regardless of cache size.  Without a path the cache is a
    plain in-process dict (the REPL's state, tests) that worker
    processes cannot read, so checks against it stay in-process.

    ``hits``/``misses``/``stores`` counters make cache behaviour
    observable to benchmarks, tests and ``--stats``; storing a payload
    identical to the existing entry is a free no-op at every level
    (counters, dirty shards, disk).

    :meth:`save` persists **exactly the dirty shards**, each with the
    atomic merge-then-replace discipline — concurrent ``--jobs`` runs
    sharing one ``--cache`` directory can neither interleave a torn
    shard nor silently drop each other's work.  ``hot`` (a
    :class:`~repro.driver.store.HotTier`, usually session-owned) serves
    repeat shard reads from memory.
    """

    def __init__(self, path: Optional[str] = None,
                 hot: Optional[HotTier] = None) -> None:
        self.path = path
        self._store: Optional[ShardStore] = None
        self._memory: Dict[str, dict] = {}
        if path is not None:
            self._store = ShardStore(path, hot=hot)
        #: Unit-level counters (the granularity ``--stats`` reports).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Whole-file short-circuit hits: an unchanged file is answered
        #: from one file-level entry without even being re-parsed.
        self.file_hits = 0
        #: Codegen side-table hits (compiled Python sources per unit).
        self.codegen_hits = 0

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
    def shards_read(self) -> int:
        return self._store.shards_read if self._store is not None else 0

    @property
    def shards_written(self) -> int:
        return self._store.shards_written if self._store is not None else 0

    def _get(self, key: str) -> Optional[dict]:
        if self._store is not None:
            return self._store.get(key)
        return self._memory.get(key)

    def _put(self, key: str, payload: dict) -> bool:
        if self._store is not None:
            return self._store.put(key, payload)
        if self._memory.get(key) == payload:
            return False
        self._memory[key] = payload
        return True

    def lookup(self, key: str) -> Optional[dict]:
        payload = self._get(key)
        if payload is not None and not _unit_payload_valid(payload):
            # A malformed entry (hand-edited shard, truncated write) is a
            # miss, not an error; the re-check overwrites it.  Validating
            # here keeps the hit/miss counters truthful.
            payload = None
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def store(self, key: str, payload: dict) -> None:
        if self._put(key, payload):
            self.stores += 1

    def lookup_file(self, key: str) -> Optional[dict]:
        """Whole-file fast path; a miss here is silent (the unit walk that
        follows keeps the truthful per-unit counters)."""
        payload = self._get(key)
        if payload is None or not _file_payload_valid(payload):
            return None
        self.file_hits += 1
        return payload

    def store_file(self, key: str, payload: dict) -> None:
        self._put(key, payload)

    def lookup_exports(self, file_key: str) -> Optional[dict]:
        """The ``exports:`` entry of a project file key, or None.

        The returned payload's ``"exports"`` field is either a
        ``{name: canonical scheme rendering | None}`` map or None (the
        module failed entirely — e.g. did not parse)."""
        payload = self._get("exports:" + file_key)
        if payload is None or not _exports_payload_valid(payload):
            return None
        return payload

    def store_exports(self, file_key: str,
                      exports: Optional[Dict[str, Optional[str]]]) -> None:
        self._put("exports:" + file_key, {"exports": exports})

    def lookup_outline(self, key: str) -> Optional[dict]:
        payload = self._get(key)
        if payload is None or not _outline_payload_valid(payload):
            return None
        return payload

    def store_outline(self, key: str, payload: dict) -> None:
        self._put(key, payload)

    def lookup_codegen(self, key: str) -> Optional[dict]:
        payload = self._get(key)
        if payload is None or not _codegen_payload_valid(payload):
            return None
        self.codegen_hits += 1
        return payload

    def store_codegen(self, key: str, payload: dict) -> None:
        self._put(key, payload)

    def save(self) -> None:
        """Persist dirty shards (see :meth:`ShardStore.save`); a no-op
        for in-memory caches and when nothing changed.  Callers that
        nulled ``path`` after construction (benchmarks do, to get a
        read-only view) persist nothing."""
        if self.path is None or self._store is None:
            return
        self._store.save()


# ---------------------------------------------------------------------------
# The per-unit codegen side-table
# ---------------------------------------------------------------------------


def load_codegen(cache: ResultCache, check: CheckResult,
                 options: DriverOptions):
    """Resolve cached compiled sources for a fully-checked module.

    Returns ``(sources, units)``.  ``sources`` maps binding names to the
    generated Python source served from the cache.  ``units`` lists
    ``(key, names, arities)`` per compilation unit, in plan order, for
    :func:`store_codegen` to write fresh codegen back after the evaluator
    lowered the misses.

    Keys are the **existing per-unit check keys** (source slice +
    dependency schemes) under the :func:`codegen_cache_key` namespace.
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
    fingerprint = options_fingerprint(options)
    sources: Dict[str, str] = {}
    units: List[Tuple[str, Tuple[str, ...], Dict[str, int]]] = []
    for unit in plan.units:
        key = codegen_cache_key(unit_key(
            unit.source,
            [(dep, scheme_srcs.get(dep)) for dep in unit.deps],
            options, fingerprint))
        arities = {dep: arity_of[dep] for dep in unit.deps
                   if dep in arity_of}
        units.append((key, unit.names, arities))
        payload = cache.lookup_codegen(key)
        if payload is None or payload["arities"] != arities:
            continue
        for name in unit.names:
            if name in payload["functions"]:
                sources[name] = payload["functions"][name]
    return sources, units


def store_codegen(cache: ResultCache, units, compiled) -> None:
    """Persist a :class:`~repro.runtime.compiler.CompiledProgram`'s
    generated sources, one entry per compilation unit from
    :func:`load_codegen`'s ``units`` listing."""
    for key, names, arities in units:
        functions = {name: compiled.sources[name] for name in names
                     if name in compiled.sources}
        if not functions:
            continue
        cache.store_codegen(key, {"functions": functions,
                                  "arities": arities})


# ---------------------------------------------------------------------------
# --stats bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class UnitTiming:
    """One unit's row in the ``--stats`` table."""

    filename: str
    names: Tuple[str, ...]
    #: Wall seconds the check took (in-process or in a worker); None for
    #: rows that were never timed (cache hits and deduplicated copies).
    seconds: Optional[float]
    #: Where the row came from: "checked" (type-checked this call),
    #: "hit" (served from the unit cache), or "skipped" (a deduplicated
    #: copy — an identical file was walked once elsewhere in the batch).
    #: Cache hits used to record 0.0 seconds, which made them
    #: indistinguishable from genuinely instant units; the explicit
    #: source plus ``seconds=None`` removes that ambiguity.
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
    #: Units of deduplicated copies (an identical module walked once
    #: elsewhere in the batch).
    skipped: int = 0
    timings: List[UnitTiming] = field(default_factory=list)

    def note(self, filename: str, unit: CheckUnit,
             seconds: Optional[float], source: str) -> None:
        self.units += 1
        if source == "hit":
            self.cache_hits += 1
            _REGISTRY.inc("cache.unit_hits")
        elif source == "skipped":
            self.skipped += 1
            _REGISTRY.inc("batch.units_skipped")
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
            "skipped": self.skipped,
            "timings": [
                {"filename": t.filename, "names": list(t.names),
                 "seconds": t.seconds, "source": t.source}
                for t in self.timings],
        }

    def pretty(self, slowest: int = 10) -> str:
        summary = (
            f"files: {self.files}  file hits: {self.file_hits}  "
            f"units: {self.units}  checked: {self.checked}  "
            f"cache hits: {self.cache_hits}  "
            f"cache misses: {self.cache_misses}"
        )
        if self.skipped:
            summary += f"  skipped: {self.skipped}"
        lines = [summary]
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
# The unit walk (in-process and inside workers)
# ---------------------------------------------------------------------------

#: name -> canonical scheme rendering (None = that binding failed): a
#: module's export map, and the imported slice of it a module sees.
_Renderings = Dict[str, Optional[str]]


class _SchemeResolver:
    """Materialise dependency :class:`Scheme` objects on demand.

    Schemes computed in-process are kept as objects; schemes that came
    from cache hits or worker payloads exist only as canonical renderings
    and are parsed back lazily.  If a rendering unexpectedly fails to
    re-parse (a printer gap), the resolver *re-checks the defining unit
    in-process* instead of propagating junk — self-healing at the cost of
    one redundant check.
    """

    def __init__(self, pipeline: Pipeline, plan: ModulePlan,
                 srcs: _Renderings,
                 objects: Dict[str, Optional[Scheme]]) -> None:
        self.pipeline = pipeline
        self.plan = plan
        self.srcs = srcs
        self.objects = objects

    def scheme(self, name: str) -> Optional[Scheme]:
        if name in self.objects:
            return self.objects[name]
        src = self.srcs.get(name)
        scheme: Optional[Scheme] = None
        if src is not None:
            from ..frontend.parser import parse_scheme

            try:
                scheme = parse_scheme(src)
            except ParseError:
                scheme = self._recheck(name)
        self.objects[name] = scheme
        return scheme

    def _recheck(self, name: str) -> Optional[Scheme]:
        uid = self.plan.defining_unit.get(name)
        if uid is None:
            return None
        unit = self.plan.units[uid]
        available = {dep: self.scheme(dep) for dep in unit.deps}
        outcome = self.pipeline.check_unit(self.plan, unit, available)
        for member in outcome.members:
            if member.summary.name == name:
                return member.env_scheme
        return None

    def available_for(self, unit: CheckUnit) -> Dict[str, Optional[Scheme]]:
        available = {dep: self.scheme(dep) for dep in unit.deps}
        # Foreign names resolve only when the srcs map has an entry for
        # them (project mode seeds it with imported exports; a present-
        # but-None entry means the exporting binding failed).  Absent
        # names stay unbound: ordinary scope errors.
        for name in unit.foreign:
            if name in self.srcs:
                available[name] = self.scheme(name)
        return available


class _FileState:
    """One module's parse, plan and per-unit resolution state.

    ``scope`` maps the imported names the module references to the
    canonical renderings of their exported schemes, or is None in
    single-file mode, where ``import`` declarations stay unresolved and
    draw a warning.  It seeds ``scheme_srcs``, so foreign references
    resolve through exactly the machinery local dependencies use.
    """

    def __init__(self, filename: str, source: str, pipeline: Pipeline,
                 scope: Optional[_Renderings] = None) -> None:
        self.filename = filename
        self.source = source
        self.scope = scope
        self.parsed, self.parse_diagnostics = pipeline.parse(source, filename)
        self.plan: Optional[ModulePlan] = None
        if self.parsed is not None:
            with _TRACER.span("depgraph", file=filename):
                self.plan = build_plan(self.parsed)
        #: uid -> unit payload, filled as units resolve.
        self.payloads: Dict[int, dict] = {}
        #: defined or imported name -> canonical scheme rendering (or
        #: None = failed).  Locals overwrite imports on collision (a
        #: local definition shadows an imported name).
        self.scheme_srcs: _Renderings = dict(scope or {})
        #: defined name -> materialised Scheme (in-process checks only).
        self.schemes: Dict[str, Optional[Scheme]] = {}

    @property
    def units(self) -> List[CheckUnit]:
        return self.plan.units if self.plan is not None else []

    @property
    def signature(self) -> Tuple:
        """Everything the walk depends on besides the cache: modules with
        equal signatures walk once per batch."""
        scope = self.scope
        return self.source, (None if scope is None
                             else tuple(sorted(scope.items())))

    def dep_items(self, unit: CheckUnit
                  ) -> List[Tuple[str, Optional[str]]]:
        items = [(dep, self.scheme_srcs.get(dep)) for dep in unit.deps]
        # Imported schemes the unit references are part of its key: a
        # change to one invalidates exactly the units naming it.
        items.extend((name, self.scheme_srcs[name]) for name in unit.foreign
                     if name in self.scheme_srcs)
        return items

    def exports(self) -> Optional[_Renderings]:
        """The module's export map (None when the file did not parse)."""
        if self.plan is None:
            return None
        return {name: self.scheme_srcs.get(name)
                for name in sorted(self.plan.defining_decl)}

    def resolve(self, plan_unit: CheckUnit, payload: dict,
                outcome: Optional[UnitOutcome] = None) -> None:
        """Record a unit's payload and export its defining schemes."""
        self.payloads[plan_unit.uid] = payload
        plan = self.plan
        by_name = {}
        if outcome is not None:
            by_name = {m.summary.name: m for m in outcome.members}
        for decl_index, member in zip(plan_unit.member_decls,
                                      payload["members"]):
            name = member["name"]
            if plan.defining_decl.get(name) != decl_index:
                continue
            self.scheme_srcs[name] = member["scheme_src"]
            if name in by_name:
                self.schemes[name] = by_name[name].env_scheme

    def assemble(self) -> CheckResult:
        """Stitch the resolved unit payloads into a slim file result."""
        result = CheckResult(self.filename)
        result.diagnostics.extend(self.parse_diagnostics)
        if self.parsed is None:
            result.ok = False
            return result
        plan = self.plan
        entries: Dict[int, Tuple[BindingSummary, List[Diagnostic]]] = {}
        for unit in plan.units:
            payload = self.payloads[unit.uid]
            for decl_index, member in zip(unit.member_decls,
                                          payload["members"]):
                span = _abs_span(unit, member["span"])
                summary = BindingSummary(
                    member["name"], None, member["rendered"], member["ok"],
                    tuple(member["defaulted_rep_vars"]), span)
                diagnostics = [
                    Diagnostic(d["severity"], d["stage"], d["message"],
                               self.filename, _abs_span(unit, d["span"]),
                               d["binding"])
                    for d in member["diagnostics"]]
                entries[decl_index] = (summary, diagnostics)
        assemble_decl_order(plan, entries, result,
                            imports_resolved=self.scope is not None)
        result.ok = not result.errors
        return result


#: One unit's outcome in a walk: (uid, key, payload, check seconds), the
#: seconds None when the unit was a cache hit.
_Step = Tuple[int, str, dict, Optional[float]]


def _lookup_in(cache: Optional[ResultCache], memo: Dict[str, dict]):
    """A walk's lookup: the cache when there is one, then the in-batch
    memo, so identical units check at most once even without a cache."""
    def lookup(key: str) -> Optional[dict]:
        traced = _TRACER.enabled
        if traced:
            _TRACER.begin("cache.lookup")
        try:
            payload = cache.lookup(key) if cache is not None else None
            return payload if payload is not None else memo.get(key)
        finally:
            if traced:
                _TRACER.end("cache.lookup")

    return lookup


def _walk(pipeline: Pipeline, state: _FileState, options: DriverOptions,
          fingerprint: str, lookup, record) -> List[_Step]:
    """The unit walk: ``state``'s units in dependency order, each a cache
    hit or a check.

    A hit exports its scheme renderings just as a check does, so the next
    unit's key resolves either way: a dependent of an edited unit whose
    scheme came out unchanged is still a hit (early cutoff).
    ``record(key, payload)`` makes a fresh check visible to later lookups.
    """
    resolver = _SchemeResolver(pipeline, state.plan, state.scheme_srcs,
                               state.schemes)
    steps: List[_Step] = []
    for unit in state.units:
        key = unit_key(unit.source, state.dep_items(unit), options,
                       fingerprint)
        payload = lookup(key)
        if payload is not None:
            state.resolve(unit, payload)
            steps.append((unit.uid, key, payload, None))
            continue
        outcome = pipeline.check_unit(state.plan, unit,
                                      resolver.available_for(unit))
        payload = payload_from_unit_outcome(outcome)
        record(key, payload)
        state.resolve(unit, payload, outcome)
        steps.append((unit.uid, key, payload, outcome.seconds))
    return steps


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

#: The per-process warm session (prelude built once per worker).
_WORKER_SESSION: Optional[Session] = None


def _worker_init(options_state: dict, trace_enabled: bool = False) -> None:
    global _WORKER_SESSION
    # Under the fork start method the child inherits the parent tracer's
    # buffered events and epoch; reset so the worker payload carries only
    # spans this process actually recorded, timed from its own clock.
    _TRACER.reset(process_name="repro worker")
    if trace_enabled:
        _TRACER.enable()
    else:
        _TRACER.disable()
    _WORKER_SESSION = Session(DriverOptions(**options_state))


#: One worker job: (position in the batch, filename, source, scope).
_FileJob = Tuple[int, str, str, Optional[_Renderings]]


def _worker_walk(shard: List[_FileJob], cache_path: Optional[str]
                 ) -> Tuple[List[Tuple[int, List[_Step]]], Optional[dict]]:
    """Walk one shard of files in a worker process.

    The worker opens the cache directory read-only — it never stores or
    saves; the parent records the checks it ships back — and re-derives
    each plan from the shipped source, so its steps are byte-identical to
    an in-process walk against the same cache.

    Returns ``(steps per job, trace_payload)``: when the worker tracer is
    on, the second element ships this process's spans (with its pid and
    wall-clock epoch) back for the parent to rebase onto its timeline.
    """
    session = _WORKER_SESSION
    assert session is not None, "worker used without _worker_init"
    pipeline = session.pipeline
    options = session.options
    fingerprint = options_fingerprint(options)
    memo: Dict[str, dict] = {}
    cache = ResultCache(cache_path) if cache_path is not None else None
    lookup = _lookup_in(cache, memo)
    traced = _TRACER.enabled
    out = []
    for position, filename, source, scope in shard:
        if traced:
            _TRACER.begin("worker.file", file=filename)
        try:
            state = _FileState(filename, source, pipeline, scope)
            out.append((position, _walk(pipeline, state, options,
                                        fingerprint, lookup,
                                        memo.__setitem__)))
        finally:
            if traced:
                _TRACER.end("worker.file")
    return out, (_TRACER.worker_payload() if traced else None)


def _shard(items: List, jobs: int) -> List[List]:
    """Contiguous shards, one per worker (a single IPC round-trip each)."""
    size, remainder = divmod(len(items), jobs)
    shards = []
    start = 0
    for worker in range(jobs):
        stop = start + size + (1 if worker < remainder else 0)
        if stop > start:
            shards.append(items[start:stop])
        start = stop
    return shards


# ---------------------------------------------------------------------------
# Parallel scheduling policy
# ---------------------------------------------------------------------------

#: Environment override for the serial-cutoff heuristics:
#: ``auto`` (default) applies them, ``always`` fans out whenever
#: ``jobs > 1`` (benchmarks/tests proving pool reuse), ``never`` forces
#: the in-process path.
PARALLEL_MODE_ENV = "REPRO_PARALLEL"

#: Fewest units that may ship to one worker before fan-out is worth its
#: dispatch cost (pickling + IPC; spawn is already amortised by the
#: persistent pool, but a warm round-trip is still not free).
_MIN_UNITS_PER_WORKER = 4


def _parallel_mode() -> str:
    mode = os.environ.get(PARALLEL_MODE_ENV, "auto").strip().lower()
    return mode if mode in ("auto", "always", "never") else "auto"


def _effective_jobs(jobs: int, units: int, files: int) -> int:
    """How many workers a batch of ``files`` files to walk, holding
    ``units`` units between them, should actually use.

    ``auto`` mode applies the serial cutoff (tiny batches and 1-CPU hosts
    never pay worker dispatch) and autotunes the shard count so every
    worker has at least :data:`_MIN_UNITS_PER_WORKER` units; ``always``
    and ``never`` bypass the heuristics in either direction.
    """
    if jobs <= 1:
        return 1
    mode = _parallel_mode()
    if mode == "never":
        return 1
    if mode == "always":
        return jobs
    cpus = os.cpu_count() or 1
    if cpus <= 1 or files <= 1:
        return 1
    jobs = min(jobs, cpus, files)
    while jobs > 1 and units < jobs * _MIN_UNITS_PER_WORKER:
        jobs -= 1
    return jobs


def _dispatch(states: List[_FileState], options: DriverOptions, jobs: int,
              cache: Optional[ResultCache], session: Session
              ) -> List[Optional[List[_Step]]]:
    """Walk ``states`` across the session's worker pool, one file per job.

    Returns each state's steps, or None where the caller walks it
    in-process instead: under the serial policy (:func:`_effective_jobs`),
    with a cache that has no path (workers cannot read it), and for
    whatever a pool that cannot spawn or breaks mid-batch did not deliver
    — the broken pool is discarded, and the next batch may respawn it.
    The pool is otherwise reused across batches, so spawn cost is paid at
    most once per session.
    """
    walked: List[Optional[List[_Step]]] = [None] * len(states)
    if jobs <= 1 or not states:
        return walked
    effective = _effective_jobs(
        jobs, sum(len(state.units) for state in states), len(states))
    if effective <= 1 or (cache is not None and cache.path is None):
        session.pool_stats["serial_batches"] += 1
        _REGISTRY.inc("pool.serial_batches")
        return walked

    from concurrent.futures.process import BrokenProcessPool

    shipped = [(position, state.filename, state.source, state.scope)
               for position, state in enumerate(states)]
    cache_path = cache.path if cache is not None else None
    # Each shard gets its own synthetic tid row: the dispatch windows
    # overlap each other by design, and separate rows keep the B/E stack
    # discipline intact per (pid, tid).  Worker spans come back in the
    # result payload and are rebased onto this timeline under the
    # worker's own pid, temporally inside their shard window.
    traced = _TRACER.enabled
    begun = ended = 0
    try:
        executor = session.acquire_pool(effective, options)
        futures = []
        for shard_index, shard in enumerate(
                _shard(shipped, min(effective, len(shipped)))):
            if traced:
                _TRACER.begin("pool.shard", tid=SHARD_TID_BASE + shard_index,
                              shard=shard_index, files=len(shard))
                begun += 1
            futures.append(executor.submit(_worker_walk, shard, cache_path))
        for shard_index, future in enumerate(futures):
            shard_steps, trace_payload = future.result()
            for position, steps in shard_steps:
                walked[position] = steps
            if traced:
                _TRACER.merge_worker(trace_payload)
                _TRACER.end("pool.shard", tid=SHARD_TID_BASE + shard_index)
                ended += 1
        session.pool_stats["parallel_batches"] += 1
        _REGISTRY.inc("pool.parallel_batches")
    except (OSError, BrokenProcessPool):
        for shard_index in range(ended, begun):
            _TRACER.end("pool.shard", tid=SHARD_TID_BASE + shard_index)
        session.discard_pool()
        session.pool_stats["serial_batches"] += 1
        _REGISTRY.inc("pool.serial_batches")
    return walked


# ---------------------------------------------------------------------------
# The batch entry points
# ---------------------------------------------------------------------------


def check_many_sharded(sources: Iterable[Tuple[str, str]],
                       options: Optional[DriverOptions] = None,
                       jobs: int = 1,
                       cache: Union[ResultCache, str, None] = None,
                       session: Optional[Session] = None,
                       stats: Optional[CheckStats] = None,
                       ) -> List[CheckResult]:
    """Check many ``(filename, source)`` programs at unit granularity.

    A one-level project build whose modules have no imports in scope:
    every file goes through :func:`check_modules` in single-file mode, so
    ``import`` declarations warn instead of resolving.  An unchanged file
    is answered from one file-level entry without even re-parsing; an
    edited file is parsed, planned and walked unit by unit — hits from
    the per-unit cache (source slice + dependency schemes), checks
    otherwise, in-process or across ``jobs`` worker processes.

    Results always come back **in input order**, as slim payload-backed
    :class:`CheckResult` values (``scheme``/``parsed``/``env`` are None).
    ``stats`` (a :class:`CheckStats`) collects per-unit timing and cache
    hit/miss counts for ``--stats``.
    """
    options = options or DriverOptions()
    if session is None:
        session = Session(options)
    if isinstance(cache, str):
        # A path-spelled cache is opened against the session's hot tier,
        # so repeated calls in one warm process serve hot shards from
        # memory instead of disk.
        cache = ResultCache(cache, hot=session.store_hot_tier())
    modules = [(filename, source, None) for filename, source in sources]
    return [result for result, _exports in check_modules(
        modules, options, jobs, cache, session, stats)]


def check_modules(modules: Sequence[Tuple[str, str, Optional[_Renderings]]],
                  options: DriverOptions, jobs: int,
                  cache: Optional[ResultCache], session: Session,
                  stats: Optional[CheckStats] = None
                  ) -> List[Tuple[CheckResult, Optional[_Renderings]]]:
    """Check one level of modules, given as ``(filename, source, scope)``.

    ``scope`` maps the imported names a module references to their
    exported renderings, or is None in single-file mode (see
    :func:`file_key`).  Returns ``(result, exports)`` per module in input
    order; ``exports`` is None in single-file mode and for a module that
    did not parse.  An unchanged module is answered from its file-level
    entry — in project mode together with its ``exports:`` entry, which
    importers need without a re-parse; every other module goes through
    the unit walk.  Identical modules walk once, their copies counted as
    ``skipped``.  ``stats`` counters accumulate, so the project build
    threads one object through its levels.
    """
    jobs = max(1, int(jobs or 1))
    if stats is None:
        # Counting always (into an internal CheckStats) keeps the
        # telemetry registry's cache.*/batch.* counters accurate whether
        # or not the caller asked for a --stats table.
        stats = CheckStats()
    pipeline = session.pipeline
    fingerprint = options_fingerprint(options)

    done: List[Optional[Tuple[CheckResult, Optional[_Renderings]]]] = \
        [None] * len(modules)
    keys: List[str] = []
    active: List[Tuple[int, _FileState]] = []
    for index, (filename, source, scope) in enumerate(modules):
        key = file_key(source, scope, options, fingerprint)
        keys.append(key)
        payload = cache.lookup_file(key) if cache is not None else None
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

    memo: Dict[str, dict] = {}
    lookup = _lookup_in(cache, memo)

    def record(key: str, payload: dict) -> None:
        memo[key] = payload
        if cache is not None:
            cache.store(key, payload)  # identical payloads store free

    # Identical modules walk once (in a worker, or here); each copy takes
    # the first one's steps as "skipped" rows.
    walked = [state for _, state in active if state.plan is not None]
    first: Dict[Tuple, _FileState] = {}
    for state in walked:
        first.setdefault(state.signature, state)
    unique = [state for state in walked if first[state.signature] is state]
    steps_of = {id(state): steps for state, steps in zip(
        unique, _dispatch(unique, options, jobs, cache, session))
        if steps is not None}
    for state in walked:
        original = first[state.signature]
        steps = steps_of.get(id(original))
        if steps is None:
            steps = steps_of[id(state)] = _walk(
                pipeline, state, options, fingerprint, lookup, record)
        else:
            for uid, key, payload, seconds in steps:
                state.resolve(state.plan.units[uid], payload)
                if original is state and seconds is not None:
                    record(key, payload)
        for uid, _key, _payload, seconds in steps:
            unit = state.plan.units[uid]
            if original is not state:
                stats.note(state.filename, unit, None, "skipped")
            elif seconds is None:
                stats.note(state.filename, unit, None, "hit")
            else:
                if cache is not None:
                    stats.cache_misses += 1
                    _REGISTRY.inc("cache.unit_misses")
                stats.note(state.filename, unit, seconds, "checked")

    for index, state in active:
        result = state.assemble()
        exports = state.exports() if state.scope is not None else None
        done[index] = (result, exports)
        if cache is not None:
            # File-level short-circuit entry for the next unchanged run.
            # The filename is normalised out (re-stamped on load), so
            # identical sources share one entry regardless of name.
            payload = result_to_payload(result)
            payload["filename"] = ""
            cache.store_file(keys[index], payload)
            if state.scope is not None:
                cache.store_exports(keys[index], exports)

    if cache is not None:
        cache.save()
    return done  # type: ignore[return-value]
