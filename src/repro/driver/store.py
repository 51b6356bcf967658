"""The sharded, content-addressed on-disk cache store (schema v4).

Schemas v1–v3 persisted the whole :class:`~repro.driver.batch.ResultCache`
as **one JSON document**: every CLI invocation parsed the entire cache,
any one-entry store re-serialised everything, and the file grew without
bound.  Cost scaled with *corpus history* instead of *work done*.

This module replaces the document with a **shard directory**.  Every key
already ends in a SHA-256 hex digest (that is what "content-addressed"
buys us), so the store:

* assigns each key to one of :data:`SHARD_COUNT` (=256) shards by the
  first two hex characters of its trailing digest — a uniform split that
  is stable across runs, machines and schema-compatible versions;
* segregates the key namespaces into per-table directories (``unit/``
  for bare unit keys and unknown prefixes, plus the ``pfile:``/
  ``outline:``/``exports:``/``codegen:`` side-tables), so the
  side-tables never dilute the unit shards;
* loads shards **lazily** — a warm no-op run reads only the shards it
  actually probes — and tracks dirtiness **per shard**, so a single-unit
  edit rewrites exactly the shards its entries live in and ``save()``
  neither reads nor writes clean shards;
* keeps the v3 atomicity discipline per shard file — merge the entries a
  concurrent writer persisted since we loaded, write to a temp file,
  ``os.replace`` into place — and serialises the read-merge-write window
  itself with a per-shard advisory ``flock`` (a ``.lock`` sibling file),
  so two processes racing on one cache directory can tear nothing *and*
  lose nothing: ``os.replace`` alone would let writer B re-read a shard
  just before writer A replaced it and then clobber A's entries.

On-disk layout::

    <root>/unit/a3.json      {"schema": 4, "entries": {...}, "stamps": {...}}
    <root>/pfile/07.json
    <root>/codegen/ff.json
    ...

``stamps`` maps each key to the UNIX time it was last stored (refreshed
on *read* only when older than :data:`STAMP_REFRESH_SECONDS`, so steady
no-op runs stay zero-write); ``gc(max_age)`` uses them to drop entries
that have neither been produced nor consumed recently.

The root path must be a directory: opening a store creates it, and a
path that exists as a regular file, or lies under one, is refused with
an ``OSError`` and left untouched.  Schemas v1–v3 kept a monolithic
document there; :data:`CACHE_SCHEMA` is hashed into every key, so such
a document could never hit anyway.

Metrics (``repro.telemetry``): ``cache.store.shards_read`` /
``shards_written`` / ``entries_loaded`` / ``gc_dropped``; every shard
file read is a ``cache.shard`` trace span.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover — non-POSIX fallback, best-effort
    fcntl = None  # type: ignore[assignment]

from ..telemetry import REGISTRY as _REGISTRY, TRACER as _TRACER

__all__ = [
    "CACHE_SCHEMA",
    "SHARD_COUNT",
    "STAMP_REFRESH_SECONDS",
    "TABLES",
    "ShardStore",
    "shard_of",
    "table_of",
]

#: Bump when the payload layout or the pipeline's observable output
#: changes incompatibly; old cache entries then miss instead of
#: deserialising junk.
#: v2: binding-level units (one entry per unit, spans segment-relative).
#: v3: project builds — unit keys fold in imported schemes, plus the
#: ``outline:`` and ``exports:`` side-tables.
#: v4: the sharded store — entries split across per-table shard
#: directories with per-entry GC stamps.
CACHE_SCHEMA = 4

#: Shards per table.  256 = one shard per first-byte value of the
#: trailing digest; at 10k entries a shard holds ~40, so any one probe
#: or write touches well under 1% of the corpus.
SHARD_COUNT = 256

#: The key namespaces, each its own shard directory.  ``unit`` holds the
#: bare sha256 unit keys, and any key whose prefix no other table names;
#: the rest mirror the key prefixes minted by :mod:`repro.driver.batch`.
TABLES = ("unit", "pfile", "outline", "exports", "codegen")

#: A hit refreshes an entry's GC stamp only when the stamp is older than
#: this (one week): hot entries survive ``gc --max-age`` indefinitely,
#: while back-to-back no-op runs still write zero shards.
STAMP_REFRESH_SECONDS = 7 * 24 * 3600.0


def table_of(key: str) -> str:
    """The shard table a key belongs to, by its namespace prefix.

    ``exports:`` keys wrap a *file* key which may itself be prefixed
    (``exports:pfile:<hex>``); the outermost prefix wins.  Codegen keys
    carry the generator version in the prefix (``codegen1:<hex>``) and
    share one table across versions — bumping ``CODEGEN_VERSION``
    orphans old entries in place, where ``gc`` reaps them.
    """
    head, sep, _ = key.partition(":")
    if not sep:
        return "unit"
    if head in ("pfile", "outline", "exports"):
        return head
    if head.startswith("codegen") and head[len("codegen"):].isdigit():
        return "codegen"
    return "unit"


def shard_of(key: str) -> int:
    """The shard index (0..SHARD_COUNT-1) of a key.

    Keys are content-addressed — every well-formed key ends in a SHA-256
    hex digest — so the first two hex characters of the trailing
    ``:``-segment give a uniform, stable assignment.  Malformed keys
    (possible only via hand-edited callers) fall back to hashing the
    whole key, which is equally stable.
    """
    tail = key.rsplit(":", 1)[-1][:2]
    try:
        index = int(tail, 16)
    except ValueError:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        index = int(digest[:2], 16)
    return index % SHARD_COUNT


def _shard_name(index: int) -> str:
    return f"{index:02x}.json"


@contextlib.contextmanager
def _shard_lock(shard_path: str) -> Iterator[None]:
    """Exclusive advisory lock over one shard's read-merge-write window.

    Lives in a ``.lock`` sibling of the shard file (never deleted —
    unlink+flock is its own race).  ``os.replace`` keeps readers safe
    without taking it; only writers that re-read-merge-replace must hold
    it, otherwise two savers can base their merges on the same stale
    read and the second replace silently drops the first one's entries.
    Platforms without ``fcntl`` degrade to the unlocked best-effort
    behaviour.
    """
    if fcntl is None:
        yield
        return
    os.makedirs(os.path.dirname(shard_path), exist_ok=True)
    descriptor = os.open(shard_path + ".lock",
                         os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(descriptor, fcntl.LOCK_EX)
        yield
    finally:
        os.close(descriptor)  # closing the descriptor releases the lock


class ShardStore:
    """A lazily-loaded, per-shard-dirty view of one cache directory.

    The store is a working *overlay*: :meth:`get`/:meth:`put` operate on
    in-memory shard views read from disk on first touch; :meth:`save`
    persists exactly the dirty shards, merging against a fresh disk read
    per shard so concurrent writers lose nothing.  Instance counters (``shards_read``/``shards_written``/…)
    mirror the ``cache.store.*`` registry metrics for tests and benches
    that need per-store numbers.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        # Fails before any work when the path is, or lies under, a file.
        os.makedirs(self.root, exist_ok=True)
        #: (table, shard) -> working entries / stamps views.
        self._entries: Dict[Tuple[str, int], Dict[str, dict]] = {}
        self._stamps: Dict[Tuple[str, int], Dict[str, float]] = {}
        self._dirty: Set[Tuple[str, int]] = set()
        #: Keys served as hits per shard, for the coarse stamp refresh.
        self._probed: Dict[Tuple[str, int], Set[str]] = {}
        self.shards_read = 0
        self.shards_written = 0

    # -- shard IO -------------------------------------------------------------

    def _shard_path(self, table: str, index: int) -> str:
        return os.path.join(self.root, table, _shard_name(index))

    @staticmethod
    def _read_shard_file(path: str
                         ) -> Tuple[Dict[str, dict], Dict[str, float]]:
        """One shard file's (entries, stamps); tolerant of anything.

        A missing, unreadable, corrupt or schema-mismatched shard is an
        empty shard — the next save overwrites it wholesale.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return {}, {}
        if not isinstance(document, dict) \
                or document.get("schema") != CACHE_SCHEMA:
            return {}, {}
        entries = document.get("entries")
        stamps = document.get("stamps")
        if not isinstance(entries, dict):
            return {}, {}
        if not isinstance(stamps, dict):
            stamps = {}
        return entries, {key: stamp for key, stamp in stamps.items()
                         if isinstance(stamp, (int, float))}

    def _ensure(self, table: str, index: int) -> Dict[str, dict]:
        """The working entries view of one shard, loading it on demand."""
        slot = (table, index)
        entries = self._entries.get(slot)
        if entries is not None:
            return entries
        path = self._shard_path(table, index)
        with _TRACER.span("cache.shard", table=table, shard=index):
            entries, stamps = self._read_shard_file(path)
        self.shards_read += 1
        _REGISTRY.inc("cache.store.shards_read")
        if entries:
            _REGISTRY.inc("cache.store.entries_loaded", len(entries))
        self._entries[slot] = entries
        self._stamps[slot] = stamps
        return entries

    # -- the key/value API ----------------------------------------------------

    def locate(self, key: str) -> Tuple[str, int]:
        return table_of(key), shard_of(key)

    def get(self, key: str) -> Optional[dict]:
        table, index = self.locate(key)
        payload = self._ensure(table, index).get(key)
        if payload is not None:
            self._probed.setdefault((table, index), set()).add(key)
        return payload

    def put(self, key: str, payload: dict) -> bool:
        """Store a payload; returns False when it matched what was there
        (no write, no dirty shard — identical re-stores are free)."""
        table, index = self.locate(key)
        entries = self._ensure(table, index)
        if entries.get(key) == payload:
            return False
        entries[key] = payload
        self._stamps[(table, index)][key] = time.time()
        self._dirty.add((table, index))
        return True

    # -- persistence ----------------------------------------------------------

    def _refresh_probed_stamps(self) -> None:
        """Re-stamp long-unstamped entries this run consumed.

        A hit older than :data:`STAMP_REFRESH_SECONDS` marks its shard
        dirty so ``gc --max-age`` sees actively-used entries as live;
        recently-stamped hits cost nothing, keeping steady no-op runs at
        zero shard writes.
        """
        now = time.time()
        for slot, keys in self._probed.items():
            stamps = self._stamps.get(slot)
            if stamps is None:
                continue
            stale = [key for key in keys
                     if now - stamps.get(key, 0.0) > STAMP_REFRESH_SECONDS]
            if not stale:
                continue
            for key in stale:
                stamps[key] = now
            self._dirty.add(slot)
        self._probed.clear()

    def save(self) -> int:
        """Persist dirty shards; returns how many shard files were written.

        Per dirty shard, under that shard's advisory lock: re-read the
        file fresh from disk (another process may have advanced it), merge (our entries win on collision; same key
        means same deterministic payload), write to a temp file in the
        shard directory and atomically ``os.replace`` it into place.
        Clean shards are neither read nor written.
        """
        self._refresh_probed_stamps()
        if not self._dirty:
            return 0
        written = 0
        for table, index in sorted(self._dirty):
            slot = (table, index)
            path = self._shard_path(table, index)
            with _shard_lock(path):
                merged, stamps = self._read_shard_file(path)
                merged.update(self._entries.get(slot, {}))
                stamps.update(self._stamps.get(slot, {}))
                stamps = {key: stamp for key, stamp in stamps.items()
                          if key in merged}
                self._write_shard_file(path, merged, stamps)
            self._entries[slot] = merged
            self._stamps[slot] = stamps
            written += 1
        self._dirty.clear()
        return written

    # -- whole-store walks (tests, CLI, GC) -----------------------------------

    def _disk_shards(self) -> Iterator[Tuple[str, int, str]]:
        """Every shard file currently on disk, as (table, index, path)."""
        for table in TABLES:
            directory = os.path.join(self.root, table)
            try:
                names = sorted(os.listdir(directory))
            except OSError:
                continue
            for name in names:
                stem, ext = os.path.splitext(name)
                if ext != ".json" or len(stem) != 2:
                    continue
                try:
                    index = int(stem, 16)
                except ValueError:
                    continue
                yield table, index, os.path.join(directory, name)

    def load_all(self) -> Dict[str, dict]:
        """Every entry, disk plus unsaved working views (views win).

        This reads the whole store — it exists for tests, ``cache``
        CLI actions and benchmarks, not for the checking fast path.
        """
        merged: Dict[str, dict] = {}
        for _table, _index, path in self._disk_shards():
            merged.update(self._read_shard_file(path)[0])
        for entries in self._entries.values():
            merged.update(entries)
        return merged

    def stats(self) -> dict:
        """A JSON-ready summary of the on-disk store."""
        tables: Dict[str, dict] = {}
        total_entries = 0
        total_bytes = 0
        total_shards = 0
        for table, _index, path in self._disk_shards():
            entries, _stamps = self._read_shard_file(path)
            row = tables.setdefault(table, {"shards": 0, "entries": 0,
                                            "bytes": 0})
            row["shards"] += 1
            row["entries"] += len(entries)
            try:
                size = os.path.getsize(path)
            except OSError:
                size = 0
            row["bytes"] += size
            total_shards += 1
            total_entries += len(entries)
            total_bytes += size
        return {"schema": CACHE_SCHEMA, "root": self.root,
                "shards": total_shards, "entries": total_entries,
                "bytes": total_bytes, "tables": tables}

    def verify(self, validator: Optional[
            Callable[[str, dict], bool]] = None) -> List[str]:
        """Structural problems in the on-disk store (empty list = sound).

        Checks every shard file parses with the current schema, every
        entry sits in the table + shard its key assigns, and — when a
        ``validator(key, payload) -> bool`` is supplied — that each
        payload has the shape its namespace promises.
        """
        problems: List[str] = []
        for table, index, path in self._disk_shards():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    document = json.load(handle)
            except (OSError, ValueError) as exc:
                problems.append(f"{path}: unreadable shard ({exc})")
                continue
            if not isinstance(document, dict) \
                    or document.get("schema") != CACHE_SCHEMA:
                problems.append(
                    f"{path}: schema "
                    f"{document.get('schema') if isinstance(document, dict) else '?'}"
                    f" != {CACHE_SCHEMA}")
                continue
            entries = document.get("entries")
            if not isinstance(entries, dict):
                problems.append(f"{path}: entries is not an object")
                continue
            for key, payload in entries.items():
                expected = (table_of(key), shard_of(key))
                if expected != (table, index):
                    problems.append(
                        f"{path}: key {key[:24]}… belongs in "
                        f"{expected[0]}/{_shard_name(expected[1])}")
                elif validator is not None \
                        and not validator(key, payload):
                    problems.append(
                        f"{path}: invalid payload under {key[:24]}…")
        return problems

    def gc(self, max_age_seconds: float,
           now: Optional[float] = None) -> Tuple[int, int]:
        """Drop entries older than ``max_age_seconds``; returns
        ``(kept, dropped)``.

        Age is the GC stamp (last store, or last hit if that was more
        than :data:`STAMP_REFRESH_SECONDS` later); entries with no stamp
        (hand-edited shards) age by their shard file's mtime.  Shards
        rewrite only when they actually shrank; emptied shard files are
        removed.
        """
        now = time.time() if now is None else now
        cutoff = now - max(0.0, max_age_seconds)
        kept = 0
        dropped = 0
        for _table, _index, path in self._disk_shards():
            with _shard_lock(path):
                entries, stamps = self._read_shard_file(path)
                if not entries:
                    continue
                try:
                    mtime = os.path.getmtime(path)
                except OSError:
                    mtime = now
                live = {key: payload for key, payload in entries.items()
                        if stamps.get(key, mtime) >= cutoff}
                kept += len(live)
                dropped += len(entries) - len(live)
                if len(live) == len(entries):
                    continue
                if not live:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                    continue
                stamps = {key: stamp for key, stamp in stamps.items()
                          if key in live}
                self._write_shard_file(path, live, stamps)
        if dropped:
            _REGISTRY.inc("cache.store.gc_dropped", dropped)
        self._entries.clear()
        self._stamps.clear()
        self._probed.clear()
        return kept, dropped

    def compact(self) -> dict:
        """Rewrite every shard file canonically; returns before/after bytes.

        Normalises formatting, drops stamps for vanished keys and
        removes empty shard files — useful after heavy GC or a long
        append-only history.
        """
        before = 0
        after = 0
        for _table, _index, path in self._disk_shards():
            try:
                before += os.path.getsize(path)
            except OSError:
                pass
            with _shard_lock(path):
                entries, stamps = self._read_shard_file(path)
                if not entries:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                    continue
                stamps = {key: stamp for key, stamp in stamps.items()
                          if key in entries}
                self._write_shard_file(path, entries, stamps)
            try:
                after += os.path.getsize(path)
            except OSError:
                pass
        self._entries.clear()
        self._stamps.clear()
        self._probed.clear()
        return {"bytes_before": before, "bytes_after": after}

    def _write_shard_file(self, path: str, entries: Dict[str, dict],
                          stamps: Dict[str, float]) -> None:
        document = {"schema": CACHE_SCHEMA, "entries": entries,
                    "stamps": stamps}
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".repro-shard-")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self.shards_written += 1
        _REGISTRY.inc("cache.store.shards_written")
