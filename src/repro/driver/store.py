"""The result cache's on-disk store: one SQLite table (schema v6).

Every ``--cache PATH`` is a directory holding one database,
``PATH/cache.sqlite``, with one table::

    entry(key TEXT PRIMARY KEY, payload TEXT NOT NULL, stamp REAL NOT NULL)

``payload`` is the entry's JSON text.  ``stamp`` is the UNIX time the
entry was last stored, or last served when that was more than
:data:`STAMP_REFRESH_SECONDS` later; ``gc(max_age)`` drops entries by it.

A :class:`CacheStore` reads each key it is asked for with one ``SELECT``
(:meth:`CacheStore.get_many` reads a batch of keys with one) and keeps its
puts in memory.  :meth:`CacheStore.save` writes them, with
the stale stamps of the entries it served, in one ``BEGIN IMMEDIATE``
transaction.  SQLite's locks serialise the writers, and a key has one
deterministic payload, so processes saving into one directory lose
nothing; a statement that waits longer than :data:`BUSY_TIMEOUT_SECONDS`
for another connection's lock fails.  The store keeps SQLite's default
rollback journal, and ``save`` closes the connection, so no ``-journal``
file outlives a command.  SQLite's locking relies on the file system's,
which is unreliable on network file systems: keep a shared cache
directory on a local disk.

A build saves once, after its last level (``Session.check_many`` and
:func:`repro.driver.project.check_project`), so its connection lives
from the store's opening to that save, and it commits at most once.  A
build that stops before its save writes nothing: its entries cost a
re-check, never a half-written store.

The store also keeps SQLite's default ``synchronous=FULL``: a commit
returns once its data is on disk.  Those flushes take most of a small
save's time, but they are safety code.  An entry lost in a crash would
cost only a re-check, while a ``cache.sqlite`` torn by an operating-system
crash or power loss under a weaker setting is refused with ``error:``
until someone deletes it.

The root path must be a directory: opening a store creates it, and a
path that exists as a regular file, or lies under one, is refused with
an ``OSError`` and left untouched.  A ``cache.sqlite`` that SQLite cannot
use (not a database, truncated, locked past the busy timeout) raises
:class:`StoreError` and is left as it is.  Anything else in the directory,
such as a schema-v4 shard tree, is ignored and never deleted;
:data:`CACHE_SCHEMA` is hashed into every key, so its entries could never
hit anyway.

``sqlite3`` is imported when a store opens, so a check without a cache
never loads it.

Metrics (``repro.telemetry``): ``cache.store.keys_read`` (keys looked up
on disk), ``cache.store.entries_written``, ``cache.store.gc_dropped``,
``cache.store.connections`` (one per ``sqlite3.connect``) and
``cache.store.commits`` (one per save that wrote something).
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

from ..telemetry import REGISTRY as _REGISTRY

__all__ = [
    "BUSY_TIMEOUT_SECONDS",
    "CACHE_SCHEMA",
    "CacheStore",
    "DATABASE_NAME",
    "STAMP_REFRESH_SECONDS",
    "StoreError",
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
#: v5: one SQLite database per cache directory.
#: v6: ``outline:`` entries outline one declaration block each, keyed by
#: the block's text, in place of one outline per module source.
CACHE_SCHEMA = 6

#: The database file inside a cache directory.
DATABASE_NAME = "cache.sqlite"

#: How long a statement waits for another connection's lock before the
#: store gives up with a :class:`StoreError`.
BUSY_TIMEOUT_SECONDS = 5.0

#: A hit refreshes an entry's GC stamp only when the stamp is older than
#: this (one week): hot entries survive ``gc --max-age`` indefinitely,
#: while back-to-back no-op runs still write nothing.
STAMP_REFRESH_SECONDS = 7 * 24 * 3600.0

_CREATE_TABLE = ("CREATE TABLE IF NOT EXISTS entry (key TEXT PRIMARY KEY, "
                 "payload TEXT NOT NULL, stamp REAL NOT NULL)")

#: Keys one ``SELECT`` of :meth:`CacheStore.get_many` binds at most, well
#: under the 999 variables older SQLite builds allow a statement.
_BATCH_KEYS = 500


def table_of(key: str) -> str:
    """The namespace a key belongs to, by its prefix: ``pfile``,
    ``outline``, ``module``, ``exports``, ``codegen``, or ``unit`` for bare
    unit keys and any prefix no other namespace names.

    ``exports:`` keys wrap a *file* key which may itself be prefixed
    (``exports:pfile:<hex>``); the outermost prefix wins.  Codegen keys
    carry the generator version in the prefix (``codegen1:<hex>``) and
    share one namespace across versions — bumping ``CODEGEN_VERSION``
    orphans old entries in place, where ``gc`` reaps them.
    """
    head, sep, _ = key.partition(":")
    if not sep:
        return "unit"
    if head in ("pfile", "outline", "module", "exports"):
        return head
    if head.startswith("codegen") and head[len("codegen"):].isdigit():
        return "codegen"
    return "unit"


def _decode(text) -> Optional[dict]:
    """A stored payload, or None when its text is not JSON."""
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None


def _decode_many(texts: List[str]) -> List[Optional[dict]]:
    """The payloads of ``texts``, as :func:`_decode` gives them: decoded
    as one JSON array when that yields one value per text (one decoder
    call, not one per payload), else one by one."""
    try:
        payloads = json.loads("[%s]" % ",".join(texts))
        if len(payloads) == len(texts):
            return payloads
    except ValueError:
        pass
    return [_decode(text) for text in texts]


class StoreError(Exception):
    """A cache database SQLite cannot use: not a database, damaged, or
    locked by another connection for longer than the busy timeout."""


class CacheStore:
    """One cache directory's database, read key by key, written by save.

    :meth:`get` and :meth:`put` work on the rows read so far plus the
    puts not yet saved; :meth:`save` writes those puts in one
    transaction.  ``keys_read``/``entries_written`` count per store what
    the ``cache.store.*`` registry counters count per process.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        # Fails before any work when the path is, or lies under, a file.
        os.makedirs(self.root, exist_ok=True)
        self.path = os.path.join(self.root, DATABASE_NAME)
        self._connection = None
        #: key -> (payload text, stamp is stale) as read, or None if absent.
        self._rows: Dict[str, Optional[Tuple[str, bool]]] = {}
        self._pending: Dict[str, dict] = {}
        #: Keys get() answered from disk, whose stale stamps save() refreshes.
        self._served: Set[str] = set()
        self.keys_read = 0
        self.entries_written = 0
        # Open now, so an unusable database is refused before any work.
        with self._sql():
            pass

    @contextlib.contextmanager
    def _sql(self) -> Iterator:
        """The open connection; a SQLite failure inside the block closes
        it and becomes a :class:`StoreError`."""
        import sqlite3

        try:
            if self._connection is None:
                self._connection = sqlite3.connect(
                    self.path, timeout=BUSY_TIMEOUT_SECONDS,
                    isolation_level=None)
                _REGISTRY.inc("cache.store.connections")
                self._connection.execute(_CREATE_TABLE)
            yield self._connection
        except sqlite3.Error as exc:
            self.close()
            raise StoreError(f"{self.path}: {exc}") from exc

    def close(self) -> None:
        """Close the connection, rolling back any transaction left open;
        the next read opens it again."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    # -- the key/value API ----------------------------------------------------

    def _row(self, key: str) -> Optional[Tuple[str, bool]]:
        if key not in self._rows:
            cutoff = time.time() - STAMP_REFRESH_SECONDS
            with self._sql() as db:
                self._rows[key] = db.execute(
                    "SELECT payload, stamp < ? FROM entry WHERE key = ?",
                    (cutoff, key)).fetchone()
            self.keys_read += 1
            _REGISTRY.inc("cache.store.keys_read")
        return self._rows[key]

    def get(self, key: str) -> Optional[dict]:
        if key in self._pending:
            return self._pending[key]
        row = self._row(key)
        payload = _decode(row[0]) if row is not None else None
        if payload is not None:
            self._served.add(key)
        return payload

    def get_many(self, keys: Sequence[str]) -> Dict[str, dict]:
        """The payloads of those ``keys`` that have one, as :meth:`get`
        gives them; the keys not read yet are read with one ``SELECT``
        per :data:`_BATCH_KEYS` of them."""
        rows, pending = self._rows, self._pending
        unique = list(dict.fromkeys(keys))
        unread = [key for key in unique
                  if key not in rows and key not in pending]
        if unread:
            cutoff = time.time() - STAMP_REFRESH_SECONDS
            with self._sql() as db:
                for first in range(0, len(unread), _BATCH_KEYS):
                    batch = unread[first:first + _BATCH_KEYS]
                    for key, text, stale in db.execute(
                            "SELECT key, payload, stamp < ? FROM entry "
                            "WHERE key IN (%s)" % ", ".join("?" * len(batch)),
                            (cutoff, *batch)):
                        rows[key] = (text, stale)
            for key in unread:
                rows.setdefault(key, None)
            self.keys_read += len(unread)
            _REGISTRY.inc("cache.store.keys_read", len(unread))
        stored = [key for key in unique
                  if key not in pending and rows[key] is not None]
        decoded = dict(zip(stored,
                           _decode_many([rows[key][0] for key in stored])))
        found = {}
        for key in keys:
            payload = pending.get(key)
            if payload is None:
                payload = decoded.get(key)
                if payload is None:
                    continue
                self._served.add(key)
            found[key] = payload
        return found

    def put(self, key: str, payload: dict) -> bool:
        """Store a payload; returns False when it matched what was there
        (nothing to write — identical re-stores are free)."""
        if self.get(key) == payload:
            return False
        self._pending[key] = payload
        return True

    def save(self) -> int:
        """Write the puts, and refresh the stale stamps of the entries
        served, in one transaction; returns how many entries it wrote.

        With nothing to write there is no transaction, so a warm no-op
        writes nothing.  The connection closes either way, and closing it
        rolls back a transaction that a failure left open.
        """
        stale = [key for key in self._served
                 if key not in self._pending and self._rows[key][1]]
        now = time.time()
        try:
            if self._pending or stale:
                with self._sql() as db:
                    db.execute("BEGIN IMMEDIATE")
                    db.executemany(
                        "INSERT OR REPLACE INTO entry VALUES (?, ?, ?)",
                        ((key, json.dumps(payload, sort_keys=True), now)
                         for key, payload in self._pending.items()))
                    db.executemany(
                        "UPDATE entry SET stamp = ? WHERE key = ?",
                        ((now, key) for key in stale))
                    db.execute("COMMIT")
                _REGISTRY.inc("cache.store.commits")
        finally:
            self.close()
        written = [*self._pending, *stale]
        for key in written:
            self._rows.pop(key, None)
        self._pending.clear()
        self._served.clear()
        if written:
            self.entries_written += len(written)
            _REGISTRY.inc("cache.store.entries_written", len(written))
        return len(written)

    # -- whole-store walks (tests, CLI, GC) -----------------------------------

    def _all_rows(self) -> List[Tuple[str, object]]:
        with self._sql() as db:
            return db.execute("SELECT key, payload FROM entry").fetchall()

    def load_all(self) -> Dict[str, dict]:
        """Every entry, saved plus unsaved puts (puts win).

        This reads the whole store — it exists for tests, ``cache``
        CLI actions and benchmarks, not for the checking fast path.
        """
        entries = {}
        for key, text in self._all_rows():
            payload = _decode(text)
            if payload is not None:
                entries[key] = payload
        entries.update(self._pending)
        return entries

    def stats(self) -> dict:
        """A JSON-ready summary of the saved entries, per namespace."""
        tables: Dict[str, dict] = {}
        with self._sql() as db:
            rows = db.execute("SELECT key, length(CAST(payload AS BLOB)) "
                              "FROM entry").fetchall()
        for key, size in rows:
            row = tables.setdefault(table_of(key),
                                    {"entries": 0, "bytes": 0})
            row["entries"] += 1
            row["bytes"] += size
        return {"schema": CACHE_SCHEMA, "root": self.root,
                "entries": len(rows), "bytes": os.path.getsize(self.path),
                "tables": tables}

    def verify(self, validator: Optional[
            Callable[[str, dict], bool]] = None) -> List[str]:
        """Problems in the saved store (empty list = sound).

        Reports what SQLite's ``PRAGMA integrity_check`` finds, every
        payload that is not JSON, and — when a ``validator(key, payload)
        -> bool`` is supplied — every payload without the shape its
        namespace promises.
        """
        with self._sql() as db:
            problems = [f"{self.path}: {message}" for (message,) in
                        db.execute("PRAGMA integrity_check").fetchall()
                        if message != "ok"]
        for key, text in self._all_rows():
            payload = _decode(text)
            if payload is None:
                problems.append(
                    f"{self.path}: unreadable payload under {key[:24]}…")
            elif validator is not None and not validator(key, payload):
                problems.append(
                    f"{self.path}: invalid payload under {key[:24]}…")
        return problems

    def gc(self, max_age_seconds: float,
           now: Optional[float] = None) -> Tuple[int, int]:
        """Drop entries older than ``max_age_seconds``; returns
        ``(kept, dropped)``.

        Age is the GC stamp: the last store, or the last hit if that came
        more than :data:`STAMP_REFRESH_SECONDS` later.
        """
        now = time.time() if now is None else now
        cutoff = now - max(0.0, max_age_seconds)
        with self._sql() as db:
            dropped = db.execute("DELETE FROM entry WHERE stamp < ?",
                                 (cutoff,)).rowcount
            (kept,) = db.execute("SELECT count(*) FROM entry").fetchone()
        if dropped:
            _REGISTRY.inc("cache.store.gc_dropped", dropped)
        self._rows.clear()
        self._served.clear()
        return kept, dropped

    def compact(self) -> dict:
        """``VACUUM`` the database; returns its size before and after."""
        before = os.path.getsize(self.path)
        with self._sql() as db:
            db.execute("VACUUM")
        return {"bytes_before": before,
                "bytes_after": os.path.getsize(self.path)}
