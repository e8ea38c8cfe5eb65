"""Disk-backed persistence for the shared probe cache.

Probe answers (``SELECT 1 ... LIMIT 1`` outcomes and column min/max
bounds) are facts of the database contents: they never depend on the
task, the TSQ, or the engine configuration. PR 2 exploited that within
one process by sharing a :class:`~repro.core.verifier.SharedProbeCache`
per database across every enumeration of a harness run; this module
extends the amortisation across *processes* by persisting those caches
to disk, keyed by :meth:`~repro.db.database.Database.content_hash`.
Repeated eval runs on the same corpus warm-start instead of re-paying
every probe.

The store is an SQLite database per (schema, content hash) — PR 3
shipped it as one JSON file rewritten wholesale on every save; at large
cache sizes that rewrite dominated save time, so saves are now
**incremental upserts**: only entries the file does not already hold
are inserted (existing facts win; re-saves merely refresh a ``seq``
recency stamp that orders bounded warm starts), and SQLite's own
locking and
journaling provide the atomicity the JSON store had to build from
temp-file renames. Probe entries are plain ``key -> outcome`` rows, so
the store composes with the probe planner unchanged: with the planner
on, the keys are canonical ``(signature, params)`` strings and a
warm start serves every rendering of a probe from one row.

Planner-on and planner-off runs key probes differently (canonical
``(signature, params)`` strings vs raw SQL), which used to mean a store
written under one mode yielded no warm hits under the other — never
wrong answers, but a silently cold cache after a ``--probe-planner``
toggle. The store is therefore **dual-keyed**: at save time every
raw-SQL probe key is also written under its canonical twin
(:func:`~repro.sqlir.canon.probe_plan_key` over
:func:`~repro.sqlir.canon.canonicalize_probe`), and at load time
:meth:`~repro.core.verifier.SharedProbeCache.probe` falls back to the
canonical twin of a raw key when the store was seeded with canonical
entries. Either direction of the mode flip now warm-starts.

Design constraints, in order:

* **Correctness over reuse.** A store is only loaded when its recorded
  content hash matches the live database's — if the contents changed,
  every cached answer is suspect, so a stale hash invalidates the whole
  store (cold start). Loading is also corruption-safe: truncated,
  malformed, or non-SQLite files log a warning and fall back to a cold
  start; they never crash a run and never poison a cache.
* **Concurrent writers must not clobber.** Upserts never overwrite
  (probe answers are immutable facts), writes run in transactions under
  SQLite's file locking with a busy timeout, so two harness runs racing
  to save the same database lose at most the race, never each other's
  entries, and readers never observe a torn store.
* **Debuggability.** The store is a plain SQLite file, inspectable with
  the ``sqlite3`` shell (``probes``, ``minmax``, ``meta`` tables).

The store is wired up by :class:`repro.eval.harness.ProbeCacheRegistry`
(via ``SimulationConfig.cache_dir``) and the ``--cache-dir`` CLI flag;
hits on loaded entries surface as
``SearchTelemetry.warm_start_probe_hits`` and the ``WarmStart`` column
of ``repro.eval.reports.search_report``.
"""

from __future__ import annotations

import json
import logging
import os
import re
import sqlite3
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from ... import faults
from ...db.database import Database
from ...faults import RetryPolicy
from ...sqlir.ast import ColumnRef
from ...sqlir.canon import canonicalize_probe, probe_plan_key
from ..verifier import SharedProbeCache


def _is_lock_contention(exc: BaseException) -> bool:
    """True for the transient SQLite errors a concurrent writer causes."""
    text = str(exc)
    return "database is locked" in text or "database is busy" in text

logger = logging.getLogger(__name__)

#: Parsed store contents: probe answers and column min/max bounds.
StoreEntries = Tuple[Dict[str, bool], Dict[ColumnRef, Tuple]]

_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")

#: Separator that only canonical ``(signature, params)`` keys contain
#: (see :func:`repro.sqlir.canon.probe_plan_key`); raw SQL never does,
#: so its presence distinguishes the two key families.
_CANONICAL_MARK = "\x1f\x1f"


def _with_canonical_twins(probes: Dict[str, bool]) -> Dict[str, bool]:
    """``probes`` plus a canonical-key twin for every raw-SQL entry.

    Dual-keys the store (module docstring): a raw-SQL probe answer
    recorded by a planner-off run is also written under the canonical
    ``(signature, params)`` key a planner-on run would look up, so a
    warm ``--cache-dir`` survives a ``--probe-planner`` toggle. Existing
    canonical entries win (``setdefault``), and a key that cannot be
    canonicalised (unparsable SQL) is simply stored raw-only.
    """
    augmented: Dict[str, bool] = {}
    for key, outcome in probes.items():
        # Interleave each twin right after its raw key so the pair share
        # a recency position — the dict order becomes the store's ``seq``
        # order, which a bounded warm start truncates from the front.
        if key not in augmented:
            augmented[key] = outcome
        if _CANONICAL_MARK in key:
            continue
        try:
            twin = probe_plan_key(*canonicalize_probe(key))
        except Exception:
            continue
        augmented.setdefault(twin, outcome)
    return augmented

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)",
    "CREATE TABLE IF NOT EXISTS probes ("
    "  key TEXT PRIMARY KEY, outcome INTEGER NOT NULL,"
    "  seq INTEGER NOT NULL DEFAULT 0) WITHOUT ROWID",
    "CREATE TABLE IF NOT EXISTS minmax ("
    "  tbl TEXT NOT NULL, col TEXT NOT NULL,"
    "  low TEXT NOT NULL, high TEXT NOT NULL,"
    "  seq INTEGER NOT NULL DEFAULT 0,"
    "  PRIMARY KEY (tbl, col)) WITHOUT ROWID",
)


class PersistentProbeCache:
    """A directory of per-database probe-cache stores.

    Usage (what the eval harness does behind ``cache_dir``)::

        store = PersistentProbeCache("~/.cache/duoquest")
        cache, loaded = store.warm_cache(db)   # cold start if no file
        ...  # enumerate with Duoquest(db, probe_cache=cache)
        store.save(db, cache)                  # incremental upsert

    One SQLite file per database content hash; see the module docstring
    for the invalidation and concurrency contract.
    """

    #: Bump when the on-disk layout changes; older formats are treated
    #: as a cold start rather than migrated. Format 1 was the JSON
    #: store (different file extension, so it is simply never opened);
    #: format 2 lacked the ``seq`` recency stamp a bounded warm start
    #: truncates by.
    FORMAT = 3

    #: How long a writer waits on another writer's transaction (ms).
    BUSY_TIMEOUT_MS = 5_000

    #: Bounded backoff for lock contention beyond the busy timeout: a
    #: concurrent writer's transaction is short, so a couple of short
    #: retries usually cure it. Exhaustion falls back to the existing
    #: corruption-safe paths (cold start on load, skipped save on save)
    #: — never an exception out of the caller's ``finally``.
    RETRY_POLICY = RetryPolicy(attempts=3, base_delay=0.05, max_delay=0.5)

    def __init__(self, cache_dir) -> None:
        self.cache_dir = Path(cache_dir).expanduser()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, db: Database) -> Path:
        """The store file for ``db``'s current contents."""
        return self.path_for_key(db.schema.name, db.content_hash())

    def path_for_key(self, name: str, content_hash: str) -> Path:
        """The store file for a ``(schema name, content hash)`` pair.

        The keyed variant exists for save-after-death: the registry
        captures the pair while a :class:`Database` is alive, so a cache
        retired after the database was garbage-collected can still be
        persisted to the right store file.
        """
        safe = _SAFE_NAME.sub("_", name) or "db"
        return self.cache_dir / f"probes-{safe}-{content_hash[:16]}.sqlite"

    def _connect(self, path: Path) -> sqlite3.Connection:
        connection = sqlite3.connect(path)
        connection.execute(f"PRAGMA busy_timeout = {self.BUSY_TIMEOUT_MS}")
        return connection

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(self, db: Database) -> Optional[StoreEntries]:
        """Entries persisted for ``db``, or ``None`` for a cold start.

        ``None`` means "no usable store": the file is missing, written
        by a different format version, recorded for different database
        contents (stale hash), or unreadable/corrupt. The latter two log
        a warning; a run never fails because its cache file went bad.
        """
        path = self.path_for(db)
        if not path.exists():
            return None
        try:
            # Lock contention from a concurrent writer is transient and
            # must not cost a whole warm start: retry briefly before
            # falling back to the cold-start path below.
            return self.RETRY_POLICY.call(
                lambda: self._load_once(path, db),
                retryable=(sqlite3.OperationalError,),
                should_retry=_is_lock_contention,
                on_retry=self._on_locked_retry(path, "load"))
        except (sqlite3.Error, ValueError, TypeError, KeyError) as exc:
            faults.note_surfaced_failure(exc)
            logger.warning(
                "probe-cache store %s is malformed (%s); cold start",
                path, exc)
            return None

    def _on_locked_retry(self, path: Path, verb: str):
        def on_retry(exc: BaseException, delay: float) -> None:
            faults.note_absorbed_failure(exc)
            logger.warning(
                "probe-cache store %s is locked during %s (%s); "
                "retrying in %.2fs", path, verb, exc, delay)
        return on_retry

    def _load_once(self, path: Path, db: Database) -> Optional[StoreEntries]:
        injector = faults.ACTIVE
        if injector is not None:
            faults.fire_cachestore(injector, "cachestore.load")
        try:
            connection = self._connect(path)
        except sqlite3.Error as exc:  # pragma: no cover - open rarely fails
            logger.warning(
                "probe-cache store %s is unreadable (%s); cold start",
                path, exc)
            return None
        try:
            meta = dict(connection.execute(
                "SELECT key, value FROM meta"))
            if meta.get("format") != str(self.FORMAT):
                logger.warning(
                    "probe-cache store %s has format %r (expected %r); "
                    "cold start", path, meta.get("format"), self.FORMAT)
                return None
            if meta.get("content_hash") != db.content_hash():
                logger.warning(
                    "probe-cache store %s was recorded for different "
                    "database contents (stale hash); cold start", path)
                return None
            # Least-recent first: the returned dicts carry the recency
            # order in their insertion order, so a *bounded* cache
            # seeding from them keeps the most recently used entries
            # (``seed`` truncates from the front).
            probes = {str(key): bool(outcome) for key, outcome in
                      connection.execute(
                          "SELECT key, outcome FROM probes "
                          "ORDER BY seq, key")}
            minmax: Dict[ColumnRef, Tuple] = {}
            for table, column, low, high in connection.execute(
                    "SELECT tbl, col, low, high FROM minmax "
                    "ORDER BY seq, tbl, col"):
                minmax[ColumnRef(table=str(table), column=str(column))] = \
                    (json.loads(low), json.loads(high))
        finally:
            connection.close()
        return probes, minmax

    def warm_cache(self, db: Database,
                   max_entries: Optional[int] = None
                   ) -> Tuple[SharedProbeCache, int]:
        """A fresh cache for ``db``, warm-seeded from the store.

        Returns ``(cache, loaded)`` where ``loaded`` counts the entries
        seeded from disk (0 on a cold start). Seeded entries carry the
        warm-generation stamp, so hits on them are reported as
        ``warm_start_hits`` rather than within-run cross-task hits.

        With ``max_entries`` set the cache is created *bounded* (LRU
        eviction past the bound) and this store is attached as its
        eviction sink, so evicted non-warm entries flush back to disk
        instead of being lost — the bounded cache still warm-starts the
        next session. A store larger than the bound seeds the bound's
        worth of entries and drops the rest (they remain on disk).
        """
        cache = SharedProbeCache(max_entries=max_entries)
        if max_entries is not None:
            cache.set_eviction_sink(
                self.eviction_sink(db.schema.name, db.content_hash()))
        entries = self.load(db)
        if entries is None:
            return cache, 0
        probes, minmax = entries
        return cache, cache.seed(probes, minmax, warm=True)

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(self, db: Database, cache: SharedProbeCache) -> Optional[Path]:
        """Persist ``cache`` for ``db``; returns the path written.

        An incremental upsert: recorded *facts* are left alone (probe
        answers are immutable, so a concurrent writer's entries are
        kept, not clobbered — only the ``seq`` recency stamp refreshes)
        and only the delta grows the store, so save cost scales with
        the entries saved, not the store size. Returns ``None`` — with a logged warning —
        if the store cannot be written; a failed save never aborts the
        run that produced the cache.

        A bounded cache may hold evicted-but-unflushed entries; those
        are force-flushed first so a save is always complete.
        """
        cache.flush_evicted()
        probes, minmax = cache.export()
        return self.save_entries(db.schema.name, db.content_hash(),
                                 probes, minmax)

    def save_entries(self, name: str, content_hash: str,
                     probes: Dict[str, bool],
                     minmax: Dict[ColumnRef, Tuple]) -> Optional[Path]:
        """Persist raw entry dicts under a ``(name, content hash)`` key.

        The workhorse behind :meth:`save`, the eviction sink, and
        save-after-death retirement (when only the captured key pair,
        not the :class:`Database`, is still alive). Same incremental
        upsert and failure contract as :meth:`save`.
        """
        probes = _with_canonical_twins(probes)
        path = self.path_for_key(name, content_hash)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            try:
                # Lock contention from a concurrent writer is transient:
                # retry briefly under the shared policy before giving
                # the save up. The store is healthy throughout — an
                # exhausted budget fails this save, never deletes it.
                return self.RETRY_POLICY.call(
                    lambda: self._upsert(path, name, content_hash,
                                         probes, minmax),
                    retryable=(sqlite3.OperationalError,),
                    should_retry=_is_lock_contention,
                    on_retry=self._on_locked_retry(path, "save"))
            except sqlite3.OperationalError:
                # Still locked (or another operational failure): the
                # outer handler logs and skips this save.
                raise
            except sqlite3.DatabaseError as exc:
                # A corrupt / foreign file under the store's name: the
                # recorded answers are unreadable anyway, so recreate.
                faults.note_surfaced_failure(exc)
                logger.warning(
                    "probe-cache store %s is corrupt; recreating", path)
                os.unlink(path)
                return self._upsert(path, name, content_hash,
                                    probes, minmax)
        except (OSError, sqlite3.Error, TypeError, ValueError) as exc:
            faults.note_surfaced_failure(exc)
            logger.warning(
                "could not persist probe cache to %s (%s); continuing "
                "without", path, exc)
            return None

    def eviction_sink(self, name: str, content_hash: str
                      ) -> Callable[[Dict[str, bool],
                                     Dict[ColumnRef, Tuple]], int]:
        """A :meth:`SharedProbeCache.set_eviction_sink` hook for a key.

        The returned callable persists a batch of evicted entries via
        :meth:`save_entries` and reports how many it saved (0 when the
        store could not be written — the entries then cost a re-probe
        later, which is the documented bounded-mode trade).
        """
        def sink(probes: Dict[str, bool],
                 minmax: Dict[ColumnRef, Tuple]) -> int:
            written = self.save_entries(name, content_hash, probes, minmax)
            return len(probes) + len(minmax) if written is not None else 0
        return sink

    def _upsert(self, path: Path, name: str, content_hash: str,
                probes, minmax) -> Path:
        injector = faults.ACTIVE
        if injector is not None:
            faults.fire_cachestore(injector, "cachestore.save")
        connection = self._connect(path)
        try:
            with connection:  # one transaction: readers never see a torn store
                for statement in _SCHEMA:
                    connection.execute(statement)
                recorded = dict(connection.execute(
                    "SELECT key, value FROM meta"))
                if recorded and (recorded.get("format") != str(self.FORMAT)
                                 or recorded.get("content_hash")
                                 != content_hash):
                    # Same path, different recorded identity (tampered
                    # or foreign): its entries are not trustworthy
                    # facts of *this* database — start the store over.
                    connection.execute("DELETE FROM meta")
                    connection.execute("DELETE FROM probes")
                    connection.execute("DELETE FROM minmax")
                connection.executemany(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    [("format", str(self.FORMAT)),
                     ("schema", name),
                     ("content_hash", content_hash)])
                # One monotonic recency sequence shared by both tables:
                # each save stamps its entries after everything already
                # recorded, in the order the caller hands them over
                # (LRU order for a bounded cache's export). Facts are
                # never clobbered — on conflict only the recency stamp
                # is refreshed, so a re-saved hot entry migrates to the
                # warm end of the store.
                base = max(connection.execute(
                    "SELECT (SELECT COALESCE(MAX(seq), 0) FROM probes),"
                    "       (SELECT COALESCE(MAX(seq), 0) FROM minmax)"
                ).fetchone())
                connection.executemany(
                    "INSERT INTO probes (key, outcome, seq) "
                    "VALUES (?, ?, ?) "
                    "ON CONFLICT(key) DO UPDATE SET seq = excluded.seq",
                    [(key, int(outcome), base + offset)
                     for offset, (key, outcome)
                     in enumerate(probes.items(), start=1)])
                base += len(probes)
                connection.executemany(
                    "INSERT INTO minmax (tbl, col, low, high, seq) "
                    "VALUES (?, ?, ?, ?, ?) "
                    "ON CONFLICT(tbl, col) DO UPDATE "
                    "SET seq = excluded.seq",
                    [(ref.table, ref.column,
                      json.dumps(bounds[0]), json.dumps(bounds[1]),
                      base + offset)
                     for offset, (ref, bounds)
                     in enumerate(minmax.items(), start=1)])
        finally:
            connection.close()
        return path
