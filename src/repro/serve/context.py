"""Shared service state: probe caches, verification pools, guidance.

This module owns the amortisation layers that make repeated synthesis
cheap, extracted from the eval harness so that *every* driver — the
``run_*`` experiment functions, the CLI, and the synthesis daemon —
leases from the same machinery:

* **Probe-cache sharing** (:class:`ProbeCacheRegistry`): one
  :class:`~repro.core.verifier.SharedProbeCache` per database, shared by
  every enumeration in the scope, so later tasks (and later *sessions*)
  reuse earlier ones' probe answers. With ``cache_dir`` set, caches are
  additionally loaded from / saved to a disk store keyed by database
  content hash, so separate processes warm-start too.
* **Pool persistence** (:class:`~repro.core.search.PoolManager`):
  multi-worker enumerations lease warm verification threads from the
  context's pool manager (per-database sharding, LRU bounds) instead of
  spawning a pool per task.
* **Guidance sharing**: one batching guidance wrapper serves every
  enumeration in the scope, so its distribution cache amortises across
  tasks and sessions.

:class:`ServiceContext` bundles the three for one service scope — a
harness run, or a daemon lifetime. Neither layer changes results: probe
answers are facts of the database, verification outcomes fold back
identically, and the batching wrapper is stream-transparent, so the
candidate stream stays bit-for-bit equal to a cold inline run (locked
in by ``tests/core/test_search_equivalence.py``). Reuse is observable
only in telemetry (``warm_start_probe_hits``, ``cross_task_probe_hits``,
``pool_reused``) and in wall time.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Dict, List, Optional
from collections import OrderedDict

from ..core.search import PersistentProbeCache, PoolManager
from ..core.verifier import SharedProbeCache
from ..db.database import Database
from ..guidance.base import GuidanceModel
from ..guidance.batched import close_guidance


class _CacheEntry:
    """Registry bookkeeping for one database's probe cache.

    Holds a *weak* reference to the database — the registry must never
    be what keeps a retired :class:`Database` (and its connection)
    alive — plus the ``(schema name, content hash)`` pair captured at
    creation, so the cache can still be persisted to the right store
    file after the database has been garbage-collected.
    """

    __slots__ = ("ref", "cache", "refs", "store_name", "store_hash")

    def __init__(self, ref: "weakref.ref[Database]",
                 cache: SharedProbeCache,
                 store_name: Optional[str] = None,
                 store_hash: Optional[str] = None):
        self.ref = ref
        self.cache = cache
        #: live leases (``acquire`` minus ``release``); an entry with
        #: leases is never evicted by the database LRU bound
        self.refs = 0
        self.store_name = store_name
        self.store_hash = store_hash

    def label(self, key: int) -> str:
        """A stable human-readable name for stats reporting."""
        if self.store_name is not None:
            return f"{self.store_name}@{(self.store_hash or '')[:8]}"
        db = self.ref()
        return db.schema.name if db is not None else f"db-{key}"


class ProbeCacheRegistry:
    """One :class:`SharedProbeCache` per database, owned by a scope.

    Probe answers depend only on the database contents, not on the task
    or TSQ, so every enumeration over the same database can share one
    cache. The registry keys by database identity (the live object, not
    the schema name — two databases may share a schema but hold
    different rows) and hands ``None`` out when sharing is disabled, so
    callers can pass the result straight to ``Duoquest(probe_cache=…)``.

    With ``cache_dir`` set the registry also fronts a
    :class:`~repro.core.search.PersistentProbeCache` store: new caches
    are warm-seeded from disk (stale-hash and corruption checks happen
    in the store, falling back to a cold start) and :meth:`save`
    persists every cache back at the end of a run. Persistence requires
    sharing — with ``enabled=False`` there is no per-database cache to
    persist, so ``cache_dir`` is ignored.

    **Lifecycle.** Entries hold their database weakly: when a database
    is garbage-collected, its cache is retired — persisted to the store
    (save-on-retire) and dropped — on the next registry operation.
    Callers with a scoped lease (a daemon session, a harness run) use
    :meth:`acquire`/:meth:`release` so the ``max_databases`` LRU bound
    (mirroring ``PoolManager.max_pools``) never evicts a cache mid-use;
    zero-lease caches stay warm until the bound or :meth:`close` retires
    them. ``max_entries`` additionally bounds each cache's own entry
    count (see :class:`SharedProbeCache` bounded mode). Both bounds
    default to ``None`` — unbounded, the seed behaviour.
    """

    def __init__(self, enabled: bool = True,
                 cache_dir: Optional[str] = None, *,
                 max_entries: Optional[int] = None,
                 max_databases: Optional[int] = None):
        if max_databases is not None and max_databases < 1:
            raise ValueError("max_databases must be a positive integer")
        self.enabled = enabled
        self.store = (PersistentProbeCache(cache_dir)
                      if enabled and cache_dir else None)
        self.max_entries = max_entries
        self.max_databases = max_databases
        #: entries warm-seeded from disk across all databases (0 on a
        #: cold start or without a store)
        self.warm_entries_loaded = 0
        #: caches retired so far (collision, GC, LRU bound, close)
        self.caches_retired = 0
        #: recency-ordered live entries, keyed by ``id(db)``
        self._caches: "OrderedDict[int, _CacheEntry]" = OrderedDict()
        #: keys whose database died, appended by weakref callbacks —
        #: list.append is atomic and takes no lock, so a callback firing
        #: from a GC inside a locked region cannot deadlock; the actual
        #: retirement happens lazily in :meth:`_reap`
        self._dead: List[int] = []
        #: counter history absorbed from retired caches, so retirement
        #: never makes :meth:`counters` go backwards (a soak's
        #: ``warm_start_probe_hits`` / ``evicted_flushed`` must survive
        #: the caches that earned them)
        self._retired_totals: Dict[str, int] = {
            "probe_hits": 0, "probe_misses": 0,
            "cross_task_probe_hits": 0, "warm_start_probe_hits": 0,
            "probe_cache_evictions": 0, "evicted_flushed": 0,
        }
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle plumbing
    # ------------------------------------------------------------------
    def _death_callback(self, key: int) -> Callable[[object], None]:
        dead = self._dead  # bind the list, not self: no resurrection

        def _note(_ref: object, _key: int = key) -> None:
            dead.append(_key)
        return _note

    def _reap(self) -> None:
        """Retire entries whose database has been garbage-collected."""
        if not self._dead:
            return
        retired: List[_CacheEntry] = []
        with self._lock:
            while self._dead:
                key = self._dead.pop()
                entry = self._caches.get(key)
                # Only retire if the slot still belongs to the dead
                # database — a new Database may have reused the id.
                if entry is not None and entry.ref() is None:
                    del self._caches[key]
                    self.caches_retired += 1
                    retired.append(entry)
        self._retire_entries(retired)

    def _persist_entry(self, entry: _CacheEntry) -> bool:
        """Save one retired/live entry to the store (outside the lock)."""
        if self.store is None or entry.store_name is None \
                or entry.store_hash is None:
            return False
        cache = entry.cache
        cache.flush_evicted()
        probes, minmax = cache.export()
        return self.store.save_entries(
            entry.store_name, entry.store_hash, probes, minmax) is not None

    def _retire_entries(self, entries: List[_CacheEntry]) -> int:
        """Persist entries leaving the registry and absorb their
        counter history (outside the lock; persist first, so the forced
        eviction flush is counted). Only for entries already popped
        from ``_caches`` — absorbing a live cache would double-count."""
        saved = 0
        for entry in entries:
            saved += bool(self._persist_entry(entry))
            cache = entry.cache
            with self._lock:
                totals = self._retired_totals
                totals["probe_hits"] += cache.hits
                totals["probe_misses"] += cache.misses
                totals["cross_task_probe_hits"] += cache.cross_task_hits
                totals["warm_start_probe_hits"] += cache.warm_start_hits
                totals["probe_cache_evictions"] += cache.evictions
                totals["evicted_flushed"] += cache.evicted_flushed
        return saved

    def _fresh_entry_locked(self, db: Database) -> _CacheEntry:
        key = id(db)
        if self.store is not None:
            name, content_hash = db.schema.name, db.content_hash()
            cache, loaded = self.store.warm_cache(
                db, max_entries=self.max_entries)
            self.warm_entries_loaded += loaded
            return _CacheEntry(
                weakref.ref(db, self._death_callback(key)), cache,
                store_name=name, store_hash=content_hash)
        cache = SharedProbeCache(max_entries=self.max_entries)
        return _CacheEntry(weakref.ref(db, self._death_callback(key)),
                           cache)

    def _evict_over_bound_locked(
            self, protect: Optional[int] = None) -> List[_CacheEntry]:
        """Pop LRU zero-lease entries past ``max_databases`` (lock held).

        Returns the popped entries for the caller to persist outside
        the lock. Entries with live leases are never evicted — when
        everything is in use the bound yields, matching the pool
        manager's contract that an eviction never closes a leased pool.
        """
        evicted: List[_CacheEntry] = []
        if self.max_databases is None:
            return evicted
        while len(self._caches) > self.max_databases:
            victim = None
            for key, entry in self._caches.items():  # oldest first
                if key == protect:
                    # The entry being handed out right now: the caller's
                    # lease lands only after the lock drops, so without
                    # this it would be a zero-ref "victim" of its own
                    # creation.
                    continue
                if entry.refs <= 0:
                    victim = key
                    break
            if victim is None:
                break
            evicted.append(self._caches.pop(victim))
            self.caches_retired += 1
        return evicted

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def cache_for(self, db: Database) -> Optional[SharedProbeCache]:
        """The shared cache for ``db`` (created, and warm-loaded when a
        store is configured, on first use); ``None`` when disabled."""
        if not self.enabled:
            return None
        self._reap()
        displaced: List[_CacheEntry] = []
        with self._lock:
            entry = self._caches.get(id(db))
            if entry is not None and entry.ref() is db:
                self._caches.move_to_end(id(db))
                return entry.cache
            if entry is not None:
                # id(db) reused by a different Database: the displaced
                # cache still holds probe answers a warm start should
                # keep, so persist it before replacing.
                del self._caches[id(db)]
                self.caches_retired += 1
                displaced.append(entry)
            entry = self._fresh_entry_locked(db)
            self._caches[id(db)] = entry
            displaced.extend(self._evict_over_bound_locked(
                protect=id(db)))
        self._retire_entries(displaced)
        return entry.cache

    def acquire(self, db: Database) -> Optional[SharedProbeCache]:
        """:meth:`cache_for` plus a lease pinning the entry in memory.

        Pair every ``acquire`` with exactly one :meth:`release` (daemon
        sessions do this through ``SessionCore`` teardown); the LRU
        database bound only evicts entries with no outstanding leases.
        """
        cache = self.cache_for(db)
        if cache is None:
            return None
        with self._lock:
            entry = self._caches.get(id(db))
            if entry is not None and entry.ref() is db:
                entry.refs += 1
        return cache

    def release(self, db: Database) -> None:
        """Drop one lease on ``db``'s cache.

        The cache stays warm for future sessions; releasing merely makes
        it *evictable* by the ``max_databases`` bound (enforced here, so
        a bound held open by in-use entries catches up on release).
        Unknown databases are ignored — release is safe in ``finally``
        blocks that may run before the first ``acquire``.
        """
        retired: List[_CacheEntry] = []
        with self._lock:
            entry = self._caches.get(id(db))
            if entry is None or entry.ref() is not db:
                return
            entry.refs = max(0, entry.refs - 1)
            if entry.refs == 0:
                retired.extend(self._evict_over_bound_locked())
        self._retire_entries(retired)
        self._reap()

    def save(self) -> int:
        """Persist every live cache to the store; returns files written.

        A no-op (returning 0) without a configured store. Runs in the
        scope's ``finally`` blocks, so probes answered before an
        aborted run still warm-start the next one. Caches stay live.
        """
        if self.store is None:
            return 0
        with self._lock:
            entries = list(self._caches.values())
        return sum(1 for entry in entries if self._persist_entry(entry))

    def close(self) -> int:
        """Retire every entry: persist to the store, then drop.

        The scope is over — sessions ended, the daemon is shutting
        down — so nothing should pin databases or their caches in
        memory. Returns the number of store files written; idempotent.
        """
        with self._lock:
            entries = list(self._caches.values())
            self.caches_retired += len(self._caches)
            self._caches.clear()
            self._dead.clear()
        return self._retire_entries(entries)

    def sizes(self) -> Dict[str, int]:
        """Per-database live entry counts (the bound-watching view)."""
        with self._lock:
            entries = list(self._caches.items())
        return {entry.label(key): len(entry.cache)
                for key, entry in entries}

    def counters(self) -> Dict[str, int]:
        """Aggregate hit/miss/eviction counters across the scope.

        Cumulative counters sum the live caches *plus* the history
        absorbed from retired ones, so retirement never makes them go
        backwards; ``probe_cache_entries`` / ``probe_cache_bytes`` are
        levels over the live caches only (the bound-watching view).
        """
        self._reap()
        with self._lock:
            caches = [entry.cache for entry in self._caches.values()]
            totals = dict(self._retired_totals)
        return {
            "databases": len(caches),
            "probe_hits": totals["probe_hits"]
            + sum(c.hits for c in caches),
            "probe_misses": totals["probe_misses"]
            + sum(c.misses for c in caches),
            "cross_task_probe_hits": totals["cross_task_probe_hits"]
            + sum(c.cross_task_hits for c in caches),
            "warm_start_probe_hits": totals["warm_start_probe_hits"]
            + sum(c.warm_start_hits for c in caches),
            "warm_entries_loaded": self.warm_entries_loaded,
            "probe_cache_entries": sum(len(c) for c in caches),
            "probe_cache_evictions": totals["probe_cache_evictions"]
            + sum(c.evictions for c in caches),
            "evicted_flushed": totals["evicted_flushed"]
            + sum(c.evicted_flushed for c in caches),
            "probe_cache_bytes": sum(c.approx_bytes() for c in caches),
            "caches_retired": self.caches_retired,
        }


class ServiceContext:
    """The amortisation state one synthesis service scope shares.

    Bundles a :class:`ProbeCacheRegistry`, a
    :class:`~repro.core.search.PoolManager`, and (optionally) one
    shared guidance model — a harness run, or a daemon lifetime. The
    context owns all three: :meth:`close` retires the caches, shuts
    every warm pool down, and releases the guidance model via
    :func:`~repro.guidance.batched.close_guidance` (a no-op for plain
    models, socket close for server-backed ones).
    """

    def __init__(self, guidance: Optional[GuidanceModel] = None, *,
                 share_probe_cache: bool = True,
                 cache_dir: Optional[str] = None,
                 probe_cache_entries: Optional[int] = None,
                 max_databases: Optional[int] = None):
        self.caches = ProbeCacheRegistry(enabled=share_probe_cache,
                                         cache_dir=cache_dir,
                                         max_entries=probe_cache_entries,
                                         max_databases=max_databases)
        self.pool_manager = PoolManager()
        self.guidance = guidance
        self.closed = False

    # ------------------------------------------------------------------
    def probe_cache_for(self, db: Database) -> Optional[SharedProbeCache]:
        return self.caches.cache_for(db)

    def stats(self) -> Dict[str, object]:
        """Live amortisation snapshot (the daemon's ``stats`` verb)."""
        snapshot: Dict[str, object] = dict(self.pool_manager.stats)
        snapshot.update(self.caches.counters())
        snapshot["probe_cache_sizes"] = self.caches.sizes()
        return snapshot

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Retire caches, release guidance, and close the pools.

        Idempotent; safe in ``finally`` blocks. Cache retirement — a
        store flush followed by dropping the in-memory entries, so a
        closed context pins no databases — happens first so probe
        answers survive even if pool teardown raises.
        """
        if self.closed:
            return
        self.closed = True
        try:
            self.caches.close()
        finally:
            try:
                if self.guidance is not None:
                    close_guidance(self.guidance)
            finally:
                self.pool_manager.close()

    def __enter__(self) -> "ServiceContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
