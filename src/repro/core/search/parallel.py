"""Parallel verification stage.

Verification dominates enumeration cost: every popped state pays a
cascade of checks, and the later stages execute probe SQL. One
mechanism runs a round's verifications:

* ``workers == 1`` runs them inline on the caller's thread
  (:class:`BaseVerificationPool`).
* ``workers > 1`` runs them on a :class:`WorkerPool`: a warm
  :class:`~concurrent.futures.ThreadPoolExecutor` for one database whose
  worker threads each own a :meth:`Database.from_snapshot` connection
  fork. SQLite releases the GIL while stepping statements, so the probe
  stages run truly in parallel; the CPU-bound stages (clauses,
  semantics, column types) still serialise on the GIL. The engine
  drives a :class:`PoolLease` per enumeration; the pool's threads and
  forks outlive the lease.

Worker pools are owned by a :class:`PoolManager` (one per database,
LRU-bounded), never by the engine: the daemon's manager, the manager of
a harness run's ``ServiceContext``, or a private manager the engine
opens and closes around a single enumeration when none is passed. So
there is one lifecycle, one degrade ladder, and one stat-fold protocol.

The contract that makes speculative batching safe: verification
outcomes are *returned*, not recorded. The engine records each outcome
into the primary verifier's stats exactly once, when the state is
consumed, so stats stay identical to the serial enumerator even under
speculative batching. Thread forks share the primary's probe cache and
planner directly; only database statement counters accrue on the forks,
and lease ``close()`` folds them back into the primary database.

Every failure degrades to inline verification on the caller's thread —
visibly: a warning is logged and the lease's ``degraded`` /
``degrade_reason`` attributes are set, which the engine surfaces as
``SearchTelemetry.snapshot_degraded``. An unsnapshottable database
marks its pool unavailable for good; a failed batch retires the pool
(the next lease respawns it) behind a :class:`RespawnBreaker`.

Pools are context managers and ``close()`` is idempotent; the engine
drives them via ``try``/``finally`` so worker connections and stats
are never leaked, even when an exception aborts the enumeration.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ... import faults
from ...db.database import Database
from ...errors import ExecutionError
from ..verifier import Verifier, VerifyResult
from ...sqlir.ast import Query

logger = logging.getLogger(__name__)

#: One verification job: (query to verify, treat_as_partial flag).
Job = Tuple[Query, bool]

#: Recognised verification backends (CLI/config validation).
VERIFY_BACKENDS = ("inline", "threads")


def _validated_workers(workers: int) -> int:
    """Reject non-positive worker counts instead of silently clamping."""
    count = int(workers)
    if count < 1:
        raise ValueError(
            f"workers must be a positive integer (got {workers!r}); "
            f"use workers=1 for inline verification")
    return count


def validate_verification_config(backend: str, workers: int) -> int:
    """Validate a (backend, workers) combination; returns the count.

    The single boundary check shared by :class:`EnumeratorConfig`,
    :meth:`PoolManager.lease`, and the CLI wiring, so the rules (and
    their error messages) cannot drift apart.
    """
    if backend not in VERIFY_BACKENDS:
        raise ValueError(f"unknown verify_backend {backend!r}; expected "
                         f"one of {VERIFY_BACKENDS}")
    workers = _validated_workers(workers)
    if backend == "inline" and workers != 1:
        raise ValueError(
            f"verify_backend='inline' runs on the caller's thread; "
            f"workers must be 1 (got {workers})")
    return workers


class BaseVerificationPool:
    """Inline verification on the caller's thread.

    The ``workers == 1`` pool, and the surface every pool shares with
    the engine: ``run``/``close``/``workers``/``degraded``/``reused``,
    the visible inline-degrade path, and the context-manager protocol
    around an idempotent ``close()``.
    """

    def __init__(self, verifier: Verifier, workers: int = 1):
        self.verifier = verifier
        self.workers = _validated_workers(workers)
        self.degraded = False
        self.degrade_reason = ""
        #: True when the pool attached to an already-warm worker pool
        #: (no executor spawn, no snapshot rehydration in the workers)
        self.reused = False
        self._closed = False

    def _degrade(self, reason: str) -> None:
        """Fall back to inline verification, visibly."""
        self.workers = 1
        self.degraded = True
        self.degrade_reason = reason
        logger.warning(
            "verification pool degraded to inline verification: %s",
            reason)

    def _prefetch(self, jobs: Sequence[Job]) -> None:
        """Hand the round to the probe planner before verifying it.

        With ``probe_planner="batch"`` the planner fuses the round's
        pending sibling probes into multi-probe statements and seeds
        the shared probe cache; with ``"fuse"`` it compiles each group
        into one single-scan aggregate statement, staged so the
        by-column answers land before any row probe is compiled. The
        cascade then finds its probes already answered. A no-op
        otherwise (no planner, or mode ``plan``).
        """
        planner = self.verifier.planner
        if planner is not None:
            planner.prefetch(self.verifier, jobs)

    def _run_inline(self, jobs: Sequence[Job]) -> List[VerifyResult]:
        self._prefetch(jobs)
        return [self.verifier.verify(query, treat_as_partial=partial,
                                     record=False)
                for query, partial in jobs]

    def run(self, jobs: Sequence[Job]) -> List[VerifyResult]:
        """Verify all jobs; results align positionally with ``jobs``."""
        if not jobs:
            return []
        return self._run_inline(jobs)

    def close(self) -> None:
        """Nothing to release inline. Idempotent."""
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


#: Lease tokens, unique per lease: a worker thread re-forks its
#: verifier when a batch from a new lease reaches it.
_LEASE_TOKENS = itertools.count(1)


class PoolLease(BaseVerificationPool):
    """One enumeration's view of a :class:`WorkerPool`.

    ``close()`` folds the forks' statement counters back into the
    primary database and retires the lease; the pool's threads (and
    their database forks) stay warm for the next enumeration.
    """

    def __init__(self, pool: "WorkerPool", verifier: Verifier,
                 reused: bool, degrade_reason: str = ""):
        super().__init__(verifier, pool.workers)
        #: the pool batches run on; None once the lease degraded (a
        #: retire folds the stats of batches that ran before it)
        self._pool: Optional[WorkerPool] = pool
        self.token = next(_LEASE_TOKENS)
        self.reused = reused
        if degrade_reason:
            self._pool = None
            self._degrade(degrade_reason)

    def run(self, jobs: Sequence[Job]) -> List[VerifyResult]:
        """Verify all jobs; results align positionally with ``jobs``."""
        if not jobs:
            return []
        pool = self._pool
        if pool is None or len(jobs) == 1:
            return self._run_inline(jobs)
        # Round batching runs on the primary connection before the
        # round is dispatched: fused answers land in the shared cache,
        # so worker threads mostly hit instead of probing individually.
        self._prefetch(jobs)
        try:
            results = pool.map(self, jobs)
        except Exception as exc:
            reason = f"worker batch failed: {exc}"
        else:
            if results is not None:
                return results
            reason = "pool retired by a concurrent lease"
        self._pool = None
        self._degrade(reason)
        # Rerun outside the except: if inline verification fails too,
        # that failure propagates (the engine surfaces it) instead of
        # being mistaken for a cured batch.
        return self._run_inline(jobs)

    def close(self) -> None:
        """Retire the lease, folding fork statement counters back into
        the primary database. The pool's threads stay warm. Idempotent."""
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.fold_stats()


class RespawnBreaker:
    """Circuit breaker over worker-pool respawns.

    Each :meth:`record` marks one pool retirement (a failed batch).
    ``threshold`` retirements inside ``window`` seconds trip the
    breaker: the pool marks itself unavailable, so later leases degrade
    to inline *visibly* instead of feeding a respawn storm.
    """

    def __init__(self, threshold: int = 3, window: float = 30.0,
                 clock=time.monotonic):
        self.threshold = max(1, int(threshold))
        self.window = float(window)
        self._clock = clock
        self._marks: List[float] = []
        self.retires = 0
        self.tripped = False

    def record(self) -> bool:
        """Record one retirement; True when the breaker (now) is open."""
        now = self._clock()
        self.retires += 1
        self._marks.append(now)
        horizon = now - self.window
        self._marks = [mark for mark in self._marks if mark >= horizon]
        if len(self._marks) >= self.threshold:
            self.tripped = True
        return self.tripped


class WorkerPool:
    """A warm :class:`~concurrent.futures.ThreadPoolExecutor` for one
    database, reused across enumerations.

    Per-thread :meth:`Database.from_snapshot` forks are rehydrated once
    and kept alive across leases; per-lease :class:`Verifier` forks are
    rebuilt lazily on each worker thread the first time a batch from a
    new lease arrives. Batches from concurrent leases are serialised by
    ``run_lock`` (the thread forks are shared mutable state), which also
    gives a daemon round-robin fairness across sessions of one database.
    """

    #: Respawn circuit breaker: this many retires within the window (s)
    #: mark the pool unavailable — leases then degrade inline visibly.
    BREAKER_THRESHOLD = 3
    BREAKER_WINDOW = 30.0

    def __init__(self, db: Database, workers: int):
        self.db = db
        self.workers = _validated_workers(workers)
        self.executor: Optional[ThreadPoolExecutor] = None
        #: times an executor was started
        self.spawns = 0
        self.leases = 0
        self.breaker = RespawnBreaker(self.BREAKER_THRESHOLD,
                                      self.BREAKER_WINDOW)
        #: nonempty once the database proved unsnapshottable — a
        #: db-level failure that cannot heal, so later leases degrade
        #: immediately instead of re-paying a doomed snapshot attempt
        self.unavailable_reason = ""
        self._payload: Optional[bytes] = None
        self._local = threading.local()
        self._fork_dbs: List[Database] = []
        #: id(fork db) -> stats snapshot at the last fold, so lease
        #: close() folds only the delta accrued since
        self._folded: Dict[int, object] = {}
        self._lock = threading.Lock()
        #: serialises batches, retires, and stat folds across leases
        self.run_lock = threading.Lock()

    # ------------------------------------------------------------------
    def lease(self, verifier: Verifier) -> PoolLease:
        """A pool view for one enumeration by ``verifier``. Degrades
        (visibly, via the lease) rather than raising."""
        self.leases += 1
        if self.unavailable_reason:
            return PoolLease(self, verifier, reused=False,
                             degrade_reason=self.unavailable_reason)
        reused = self.executor is not None
        if not reused:
            reason = self._start(verifier)
            if reason:
                return PoolLease(self, verifier, reused=False,
                                 degrade_reason=reason)
        return PoolLease(self, verifier, reused=reused)

    def _start(self, verifier: Verifier) -> str:
        """Snapshot the database and spawn the executor; '' on success."""
        try:
            self._payload = verifier.db.snapshot()
        except ExecutionError as exc:
            self.unavailable_reason = str(exc)
            return self.unavailable_reason
        self.executor = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-verify")
        self.spawns += 1
        return ""

    # ------------------------------------------------------------------
    def _thread_verifier(self, lease: PoolLease) -> Verifier:
        """The calling worker thread's verifier for ``lease``.

        The database fork persists for the lifetime of the executor;
        the verifier fork is swapped whenever a batch from a new lease
        reaches this thread.
        """
        local = self._local
        db = getattr(local, "db", None)
        if db is None:
            db = Database.from_snapshot(self.db.schema, self._payload)
            local.db = db
            with self._lock:
                self._fork_dbs.append(db)
                self._folded[id(db)] = db.stats.snapshot()
        if getattr(local, "token", None) != lease.token:
            local.verifier = lease.verifier.fork(db)
            local.token = lease.token
        return local.verifier

    def map(self, lease: PoolLease,
            jobs: Sequence[Job]) -> Optional[List[VerifyResult]]:
        """Verify ``jobs`` on the worker threads for ``lease``.

        Returns ``None`` when the pool was already retired (by a
        sibling lease's failed batch). A failed batch retires the pool
        and re-raises, so the lease degrades and reruns it inline.
        """

        def verify(job: Job) -> VerifyResult:
            injector = faults.ACTIVE
            if injector is not None:
                faults.fire_pool_worker(injector)
            query, treat_as_partial = job
            return self._thread_verifier(lease).verify(
                query, treat_as_partial=treat_as_partial, record=False)

        with self.run_lock:
            executor = self.executor
            if executor is None:
                return None
            try:
                return list(executor.map(verify, jobs))
            except Exception as exc:
                self.retire(f"worker batch failed: {exc}")
                raise

    def fold_stats(self) -> None:
        """Fold fork statement-counter deltas into the primary database
        (every lease's verifier runs on it: pools are keyed by it)."""
        with self.run_lock, self._lock:
            self._fold_locked()

    def _fold_locked(self) -> None:
        for db in self._fork_dbs:
            delta = db.stats.delta_since(self._folded[id(db)])
            self._folded[id(db)] = db.stats.snapshot()
            self.db.stats.absorb(delta)

    # ------------------------------------------------------------------
    def retire(self, reason: str) -> None:
        """Shut the executor down after a failure; the manager respawns
        a fresh one on the next lease. Idempotent: a second retire (or a
        retire racing close()) is a silent no-op."""
        executor, self.executor = self.executor, None
        if executor is None:
            return
        # Let in-flight jobs finish before their connections close.
        executor.shutdown(wait=True, cancel_futures=True)
        self._discard_forks()
        logger.warning("worker pool for %r retired: %s",
                       self.db.schema.name, reason)
        if self.breaker.record() and not self.unavailable_reason:
            self.unavailable_reason = (
                f"worker-respawn circuit breaker open: "
                f"{self.breaker.retires} retires within "
                f"{self.breaker.window:.0f}s (last: {reason})")
            logger.warning("worker pool for %r: %s",
                           self.db.schema.name, self.unavailable_reason)

    def close(self) -> None:
        """Shut the threads down and close their fork connections for
        good. Idempotent."""
        executor, self.executor = self.executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self._discard_forks()

    def _discard_forks(self) -> None:
        """Close the fork connections, folding their unfolded counters
        first, so a retire or close loses no statement stats."""
        with self._lock:
            self._fold_locked()
            dbs, self._fork_dbs = self._fork_dbs, []
            self._folded = {}
        self._local = threading.local()
        for db in dbs:
            try:
                db.close()
            except Exception:  # already closed / interpreter teardown
                pass


class PoolManager:
    """Registry of warm :class:`WorkerPool` objects, one per database.

    ``lease()`` is the single entry point and the policy boundary:
    single-worker configurations get an inline
    :class:`BaseVerificationPool` (counted as ``fallback_leases``), and
    multi-worker ones a :class:`PoolLease` over the database's warm (or
    newly spawned) pool, so callers need no policy of their own. Pools
    are evicted least-recently-used beyond ``max_pools`` to bound worker
    threads when sweeping many databases.
    """

    def __init__(self, max_pools: int = 8):
        if max_pools < 1:
            raise ValueError(f"max_pools must be >= 1 (got {max_pools})")
        self.max_pools = max_pools
        #: id(db) -> (db, pool); the strong db reference both keys the
        #: pool and prevents id() reuse while the entry lives
        self._pools: "OrderedDict[int, Tuple[Database, WorkerPool]]" = \
            OrderedDict()
        self._lock = threading.Lock()
        self.fallback_leases = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (leases run inline from then on)."""
        return self._closed

    @property
    def stats(self) -> Dict[str, int]:
        """Spawn/lease counters (the daemon's ``stats`` pool section)."""
        with self._lock:
            pools = [pool for _, pool in self._pools.values()]
            fallback = self.fallback_leases
        return {
            "pools": len(pools),
            "worker_spawns": sum(pool.spawns for pool in pools),
            "persistent_leases": sum(pool.leases for pool in pools),
            "fallback_leases": fallback,
            "pool_retires": sum(pool.breaker.retires for pool in pools),
            "breaker_trips": sum(1 for pool in pools
                                 if pool.breaker.tripped),
        }

    def lease(self, verifier: Verifier, backend: str = "threads",
              workers: int = 1) -> BaseVerificationPool:
        """A verification pool for one enumeration by ``verifier``.

        A closed manager still answers, with an inline pool that is
        visibly degraded when parallelism was asked for.
        """
        workers = validate_verification_config(backend, workers)
        if workers > 1 and not self._closed:
            return self._pool_for(verifier.db, workers).lease(verifier)
        with self._lock:
            self.fallback_leases += 1
        pool = BaseVerificationPool(verifier)
        if workers > 1:
            pool._degrade("pool manager is closed")
        return pool

    def _pool_for(self, db: Database, workers: int) -> WorkerPool:
        evicted: List[WorkerPool] = []
        key = id(db)
        with self._lock:
            entry = self._pools.get(key)
            if entry is not None and entry[1].workers == workers:
                self._pools.move_to_end(key)
                pool = entry[1]
            else:
                if entry is not None:  # same database, different width
                    evicted.append(self._pools.pop(key)[1])
                pool = WorkerPool(db, workers)
                self._pools[key] = (db, pool)
                while len(self._pools) > self.max_pools:
                    _, (_, old) = self._pools.popitem(last=False)
                    evicted.append(old)
        for old in evicted:
            old.close()
        return pool

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every managed pool down. Idempotent; later leases run
        inline."""
        with self._lock:
            pools, self._pools = list(self._pools.values()), OrderedDict()
            self._closed = True
        for _, pool in pools:
            pool.close()

    def __enter__(self) -> "PoolManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
