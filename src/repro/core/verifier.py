"""Ascending-cost cascading verification (Algorithm 3 of the paper).

Verification stages are ordered by cost: checks that need no database
access run first (clauses, semantics, column types), then column-wise
probes (cheap ``SELECT 1 ... LIMIT 1`` queries on single tables), then
row-wise probes (probes retaining the candidate's FROM/WHERE/GROUP BY),
and finally — for complete queries only — literal coverage and the full
satisfaction check of Definition 2.4 including order verification.

Probe results are memoised across candidates, since sibling partial
queries repeat most probes.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..db.database import Database
from ..db.schema import Schema
from ..errors import ExecutionError, ExecutionTimeout
from ..faults import ensure_installed as _ensure_faults_installed
from ..faults import is_transient as _is_transient_failure
from ..nlq.literals import Literal
from ..sqlir.ast import (
    AggOp,
    ColumnRef,
    CompOp,
    Hole,
    JoinPath,
    LogicOp,
    Predicate,
    Query,
    SelectItem,
    Where,
)
from ..sqlir.canon import canonicalize_probe, normalize_value, probe_plan_key
from ..sqlir.render import (
    alias_map,
    quote_ident,
    quote_literal,
    render_from,
    render_predicate,
    to_sql,
)
from ..sqlir.types import ColumnType, Value, coerce_value
from .semantics import RuleSet
from .tsq import Cell, EmptyCell, ExactCell, RangeCell, TableSketchQuery

#: Stage names, in cascade order (used in stats and failure reports).
STAGE_CLAUSES = "clauses"
STAGE_SEMANTICS = "semantics"
STAGE_COLUMN_TYPES = "column_types"
STAGE_BY_COLUMN = "by_column"
STAGE_BY_ROW = "by_row"
STAGE_LITERALS = "literals"
STAGE_FULL = "full_satisfaction"

ALL_STAGES = (STAGE_CLAUSES, STAGE_SEMANTICS, STAGE_COLUMN_TYPES,
              STAGE_BY_COLUMN, STAGE_BY_ROW, STAGE_LITERALS, STAGE_FULL)


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one Verify call."""

    ok: bool
    failed_stage: Optional[str] = None
    detail: str = ""
    #: True when a probe or the full check hit its execution budget
    #: while verifying this candidate. The flag never changes ``ok`` by
    #: itself (a timed-out probe draws no conclusion, so the candidate
    #: stays alive); it is the signal the cost-order abort cascade
    #: propagates to costlier siblings.
    timed_out: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


PASS = VerifyResult(ok=True)


@dataclass
class VerifierConfig:
    """Stage toggles (for the ablations of Section 5.4.3) and limits."""

    check_semantics: bool = True
    verify_partial: bool = True  # False reproduces the NoPQ ablation
    max_result_rows: int = 5000
    enforce_literal_use: bool = True
    #: Budget for executing one complete candidate during the full
    #: satisfaction check; candidates that blow the budget (typically
    #: runaway join paths) are rejected. Counted in SQLite work, not
    #: wall time (see :meth:`repro.db.database.Database.interruptible`),
    #: so the verdict never depends on thread contention.
    execution_budget_ms: int = 250
    #: Probe-planner mode ("off", "plan", "batch", or "fuse" — see
    #: :mod:`repro.core.search.planner`).
    probe_planner: str = "off"
    #: Budget for executing one probe statement, counted in SQLite work
    #: like ``execution_budget_ms``; ``None`` (the seed behaviour)
    #: leaves probes uncapped. A timed-out probe draws no conclusion —
    #: the candidate stays alive — but stamps ``timed_out`` on the
    #: :class:`VerifyResult`, which is what the cost-order abort
    #: cascade keys on.
    probe_timeout_ms: Optional[int] = None
    #: Cost-order mode ("off", "order", or "abort" — see
    #: :mod:`repro.core.search.costmodel`).
    cost_order: str = "off"
    #: Deterministic fault-injection plan spec (see :mod:`repro.faults`),
    #: or ``None`` for production behaviour.
    fault_plan: Optional[str] = None


@dataclass(frozen=True)
class PendingProbes:
    """One candidate's probe workload, split by cascade stage.

    Produced by :meth:`Verifier.pending_probe_stages` for the planner's
    staged ``fuse`` prefetch: ``column_probes`` are the by-column
    existence probes, ``avg_columns`` the columns whose MIN/MAX bounds
    the AVG range checks will need, and ``row_probes`` a lazy thunk
    compiling the (strictly costlier) row-stage probes — invoked only
    for candidates the fused column-stage answers did not refute.
    """

    column_probes: Tuple[str, ...]
    avg_columns: Tuple["ColumnRef", ...]
    row_probes: Callable[[], Tuple[str, ...]]


class SharedProbeCache:
    """Thread-safe memo for probe and min/max queries.

    Lifted out of :class:`Verifier` so one cache can back many verifier
    instances at once — the per-thread verifier forks of the parallel
    search engine, and (via the eval harness) every enumeration over the
    same database, where sibling partial queries and sibling *tasks*
    repeat most probes. Lookups and stores take a lock; the probe itself
    runs outside it, so two workers may race to compute the same
    (idempotent) entry, which costs one redundant probe but never
    corrupts the cache.

    Entries are stamped with a *task generation*: callers (the search
    engine) bump :meth:`begin_task` once per enumeration, and a hit on
    an entry written by an earlier generation is counted separately as a
    cross-task hit, which is how the harness-level cache reuse shows up
    in telemetry. :meth:`export`/:meth:`seed` copy entries out and in,
    which is how the disk store persists and warm-starts a cache.

    Entries seeded from a *persisted* store (an earlier process, via
    ``seed(..., warm=True)``) carry the sentinel :data:`WARM_GENERATION`
    stamp; hits on them increment ``warm_start_hits`` instead of
    ``cross_task_hits``, so telemetry can distinguish reuse within a
    harness run from disk-backed warm starts across runs.

    **Bounded mode.** By default the cache grows without bound — probe
    answers are facts of the database, and a short-lived harness run
    wants every one of them. A long-lived service does not: pass
    ``max_entries`` to cap the total probe + minmax entry count with LRU
    eviction (hits refresh recency). Eviction is *persistence-aware*:
    with an eviction sink attached (:meth:`set_eviction_sink`, wired to
    the :class:`~repro.core.search.PersistentProbeCache` store), evicted
    entries are buffered and flushed to disk in batches, so a bounded
    in-memory cache still warm-starts later sessions from the store.
    Warm-generation entries came *from* disk, so their eviction drops
    them silently — nothing is lost. Bounded mode never changes answers
    (an evicted entry merely costs a re-probe); only memory and the
    ``evictions`` / ``evicted_flushed`` counters differ from unbounded
    runs.
    """

    #: Generation stamp for entries loaded from a persisted cache store
    #: (an earlier *process*); disjoint from real task generations, which
    #: start at 0.
    WARM_GENERATION = -1

    #: Evicted-entry buffer size that triggers an opportunistic flush to
    #: the eviction sink (forced flushes drain any remainder).
    FLUSH_BATCH = 256

    #: Rough per-entry dict/bookkeeping overhead for
    #: :meth:`approx_bytes` (two dict slots, a generation int, LRU slot).
    _ENTRY_OVERHEAD = 120

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be a positive integer")
        self._probes: Dict[str, bool] = {}
        self._minmax: Dict[ColumnRef, Tuple[Optional[Value],
                                            Optional[Value]]] = {}
        #: entry key -> task generation that wrote it
        self._probe_gen: Dict[str, int] = {}
        self._minmax_gen: Dict[ColumnRef, int] = {}
        self._generation = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: hits on entries written by an earlier task generation
        self.cross_task_hits = 0
        #: hits on entries loaded from a persisted store (earlier process)
        self.warm_start_hits = 0
        #: LRU bound on total probe + minmax entries (None = unbounded)
        self.max_entries = max_entries
        #: entries dropped to stay under ``max_entries``
        self.evictions = 0
        #: evicted entries persisted through the eviction sink
        self.evicted_flushed = 0
        #: recency order over live entries; maintained only in bounded
        #: mode (key -> "probe" | "minmax"; str and ColumnRef keys never
        #: collide, so one ordered map covers both tables)
        self._lru: "OrderedDict[object, str]" = OrderedDict()
        #: persistence hook for evicted entries: called *outside* the
        #: cache lock with (probes, minmax) dicts, returns entries saved
        self._eviction_sink: Optional[
            Callable[[Dict[str, bool], Dict[ColumnRef, Tuple]], int]] = None
        self._evicted_probes: Dict[str, bool] = {}
        self._evicted_minmax: Dict[ColumnRef, Tuple] = {}
        #: key -> Event for probes currently executing, or None when
        #: single-flight dedup is off (see :meth:`enable_single_flight`)
        self._inflight: Optional[Dict[str, threading.Event]] = None
        #: True once a warm seed loaded canonical ``(signature, params)``
        #: keys — raw-SQL lookups then fall back to their canonical twin
        #: (see :meth:`probe`), so a store persisted under a planner mode
        #: still warm-starts a planner-off run.
        self._canonical_fallback = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._probes) + len(self._minmax)

    def approx_bytes(self) -> int:
        """Rough in-memory footprint of the cached entries.

        Sums the probe keys' string sizes plus a fixed per-entry
        bookkeeping overhead — an estimate for load monitoring (the
        daemon's ``stats`` verb), not an exact accounting.
        """
        with self._lock:
            total = 0
            for sql in self._probes:
                total += sys.getsizeof(sql) + self._ENTRY_OVERHEAD
            total += len(self._minmax) * (self._ENTRY_OVERHEAD + 160)
            return total

    # ------------------------------------------------------------------
    # Bounded mode (LRU accounting, eviction, persistence-aware flush)
    # ------------------------------------------------------------------
    def set_eviction_sink(
            self, sink: Optional[Callable[[Dict[str, bool],
                                           Dict[ColumnRef, Tuple]],
                                          int]]) -> None:
        """Attach a persistence hook for evicted entries.

        ``sink(probes, minmax)`` is invoked outside the cache lock with
        the batched evicted entries and returns how many it saved
        (0 on a failed save — the entries are then simply lost to a
        re-probe, never to a crash). Without a sink, evicted entries are
        dropped outright.
        """
        with self._lock:
            self._eviction_sink = sink

    def _touch_locked(self, key: object, kind: str) -> None:
        """Refresh ``key``'s recency (bounded mode only; lock held)."""
        if self.max_entries is None:
            return
        if key in self._lru:
            self._lru.move_to_end(key)
        else:
            self._lru[key] = kind

    def _evict_over_bound_locked(self) -> None:
        """Drop LRU entries until the bound holds (lock held).

        Non-warm evictions are moved to the flush buffers when a sink is
        attached; warm-generation entries already live on disk, so they
        are dropped silently.
        """
        if self.max_entries is None:
            return
        while (len(self._probes) + len(self._minmax) > self.max_entries
               and self._lru):
            key, kind = self._lru.popitem(last=False)
            if kind == "probe":
                if key not in self._probes:
                    continue
                outcome = self._probes.pop(key)
                generation = self._probe_gen.pop(key, None)
                self.evictions += 1
                if (self._eviction_sink is not None
                        and generation != self.WARM_GENERATION):
                    self._evicted_probes[key] = outcome
            else:
                if key not in self._minmax:
                    continue
                bounds = self._minmax.pop(key)
                generation = self._minmax_gen.pop(key, None)
                self.evictions += 1
                if (self._eviction_sink is not None
                        and generation != self.WARM_GENERATION):
                    self._evicted_minmax[key] = bounds

    def _maybe_flush_evicted(self, force: bool = False) -> int:
        """Persist buffered evictions through the sink; returns count.

        Runs the sink *outside* the lock (it does SQLite writes); a
        non-forced call waits for :data:`FLUSH_BATCH` buffered entries
        so steady-state eviction amortises the store transaction cost.
        """
        sink = self._eviction_sink
        if sink is None:
            return 0
        if (not force and len(self._evicted_probes)
                + len(self._evicted_minmax) < self.FLUSH_BATCH):
            # Unsynchronised size peek: worst case we defer one batch by
            # one insert, which the next (or a forced) flush picks up.
            return 0
        with self._lock:
            pending = len(self._evicted_probes) + len(self._evicted_minmax)
            if not pending or (not force and pending < self.FLUSH_BATCH):
                return 0
            probes, self._evicted_probes = self._evicted_probes, {}
            minmax, self._evicted_minmax = self._evicted_minmax, {}
        flushed = sink(probes, minmax)
        with self._lock:
            self.evicted_flushed += flushed
        return flushed

    def flush_evicted(self) -> int:
        """Force-persist any buffered evicted entries (scope teardown)."""
        return self._maybe_flush_evicted(force=True)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Task generations (cross-task reuse accounting)
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self._generation

    def begin_task(self) -> int:
        """Start a new task generation; returns the new generation.

        Entries already cached belong to earlier generations, so hits on
        them from now on are counted as ``cross_task_hits``.
        """
        with self._lock:
            self._generation += 1
            return self._generation

    # ------------------------------------------------------------------
    # Persistence support (export / seed)
    # ------------------------------------------------------------------
    def export(self) -> Tuple[Dict[str, bool], Dict[ColumnRef, Tuple]]:
        """Copies of the cached entries, as ``(probes, minmax)``.

        A *bounded* cache exports in LRU order (least recently used
        first): dict insertion order is the only recency channel that
        survives export → store → seed, and a bounded re-seed truncates
        from the front — so the hottest entries are the ones a bounded
        warm start keeps.
        """
        with self._lock:
            if self.max_entries is not None:
                probes: Dict[str, bool] = {}
                minmax: Dict[ColumnRef, Tuple] = {}
                for key, kind in self._lru.items():
                    if kind == "probe":
                        probes[key] = self._probes[key]
                    else:
                        minmax[key] = self._minmax[key]
                return probes, minmax
            return dict(self._probes), dict(self._minmax)

    def seed(self, probes: Dict[str, bool],
             minmax: Dict[ColumnRef, Tuple],
             warm: bool = False) -> int:
        """Pre-populate entries; returns the number actually inserted.

        Entries are stamped with the current generation, or with the
        :data:`WARM_GENERATION` stamp when ``warm=True`` — used when
        loading a persisted store, so hits on them count as warm-start
        hits.
        Already-present entries are never overwritten (probe answers are
        facts of the database, so re-seeding is idempotent).
        """
        generation = self.WARM_GENERATION if warm else self._generation
        inserted = 0
        with self._lock:
            for sql, outcome in probes.items():
                if sql not in self._probes:
                    self._probes[sql] = outcome
                    self._probe_gen[sql] = generation
                    self._touch_locked(sql, "probe")
                    inserted += 1
                    if warm and "\x1f\x1f" in sql:
                        # The persisted store was written under a planner
                        # mode (canonical keys); arm the raw-key fallback
                        # so a planner-off run still gets its warm hits.
                        self._canonical_fallback = True
            for column, bounds in minmax.items():
                if column not in self._minmax:
                    self._minmax[column] = bounds
                    self._minmax_gen[column] = generation
                    self._touch_locked(column, "minmax")
                    inserted += 1
            self._evict_over_bound_locked()
        self._maybe_flush_evicted()
        return inserted

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def enable_single_flight(self) -> None:
        """Deduplicate concurrent identical probes (cost-order modes).

        Once enabled, the first worker to request an uncached key
        becomes its *leader* and executes the probe; concurrent
        requesters for the same key wait on the leader's event instead
        of racing to execute a duplicate. This pins the executed-probe
        count to the number of distinct keys, the invariant behind the
        cost-order "never more probes than serial" contract. Off by
        default: the race costs at most one redundant (idempotent)
        probe per collision, and the seed stream's statement counts are
        pinned bit-for-bit by the equivalence tests.
        """
        with self._lock:
            if self._inflight is None:
                self._inflight = {}

    def probe(self, db: Database, sql: str) -> bool:
        """Answer a raw-SQL probe, keyed by its text (planner off)."""
        if self._canonical_fallback:
            with self._lock:
                if sql not in self._probes:
                    try:
                        twin = probe_plan_key(*canonicalize_probe(sql))
                    except Exception:
                        twin = None
                    if twin is not None and twin in self._probes:
                        # Alias the raw key to its canonical twin's
                        # answer so planner-off runs hit entries a
                        # planner-mode run persisted. The store
                        # re-derives twins at save time.
                        self._probes[sql] = self._probes[twin]
                        self._probe_gen[sql] = self._probe_gen[twin]
                        self._touch_locked(sql, "probe")
                        self._evict_over_bound_locked()
        return self.probe_keyed(db, sql, sql)

    def probe_keyed(self, db: Database, key: str, sql: str,
                    params: Sequence[Value] = ()) -> bool:
        """Answer a probe memoised under an explicit ``key``.

        The probe planner routes probes here with the canonical
        ``(signature, params)`` key and the parameterised statement, so
        every rendering of a semantically identical probe shares one
        cache entry; :meth:`probe` is the degenerate raw-text case.
        """
        leader_event = None
        try:
            while True:
                wait_on = None
                with self._lock:
                    if key in self._probes:
                        self.hits += 1
                        generation = self._probe_gen[key]
                        if generation == self.WARM_GENERATION:
                            self.warm_start_hits += 1
                        elif generation < self._generation:
                            self.cross_task_hits += 1
                        self._touch_locked(key, "probe")
                        return self._probes[key]
                    if self._inflight is not None:
                        wait_on = self._inflight.get(key)
                        if wait_on is None:
                            leader_event = threading.Event()
                            self._inflight[key] = leader_event
                if wait_on is None:
                    break
                # Another worker is executing this probe right now: wait
                # for its insert, then re-check. The timeout guards
                # against a leader that died without inserting (e.g. its
                # probe timed out) — the retry then claims leadership.
                wait_on.wait(timeout=1.0)
            try:
                outcome = db.exists(sql, params)
            except ExecutionError as exc:
                if db.interrupt_armed and "interrupted" in str(exc):
                    # The probe hit its execution budget: no conclusion
                    # was drawn, so nothing may be cached. Propagate so
                    # the surrounding interruptible() guard converts
                    # this to ExecutionTimeout at scope exit.
                    raise
                if _is_transient_failure(exc):
                    # The execute-level retry budget is already spent.
                    # A transient failure draws no conclusion either — a
                    # later attempt may answer truthfully, so memoising
                    # (or persisting) anything here would poison the
                    # cache. Propagate; the pool's degrade ladder reruns
                    # the batch inline with fresh retries.
                    raise
                # A probe that cannot execute draws no conclusion;
                # pruning must stay sound, so treat it as satisfied.
                outcome = True
            with self._lock:
                self.misses += 1
                if key not in self._probes:
                    self._probes[key] = outcome
                    self._probe_gen[key] = self._generation
                    self._touch_locked(key, "probe")
                    self._evict_over_bound_locked()
                return self._probes[key]
        finally:
            if leader_event is not None:
                with self._lock:
                    if self._inflight is not None:
                        self._inflight.pop(key, None)
                leader_event.set()
            self._maybe_flush_evicted()

    def peek(self, key: str) -> Optional[bool]:
        """The cached outcome for ``key``, or ``None`` — no counters
        touched, no probe executed (the planner's prefetch filter)."""
        with self._lock:
            return self._probes.get(key)

    def record_probe(self, key: str, outcome: bool) -> None:
        """Insert a probe answered out of band (a fused prefetch arm).

        Counted as a miss — the answer was computed, not served from
        the cache — and stored like any other insert, so fused answers
        reach the persistent store too.
        """
        with self._lock:
            self.misses += 1
            if key not in self._probes:
                self._probes[key] = outcome
                self._probe_gen[key] = self._generation
                self._touch_locked(key, "probe")
                self._evict_over_bound_locked()
        self._maybe_flush_evicted()

    def peek_minmax(self, column: ColumnRef) -> Optional[Tuple]:
        """The cached (min, max) bounds for ``column``, or ``None`` —
        no counters touched, no statement executed. Unambiguous because
        a cached entry is always a 2-tuple (an empty table memoises
        ``(None, None)``, never ``None``)."""
        with self._lock:
            return self._minmax.get(column)

    def record_minmax(self, column: ColumnRef,
                      bounds: Tuple[Optional[Value],
                                    Optional[Value]]) -> None:
        """Insert bounds computed out of band (a fused scan's MIN/MAX
        aggregates). Counted as a miss, mirroring :meth:`record_probe`,
        so fused bounds reach the persistent store exactly like executed
        ones."""
        with self._lock:
            self.misses += 1
            if column not in self._minmax:
                self._minmax[column] = bounds
                self._minmax_gen[column] = self._generation
                self._touch_locked(column, "minmax")
                self._evict_over_bound_locked()
        self._maybe_flush_evicted()

    def minmax(self, db: Database,
               column: ColumnRef) -> Tuple[Optional[Value], Optional[Value]]:
        with self._lock:
            if column in self._minmax:
                self.hits += 1
                generation = self._minmax_gen[column]
                if generation == self.WARM_GENERATION:
                    self.warm_start_hits += 1
                elif generation < self._generation:
                    self.cross_task_hits += 1
                self._touch_locked(column, "minmax")
                return self._minmax[column]
        bounds = db.column_min_max(column)
        with self._lock:
            self.misses += 1
            if column not in self._minmax:
                self._minmax[column] = bounds
                self._minmax_gen[column] = self._generation
                self._touch_locked(column, "minmax")
            self._evict_over_bound_locked()
            result = self._minmax.get(column)
        if result is None:
            # The bound is 1 and the insert itself was evicted (a
            # pathological but legal configuration): the computed bounds
            # are still the answer.
            result = bounds
        self._maybe_flush_evicted()
        return result


class Verifier:
    """Implements ``Verify(T, L, q, D)`` with memoised probe queries."""

    def __init__(self, db: Database,
                 tsq: Optional[TableSketchQuery] = None,
                 literals: Sequence[Literal] = (),
                 config: Optional[VerifierConfig] = None,
                 rules: Optional[RuleSet] = None,
                 probe_cache: Optional[SharedProbeCache] = None,
                 planner: Optional[object] = None):
        self.db = db
        self.schema: Schema = db.schema
        self.tsq = tsq if tsq is not None else TableSketchQuery()
        self.literals = tuple(literals)
        self.config = config or VerifierConfig()
        self.rules = rules or RuleSet()
        # Arm the fault injector before any statement can run. Idempotent
        # per spec: a no-op after the first verifier.
        if self.config.fault_plan:
            _ensure_faults_installed(self.config.fault_plan)
        #: failure counts per stage plus "pass"
        self.stats: Dict[str, int] = {}
        # `is None`, not truthiness: an empty SharedProbeCache is falsy
        # (it has __len__), and a shared cache is usually empty when the
        # first verifier attaches to it.
        self.probe_cache = probe_cache if probe_cache is not None \
            else SharedProbeCache()
        #: optional ProbePlanner routing probes through parameterised
        #: plans (see repro.core.search.planner); built from the config
        #: unless a fork/caller shares one. Imported lazily to avoid a
        #: package cycle (core.search imports this module at load time).
        if planner is None and self.config.probe_planner != "off":
            from .search.planner import ProbePlanner
            planner = ProbePlanner(self.config.probe_planner)
        self.planner = planner
        #: set when a probe or the full check times out during the
        #: current :meth:`verify` call; folded into the result there.
        self._timed_out = False
        # Cost-aware scheduling orders the planner's fused batch arms
        # cheapest-first. Lazy import: same package cycle as
        # ProbePlanner above.
        if (self.planner is not None and self.config.cost_order != "off"
                and getattr(self.planner, "cost_key", None) is None):
            from .search.costmodel import CostModel
            model = CostModel(db)
            self.planner.cost_key = model.probe_sql_cost
            # The fuse mode orders whole groups by their one-scan cost.
            self.planner.group_cost_key = model.probe_group_cost

    def fork(self, db: Database) -> "Verifier":
        """A verifier over ``db`` sharing this one's probe cache.

        Used by the parallel verification stage: each worker thread gets
        its own fork bound to its own database connection, while all
        forks memoise probes through the one shared cache (and route
        them through the one shared planner, when configured). Stats are
        per-fork; the search engine records outcomes centrally instead.
        """
        return Verifier(db, tsq=self.tsq, literals=self.literals,
                        config=self.config, rules=self.rules,
                        probe_cache=self.probe_cache,
                        planner=self.planner)

    # ------------------------------------------------------------------
    def verify(self, query: Query, treat_as_partial: bool = False,
               record: bool = True) -> VerifyResult:
        """Run the full ascending-cost cascade on a (partial) query.

        ``treat_as_partial`` forces the partial-query stages even when the
        query has no holes — used when the enumerator attaches a
        provisional probe join path to a partial query whose only
        undecided element is the join path itself. ``record=False`` skips
        the stats update — used for speculative verification, where the
        caller records the outcome only once it is actually consumed.
        """
        self._timed_out = False
        result = self._verify(query, treat_as_partial)
        if self._timed_out and not result.timed_out:
            result = replace(result, timed_out=True)
        return self.record_result(result) if record else result

    def _verify(self, query: Query, treat_as_partial: bool) -> VerifyResult:
        complete = query.is_complete and not treat_as_partial
        if not complete and not self.config.verify_partial:
            return PASS

        result = self._verify_clauses(query, complete)
        if not result.ok:
            return result

        if self.config.check_semantics:
            violations = self.rules.check(query, self.schema)
            if violations:
                return VerifyResult(
                    ok=False, failed_stage=STAGE_SEMANTICS,
                    detail=violations[0].message)

        result = self._verify_column_types(query)
        if not result.ok:
            return result

        result = self._verify_by_column(query)
        if not result.ok:
            return result

        if self._can_check_rows(query, complete):
            result = self._verify_by_row(query)
            if not result.ok:
                return result

        if complete:
            if self.config.enforce_literal_use:
                result = self._verify_literals(query)
                if not result.ok:
                    return result
            result = self._verify_full(query)
            if not result.ok:
                return result

        return PASS

    def record_result(self, result: VerifyResult) -> VerifyResult:
        key = "pass" if result.ok else (result.failed_stage or "unknown")
        self.stats[key] = self.stats.get(key, 0) + 1
        return result

    # ------------------------------------------------------------------
    # Stage 1: VerifyClauses
    # ------------------------------------------------------------------
    def _verify_clauses(self, query: Query, complete: bool) -> VerifyResult:
        tsq = self.tsq
        if tsq.is_empty:
            # No TSQ was provided (the NLI setting): tau and k constrain
            # nothing. A *provided* TSQ with tau = false actively forbids
            # ORDER BY (Example 3.3, CQ5).
            return PASS
        order_present = (query.order_by is not None
                         and not isinstance(query.order_by, Hole))
        if not tsq.sorted and order_present:
            return VerifyResult(ok=False, failed_stage=STAGE_CLAUSES,
                                detail="TSQ forbids ORDER BY (tau is false)")
        if tsq.sorted and complete and query.order_by is None:
            return VerifyResult(ok=False, failed_stage=STAGE_CLAUSES,
                                detail="TSQ requires a sorting operator")
        if isinstance(query.limit, int):
            if tsq.limit == 0 and not tsq.is_empty:
                return VerifyResult(
                    ok=False, failed_stage=STAGE_CLAUSES,
                    detail="TSQ specifies unlimited results but query has "
                           "LIMIT")
            if tsq.limit > 0 and query.limit > tsq.limit:
                return VerifyResult(
                    ok=False, failed_stage=STAGE_CLAUSES,
                    detail=f"LIMIT {query.limit} exceeds TSQ k={tsq.limit}")
        return PASS

    # ------------------------------------------------------------------
    # Stage 3: VerifyColumnTypes
    # ------------------------------------------------------------------
    def _projected_type(self, item: SelectItem) -> Optional[ColumnType]:
        if not item.is_complete:
            return None
        assert isinstance(item.agg, AggOp)
        assert isinstance(item.column, ColumnRef)
        input_type = (ColumnType.NUMBER if item.column.is_star
                      else self.schema.column_type(item.column))
        return item.agg.output_type(input_type)

    def _verify_column_types(self, query: Query) -> VerifyResult:
        width = self.tsq.width
        if width is None or isinstance(query.select, Hole):
            return PASS
        if len(query.select) != width:
            return VerifyResult(
                ok=False, failed_stage=STAGE_COLUMN_TYPES,
                detail=f"query projects {len(query.select)} columns, TSQ "
                       f"has width {width}")
        if self.tsq.types is None:
            return PASS
        for index, item in enumerate(query.select):
            if isinstance(item, Hole) or not isinstance(item, SelectItem):
                continue
            projected = self._projected_type(item)
            if projected is None:
                continue
            if projected is not self.tsq.types[index]:
                return VerifyResult(
                    ok=False, failed_stage=STAGE_COLUMN_TYPES,
                    detail=f"column {index} has type {projected}, TSQ "
                           f"annotation is {self.tsq.types[index]}")
        return PASS

    # ------------------------------------------------------------------
    # Stage 4: VerifyByColumn (Example 3.5)
    # ------------------------------------------------------------------
    def _cell_condition(self, column: ColumnRef, cell: Cell,
                        alias: Optional[str] = None) -> Optional[str]:
        """SQL condition matching ``cell`` on ``column`` (None = no
        constraint)."""
        name = quote_ident(column.column)
        prefix = f"{alias}." if alias else ""
        col_type = self.schema.column_type(column)
        if isinstance(cell, EmptyCell):
            return None
        if isinstance(cell, ExactCell):
            value = coerce_value(cell.value, col_type)
            if col_type is ColumnType.TEXT:
                return (f"{prefix}{name} = {quote_literal(str(value))} "
                        f"COLLATE NOCASE")
            return f"{prefix}{name} = {quote_literal(value)}"
        assert isinstance(cell, RangeCell)
        return (f"{prefix}{name} >= {quote_literal(cell.low)} AND "
                f"{prefix}{name} <= {quote_literal(cell.high)}")

    def _probe(self, sql: str) -> bool:
        budget = self.config.probe_timeout_ms
        try:
            if budget:
                with self.db.interruptible(budget):
                    return self._probe_now(sql)
            return self._probe_now(sql)
        except ExecutionTimeout:
            # No conclusion was drawn, so the candidate stays alive
            # (sound: the probe neither confirmed nor refuted the cell);
            # the flag is what the cost-order abort cascade keys on.
            self._timed_out = True
            return True

    def _probe_now(self, sql: str) -> bool:
        if self.planner is not None:
            return self.planner.probe(self.db, self.probe_cache, sql)
        return self.probe_cache.probe(self.db, sql)

    def _column_minmax(self, column: ColumnRef) -> Tuple[Optional[Value],
                                                         Optional[Value]]:
        return self.probe_cache.minmax(self.db, column)

    def _iter_column_cell_checks(self, query: Query, example):
        """The column-stage checks one example induces, in cell order.

        Yields ``("avg", (column, cell))`` for AVG min/max range checks
        and ``("probe", sql)`` for existence probes. The single source
        of truth for which cells are checkable — consumed by
        :meth:`_verify_by_column` and by the probe planner's prefetch
        (:meth:`pending_probe_sql`), so the two can never drift.
        """
        for index, item in enumerate(query.select):
            if index >= len(example):
                break
            if isinstance(item, Hole) or not isinstance(item, SelectItem):
                continue
            if not item.is_complete:
                continue
            assert isinstance(item.agg, AggOp)
            assert isinstance(item.column, ColumnRef)
            cell = example[index]
            if isinstance(cell, EmptyCell):
                continue
            if item.column.is_star or item.agg in (AggOp.COUNT,
                                                   AggOp.SUM):
                # No conclusion can be drawn for partial queries with
                # COUNT/SUM projections (Section 3.4).
                continue
            if item.agg is AggOp.AVG:
                yield "avg", (item.column, cell)
                continue
            # NONE / MIN / MAX produce an exact value from the column.
            condition = self._cell_condition(item.column, cell)
            if condition is None:
                continue
            yield "probe", (f"SELECT 1 FROM "
                            f"{quote_ident(item.column.table)} "
                            f"WHERE {condition} LIMIT 1")

    def _verify_by_column(self, query: Query) -> VerifyResult:
        if not self.tsq.tuples or isinstance(query.select, Hole):
            return PASS
        failing_examples = 0
        for example in self.tsq.tuples:
            example_failed = False
            for kind, payload in self._iter_column_cell_checks(query,
                                                               example):
                if kind == "avg":
                    if not self._avg_cell_possible(*payload):
                        example_failed = True
                        break
                elif not self._probe(payload):
                    example_failed = True
                    break
            if example_failed:
                failing_examples += 1
                if failing_examples > self.tsq.tolerance:
                    return VerifyResult(
                        ok=False, failed_stage=STAGE_BY_COLUMN,
                        detail=f"example {example!r} has a cell matched "
                               f"by no column value")
        return PASS

    def _avg_cell_possible(self, column: ColumnRef, cell: Cell) -> bool:
        """AVG lies within [min, max]; check intersection with the cell."""
        return self._avg_bounds_possible(self._column_minmax(column), cell)

    @staticmethod
    def _avg_bounds_possible(bounds: Tuple[Optional[Value],
                                           Optional[Value]],
                             cell: Cell) -> bool:
        """The [min, max] intersection check, on already-known bounds.

        Split out of :meth:`_avg_cell_possible` so the planner's staged
        prefetch (:meth:`column_stage_refuted`) can apply the same test
        to *peeked* bounds without triggering a min/max statement."""
        low, high = bounds
        if low is None or high is None:
            return False
        try:
            low_f, high_f = float(low), float(high)
        except (TypeError, ValueError):
            return False
        if isinstance(cell, ExactCell):
            try:
                value = float(cell.value)
            except (TypeError, ValueError):
                return False
            return low_f <= value <= high_f
        if isinstance(cell, RangeCell):
            return cell.low <= high_f and low_f <= cell.high
        return True

    # ------------------------------------------------------------------
    # Stage 5: VerifyByRow (Example 3.6)
    # ------------------------------------------------------------------
    def _can_check_rows(self, query: Query, complete: bool) -> bool:
        """Precondition for row-wise verification (Section 3.4).

        Row probes here cover *unaggregated* cells only. The paper's
        aggregate row probes (Example 3.6, RV2) assume the partial query
        carries its candidate join path; this implementation defers join
        branching to the final step (see the enumerator), and aggregate
        values are not monotone under join projection, so probing them
        against a provisional path would wrongly prune valid branches.
        Aggregated cells are instead verified by the full satisfaction
        check once the query (including its join path) is complete.
        """
        if not self.tsq.tuples:
            return False
        if complete:
            return False  # stage 7 performs the definitive check
        if not isinstance(query.join_path, JoinPath):
            return False
        if isinstance(query.select, Hole):
            return False
        return True

    def _retained_where(self, query: Query) -> List[Predicate]:
        """Predicates safe to AND into a row probe.

        With a complete AND clause (or any complete predicate under AND
        logic) retention is sound: future predicates only shrink the
        result. Under OR (or an undecided connective with several
        predicates) incomplete clauses are dropped entirely, because a
        tuple may be produced via a different disjunct.
        """
        where = query.where
        if not isinstance(where, Where):
            return []
        complete = [p for p in where.predicates
                    if isinstance(p, Predicate) and p.is_complete]
        if where.is_complete:
            return complete
        if len(where.predicates) == 1:
            return complete
        if isinstance(where.logic, LogicOp) and where.logic is LogicOp.AND:
            return complete
        return []

    def _row_probe_context(self, query: Query):
        """The per-query row-probe scaffolding, or ``None`` to skip.

        Returns ``(aliases, from_clause, base_where_parts)`` — the
        pieces identical across every example's probe (the FROM clause
        and the retained/OR-rendered WHERE predicates). ``None`` means
        the join path is disconnected: no conclusion to draw.
        """
        assert isinstance(query.join_path, JoinPath)
        aliases = alias_map(query.join_path)
        try:
            from_clause = render_from(query.join_path, aliases)
        except Exception:  # disconnected path: no conclusion to draw here
            return None
        where_logic_or = (isinstance(query.where, Where)
                          and isinstance(query.where.logic, LogicOp)
                          and query.where.logic is LogicOp.OR
                          and query.where.is_complete
                          and len(query.where.predicates) > 1)
        base_parts: List[str] = []
        if where_logic_or:
            assert isinstance(query.where, Where)
            rendered = " OR ".join(
                render_predicate(p, aliases)
                for p in query.where.predicates
                if isinstance(p, Predicate))
            base_parts.append(f"({rendered})")
        else:
            for pred in self._retained_where(query):
                try:
                    base_parts.append(render_predicate(pred, aliases))
                except Exception:
                    continue
        return aliases, from_clause, base_parts

    def _row_probe_sql(self, query: Query, aliases, from_clause: str,
                       base_parts: List[str], example) -> Optional[str]:
        """One example's row probe, or ``None`` when nothing in the
        example is checkable against this query's projections.

        Shared by :meth:`_verify_by_row` and the planner prefetch
        (:meth:`pending_probe_sql`), so the probes the prefetch fuses
        are character-identical to the ones the cascade would issue.
        """
        where_parts = list(base_parts)
        checkable = False
        for index, item in enumerate(query.select):
            if index >= len(example):
                break
            if not isinstance(item, SelectItem) or not item.is_complete:
                continue
            assert isinstance(item.agg, AggOp)
            assert isinstance(item.column, ColumnRef)
            cell = example[index]
            if isinstance(cell, EmptyCell):
                continue
            if item.agg.is_aggregate:
                # Deferred to the full satisfaction check (see
                # _can_check_rows docstring).
                continue
            alias = aliases.get(item.column.table)
            if alias is None:
                continue
            condition = self._cell_condition(item.column, cell,
                                             alias=alias)
            if condition is not None:
                where_parts.append(f"({condition})")
                checkable = True
        if not checkable:
            return None
        return (f"SELECT 1 FROM {from_clause} "
                f"WHERE {' AND '.join(where_parts)} LIMIT 1")

    def _verify_by_row(self, query: Query) -> VerifyResult:
        assert isinstance(query.join_path, JoinPath)
        assert not isinstance(query.select, Hole)
        context = self._row_probe_context(query)
        if context is None:
            return PASS
        aliases, from_clause, base_parts = context

        failing_examples = 0
        for example in self.tsq.tuples:
            sql = self._row_probe_sql(query, aliases, from_clause,
                                      base_parts, example)
            if sql is None:
                continue
            if not self._probe(sql):
                failing_examples += 1
                if failing_examples > self.tsq.tolerance:
                    return VerifyResult(
                        ok=False, failed_stage=STAGE_BY_ROW,
                        detail=f"no result row satisfies example "
                               f"{example!r}")
        return PASS

    # ------------------------------------------------------------------
    # Probe prefetch support (the planner's round batching / fusing)
    # ------------------------------------------------------------------
    def pending_probe_stages(self, query: Query,
                             treat_as_partial: bool = False
                             ) -> Optional["PendingProbes"]:
        """The probe workload the cascade may issue, staged by cost.

        The staged sibling of :meth:`pending_probe_sql` (same
        short-circuits, same statements — both walk
        :meth:`_iter_column_cell_checks` and :meth:`_row_probe_sql`, so
        they can never drift), but with the strictly costlier row-stage
        probes behind a thunk: the fuse planner executes the column
        stage first and never invokes the thunk for candidates the
        fused answers already refute (:meth:`column_stage_refuted`).
        ``None`` means a probe-free stage (clauses, semantics, column
        types) rejects the query outright — no probes will run at all.
        """
        complete = query.is_complete and not treat_as_partial
        if not complete and not self.config.verify_partial:
            return None
        if not self._verify_clauses(query, complete).ok:
            return None
        if self.config.check_semantics \
                and self.rules.check(query, self.schema):
            return None
        if not self._verify_column_types(query).ok:
            return None
        column_probes: List[str] = []
        avg_columns: List[ColumnRef] = []
        if self.tsq.tuples and not isinstance(query.select, Hole):
            for example in self.tsq.tuples:
                for kind, payload in self._iter_column_cell_checks(
                        query, example):
                    if kind == "probe":
                        column_probes.append(payload)
                    else:
                        column = payload[0]
                        if column not in avg_columns:
                            avg_columns.append(column)

        def row_probes() -> Tuple[str, ...]:
            if not self._can_check_rows(query, complete):
                return ()
            context = self._row_probe_context(query)
            if context is None:
                return ()
            aliases, from_clause, base_parts = context
            sqls: List[str] = []
            for example in self.tsq.tuples:
                sql = self._row_probe_sql(query, aliases, from_clause,
                                          base_parts, example)
                if sql is not None:
                    sqls.append(sql)
            return tuple(sqls)

        return PendingProbes(column_probes=tuple(column_probes),
                             avg_columns=tuple(avg_columns),
                             row_probes=row_probes)

    def pending_probe_sql(self, query: Query,
                          treat_as_partial: bool = False) -> List[str]:
        """The probe statements the cascade may issue for ``query``.

        A superset in execution order: the serial cascade stops probing
        an example (and a stage) at the first failure, so some of these
        probes would never run serially — but probe answers are facts
        of the database, so prefetching them can never change an
        outcome, only statement counts. Returns ``[]`` when one of the
        probe-free stages (clauses, semantics, column types) already
        rejects the query, mirroring the cascade's short-circuit.
        """
        staged = self.pending_probe_stages(query, treat_as_partial)
        if staged is None:
            return []
        return list(staged.column_probes) + list(staged.row_probes())

    def _peek_probe(self, sql: str) -> Optional[bool]:
        """The memoised outcome of probe ``sql``, or ``None`` if it has
        not been answered yet. Read-only: keys the cache exactly as
        :meth:`_probe_now` would (canonical plan key under a planner,
        raw text otherwise) but executes nothing and moves no counter.
        """
        if self.planner is not None:
            key = self.planner.plan_for(sql, count=False).key
        else:
            key = sql
        return self.probe_cache.peek(key)

    def column_stage_refuted(self, query: Query) -> bool:
        """Predict, from cached answers alone, whether the by-column
        stage rejects ``query``.

        A read-only mirror of :meth:`_verify_by_column`'s tolerance
        loop over peeked probe outcomes and peeked min/max bounds: no
        statement executes and no counter moves. An unanswered probe
        (or unknown bounds) conservatively counts as satisfied, so
        ``True`` means the cached facts alone already exceed the
        tolerance. The fuse planner uses this after scattering a
        round's fused column-stage answers to skip compiling the row
        probes of refuted candidates; the cascade re-derives the
        verdict either way, so a stale peek costs statements, never
        correctness.
        """
        if not self.tsq.tuples or isinstance(query.select, Hole):
            return False
        failing_examples = 0
        for example in self.tsq.tuples:
            example_failed = False
            for kind, payload in self._iter_column_cell_checks(query,
                                                               example):
                if kind == "avg":
                    column, cell = payload
                    bounds = self.probe_cache.peek_minmax(column)
                    if bounds is not None and not \
                            self._avg_bounds_possible(bounds, cell):
                        example_failed = True
                        break
                elif self._peek_probe(payload) is False:
                    example_failed = True
                    break
            if example_failed:
                failing_examples += 1
                if failing_examples > self.tsq.tolerance:
                    return True
        return False

    # ------------------------------------------------------------------
    # Stage 6: VerifyLiterals (complete queries only)
    # ------------------------------------------------------------------
    def _used_values(self, query: Query) -> List[object]:
        values: List[object] = []
        if isinstance(query.where, Where):
            for pred in query.where.predicates:
                if isinstance(pred, Predicate) and not isinstance(
                        pred.value, Hole):
                    if isinstance(pred.value, tuple):
                        values.extend(pred.value)
                    else:
                        values.append(pred.value)
        if query.having is not None and not isinstance(query.having, Hole):
            for pred in query.having:
                if isinstance(pred, Predicate) and not isinstance(
                        pred.value, Hole):
                    if isinstance(pred.value, tuple):
                        values.extend(pred.value)
                    else:
                        values.append(pred.value)
        if isinstance(query.limit, int):
            values.append(query.limit)
        return values

    def _verify_literals(self, query: Query) -> VerifyResult:
        if not self.literals:
            return PASS
        used = {normalize_value(v) for v in self._used_values(query)
                if not isinstance(v, Hole)}
        for literal in self.literals:
            if normalize_value(literal.value) not in used:
                return VerifyResult(
                    ok=False, failed_stage=STAGE_LITERALS,
                    detail=f"literal {literal.value!r} unused in query")
        return PASS

    # ------------------------------------------------------------------
    # Stage 7: full Definition 2.4 satisfaction, incl. VerifyByOrder
    # ------------------------------------------------------------------
    def _verify_full(self, query: Query) -> VerifyResult:
        if self.tsq.is_empty:
            return PASS
        cap = self.config.max_result_rows
        try:
            with self.db.interruptible(self.config.execution_budget_ms):
                rows = self.db.execute(to_sql(query), max_rows=cap + 1,
                                       kind="full")
        except ExecutionTimeout as exc:
            self._timed_out = True
            return VerifyResult(ok=False, failed_stage=STAGE_FULL,
                                detail=f"execution failed: {exc}",
                                timed_out=True)
        except ExecutionError as exc:
            if _is_transient_failure(exc):
                # Not a property of the candidate: rejecting here would
                # silently alter the stream. Let the degrade ladder (or
                # the session's terminal-failed state) make it visible.
                raise
            return VerifyResult(ok=False, failed_stage=STAGE_FULL,
                                detail=f"execution failed: {exc}")
        truncated = len(rows) > cap
        if truncated:
            rows = rows[:cap]
        if not self.tsq.satisfied_by_rows(rows, truncated=truncated):
            return VerifyResult(
                ok=False, failed_stage=STAGE_FULL,
                detail="result set does not satisfy the TSQ")
        return PASS
