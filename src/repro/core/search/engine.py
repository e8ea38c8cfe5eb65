"""The search engine: Algorithm 1 generalised over pluggable stages.

The seed enumerator interleaved four concerns in one loop: frontier
ordering, guidance scoring, verification, and emission. The engine
splits them into stages wired back together per expansion round:

1. **Pop** a batch of states from the :class:`~.frontier.Frontier`.
2. **Schedule** every pending guidance decision of the batch through the
   :class:`~.scheduler.DecisionScheduler` (one
   ``GuidanceModel.score_batch`` call).
3. **Verify** the batch concurrently on a
   :class:`~.parallel.PoolLease` (per-thread database forks, one shared
   probe cache), or inline with one worker.
4. **Consume** the batch sequentially in priority order: prune, expand,
   or emit.

Determinism guarantee: with the best-first frontier the candidate
stream is *identical* to the seed enumerator for any worker count.
Steps 2-3 are speculative — their results are memoised, never
side-effecting — and step 4 re-checks before consuming each state that
nothing fresher outranks it; if a newly pushed child does, the rest of
the batch is pushed back (original keys preserved) and the round ends.
Verifier stats are recorded once per *consumed* state, so they too
match the serial run bit for bit.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ... import faults
from ...guidance.base import GuidanceRequest
from ...guidance.batched import BatchingGuidanceModel
from ...sqlir.ast import Query
from ...sqlir.canon import signature
from ..verifier import VerifyResult
from .frontier import Frontier
from .parallel import Job, PoolManager, validate_verification_config
from .scheduler import DecisionScheduler
from .telemetry import SearchTelemetry

#: Sentinel for partial states whose referenced tables cannot be joined.
#: The seed enumerator pruned these without consulting the verifier, so
#: the engine must not record them into verifier stats either.
NO_JOIN_PATH = VerifyResult(ok=False, failed_stage="join_path",
                            detail="referenced tables cannot be joined")

#: Sentinel for jobs abandoned by cost-propagated early abort
#: (``cost_order="abort"``): a cheaper sibling timed out this round, so
#: every costlier pending candidate is presumed to time out too (the
#: Litmus cascade). Like :data:`NO_JOIN_PATH` it is never folded into
#: verifier stats, but it *is* counted as a prune, so abandonment stays
#: visible (the ``prune:cost_abort`` column plus ``cost_aborts``).
COST_ABORT = VerifyResult(ok=False, failed_stage="cost_abort",
                          detail="deferred: a cheaper sibling timed out "
                                 "this round")


class CancelToken:
    """Cooperative cancellation signal for one running search.

    The engine polls the token at the same safe points where it checks
    ``max_expansions`` and the time budget — round boundaries and just
    before consuming each state — so cancellation always lands between
    expansions, never mid-probe, and the engine's ``finally`` block
    still folds worker stats and cache deltas back as usual. A fired
    token is surfaced as ``SearchTelemetry.cancelled`` (plus the
    reason), which is how a daemon session distinguishes "cancelled"
    from "budget ran out".

    ``cancel()`` is thread-safe: a session owner (or a signal handler)
    may fire it from any thread while the search runs in another.
    Besides the explicit ``cancel()``, watchers registered with
    :meth:`watch` are polled at every check; the first one returning a
    non-empty reason string fires the token. Sessions use watchers for
    per-session probe budgets (the predicate reads live probe-cache
    counters, so the budget lands mid-enumeration, not only between
    rounds of the interaction loop).
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason = ""
        self._watchers: List[Callable[[], Optional[str]]] = []

    def cancel(self, reason: str = "cancelled") -> None:
        if not self._event.is_set():
            self.reason = reason
        self._event.set()

    def watch(self, predicate: Callable[[], Optional[str]]) -> None:
        self._watchers.append(predicate)

    @property
    def cancelled(self) -> bool:
        if not self._event.is_set():
            for predicate in self._watchers:
                reason = predicate()
                if reason:
                    self.cancel(reason)
                    break
        return self._event.is_set()


@dataclass(frozen=True)
class Candidate:
    """An emitted candidate query."""

    query: Query
    confidence: float
    index: int            # emission order (0 = first emitted)
    elapsed: float        # seconds since enumeration started
    expansions: int       # states expanded before emission

    def __repr__(self) -> str:
        return (f"<Candidate #{self.index} conf={self.confidence:.3g} "
                f"t={self.elapsed:.3f}s>")


#: Sentinel for :attr:`SearchState.decision` before the domain resolved
#: it. Distinct from ``None``, which is a *resolved* "no decision left"
#: (the query is complete up to its join path).
UNRESOLVED_DECISION = object()


@dataclass
class SearchState:
    """One partial (or complete, pre-verification) query on the frontier."""

    query: Query
    confidence: float
    depth: int
    #: The reified next decision for this state, memoised by the domain
    #: (see ``Enumerator._expand``). The engine dispatches every state
    #: twice — ``decision_request()`` in the speculative phase and
    #: ``expand_with()`` at consume time — and a pushed-back state is
    #: popped again later; caching the decision here makes the repeat
    #: dispatches O(1) instead of re-walking the query's holes each time.
    decision: object = UNRESOLVED_DECISION
    #: The reified :class:`~repro.guidance.base.GuidanceRequest` for
    #: ``decision`` (``None`` when the expansion needs no guidance),
    #: memoised by the domain the first time ``decision_request()``
    #: resolves it. The request carries the decision's candidate list,
    #: so a pushed-back state re-entering the speculative phase — and
    #: the consume-time expansion — reuse it instead of rebuilding the
    #: candidates from the schema each time.
    request: object = UNRESOLVED_DECISION


class SearchProblem:
    """What the engine needs from the domain (implemented by Enumerator).

    * ``config`` — an :class:`~repro.core.enumerator.EnumeratorConfig`
    * ``model`` — the :class:`~repro.guidance.base.GuidanceModel`
    * ``verifier`` — the primary :class:`~repro.core.verifier.Verifier`
    * ``pool_manager`` — optional
      :class:`~repro.core.search.parallel.PoolManager`; when present the
      engine leases its verification pool from it (warm workers owned
      by the harness or daemon), otherwise from a private manager it
      closes when the enumeration ends
    * ``root_state()`` — the initial :class:`SearchState`
    * ``priority(state)`` — heap priority tuple (smaller pops first)
    * ``decision_request(state)`` — the pending
      :class:`~repro.guidance.base.GuidanceRequest`, or ``None`` when the
      next expansion needs no guidance (join-path branching)
    * ``expand_with(state, dist)`` — children, given the scored
      distribution (or ``None`` when no guidance was needed)
    * ``probe_query(query)`` — partial query with a provisional join
      path attached for probing, or ``None`` when its tables cannot be
      joined (prune)
    """


class SearchEngine:
    """Runs one search over a :class:`SearchProblem`."""

    def __init__(self, problem, frontier: Frontier, workers: int = 1,
                 batch_size: Optional[int] = None,
                 telemetry: Optional[SearchTelemetry] = None,
                 verify_backend: str = "threads",
                 cost_order: str = "off", cost_model=None):
        self.problem = problem
        self.frontier = frontier
        self.workers = validate_verification_config(verify_backend,
                                                    workers)
        self.verify_backend = verify_backend
        self._configured_batch_size = batch_size
        self.batch_size = batch_size or frontier.batch_hint(self.workers)
        self.scheduler = DecisionScheduler(problem.model)
        self.telemetry = telemetry if telemetry is not None \
            else SearchTelemetry()
        self.telemetry.engine = frontier.name
        self.telemetry.workers = self.workers
        self.telemetry.verify_backend = verify_backend
        #: cost-aware scheduling ("off" is the bit-for-bit seed path;
        #: see :mod:`repro.core.search.costmodel` and :meth:`_dispatch`)
        self.cost_order = cost_order
        self.cost_model = cost_model if cost_order != "off" else None
        self.telemetry.cost_order = cost_order
        if self.cost_model is not None:
            # Cost modes promise "never more executed probes than
            # serial": single-flight dedup removes the concurrent
            # duplicate-probe races that would otherwise break it.
            problem.verifier.probe_cache.enable_single_flight()

    # ------------------------------------------------------------------
    def _dispatch(self, pool, jobs: List[Job]) -> List[VerifyResult]:
        """Run one round's verification jobs, cost-aware when enabled.

        With cost order off (or a degenerate round) this is a straight
        ``pool.run`` — the bit-for-bit seed path. ``order`` runs the
        whole round in one pool call, cheapest-first, and un-permutes
        the results back into job order; probe answers are facts, so
        reordering can change statement counts but never outcomes.
        ``abort`` dispatches in worker-width waves so a timeout
        observed in one wave abandons every costlier pending wave (the
        Litmus cascade): abandoned jobs get :data:`COST_ABORT` instead
        of a verification result.
        """
        if self.cost_model is None or len(jobs) < 2:
            results = pool.run(jobs)
            self.telemetry.probe_timeouts += sum(
                1 for result in results if result.timed_out)
            return results
        costs = [self.cost_model.estimate(query, treat_as_partial)
                 for query, treat_as_partial in jobs]
        order = sorted(range(len(jobs)), key=lambda i: (costs[i], i))
        self.telemetry.cost_ordered += len(jobs)
        results: List[Optional[VerifyResult]] = [None] * len(jobs)
        timeouts = 0
        if self.cost_order == "order":
            for i, result in zip(order,
                                 pool.run([jobs[i] for i in order])):
                results[i] = result
                timeouts += int(result.timed_out)
        else:  # abort: worker-width waves, cheapest first
            width = max(1, pool.workers)
            aborted = False
            for start in range(0, len(order), width):
                wave = order[start:start + width]
                if aborted:
                    for i in wave:
                        results[i] = COST_ABORT
                    self.telemetry.cost_aborts += len(wave)
                    continue
                for i, result in zip(wave,
                                     pool.run([jobs[i] for i in wave])):
                    results[i] = result
                    if result.timed_out:
                        timeouts += 1
                        aborted = True
        self.telemetry.probe_timeouts += timeouts
        return results

    # ------------------------------------------------------------------
    def run(self) -> Iterator[Candidate]:
        """Yield verified candidates (see module docstring for ordering)."""
        problem = self.problem
        config = problem.config
        telemetry = self.telemetry
        frontier = self.frontier
        # Everything after the lease runs under try/finally, so worker
        # stats are folded back even when frontier seeding or an
        # expansion raises mid-enumeration (the pool's close() is
        # idempotent, so double-closing is harmless). Closing a lease
        # retires it without stopping the manager's warm workers; a
        # private manager (none passed) is closed right after it.
        manager = getattr(problem, "pool_manager", None)
        private = None
        if manager is None:
            manager = private = PoolManager(max_pools=1)
        pool = manager.lease(problem.verifier, backend=self.verify_backend,
                             workers=self.workers)
        telemetry.pool_reused = pool.reused
        # A batching guidance wrapper may be shared across enumerations
        # (the eval harness wraps the oracle once per run), so record
        # counter deltas, not totals — the same discipline as the
        # shared probe cache below.
        model = problem.model
        guidance = model if isinstance(model, BatchingGuidanceModel) \
            else None
        guide_start = guidance.counters.copy() \
            if guidance is not None else None
        cache = problem.verifier.probe_cache
        probe_hits_start = cache.hits
        probe_misses_start = cache.misses
        cross_task_start = cache.cross_task_hits
        warm_start_start = cache.warm_start_hits
        evictions_start = cache.evictions
        evicted_flushed_start = cache.evicted_flushed
        # The probe planner, like the cache, may be shared across
        # enumerations (and thread forks share the primary's) — record
        # per-run deltas.
        planner = getattr(problem.verifier, "planner", None)
        planner_start = planner.counters.copy() if planner is not None \
            else None
        reconnects_start = int(getattr(model, "reconnects", 0))
        # Fault accounting mirrors the shared-counter discipline above:
        # the injector and the db retry counter outlive a single run.
        faults_start = faults.injected_total()
        db_stats = getattr(problem.verifier.db, "stats", None)
        retries_start = int(getattr(db_stats, "retries", 0))
        # Cooperative cancellation: supplied by the domain (a session
        # passes its token through the Enumerator). Checked at the same
        # safe points as max_expansions / time budget.
        token = getattr(problem, "cancel_token", None)

        def _cancelled() -> bool:
            if token is not None and token.cancelled:
                telemetry.cancelled = True
                telemetry.cancel_reason = token.reason
                return True
            return False

        start = time.monotonic()
        try:
            if pool.workers != self.workers:
                # The pool degraded (no sqlite snapshot support, an
                # unavailable pool, a closed manager): report the
                # effective worker count and stop speculating over
                # batches that nothing will verify in parallel.
                self.workers = pool.workers
                if self._configured_batch_size is None:
                    self.batch_size = frontier.batch_hint(self.workers)
                telemetry.workers = self.workers
            telemetry.snapshot_degraded = pool.degraded
            # A new task generation: hits on entries cached by earlier
            # enumerations (a harness-shared cache) count as cross-task.
            cache.begin_task()
            counter = itertools.count()
            root = problem.root_state()
            frontier.push((problem.priority(root), next(counter)), root)
            seen: set = set()
            emitted_signatures: set = set()
            #: (query, treat_as_partial) -> speculative VerifyResult
            verify_memo: Dict[Tuple[Query, bool], VerifyResult] = {}
            emitted = 0

            while frontier:
                if _cancelled():
                    return
                batch = frontier.pop_batch(self.batch_size)
                if not batch:
                    break

                # -- speculative phase: parallel verify, batch guidance --
                jobs: List[Job] = []
                job_keys: List[Tuple[Query, bool]] = []
                for _, state in batch:
                    query = state.query
                    if query.is_complete:
                        if (query, False) not in verify_memo:
                            jobs.append((query, False))
                            job_keys.append((query, False))
                    elif config.verify_partial and state.depth > 0 \
                            and (query, True) not in verify_memo:
                        probe = problem.probe_query(query)
                        if probe is None:
                            verify_memo[(query, True)] = NO_JOIN_PATH
                        else:
                            jobs.append((probe, True))
                            job_keys.append((query, True))
                for key, result in zip(job_keys,
                                       self._dispatch(pool, jobs)):
                    verify_memo[key] = result
                # Guidance is scheduled only for states that survived
                # partial verification — the same decisions the serial
                # loop would have scored, just in one batched call.
                pending: List[Tuple[Query, GuidanceRequest]] = []
                for _, state in batch:
                    query = state.query
                    if query.is_complete:
                        continue
                    if config.verify_partial and state.depth > 0 and \
                            not verify_memo[(query, True)].ok:
                        continue
                    request = problem.decision_request(state)
                    if request is not None:
                        pending.append((query, request))
                self.scheduler.schedule(pending)

                # -- sequential consume, exact priority order ----------
                for position, (key, state) in enumerate(batch):
                    if telemetry.expansions >= config.max_expansions:
                        return
                    if config.time_budget is not None and \
                            time.monotonic() - start > config.time_budget:
                        return
                    if _cancelled():
                        return
                    if position > 0 and frontier.exact_order:
                        ahead = frontier.peek_key()
                        if ahead is not None and ahead < key:
                            # A fresh child outranks the rest of the
                            # batch: push it back so pop order (and the
                            # candidate stream) stays exactly serial.
                            frontier.push_back(batch[position:])
                            telemetry.pushbacks += 1
                            break
                    query = state.query

                    if query.is_complete:
                        result = verify_memo.pop((query, False))
                        if result is not COST_ABORT:
                            problem.verifier.record_result(result)
                        if not result.ok:
                            telemetry.record_prune(
                                result.failed_stage or "unknown",
                                partial=False)
                            continue
                        sig = signature(query)
                        if sig in emitted_signatures:
                            telemetry.duplicates += 1
                            continue
                        emitted_signatures.add(sig)
                        candidate = Candidate(
                            query=query, confidence=state.confidence,
                            index=emitted,
                            elapsed=time.monotonic() - start,
                            expansions=telemetry.expansions)
                        emitted += 1
                        telemetry.emitted = emitted
                        yield candidate
                        if config.max_candidates is not None and \
                                emitted >= config.max_candidates:
                            return
                        continue

                    if config.verify_partial and state.depth > 0:
                        result = verify_memo.pop((query, True))
                        if result is not NO_JOIN_PATH \
                                and result is not COST_ABORT:
                            problem.verifier.record_result(result)
                        if not result.ok:
                            telemetry.record_prune(
                                result.failed_stage or "unknown",
                                partial=True)
                            continue

                    telemetry.expansions += 1
                    distribution = self.scheduler.distribution_for(query)
                    children = problem.expand_with(state, distribution)
                    telemetry.generated += len(children)
                    for child in children:
                        if child.confidence < config.min_confidence:
                            continue
                        if child.query in seen:
                            continue
                        seen.add(child.query)
                        frontier.push(
                            (problem.priority(child), next(counter)), child)
        finally:
            try:
                try:
                    pool.close()
                finally:
                    if private is not None:
                        private.close()
            finally:
                telemetry.wall_time = time.monotonic() - start
                telemetry.beam_dropped = frontier.dropped
                telemetry.guidance_calls = self.scheduler.calls
                telemetry.guidance_batches = self.scheduler.batches
                telemetry.guidance_degraded = \
                    bool(getattr(model, "degraded", False))
                if guidance is not None:
                    delta = guidance.counters.delta_since(guide_start)
                    telemetry.guidance_batched = True
                    telemetry.guide_requests = delta.requests_in
                    telemetry.guide_calls = delta.unique_scored
                    telemetry.guide_hits = delta.cache_hits
                    telemetry.guide_batch_calls = delta.batch_calls
                else:
                    # Unwrapped models score once per request, so the
                    # GuideCalls/GuideHits columns stay comparable
                    # across batched and unbatched rows.
                    telemetry.guide_requests = self.scheduler.calls
                    telemetry.guide_calls = self.scheduler.calls
                    telemetry.guide_batch_calls = self.scheduler.batches
                # Refreshed here because a lease can degrade mid-run (a
                # failed batch): report the effective state — a
                # degraded lease ran inline, not on a warm pool.
                telemetry.snapshot_degraded = pool.degraded
                telemetry.workers = pool.workers
                if pool.degraded:
                    telemetry.pool_reused = False
                # Deltas, not totals: a cache shared across tasks must
                # not attribute earlier enumerations' traffic to this one.
                telemetry.probe_hits = cache.hits - probe_hits_start
                telemetry.probe_misses = cache.misses - probe_misses_start
                telemetry.cross_task_probe_hits = \
                    cache.cross_task_hits - cross_task_start
                telemetry.warm_start_probe_hits = \
                    cache.warm_start_hits - warm_start_start
                telemetry.probe_cache_evictions = \
                    cache.evictions - evictions_start
                # Settle the eviction buffer inside this task's
                # accounting window, so the flushed delta is truthful
                # and buffered evictions never outlive the task that
                # caused them. A no-op unbounded or without a sink.
                cache.flush_evicted()
                telemetry.evicted_flushed = \
                    cache.evicted_flushed - evicted_flushed_start
                # A level, not a delta: the bound-watching number.
                telemetry.probe_cache_entries = len(cache)
                if planner is not None:
                    delta = planner.counters.delta_since(planner_start)
                    telemetry.probe_planner = planner.mode
                    telemetry.probe_compiles = delta.compiles
                    telemetry.probe_plan_hits = delta.plan_hits
                    telemetry.probe_batch_stmts = delta.batch_stmts
                    telemetry.probe_batch_fallbacks = delta.batch_fallbacks
                    telemetry.probe_fused_groups = delta.fused_groups
                    telemetry.probe_fuse_fallbacks = delta.fuse_fallbacks
                telemetry.guidance_reconnects = \
                    int(getattr(model, "reconnects", 0)) - reconnects_start
                telemetry.faults_injected = \
                    faults.injected_total() - faults_start
                telemetry.transient_retries = \
                    int(getattr(db_stats, "retries", 0)) - retries_start
