"""Amortised guidance backends: batching wrapper and RPC-style server.

The search subsystem funnels every expansion round's decisions through
one :meth:`~repro.guidance.base.GuidanceModel.score_batch` call, but the
bundled lexical/oracle backends score per request, so the batching seam
alone amortises nothing. This module supplies the backends that make it
pay:

* :class:`BatchingGuidanceModel` wraps every guidance model the engine
  runs. Within a round it deduplicates identical requests (equal
  :meth:`~repro.guidance.base.GuidanceRequest.cache_key`), across
  rounds it memoises distributions in a bounded LRU
  :class:`GuidanceCache`, and it exposes its counters
  (:class:`AmortisationCounters`) that the search engine folds into
  :class:`~repro.core.search.telemetry.SearchTelemetry` per run. The
  wrapper never changes results: the inner model is deterministic per
  request (the ``GuidanceModel`` contract), so a cached distribution is
  byte-identical to a recomputed one and the candidate stream stays
  bit-for-bit equal to the bare model's (locked in by
  ``tests/core/test_search_equivalence.py`` and
  ``tests/guidance/test_batched.py``).

* :class:`ServerGuidanceModel` ships whole request batches to an
  out-of-process scorer over the NDJSON codec of :mod:`repro.wire` (see
  :meth:`ServerGuidanceModel.serialize` for the request format and
  ``examples/guidance_server.py`` for a stub server standing in for a
  neural/RPC scorer). Failures are never silent: the first connection
  error, timeout, or protocol violation logs a warning, marks the model
  ``degraded`` (surfaced as ``SearchTelemetry.guidance_degraded``,
  mirroring the verification pools' ``snapshot_degraded``), and every
  subsequent request is answered by the local fallback model — results
  change visibly or not at all.

:func:`make_guidance_backend` builds the stack. The
:class:`~repro.core.duoquest.Duoquest` facade, the
:class:`~repro.core.enumerator.Enumerator`, the eval harness and the
daemon all call it; it hands an existing wrapper back unchanged, so
whoever wrapped first owns the backend. The harness wraps the oracle
once per run, so the cache is shared across every enumeration of that
run (Duoquest, the NLI baseline, and the ablation variants re-score
largely identical decisions).
"""

from __future__ import annotations

import itertools
import logging
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import faults, wire
from ..counters import Counters
from ..errors import GuidanceError
from ..faults import RetryPolicy
from ..sqlir.ast import AggOp, ColumnRef, CompOp, Direction, LogicOp
from .base import (
    CACHE_FIELDS,
    Distribution,
    GuidanceContext,
    GuidanceModel,
    GuidanceRequest,
)

logger = logging.getLogger(__name__)

#: Default bound for the distribution cache (entries, not bytes).
DEFAULT_CACHE_SIZE = 4096

#: Default socket timeout (seconds) for the server backend.
DEFAULT_TIMEOUT = 5.0

#: Default bound on reconnect attempts after a server failure. Long
#: eval runs survive a scorer restart (the connection heals on a later
#: batch); a server that stays dead exhausts the budget and the model
#: degrades permanently, exactly like the pre-reconnect behaviour.
DEFAULT_MAX_RECONNECTS = 3


def request_candidates(request: GuidanceRequest) -> List[object]:
    """The concrete output classes a request's distribution ranges over.

    Candidate-carrying methods (column/aggregate/comparison/value/
    limit_value) name them explicitly in ``args``; the fixed-arity
    methods (clause presence, logic, direction, HAVING presence) have
    implicit class lists that every backend agrees on. The server
    backend ships these to the scorer and zips the returned weights
    back onto the same objects, so the caller always receives a
    distribution over its own candidates.
    """
    method, args = request.method, request.args
    if method == "clause_presence" or method == "having_presence":
        return [True, False]
    if method == "num_items":
        return list(range(1, args[1] + 1))
    if method == "logic":
        return [LogicOp.AND, LogicOp.OR]
    if method == "direction":
        return [(direction, flag)
                for direction in (Direction.ASC, Direction.DESC)
                for flag in (False, True)]
    if method in ("column", "aggregate", "comparison", "value"):
        return list(args[-1])
    if method == "limit_value":
        return list(args[0])
    raise GuidanceError(f"unknown guidance method {method!r}")


@dataclass
class AmortisationCounters(Counters):
    """What the batching layer saved, as running totals.

    The search engine snapshots these at run start and records the
    per-run deltas into telemetry (the same delta discipline the shared
    probe cache uses), so a wrapper shared across tasks never
    attributes one task's traffic to another. Fields carry their
    telemetry names.
    """

    #: requests entering the wrapper (scheduler batches + per-call)
    guide_requests: int = 0
    #: requests actually scored by the inner model (post-dedup, post-cache)
    guide_calls: int = 0
    #: requests answered from the distribution cache
    guide_hits: int = 0
    #: inner-model invocations (batched round trips + per-call misses)
    guide_batch_calls: int = 0
    #: successful reconnects of a server backend (the inner model's
    #: running total, refreshed at every scorer switch)
    guidance_reconnects: int = 0


class GuidanceCache:
    """A bounded, thread-safe LRU of request key -> distribution.

    Distributions are immutable (frozen dataclasses), so handing the
    same object to many search states is safe — the scheduler already
    shares them within a round. The bound is entries, evicted least
    recently used; an over-small cache costs recomputation, never
    correctness.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE):
        if max_entries < 1:
            raise GuidanceError(
                f"guidance cache needs at least 1 entry (got {max_entries})")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, Distribution]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Tuple) -> Optional[Distribution]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Tuple, distribution: Distribution) -> None:
        with self._lock:
            self._entries[key] = distribution
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class _RequestScoringModel(GuidanceModel):
    """Routes every per-decision method through :meth:`_score_request`.

    The argument tuples below must match the ones the enumerator's
    expansion handlers build, so a per-call request and its
    scheduler-batched twin produce equal cache keys.
    """

    def _score_request(self, request: GuidanceRequest) -> Distribution:
        raise NotImplementedError

    def clause_presence(self, ctx: GuidanceContext,
                        clause: str) -> Distribution[bool]:
        return self._score_request(
            GuidanceRequest("clause_presence", ctx, (clause,)))

    def num_items(self, ctx: GuidanceContext, slot: str,
                  max_n: int) -> Distribution[int]:
        return self._score_request(
            GuidanceRequest("num_items", ctx, (slot, max_n)))

    def column(self, ctx: GuidanceContext, slot: str,
               candidates: Sequence[ColumnRef]) -> Distribution[ColumnRef]:
        return self._score_request(
            GuidanceRequest("column", ctx, (slot, tuple(candidates))))

    def aggregate(self, ctx: GuidanceContext, slot: str, column: ColumnRef,
                  candidates: Sequence[AggOp]) -> Distribution[AggOp]:
        return self._score_request(
            GuidanceRequest("aggregate", ctx,
                            (slot, column, tuple(candidates))))

    def comparison(self, ctx: GuidanceContext, slot: str, column: ColumnRef,
                   candidates: Sequence[CompOp]) -> Distribution[CompOp]:
        return self._score_request(
            GuidanceRequest("comparison", ctx,
                            (slot, column, tuple(candidates))))

    def logic(self, ctx: GuidanceContext) -> Distribution[LogicOp]:
        return self._score_request(GuidanceRequest("logic", ctx))

    def direction(self, ctx: GuidanceContext,
                  column: ColumnRef) -> Distribution[Tuple[Direction, bool]]:
        return self._score_request(
            GuidanceRequest("direction", ctx, (column,)))

    def having_presence(self, ctx: GuidanceContext) -> Distribution[bool]:
        return self._score_request(GuidanceRequest("having_presence", ctx))

    def value(self, ctx: GuidanceContext, slot: str, column: ColumnRef,
              candidates: Sequence[object]) -> Distribution[object]:
        return self._score_request(
            GuidanceRequest("value", ctx,
                            (slot, column, tuple(candidates))))

    def limit_value(self, ctx: GuidanceContext,
                    candidates: Sequence[int]) -> Distribution[int]:
        return self._score_request(
            GuidanceRequest("limit_value", ctx, (tuple(candidates),)))


class BatchingGuidanceModel(_RequestScoringModel):
    """Dedup + memoise wrapper that makes ``score_batch`` amortise.

    Per batch, identical requests (equal cache keys) are scored once;
    across batches, the bounded :class:`GuidanceCache` answers repeats
    without touching the inner model at all. Per-call methods route
    through the same cache, so an ``expand_with(dist=None)`` fallback
    sees exactly the distribution a scheduled batch would have.
    """

    def __init__(self, inner: GuidanceModel,
                 cache_size: int = DEFAULT_CACHE_SIZE):
        if isinstance(inner, BatchingGuidanceModel):
            raise GuidanceError(
                "guidance model is already wrapped for batching")
        self.inner = inner
        self.name = f"batched({inner.name})"
        self.cache = GuidanceCache(cache_size)
        self.counters = AmortisationCounters()
        self._scorer_epoch = 0
        # Resolve the cache-key function once: a model that declares
        # which context fields it reads (GuidanceModel.cache_fields)
        # gets the tighter projected key, everything else the
        # conservative full-context key. Resolved here rather than per
        # request so an invalid declaration fails at wrap time.
        fields = None
        declare = getattr(inner, "cache_fields", None)
        if callable(declare):
            fields = declare()
        if fields is None:
            self._request_key = GuidanceRequest.cache_key
        else:
            fields = tuple(fields)
            unknown = [f for f in fields if f not in CACHE_FIELDS]
            if unknown:
                raise GuidanceError(
                    f"{inner.name}.cache_fields() declared unknown "
                    f"fields {unknown}; expected names from "
                    f"{CACHE_FIELDS}")
            self._request_key = \
                lambda request, _fields=fields: request.projected_key(_fields)
        self.cache_key_fields = fields

    # The server backend's degrade state shines through the wrapper so
    # the engine can read it from whatever model it was handed.
    @property
    def degraded(self) -> bool:
        return bool(getattr(self.inner, "degraded", False))

    @property
    def degrade_reason(self) -> str:
        return str(getattr(self.inner, "degrade_reason", ""))

    def close(self) -> None:
        close_guidance(self.inner)

    # ------------------------------------------------------------------
    def _flush_on_degrade(self) -> None:
        """Drop every cached distribution whenever the inner model
        switches scorer. A degrade swaps the server's answers for the
        fallback's; a reconnect swaps them back — either way, serving
        the previous scorer's cached distributions afterwards would mix
        scorers indefinitely. The server backend counts switches in
        ``scorer_epoch``; models without one flush once on a permanent
        degrade (the legacy behaviour). Every reconnect is such a
        switch, so the reconnect counter is refreshed here too.
        """
        epoch = getattr(self.inner, "scorer_epoch", None)
        if epoch is None:
            epoch = 1 if self.degraded else 0
        if epoch != self._scorer_epoch:
            self._scorer_epoch = epoch
            self.cache.clear()
            self.counters.guidance_reconnects = int(
                getattr(self.inner, "reconnects", 0))

    def _score_request(self, request: GuidanceRequest) -> Distribution:
        self._flush_on_degrade()
        counters = self.counters
        counters.guide_requests += 1
        key = self._request_key(request)
        cached = self.cache.get(key)
        if cached is not None:
            counters.guide_hits += 1
            return cached
        counters.guide_calls += 1
        counters.guide_batch_calls += 1
        distribution = request.invoke(self.inner)
        # The degrade may have happened during this very call; flush
        # before caching so the entry stored below is the fallback's.
        self._flush_on_degrade()
        self.cache.put(key, distribution)
        return distribution

    def score_batch(self, requests: Sequence[GuidanceRequest]
                    ) -> List[Distribution]:
        self._flush_on_degrade()
        counters = self.counters
        counters.guide_requests += len(requests)
        results: List[Optional[Distribution]] = [None] * len(requests)
        #: key -> positions awaiting that key's distribution, in
        #: first-occurrence order (dedup within the round)
        fresh: Dict[Tuple, List[int]] = {}
        for position, request in enumerate(requests):
            key = self._request_key(request)
            positions = fresh.get(key)
            if positions is not None:
                # An in-batch duplicate: it will be served from the
                # first occurrence's distribution, so it counts as a
                # hit — keeping guide_requests == guide_calls +
                # guide_hits, which the telemetry columns rely on.
                positions.append(position)
                counters.guide_hits += 1
                continue
            cached = self.cache.get(key)
            if cached is not None:
                counters.guide_hits += 1
                results[position] = cached
            else:
                fresh[key] = [position]
        if fresh:
            unique = [requests[positions[0]]
                      for positions in fresh.values()]
            counters.guide_calls += len(unique)
            counters.guide_batch_calls += 1
            distributions = self.inner.score_batch(unique)
            if len(distributions) != len(unique):
                raise GuidanceError(
                    f"{self.inner.name}.score_batch returned "
                    f"{len(distributions)} distributions for "
                    f"{len(unique)} requests")
            # The degrade may have happened during this very batch;
            # flush before caching so the entries stored below are the
            # fallback's answers, not the failed server's.
            self._flush_on_degrade()
            for (key, positions), distribution in zip(fresh.items(),
                                                      distributions):
                self.cache.put(key, distribution)
                for position in positions:
                    results[position] = distribution
        return results  # type: ignore[return-value]


class ServerGuidanceModel(_RequestScoringModel):
    """Scores request batches on an out-of-process scorer.

    Protocol (the NDJSON codec of :mod:`repro.wire` over a TCP socket;
    ``examples/guidance_server.py`` implements the other end):

    request::

        {"v": 1, "id": 7, "requests": [
            {"method": "column", "task": "t3", "nlq": "...",
             "schema": "movies", "args": ["select"],
             "candidates": ["ColumnRef(table='movie', ...)", ...]},
            ...]}

    response::

        {"id": 7, "scores": [[0.4, 1.3, ...], ...]}

    ``scores`` must align positionally with ``requests`` and each inner
    list with that request's ``candidates``; the client softmaxes the
    raw scores onto its own candidate objects
    (:meth:`Distribution.from_scores`), so only weights cross the wire.

    Degrade semantics mirror the verification pools, with a bounded
    self-heal: any connection error, timeout, or protocol violation
    logs a warning, sets :attr:`degraded`/:attr:`degrade_reason`,
    closes the socket, and routes every request — including the failed
    batch — to the local ``fallback`` model. Unlike the pools, a
    degraded server model may *reconnect*: while the reconnect budget
    (``max_reconnects``) lasts, each later batch attempts a fresh
    connection + handshake, so a long eval run survives a scorer
    restart (successful heals are counted in :attr:`reconnects` and
    surfaced as ``SearchTelemetry.guidance_reconnects``). Once the
    budget is exhausted — or the handshake reveals a protocol-version
    mismatch, which no reconnect can fix — the degrade is permanent.
    Every scorer switch (server→fallback and back) bumps
    :attr:`scorer_epoch`, which the batching wrapper watches to flush
    its distribution cache, so cached answers never mix scorers.

    On every (re)connect the client performs the :mod:`repro.wire`
    **handshake**: it sends ``{"v": 1, "id": N, "hello": true}`` and
    expects ``{"id": N, "v": 1}`` back; a server advertising a different
    protocol version is rejected up front instead of mis-parsing score
    traffic later.
    """

    #: Backoff between reconnect attempts. Reconnects used to fire
    #: back-to-back — three attempts burned in microseconds against a
    #: restarting scorer that needed a beat to come up. ``attempts``
    #: here only sizes the delay schedule; the bound stays
    #: ``max_reconnects``.
    RECONNECT_POLICY = RetryPolicy(attempts=DEFAULT_MAX_RECONNECTS + 1,
                                   base_delay=0.1, max_delay=2.0)

    def __init__(self, address: str, fallback: GuidanceModel,
                 timeout: float = DEFAULT_TIMEOUT,
                 max_reconnects: int = DEFAULT_MAX_RECONNECTS):
        self.address = address
        self.host, self.port = wire.parse_address(address)
        self.fallback = fallback
        self.timeout = timeout
        self.name = f"server({address})"
        self.degraded = False
        self.degrade_reason = ""
        #: successful reconnects after a failure (telemetry)
        self.reconnects = 0
        #: bumped on every scorer switch (degrade or heal); the batching
        #: wrapper flushes its distribution cache when it changes
        self.scorer_epoch = 0
        self._max_reconnects = max(0, int(max_reconnects))
        self._reconnects_left = self._max_reconnects
        self._permanent = False
        #: injectable for tests (recording backoff without waiting)
        self._sleep = time.sleep
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._ids = itertools.count()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def _degrade(self, reason: str) -> None:
        if not self.degraded:
            self.degraded = True
            self.degrade_reason = reason
            self.scorer_epoch += 1
            if self._permanent or self._reconnects_left <= 0:
                self._permanent = True
                logger.warning(
                    "guidance server %s unavailable (%s); degrading to "
                    "the local %s model for the rest of the run",
                    self.address, reason, self.fallback.name)
            else:
                logger.warning(
                    "guidance server %s unavailable (%s); degrading to "
                    "the local %s model (will attempt up to %d "
                    "reconnects)", self.address, reason,
                    self.fallback.name, self._reconnects_left)
        self.close()

    def _give_up(self, reason: str) -> None:
        """Make the current degrade permanent (budget spent/mismatch)."""
        if not self._permanent:
            self._permanent = True
            logger.warning(
                "guidance server %s: giving up on reconnects (%s); the "
                "local %s model serves the rest of the run",
                self.address, reason, self.fallback.name)

    def _try_reconnect(self) -> bool:
        """One bounded attempt to heal a degraded connection.

        Returns True when the server is connected and handshaken again
        (the caller then serves the batch from it); False keeps the
        batch on the fallback. Each failed attempt consumes budget; a
        protocol mismatch forfeits the rest of it.
        """
        if self._permanent:
            return False
        # Jittered exponential backoff before each attempt: a scorer
        # that just died needs a beat to restart, and back-to-back
        # attempts would burn the whole budget in microseconds.
        attempt = self._max_reconnects - self._reconnects_left
        delay = self.RECONNECT_POLICY.delay_for(attempt)
        if delay > 0:
            self._sleep(delay)
        self._reconnects_left -= 1
        try:
            with self._lock:
                self._ensure_connection()
        except wire.ProtocolMismatch as exc:
            self.close()
            self._give_up(str(exc))
            return False
        except (OSError, ValueError, KeyError, TypeError,
                GuidanceError) as exc:
            self.close()
            if self._reconnects_left <= 0:
                self._give_up(str(exc) or type(exc).__name__)
            return False
        self.reconnects += 1
        self.degraded = False
        self.degrade_reason = ""
        self.scorer_epoch += 1
        logger.warning(
            "guidance server %s reconnected; resuming server scoring "
            "(%d reconnect attempts left)", self.address,
            self._reconnects_left)
        return True

    def close(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _ensure_connection(self) -> None:
        if self._sock is None:
            injector = faults.ACTIVE
            if injector is not None:
                faults.fire_guidance_connect(injector)
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
            sock.settimeout(self.timeout)
            self._sock = sock
            self._reader = sock.makefile("rb")
            request_id = next(self._ids)
            sock.sendall(wire.encode(wire.hello_request(request_id)))
            wire.check_hello_reply(self._read_line(), request_id)

    def _read_line(self) -> Dict[str, object]:
        line = self._reader.readline()
        if not line:
            raise OSError("server closed the connection")
        return wire.decode(line)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    @staticmethod
    def serialize(request: GuidanceRequest,
                  candidates: Sequence[object]) -> Dict[str, object]:
        """One request as its wire dict (see the class docstring)."""
        ctx = request.ctx
        return {
            "method": request.method,
            "task": ctx.task_id,
            "nlq": ctx.nlq.text,
            "schema": ctx.schema.name,
            "args": [repr(arg) for arg in request.args
                     if not isinstance(arg, tuple)],
            "candidates": [repr(candidate) for candidate in candidates],
        }

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _score_request(self, request: GuidanceRequest) -> Distribution:
        return self.score_batch([request])[0]

    def score_batch(self, requests: Sequence[GuidanceRequest]
                    ) -> List[Distribution]:
        if not requests:
            return []
        if self.degraded and not self._try_reconnect():
            return self.fallback.score_batch(requests)
        try:
            # Candidate-list construction is inside the degrade guard:
            # a request this module cannot ship (an unknown method) must
            # fall back like any other failure, not abort the run.
            candidate_lists = [request_candidates(request)
                               for request in requests]
            scores = self._round_trip(
                [self.serialize(request, candidates)
                 for request, candidates in zip(requests, candidate_lists)])
            return [self._distribution(candidates, weights)
                    for candidates, weights in zip(candidate_lists, scores)]
        except wire.ProtocolMismatch as exc:
            # A version-incompatible peer: no reconnect can fix it, so
            # forfeit the budget and degrade for good.
            self._give_up(str(exc))
            self._degrade(str(exc))
            return self.fallback.score_batch(requests)
        except (OSError, ValueError, KeyError, TypeError,
                GuidanceError) as exc:
            # OSError covers refused connections, timeouts and resets;
            # the rest are protocol violations (bad JSON surfaces as
            # ValueError). Either way: degrade visibly, answer locally —
            # and heal on a later batch while the budget lasts.
            self._degrade(str(exc) or type(exc).__name__)
            return self.fallback.score_batch(requests)

    def _round_trip(self, serialized: List[Dict[str, object]]
                    ) -> List[List[float]]:
        with self._lock:
            self._ensure_connection()
            injector = faults.ACTIVE
            if injector is not None:
                faults.fire_guidance_transport(injector)
            request_id = next(self._ids)
            assert self._sock is not None
            self._sock.sendall(wire.encode({"v": wire.PROTOCOL_VERSION,
                                            "id": request_id,
                                            "requests": serialized}))
            payload = self._read_line()
        if payload.get("id") != request_id:
            raise GuidanceError(
                f"response id {payload.get('id')!r} does not match "
                f"request id {request_id}")
        scores = payload["scores"]
        if not isinstance(scores, list) or len(scores) != len(serialized):
            raise GuidanceError(
                f"expected {len(serialized)} score lists, got "
                f"{len(scores) if isinstance(scores, list) else scores!r}")
        return scores

    @staticmethod
    def _distribution(candidates: Sequence[object],
                      weights: Sequence[object]) -> Distribution:
        if not candidates:
            return Distribution(entries=())
        if not isinstance(weights, list) or len(weights) != len(candidates):
            raise GuidanceError(
                f"expected {len(candidates)} scores per request, got "
                f"{weights!r}")
        numeric = [float(weight) for weight in weights]
        if any(weight != weight or weight in (float("inf"), float("-inf"))
               for weight in numeric):
            raise GuidanceError(f"non-finite score in {numeric!r}")
        return Distribution.from_scores(list(zip(candidates, numeric)))


def make_guidance_backend(model: GuidanceModel, *,
                          cache_size: int = DEFAULT_CACHE_SIZE,
                          server: Optional[str] = None,
                          timeout: float = DEFAULT_TIMEOUT,
                          max_reconnects: int = DEFAULT_MAX_RECONNECTS
                          ) -> BatchingGuidanceModel:
    """Serve ``model`` through a :class:`BatchingGuidanceModel`.

    ``server`` interposes a :class:`ServerGuidanceModel` under the
    wrapper (with ``model`` as its degrade fallback, and
    ``max_reconnects`` bounding its self-heal attempts). A model that
    is already wrapped comes back unchanged — its wrapper's owner chose
    the backend — so every layer can apply this unconditionally.
    """
    if isinstance(model, BatchingGuidanceModel):
        return model
    if server:
        model = ServerGuidanceModel(server, fallback=model, timeout=timeout,
                                    max_reconnects=max_reconnects)
    return BatchingGuidanceModel(model, cache_size=cache_size)


def close_guidance(model: GuidanceModel) -> None:
    """Release a guidance backend's resources (no-op for plain models)."""
    close = getattr(model, "close", None)
    if callable(close):
        close()
