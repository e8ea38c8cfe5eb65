"""The Duoquest system facade.

Wires together the guidance model, GPQE enumerator, join path builder and
verifier into the dual-specification synthesis API of the paper's problem
definition (Section 2.3): given a database, an NLQ with tagged literals,
and an optional TSQ, produce a ranked list of candidate SQL queries, each
guaranteed to satisfy the TSQ (soundness).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..db.database import Database
from ..guidance.base import GuidanceModel
from ..guidance.batched import close_guidance, make_guidance_backend
from ..guidance.lexical import LexicalGuidanceModel
from ..nlq.literals import NLQuery
from ..sqlir.ast import Query
from ..sqlir.render import to_sql
from .enumerator import Candidate, Enumerator, EnumeratorConfig
from .search import CancelToken, PoolManager, SearchTelemetry
from .tsq import TableSketchQuery
from .verifier import SharedProbeCache, Verifier


@dataclass
class SynthesisResult:
    """Outcome of one synthesis run."""

    candidates: List[Candidate]
    elapsed: float
    expansions: int
    timed_out: bool
    verifier_stats: dict = field(default_factory=dict)
    #: per-stage search telemetry (engine, prunes, cache hit rate, ...)
    telemetry: Optional[SearchTelemetry] = None

    def ranked(self) -> List[Candidate]:
        """Candidates from highest to lowest confidence (ties: emission
        order, which already prefers shorter join paths)."""
        return sorted(self.candidates,
                      key=lambda c: (-c.confidence, c.index))

    def top(self, k: int) -> List[Candidate]:
        return self.ranked()[:k]

    def rank_of(self, predicate: Callable[[Query], bool]) -> Optional[int]:
        """1-based rank of the first candidate satisfying ``predicate``."""
        for rank, candidate in enumerate(self.ranked(), start=1):
            if predicate(candidate.query):
                return rank
        return None

    def sql(self, k: int = 10) -> List[str]:
        """The top-k candidates rendered to SQL."""
        return [to_sql(c.query) for c in self.top(k)]

    def __repr__(self) -> str:
        return (f"<SynthesisResult {len(self.candidates)} candidates in "
                f"{self.elapsed:.3f}s>")


class Duoquest:
    """Dual-specification query synthesis (Figure 3's Enumerator+Verifier).

    Example::

        system = Duoquest(db)
        result = system.synthesize(
            NLQuery.from_text('Find all movies before 1995.'),
            TableSketchQuery.build(types=['text'],
                                   rows=[['Forrest Gump']]))
        for candidate in result.top(10):
            print(to_sql(candidate.query))
    """

    def __init__(self, db: Database,
                 model: Optional[GuidanceModel] = None,
                 config: Optional[EnumeratorConfig] = None,
                 probe_cache: Optional[SharedProbeCache] = None,
                 pool_manager: Optional[PoolManager] = None):
        self.db = db
        self.config = config or EnumeratorConfig()
        given = model or LexicalGuidanceModel()
        # The facade — not the per-synthesize Enumerator — builds the
        # guidance backend: the batching wrapper's cache then amortises
        # across synthesize() calls, and a server backend opens one
        # connection per system instead of one per enumeration. A model
        # the caller wrapped already (the eval harness, the daemon)
        # comes back unchanged. close() releases only a server backend
        # the facade created; the caller's model stays the caller's.
        self.model = make_guidance_backend(
            given, cache_size=self.config.guidance_cache_size,
            server=self.config.guidance_server)
        self._owns_guidance = self.model is not given \
            and self.model.inner is not given
        #: optional shared probe cache; the eval harness passes one per
        #: database so probe answers are reused across tasks
        self.probe_cache = probe_cache
        #: optional warm verification-pool manager; the eval harness and
        #: the daemon pass one so worker threads persist across
        #: enumerations
        self.pool_manager = pool_manager

    def close(self) -> None:
        """Release the guidance server backend, if this facade created
        it. Never closes a model the caller passed in, wrapped or not.
        Idempotent.
        """
        if self._owns_guidance:
            close_guidance(self.model)

    def __enter__(self) -> "Duoquest":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def synthesize(self, nlq: NLQuery,
                   tsq: Optional[TableSketchQuery] = None,
                   gold: Optional[Query] = None,
                   task_id: str = "",
                   stop_when: Optional[Callable[[Candidate], bool]] = None,
                   cancel_token: Optional[CancelToken] = None,
                   ) -> SynthesisResult:
        """Run GPQE and collect candidates.

        ``gold``/``task_id`` are forwarded to the guidance context (used
        only by the calibrated oracle backend). ``stop_when`` lets the
        caller terminate as soon as a particular candidate appears — the
        simulation harness stops when the desired query is produced, as in
        Section 5.4.1. ``cancel_token`` is a cooperative
        :class:`~repro.core.search.CancelToken` polled by the engine;
        interactive sessions pass one so an in-flight enumeration can be
        cancelled (or budget-stopped) from another thread.
        """
        start = time.monotonic()
        enumerator = Enumerator(self.db, self.model, nlq, tsq=tsq,
                                config=self.config, gold=gold,
                                task_id=task_id,
                                probe_cache=self.probe_cache,
                                pool_manager=self.pool_manager,
                                cancel_token=cancel_token)
        candidates: List[Candidate] = []
        stream = enumerator.enumerate()
        try:
            for candidate in stream:
                candidates.append(candidate)
                if stop_when is not None and stop_when(candidate):
                    break
        finally:
            # Deterministic teardown on early stop: shuts the
            # verification pool down and finalises the telemetry before
            # the result snapshot below.
            stream.close()
        elapsed = time.monotonic() - start
        timed_out = (self.config.time_budget is not None
                     and elapsed >= self.config.time_budget)
        return SynthesisResult(candidates=candidates, elapsed=elapsed,
                               expansions=enumerator.expansions,
                               timed_out=timed_out,
                               verifier_stats=dict(enumerator.verifier.stats),
                               telemetry=enumerator.telemetry)
