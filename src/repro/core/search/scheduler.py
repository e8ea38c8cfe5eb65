"""Decision scheduler: batches guidance calls per expansion round.

The seed enumerator asked the guidance model one question at a time.
The scheduler instead collects every pending decision of a round (one
per state being expanded) and pushes them through
:meth:`repro.guidance.base.GuidanceModel.score_batch` in a single call.
The model it is handed is always a
:class:`repro.guidance.batched.BatchingGuidanceModel`, so the call
deduplicates identical requests within the round and serves repeats
from a bounded distribution cache — and, with a
:class:`~repro.guidance.batched.ServerGuidanceModel` under the wrapper,
ships the whole round to an out-of-process scorer in one round trip.

Distributions are memoised by partial query, so a state whose batch
was cut short by a push-back (see the engine) reuses its already-scored
distribution when it surfaces again instead of paying a second model
call. The requests themselves are memoised too — on
``SearchState.request`` by the domain — so re-scheduling a pushed-back
state never rebuilds its candidate list.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ...guidance.base import Distribution, GuidanceModel, GuidanceRequest
from ...sqlir.ast import Query


class DecisionScheduler:
    """Batches guidance requests and memoises their distributions."""

    def __init__(self, model: GuidanceModel):
        self.model = model
        self.batches = 0
        self.calls = 0
        self._memo: Dict[Query, Distribution] = {}

    def schedule(self, pending: Sequence[Tuple[Query, GuidanceRequest]]
                 ) -> None:
        """Score every not-yet-memoised request in one batch call."""
        fresh = [(query, request) for query, request in pending
                 if query not in self._memo]
        if not fresh:
            return
        self.batches += 1
        self.calls += len(fresh)
        distributions = self.model.score_batch(
            [request for _, request in fresh])
        if len(distributions) != len(fresh):
            raise ValueError(
                f"score_batch returned {len(distributions)} distributions "
                f"for {len(fresh)} requests")
        for (query, _), distribution in zip(fresh, distributions):
            self._memo[query] = distribution

    def distribution_for(self, query: Query) -> Optional[Distribution]:
        """The memoised distribution for a partial query, if scored."""
        return self._memo.pop(query, None)
