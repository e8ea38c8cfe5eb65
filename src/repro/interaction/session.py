"""The dual-specification interaction model (Figure 1 of the paper).

A session tracks the iterative loop: the user issues an NLQ plus an
optional TSQ, receives a ranked candidate list, and either accepts a
candidate, rephrases the NLQ, or refines the TSQ with more information.
The session also provides the candidate-inspection affordances of the
front end (Section 4): SQL text, a 20-row "Query Preview", and a full
result view.

The loop itself lives in :class:`SessionCore`, a transport-agnostic
state machine (``created → enumerating → awaiting-refinement →
done/cancelled``) driven by both the CLI (``duoquest demo``) and the
synthesis daemon (``repro.serve``). :class:`DuoquestSession` layers the
front-end affordances (autocomplete, previews) on top of a core — it is
what library users and the user simulator interact with.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core.duoquest import Duoquest, SynthesisResult
from ..core.enumerator import Candidate
from ..core.search import CancelToken
from ..core.tsq import TableSketchQuery, cell
from ..db.database import Database, Row
from ..nlq.literals import NLQuery
from ..sqlir.render import to_sql
from .autocomplete import AutocompleteServer

#: Preview row limit of the front end's "Query Preview" button.
PREVIEW_ROWS = 20

#: Explicit session states (the SessionCore state machine).
STATE_CREATED = "created"
STATE_ENUMERATING = "enumerating"
STATE_AWAITING_REFINEMENT = "awaiting-refinement"
STATE_DONE = "done"
STATE_CANCELLED = "cancelled"
#: Terminal crash containment: an engine exception during submit()
#: lands the session here (with :attr:`SessionCore.fail_reason`) —
#: never back in ``awaiting-refinement`` pretending nothing happened.
STATE_FAILED = "failed"

SESSION_STATES = (STATE_CREATED, STATE_ENUMERATING,
                  STATE_AWAITING_REFINEMENT, STATE_DONE, STATE_CANCELLED,
                  STATE_FAILED)


class SessionBudgetExceeded(RuntimeError):
    """A per-session candidate or probe budget ran out."""


@dataclass
class Round:
    """One iteration of the Figure 1 loop."""

    nlq: NLQuery
    tsq: Optional[TableSketchQuery]
    result: SynthesisResult


class SessionCore:
    """Transport-agnostic state for one refinement loop on one database.

    Owns the round history, the explicit state machine, cooperative
    cancellation (a :class:`CancelToken` per enumeration, fired by
    :meth:`cancel` from any thread), and per-session budgets:

    * ``max_candidates`` — total candidates this session may emit
      across all of its rounds; the running enumeration stops cleanly
      when the remainder is reached, and the next submit raises
      :class:`SessionBudgetExceeded`.
    * ``max_probes`` — total probe-cache misses (executed probes) the
      session may cause. Enforced mid-enumeration through a token
      watcher reading the live probe-cache counters when the system
      shares a probe cache, and between rounds from telemetry
      otherwise.

    Both the CLI ``demo`` path and the daemon drive this same object,
    which is what keeps their candidate streams bit-for-bit identical.
    """

    def __init__(self, system: Duoquest, session_id: str = "",
                 max_candidates: Optional[int] = None,
                 max_probes: Optional[int] = None,
                 on_release: Optional[Callable[[], None]] = None):
        self.system = system
        self.session_id = session_id
        self.rounds: List[Round] = []
        self.state = STATE_CREATED
        #: why the session reached ``failed`` ("" otherwise)
        self.fail_reason = ""
        self.max_candidates = max_candidates
        self.max_probes = max_probes
        #: candidates emitted / probes executed across all rounds
        self.candidates_emitted = 0
        self.probes_executed = 0
        #: teardown hook fired exactly once when the session reaches a
        #: terminal state (done or cancelled) — the daemon wires it to
        #: the probe-cache registry's per-database lease release
        self._on_release = on_release
        self._released = False
        self._token: Optional[CancelToken] = None
        self._lock = threading.Lock()

    def _fire_release(self) -> None:
        """Invoke the teardown hook once (call without the lock held —
        the hook touches external registries with their own locks)."""
        with self._lock:
            if self._released or self._on_release is None:
                return
            self._released = True
            hook = self._on_release
        hook()

    # ------------------------------------------------------------------
    @property
    def db(self) -> Database:
        return self.system.db

    @property
    def last_result(self) -> Optional[SynthesisResult]:
        return self.rounds[-1].result if self.rounds else None

    @property
    def cancelled(self) -> bool:
        return self.state == STATE_CANCELLED

    def _remaining_candidates(self) -> Optional[int]:
        if self.max_candidates is None:
            return None
        return max(0, self.max_candidates - self.candidates_emitted)

    def _remaining_probes(self) -> Optional[int]:
        if self.max_probes is None:
            return None
        return max(0, self.max_probes - self.probes_executed)

    def budgets(self) -> dict:
        """A status snapshot of the session's budgets (daemon verb)."""
        return {
            "max_candidates": self.max_candidates,
            "candidates_emitted": self.candidates_emitted,
            "max_probes": self.max_probes,
            "probes_executed": self.probes_executed,
        }

    # ------------------------------------------------------------------
    def submit(self, nlq: NLQuery,
               tsq: Optional[TableSketchQuery] = None,
               stop_when: Optional[Callable[[Candidate], bool]] = None,
               ) -> SynthesisResult:
        """Run one enumeration round; returns its ranked candidates.

        Valid from ``created`` and ``awaiting-refinement``; the session
        is ``enumerating`` while the search runs and settles to
        ``awaiting-refinement`` (or ``cancelled``, if :meth:`cancel`
        fired mid-run) afterwards.
        """
        with self._lock:
            if self.state not in (STATE_CREATED,
                                  STATE_AWAITING_REFINEMENT):
                raise RuntimeError(
                    f"cannot submit in state {self.state!r}")
            remaining = self._remaining_candidates()
            probe_room = self._remaining_probes()
            if remaining == 0:
                raise SessionBudgetExceeded(
                    f"session candidate budget exhausted "
                    f"({self.max_candidates})")
            if probe_room == 0:
                raise SessionBudgetExceeded(
                    f"session probe budget exhausted ({self.max_probes})")
            token = CancelToken()
            self._token = token
            self.state = STATE_ENUMERATING
        cache = self.system.probe_cache
        if probe_room is not None and cache is not None:
            # Mid-enumeration probe-budget enforcement: the watcher
            # reads the live cache miss counter (misses == executed
            # probes). Sessions of one database are serialised by the
            # daemon, so the delta is this enumeration's own traffic;
            # in a genuinely concurrent setup the check is merely
            # conservative (it can only stop early, never late).
            counters = cache.counters
            misses_at_start = counters.probe_misses

            def over_probe_budget() -> Optional[str]:
                if counters.probe_misses - misses_at_start >= probe_room:
                    return (f"session probe budget exhausted "
                            f"({self.max_probes})")
                return None

            token.watch(over_probe_budget)

        emitted_this_round = 0

        def stop(candidate: Candidate) -> bool:
            nonlocal emitted_this_round
            emitted_this_round += 1
            if stop_when is not None and stop_when(candidate):
                return True
            return remaining is not None \
                and emitted_this_round >= remaining

        try:
            result = self.system.synthesize(nlq, tsq, stop_when=stop,
                                            cancel_token=token)
        except BaseException as exc:
            with self._lock:
                self._settle(token)
                if self.state != STATE_CANCELLED:
                    # Crash containment: the enumeration died, so this
                    # session is over — settling back to
                    # awaiting-refinement would advertise a next round
                    # the engine may be unable to serve. Terminal, with
                    # a reason the status verb can report.
                    self.state = STATE_FAILED
                    self.fail_reason = f"{type(exc).__name__}: {exc}"
            self._fire_release()
            raise
        with self._lock:
            self.rounds.append(Round(nlq=nlq, tsq=tsq, result=result))
            self.candidates_emitted += len(result.candidates)
            if result.telemetry is not None:
                self.probes_executed += result.telemetry.probe_misses
            self._settle(token)
        if self.state == STATE_CANCELLED:
            self._fire_release()
        return result

    def _settle(self, token: CancelToken) -> None:
        """Post-enumeration state transition (lock held)."""
        self._token = None
        if self.state == STATE_CANCELLED:
            return
        if token.cancelled and not token.reason.startswith(
                "session probe budget"):
            self.state = STATE_CANCELLED
        else:
            self.state = STATE_AWAITING_REFINEMENT

    # ------------------------------------------------------------------
    def rephrase(self, new_text: str,
                 literals: Optional[Sequence[object]] = None
                 ) -> SynthesisResult:
        """Option 3a of Figure 1: rephrase the NLQ, keep the TSQ."""
        if not self.rounds:
            raise RuntimeError("no NLQ submitted yet")
        nlq = NLQuery.from_text(new_text, literals=literals)
        return self.submit(nlq, self.rounds[-1].tsq)

    def refine_tsq(self, extra_rows: Sequence[Sequence[object]] = (),
                   sorted: Optional[bool] = None,
                   limit: Optional[int] = None,
                   negative_rows: Sequence[Sequence[object]] = (),
                   tolerance: Optional[int] = None) -> SynthesisResult:
        """Option 3b of Figure 1: add information to the TSQ, keep the NLQ.

        ``extra_rows`` use the same plain-value cell convention as
        :meth:`TableSketchQuery.build`. ``negative_rows`` add tuples that
        must *not* appear in the result (Section 7's "negative examples
        by clicking a candidate query preview"); ``tolerance`` relaxes
        the match requirement for noisy examples.
        """
        if not self.rounds:
            raise RuntimeError("no NLQ submitted yet")
        last = self.rounds[-1]
        base = last.tsq or TableSketchQuery()
        new_tuples = base.tuples + tuple(
            tuple(cell(v) for v in row) for row in extra_rows)
        new_negatives = base.negative_tuples + tuple(
            tuple(cell(v) for v in row) for row in negative_rows)
        refined = TableSketchQuery(
            types=base.types,
            tuples=new_tuples,
            sorted=base.sorted if sorted is None else sorted,
            limit=base.limit if limit is None else limit,
            negative_tuples=new_negatives,
            tolerance=base.tolerance if tolerance is None else tolerance)
        return self.submit(last.nlq, refined)

    # ------------------------------------------------------------------
    def cancel(self, reason: str = "cancelled by user") -> None:
        """Cancel the session (thread-safe, cooperative).

        An in-flight enumeration stops at its next engine checkpoint
        (surfaced as ``SearchTelemetry.cancelled``); an idle session
        transitions straight to ``cancelled``. Idempotent.
        """
        with self._lock:
            if self.state in (STATE_DONE, STATE_CANCELLED, STATE_FAILED):
                return
            self.state = STATE_CANCELLED
            token = self._token
        if token is not None:
            token.cancel(reason)
        self._fire_release()

    def close(self) -> None:
        """Finish the session normally (``done``). Idempotent; a
        cancelled or failed session keeps its terminal state."""
        with self._lock:
            terminal = self.state in (STATE_CANCELLED, STATE_FAILED)
            if not terminal:
                self.state = STATE_DONE
            token = self._token
        if not terminal and token is not None:
            token.cancel("session closed")
        self._fire_release()


class DuoquestSession:
    """Interactive state for one user working on one database.

    A thin front-end facade over :class:`SessionCore` adding the
    inspection affordances (autocomplete, SQL text, previews); the
    refinement loop itself — rounds, state, budgets, cancellation — is
    the core's.
    """

    def __init__(self, system: Duoquest,
                 autocomplete: AutocompleteServer,
                 rounds: Optional[List[Round]] = None,
                 core: Optional[SessionCore] = None):
        self.core = core or SessionCore(system)
        if rounds:
            self.core.rounds.extend(rounds)
        self.autocomplete = autocomplete

    @classmethod
    def open(cls, db: Database, system: Optional[Duoquest] = None
             ) -> "DuoquestSession":
        return cls(system=system or Duoquest(db),
                   autocomplete=AutocompleteServer(db))

    # ------------------------------------------------------------------
    @property
    def system(self) -> Duoquest:
        return self.core.system

    @property
    def rounds(self) -> List[Round]:
        return self.core.rounds

    @property
    def db(self) -> Database:
        return self.core.db

    def submit(self, nlq: NLQuery,
               tsq: Optional[TableSketchQuery] = None) -> SynthesisResult:
        """Issue an NLQ (+ optional TSQ); returns ranked candidates."""
        return self.core.submit(nlq, tsq)

    def rephrase(self, new_text: str,
                 literals: Optional[Sequence[object]] = None
                 ) -> SynthesisResult:
        """Option 3a of Figure 1: rephrase the NLQ, keep the TSQ."""
        return self.core.rephrase(new_text, literals=literals)

    def refine_tsq(self, extra_rows: Sequence[Sequence[object]] = (),
                   sorted: Optional[bool] = None,
                   limit: Optional[int] = None,
                   negative_rows: Sequence[Sequence[object]] = (),
                   tolerance: Optional[int] = None) -> SynthesisResult:
        """Option 3b of Figure 1: add information to the TSQ, keep the
        NLQ (see :meth:`SessionCore.refine_tsq`)."""
        return self.core.refine_tsq(extra_rows=extra_rows, sorted=sorted,
                                    limit=limit,
                                    negative_rows=negative_rows,
                                    tolerance=tolerance)

    # ------------------------------------------------------------------
    # Candidate inspection (front-end affordances)
    # ------------------------------------------------------------------
    def candidate_sql(self, candidate: Candidate) -> str:
        return to_sql(candidate.query)

    def preview(self, candidate: Candidate) -> List[Row]:
        """The 20-row "Query Preview" of a candidate."""
        return self.db.execute(to_sql(candidate.query),
                               max_rows=PREVIEW_ROWS, kind="preview")

    def full_view(self, candidate: Candidate,
                  max_rows: int = 5000) -> List[Row]:
        """The "Full Query View" of a candidate (row-capped for safety)."""
        return self.db.execute(to_sql(candidate.query), max_rows=max_rows,
                               kind="preview")
