"""Lexical guidance backend: a real (heuristic) NL2SQL scorer.

This backend fills the role of the trained SyntaxSQLNet network using only
lexical evidence: schema linking scores (token/stem overlap between the NLQ
and schema identifiers) plus cue-word detectors for aggregates, comparisons,
ordering and grouping. It is deterministic and requires no training, which
makes it useful for examples, tests, and as a genuinely NLQ-driven
end-to-end demonstration of GPQE.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from ..nlq.linking import LinkScores, link_schema
from ..nlq.literals import NLQuery
from ..nlq.tokenize import contains_tokens, tokenize
from ..sqlir.ast import AggOp, ColumnRef, CompOp, Direction, LogicOp
from ..sqlir.types import ColumnType
from .base import (
    Distribution,
    GuidanceContext,
    GuidanceModel,
    SLOT_GROUP_BY,
    SLOT_HAVING,
    SLOT_ORDER_BY,
    SLOT_SELECT,
    SLOT_WHERE,
)

#: Cue phrases for each aggregate function.
_AGG_CUES: Dict[AggOp, Tuple[str, ...]] = {
    AggOp.COUNT: ("how many", "number of", "count", "total number"),
    AggOp.AVG: ("average", "mean", "avg"),
    AggOp.SUM: ("sum", "total", "combined", "altogether"),
    AggOp.MAX: ("maximum", "max", "most", "highest", "largest", "latest",
                "greatest", "biggest"),
    AggOp.MIN: ("minimum", "min", "least", "lowest", "smallest", "earliest",
                "fewest"),
}

_GT_CUES = ("more than", "greater than", "over", "above", "after",
            "exceeding", "later than")
_LT_CUES = ("less than", "fewer than", "under", "below", "before",
            "earlier than")
_GE_CUES = ("at least", "or more", "no less than", "minimum of")
_LE_CUES = ("at most", "or fewer", "no more than", "up to", "maximum of")
_BETWEEN_CUES = ("between",)
_LIKE_CUES = ("containing", "contains", "including", "includes", "like",
              "starting with", "ending with", "substring")
_NE_CUES = ("not equal", "other than", "excluding", "except")

_ORDER_CUES = ("order", "ordered", "sort", "sorted", "ranked", "rank",
               "descending", "ascending", "alphabetical", "earliest to",
               "oldest to", "most to least", "least to most", "from earliest",
               "from oldest", "from most", "top")
_DESC_CUES = ("descending", "most to least", "newest to oldest",
              "latest to earliest", "highest to lowest", "largest first",
              "decreasing", "most recent first", "top")
_GROUP_CUES = ("each", "every", "per", "for each", "group", "grouped",
               "respectively", "by author", "and the number of",
               "and their number of", "for all")
_OR_CUES = ("or", "either")


@functools.lru_cache(maxsize=None)
def _phrase_tokens(phrase: str) -> Tuple[str, ...]:
    # Only this module's constant cue phrases come here, so each is
    # tokenised once and the cache stays that small.
    return tuple(tokenize(phrase))


class _NLQState:
    """What the model keeps per NLQ text: its tokens, and its links to
    each schema it was asked about, per set of literal types (linking
    favours columns of a tagged literal's type, and the same text may
    arrive with different literals)."""

    __slots__ = ("tokens", "links")

    def __init__(self, text: str):
        self.tokens = tuple(tokenize(text))
        self.links: Dict[Tuple[str, FrozenSet[ColumnType]],
                         LinkScores] = {}


class LexicalGuidanceModel(GuidanceModel):
    """Guidance from schema linking and cue words only.

    The model tokenises each NLQ text once and links it once per schema;
    every cue test scans those tokens for the cue phrase's tokens. Both
    live in one LRU over NLQ texts bounded at :attr:`MAX_NLQS`, so a
    daemon that keeps one model for its lifetime holds the state of its
    most recent NLQs only; an evicted text is read again when it returns.
    """

    name = "lexical"

    #: NLQ texts whose tokens and links are kept (least recently used
    #: texts beyond this are dropped)
    MAX_NLQS = 1024

    #: Softmax temperature controlling how peaked column choices are.
    def __init__(self, temperature: float = 0.18):
        self._temperature = temperature
        #: NLQ text -> its state, least recently used first
        self._nlqs: "OrderedDict[str, _NLQState]" = OrderedDict()
        #: one model serves concurrent daemon sessions
        self._lock = threading.Lock()

    def cache_fields(self):
        """The lexical model's declared cache-key projection.

        Every distribution below is a deterministic function of the NLQ
        (its text, tokens, and typed literals), the schema (column types
        and the link scores derived from both), and the method's own
        arguments.  ``task_id`` and ``gold`` are never read, so dropping
        them from the cache key merges repeat decisions across tasks
        that share an utterance and schema without changing any answer.
        ``partial`` is declared even though no method reads it today:
        keeping it in the key is always sound, and it keeps the
        declaration valid if a future cue starts peeking at the partial
        query shape.  The equivalence suite locks the merge in.
        """
        return ("schema", "nlq", "partial")

    # ------------------------------------------------------------------
    def _state(self, nlq: NLQuery) -> _NLQState:
        """The state of ``nlq``'s text; call with ``_lock`` held."""
        nlqs = self._nlqs
        state = nlqs.get(nlq.text)
        if state is None:
            state = nlqs[nlq.text] = _NLQState(nlq.text)
            if len(nlqs) > self.MAX_NLQS:
                nlqs.popitem(last=False)
        else:
            nlqs.move_to_end(nlq.text)
        return state

    def _tokens(self, nlq: NLQuery) -> Tuple[str, ...]:
        with self._lock:
            return self._state(nlq).tokens

    def _links(self, ctx: GuidanceContext) -> LinkScores:
        key = (ctx.schema.name,
               frozenset(lit.type for lit in ctx.nlq.literals))
        with self._lock:
            links = self._state(ctx.nlq).links
            if key not in links:
                links[key] = link_schema(ctx.nlq, ctx.schema)
            return links[key]

    @staticmethod
    def _has_any(tokens: Tuple[str, ...], phrases: Sequence[str]) -> bool:
        return any(contains_tokens(tokens, _phrase_tokens(phrase))
                   for phrase in phrases)

    # -- KW --------------------------------------------------------------
    def clause_presence(self, ctx: GuidanceContext,
                        clause: str) -> Distribution[bool]:
        nlq = ctx.nlq
        tokens = self._tokens(nlq)
        if clause == SLOT_WHERE:
            evidence = 0.12
            if nlq.literals:
                evidence = 0.85
            if self._has_any(tokens, _GT_CUES + _LT_CUES + _BETWEEN_CUES
                             + _GE_CUES + _LE_CUES + _LIKE_CUES):
                evidence = max(evidence, 0.8)
            return Distribution.binary(evidence)
        if clause == SLOT_GROUP_BY:
            evidence = 0.55 if self._has_any(tokens, _GROUP_CUES) else 0.12
            # "number of X for each Y" is the strongest grouping signal.
            if self._has_any(tokens, ("for each", "per")) and \
                    self._has_any(tokens, _AGG_CUES[AggOp.COUNT]):
                evidence = 0.85
            return Distribution.binary(evidence)
        if clause == SLOT_ORDER_BY:
            evidence = 0.8 if self._has_any(tokens, _ORDER_CUES) else 0.08
            return Distribution.binary(evidence)
        return Distribution.binary(0.05)

    # -- set size ---------------------------------------------------------
    def num_items(self, ctx: GuidanceContext, slot: str,
                  max_n: int) -> Distribution[int]:
        links = self._links(ctx)
        strong = sum(1 for _, score in links.columns.items() if score >= 0.5)
        if slot == SLOT_SELECT:
            # "and" between noun phrases hints at multiple projections.
            conjunctions = self._tokens(ctx.nlq).count("and")
            guess = max(1, min(max_n, min(strong, conjunctions + 1)))
        elif slot == SLOT_WHERE:
            guess = max(1, min(max_n, len(ctx.nlq.literals) or 1))
        else:
            guess = 1
        scores = [(n, 1.0 if n == guess else 0.35 / abs(n - guess))
                  for n in range(1, max_n + 1)]
        return Distribution.from_probs(scores)

    # -- COL ----------------------------------------------------------------
    def column(self, ctx: GuidanceContext, slot: str,
               candidates: Sequence[ColumnRef]) -> Distribution[ColumnRef]:
        links = self._links(ctx)
        literal_types = {lit.type for lit in ctx.nlq.literals}
        scored = []
        for ref in candidates:
            score = links.column_score(ref)
            if slot in (SLOT_WHERE, SLOT_HAVING):
                col_type = ctx.schema.column_type(ref)
                if col_type in literal_types:
                    score += 0.1
            scored.append((ref, score))
        return Distribution.from_scores(scored, temperature=self._temperature)

    # -- AGG ----------------------------------------------------------------
    def aggregate(self, ctx: GuidanceContext, slot: str, column: ColumnRef,
                  candidates: Sequence[AggOp]) -> Distribution[AggOp]:
        tokens = self._tokens(ctx.nlq)
        cued: Optional[AggOp] = None
        for agg, cues in _AGG_CUES.items():
            if self._has_any(tokens, cues):
                cued = agg
                break
        col_type = (ColumnType.NUMBER if column.is_star
                    else ctx.schema.column_type(column))
        probs = []
        for agg in candidates:
            if agg is AggOp.NONE:
                weight = 0.35 if cued else 0.9
            elif agg is cued:
                weight = 0.55
            else:
                weight = 0.02
            # Text columns only admit COUNT (semantic rule "aggregate type
            # usage"); push mass away from invalid choices early.
            if (col_type is ColumnType.TEXT and agg.is_aggregate
                    and agg is not AggOp.COUNT):
                weight = 0.001
            probs.append((agg, weight))
        return Distribution.from_probs(probs)

    # -- OP -------------------------------------------------------------------
    def comparison(self, ctx: GuidanceContext, slot: str, column: ColumnRef,
                   candidates: Sequence[CompOp]) -> Distribution[CompOp]:
        tokens = self._tokens(ctx.nlq)
        cued: Optional[CompOp] = None
        for op, cues in ((CompOp.GE, _GE_CUES), (CompOp.LE, _LE_CUES),
                         (CompOp.GT, _GT_CUES), (CompOp.LT, _LT_CUES),
                         (CompOp.BETWEEN, _BETWEEN_CUES),
                         (CompOp.LIKE, _LIKE_CUES), (CompOp.NE, _NE_CUES)):
            if self._has_any(tokens, cues):
                cued = op
                break
        probs = []
        for op in candidates:
            if op is cued:
                weight = 0.6
            elif op is CompOp.EQ:
                weight = 0.5 if cued is None else 0.2
            else:
                weight = 0.04
            probs.append((op, weight))
        return Distribution.from_probs(probs)

    # -- AND/OR -----------------------------------------------------------------
    def logic(self, ctx: GuidanceContext) -> Distribution[LogicOp]:
        tokens = self._tokens(ctx.nlq)
        or_evidence = 0.65 if self._has_any(tokens, _OR_CUES) else 0.12
        # "or" as part of listing projections is common; damp when few
        # literals are available for predicates.
        if "or" not in tokens:
            or_evidence = min(or_evidence, 0.15)
        return Distribution.from_probs([(LogicOp.OR, or_evidence),
                                        (LogicOp.AND, 1.0 - or_evidence)])

    # -- DESC/ASC ------------------------------------------------------------------
    def direction(self, ctx: GuidanceContext,
                  column: ColumnRef) -> Distribution[Tuple[Direction, bool]]:
        tokens = self._tokens(ctx.nlq)
        desc = self._has_any(tokens, _DESC_CUES)
        has_limit = self._has_any(tokens, ("top", "first", "limit")) and \
            bool(ctx.nlq.number_literals)
        primary = (Direction.DESC if desc else Direction.ASC, has_limit)
        probs = []
        for direction in (Direction.ASC, Direction.DESC):
            for limited in (False, True):
                weight = 0.6 if (direction, limited) == primary else 0.13
                probs.append(((direction, limited), weight))
        return Distribution.from_probs(probs)

    # -- HAVING -----------------------------------------------------------------------
    def having_presence(self, ctx: GuidanceContext) -> Distribution[bool]:
        tokens = self._tokens(ctx.nlq)
        evidence = 0.1
        if self._has_any(tokens, ("more than", "at least", "fewer than",
                                  "less than")) and \
                self._has_any(tokens, _GROUP_CUES):
            evidence = 0.6
        return Distribution.binary(evidence)

    # -- values ------------------------------------------------------------------------
    def value(self, ctx: GuidanceContext, slot: str, column: ColumnRef,
              candidates: Sequence[object]) -> Distribution[object]:
        if not candidates:
            return Distribution(entries=())
        # Literals were tagged by the user, so each is equally plausible a
        # priori; type filtering happened upstream.
        uniform = [(value, 1.0) for value in candidates]
        return Distribution.from_probs(uniform)

    def limit_value(self, ctx: GuidanceContext,
                    candidates: Sequence[int]) -> Distribution[int]:
        if not candidates:
            return Distribution(entries=())
        return Distribution.from_probs([(v, 1.0) for v in candidates])
