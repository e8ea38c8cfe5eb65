"""Guided partial query enumeration (Algorithm 1 of the paper).

A best-first search over partial queries. Each expansion performs a single
inference decision (EnumNextStep), asks the guidance model for a softmax
distribution over the decision's output classes, and spawns one child state
per class. A state's confidence is the cumulative product of the chosen
classes' probabilities (Section 3.3.3), which satisfies Property 1. Each
child is verified against the TSQ (Algorithm 3) and pruned on failure;
complete children are emitted as candidate queries.

Decision pipeline (adapted from SyntaxSQLNet's module ordering):
clause presence (KW) for WHERE / GROUP BY / ORDER BY -> SELECT size ->
per-projection column (COL) and aggregate (AGG) -> WHERE size, connective
(AND/OR), per-predicate column / operator (OP) / literal value -> GROUP BY
columns -> HAVING presence and predicate -> ORDER BY expressions and
direction (+LIMIT flag, DESC/ASC module) -> LIMIT value -> join path.

Join paths: during partial enumeration, row probes run against the
shortest minimal join path covering the referenced tables (a sound
over-approximation for inner FK joins — a row in a larger join projects
into every smaller one). Once every other element is fixed, progressive
join path construction (Algorithm 2) branches the state into one candidate
per join path, all sharing the confidence score, tie-broken shorter-first
(Section 3.3.4). This defers the per-path state fan-out of the paper to
the final step without changing the candidate set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..db.database import Database
from ..faults import FaultPlan
from ..guidance.base import (
    Distribution,
    GuidanceContext,
    GuidanceModel,
    GuidanceRequest,
    SLOT_GROUP_BY,
    SLOT_HAVING,
    SLOT_ORDER_BY,
    SLOT_SELECT,
    SLOT_WHERE,
)
from ..guidance.batched import make_guidance_backend
from ..nlq.literals import Literal, NLQuery
from ..sqlir.ast import (
    HOLE,
    AggOp,
    ColumnRef,
    CompOp,
    Direction,
    Hole,
    JoinPath,
    LogicOp,
    OrderItem,
    Predicate,
    Query,
    STAR,
    SelectItem,
    Where,
)
from ..sqlir.types import ColumnType
from ..wire import parse_address
from .joins import JoinPathBuilder
from .search import (
    Candidate,
    CancelToken,
    CostModel,
    PoolManager,
    SearchEngine,
    SearchState,
    SearchTelemetry,
    UNRESOLVED_DECISION,
    make_frontier,
    validate_cost_order,
    validate_probe_planner,
    validate_verification_config,
)
from .tsq import TableSketchQuery
from .verifier import SharedProbeCache, Verifier, VerifierConfig


@dataclass
class EnumeratorConfig:
    """Search-space bounds, engine selection and ablation switches."""

    max_select: int = 3
    max_where: int = 3
    max_group_by: int = 1
    max_having: int = 1
    max_order_by: int = 1
    max_join_extensions: int = 2
    max_expansions: int = 50_000
    max_candidates: Optional[int] = None
    time_budget: Optional[float] = None  # seconds
    guided: bool = True       # False -> NoGuide (breadth-first) ablation
    verify_partial: bool = True  # False -> NoPQ ablation
    check_semantics: bool = True
    min_confidence: float = 1e-12
    #: search strategy: "best-first" (exact, seed-equivalent), "beam", or
    #: "diverse-beam" (see repro.core.search.frontier)
    engine: str = "best-first"
    #: verification workers; 1 = inline (no pool)
    workers: int = 1
    #: verification backend: "threads" (GIL-releasing SQLite probes run
    #: in parallel on ``workers`` threads) or "inline" (workers must be
    #: 1)
    verify_backend: str = "threads"
    #: frontier truncation width for the beam engines
    beam_width: int = 16
    #: states popped per expansion round; None = engine picks
    #: (max(1, workers) for best-first, the beam width for beams)
    batch_size: Optional[int] = None
    #: bound (entries) for the guidance distribution cache. Guidance
    #: always runs behind a BatchingGuidanceModel: identical requests
    #: within a round are scored once, repeats across rounds are served
    #: from the cache. Never changes the candidate stream
    #: (deterministic models answer equal requests equally); observable
    #: in the GuideCalls/GuideHits telemetry.
    guidance_cache_size: int = 4096
    #: HOST:PORT of an out-of-process guidance scorer (see
    #: examples/guidance_server.py). Server failures degrade visibly to
    #: the local model.
    guidance_server: Optional[str] = None
    #: probe-planner mode (see repro.core.search.planner): "off" keeps
    #: the raw-SQL probe path, "plan" compiles probes into shared
    #: parameterised plans (canonical cache keys), "batch" additionally
    #: fuses each round's sibling probes into multi-probe statements.
    #: Never changes the candidate stream (probe answers are facts of
    #: the database); observable in the probe_compiles/probe_plan_hits/
    #: probe_batch_stmts telemetry and in statement counts.
    probe_planner: str = "off"
    #: cost-order mode (see repro.core.search.costmodel): "off" keeps
    #: the bit-for-bit seed stream; "order" verifies each round
    #: cheapest-first (same final answer set, never more executed
    #: probes — single-flight probe dedup enforces the bound); "abort"
    #: additionally abandons a round's costlier candidates once one
    #: times out (may change answers; gated by the harness
    #: accuracy-delta audit). Observable in the cost_ordered /
    #: probe_timeouts / cost_aborts telemetry.
    cost_order: str = "off"
    #: wall-clock budget (ms) for one probe statement; None = uncapped
    #: (the seed behaviour). Timed-out probes draw no conclusion but
    #: flag the candidate — the signal "abort" mode propagates.
    probe_timeout_ms: Optional[int] = None
    #: LRU bound on the shared probe cache's total entry count; None
    #: (the seed behaviour) grows without bound. Bounded mode never
    #: changes the candidate stream — an evicted entry only costs a
    #: re-probe (or a disk read, when a cache store is attached) —
    #: and is observable in the probe_cache_evictions / evicted_flushed
    #: telemetry. Ignored when the caller supplies its own prebuilt
    #: cache or verifier.
    probe_cache_entries: Optional[int] = None
    #: Deterministic fault-injection plan (``--fault-plan`` /
    #: ``$REPRO_FAULTS``; see :mod:`repro.faults`). None — the seed and
    #: production behaviour — injects nothing and leaves every seam on
    #: its zero-cost fast path. The spec rides ``VerifierConfig``;
    #: injections surface in the faults_injected / transient_retries
    #: telemetry and the daemon's [faults] stats.
    fault_plan: Optional[str] = None

    def __post_init__(self) -> None:
        # Reject bad worker counts here, at the configuration boundary,
        # instead of letting the pool silently clamp them to 1 — a
        # `workers=0` that "works" hides real misconfiguration.
        if not isinstance(self.workers, int):
            raise ValueError(f"workers must be a positive integer "
                             f"(got {self.workers!r})")
        validate_verification_config(self.verify_backend, self.workers)
        validate_probe_planner(self.probe_planner)
        validate_cost_order(self.cost_order)
        if self.probe_timeout_ms is not None and (
                not isinstance(self.probe_timeout_ms, int)
                or isinstance(self.probe_timeout_ms, bool)
                or self.probe_timeout_ms < 1):
            raise ValueError(f"probe_timeout_ms must be a positive "
                             f"integer (got {self.probe_timeout_ms!r})")
        if self.probe_cache_entries is not None and (
                not isinstance(self.probe_cache_entries, int)
                or isinstance(self.probe_cache_entries, bool)
                or self.probe_cache_entries < 1):
            raise ValueError(f"probe_cache_entries must be a positive "
                             f"integer (got {self.probe_cache_entries!r})")
        if not isinstance(self.guidance_cache_size, int) \
                or self.guidance_cache_size < 1:
            raise ValueError(f"guidance_cache_size must be a positive "
                             f"integer (got {self.guidance_cache_size!r})")
        if self.fault_plan is not None:
            # Same ValueError boundary as the other knobs: a typo'd
            # plan must fail the run loudly, not inject nothing.
            try:
                FaultPlan.parse(self.fault_plan)
            except ValueError as exc:
                raise ValueError(f"invalid fault plan: {exc}") from None
        if self.guidance_server:
            parse_address(self.guidance_server)


#: Backwards-compatible alias — the state type now lives in the search
#: subsystem.
_State = SearchState


class Enumerator:
    """GPQE over one database/NLQ/TSQ triple."""

    def __init__(self, db: Database, model: GuidanceModel, nlq: NLQuery,
                 tsq: Optional[TableSketchQuery] = None,
                 config: Optional[EnumeratorConfig] = None,
                 gold: Optional[Query] = None,
                 task_id: str = "",
                 verifier: Optional[Verifier] = None,
                 probe_cache: Optional[SharedProbeCache] = None,
                 pool_manager: Optional[PoolManager] = None,
                 cancel_token: Optional[CancelToken] = None):
        self.db = db
        self.schema = db.schema
        self.nlq = nlq
        self.tsq = tsq if tsq is not None else TableSketchQuery()
        self.config = config or EnumeratorConfig()
        # The guidance backend is built here unless the caller (the
        # facade, the eval harness) already wrapped the model — a
        # shared wrapper keeps its distribution cache across every
        # enumeration, which is where most repeats live.
        self.model = make_guidance_backend(
            model, cache_size=self.config.guidance_cache_size,
            server=self.config.guidance_server)
        self.joins = JoinPathBuilder(
            self.schema, max_extensions=self.config.max_join_extensions)
        # ``probe_cache`` lets a caller (the eval harness) share one
        # per-database cache across many enumerations, so probe answers
        # from earlier tasks are reused; ignored when a prebuilt
        # verifier is supplied. Without a shared cache, the configured
        # entry bound still applies to the private per-enumeration one.
        if probe_cache is None and verifier is None \
                and self.config.probe_cache_entries is not None:
            probe_cache = SharedProbeCache(
                max_entries=self.config.probe_cache_entries)
        self.verifier = verifier or Verifier(
            db, tsq=self.tsq, literals=nlq.literals,
            config=VerifierConfig(
                check_semantics=self.config.check_semantics,
                verify_partial=self.config.verify_partial,
                probe_planner=self.config.probe_planner,
                probe_timeout_ms=self.config.probe_timeout_ms,
                cost_order=self.config.cost_order,
                fault_plan=self.config.fault_plan),
            probe_cache=probe_cache)
        self._ctx = GuidanceContext(nlq=nlq, schema=self.schema,
                                    gold=gold, task_id=task_id)
        # ``pool_manager`` (the SearchProblem contract's optional hook)
        # lets the eval harness and the daemon lease warm, long-lived
        # verification threads instead of spawning a pool per
        # enumeration.
        self.pool_manager = pool_manager
        # ``cancel_token`` (also part of the SearchProblem contract) is
        # a cooperative :class:`CancelToken` polled by the engine; a
        # session fires it to stop an in-flight enumeration between
        # expansions.
        self.cancel_token = cancel_token
        self.telemetry = SearchTelemetry()

        self._all_columns = tuple(self.schema.iter_column_refs())
        self._text_columns = tuple(
            ref for ref in self._all_columns
            if self.schema.column_type(ref) is ColumnType.TEXT)
        self._numeric_columns = tuple(
            ref for ref in self._all_columns
            if self.schema.column_type(ref) is ColumnType.NUMBER)
        self._text_values = tuple(
            lit.value for lit in nlq.text_literals)
        self._numeric_values = tuple(
            lit.value for lit in nlq.number_literals)
        self._between_pairs = tuple(
            (min(a, b), max(a, b))
            for a, b in itertools.combinations(self._numeric_values, 2))
        limit_values = sorted({int(v) for v in self._numeric_values
                               if float(v).is_integer()} | {1})
        self._limit_values = tuple(limit_values)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def expansions(self) -> int:
        """States expanded so far (mirrors the search telemetry)."""
        return self.telemetry.expansions

    def enumerate(self) -> Iterator[Candidate]:
        """Yield verified candidate queries (Algorithm 1).

        The loop itself lives in :mod:`repro.core.search`: this method
        builds the configured frontier/scheduler/verification stages and
        streams the engine's candidates. With ``engine="best-first"``
        the stream is identical to the original serial enumerator for
        any ``workers`` setting (see the engine's determinism notes);
        verification runs when a state is popped, not when it is
        generated, so low-confidence branches that never surface are
        never verified.
        """
        self.telemetry = SearchTelemetry()
        cost_model = None
        cost_key = None
        if self.config.cost_order != "off":
            # One model per enumeration: cardinalities are fetched once
            # and the attached verifier supplies pending-probe counts
            # for the engine's per-job estimates. The frontier weights
            # beam truncation by the probe-free structural cost only.
            cost_model = CostModel(self.db, verifier=self.verifier)
            cost_key = cost_model.structure_cost
        frontier = make_frontier(self.config.engine,
                                 beam_width=self.config.beam_width,
                                 cost_key=cost_key)
        engine = SearchEngine(self, frontier,
                              workers=self.config.workers,
                              batch_size=self.config.batch_size,
                              telemetry=self.telemetry,
                              verify_backend=self.config.verify_backend,
                              cost_order=self.config.cost_order,
                              cost_model=cost_model)
        return engine.run()

    # ------------------------------------------------------------------
    # SearchProblem interface (consumed by repro.core.search.engine)
    # ------------------------------------------------------------------
    def root_state(self) -> _State:
        return _State(query=Query.empty(), confidence=1.0, depth=0)

    def priority(self, state: _State) -> Tuple:
        if self.config.guided:
            join_len = (len(state.query.join_path)
                        if isinstance(state.query.join_path, JoinPath)
                        else len(state.query.referenced_tables()))
            return (-state.confidence, join_len, state.depth)
        # NoGuide: naive breadth-first enumeration, simpler queries first.
        return (state.depth, 0, 0)

    def decision_request(self, state: _State) -> Optional[GuidanceRequest]:
        """The pending guidance decision, reified for batch scoring
        (``None`` when the next expansion needs no model call)."""
        return self._expand(state, request_only=True)

    def expand_with(self, state: _State,
                    dist: Optional[Distribution] = None) -> List[_State]:
        """Expand with an externally scored distribution (or score now)."""
        return self._expand(state, dist=dist)

    def probe_query(self, query: Query) -> Optional[Query]:
        """Attach a provisional join path for partial verification.

        Returns ``None`` when the referenced tables cannot be joined —
        the state is unsatisfiable and must be pruned.
        """
        if isinstance(query.join_path, Hole):
            tables = query.referenced_tables()
            if tables:
                paths = self.joins.paths_for_tables(tables)
                if not paths:
                    return None
                return query.replace(join_path=paths[0])
        return query

    # ------------------------------------------------------------------
    # EnumNextStep: one inference decision per expansion
    # ------------------------------------------------------------------
    def _expand(self, state: _State, dist: Optional[Distribution] = None,
                request_only: bool = False):
        """Dispatch the next decision of ``state``.

        ``request_only=True`` returns the decision's
        :class:`GuidanceRequest` (or ``None`` for model-free expansions)
        without building children; ``dist`` supplies an externally
        scored distribution so the handler skips its own model call.

        Both the resolved decision and the reified request are memoised
        on the state: the engine dispatches each state at least twice
        (``decision_request`` while speculating, ``expand_with`` when
        consuming — more with push-backs), and without the memos each
        dispatch would re-walk the query's holes and rebuild the
        decision's candidate list from the schema. With them, only the
        first ``decision_request`` pays; every repeat — including the
        consume-time expansion, which reads the candidates back out of
        the memoised request — is O(1).
        """
        query = state.query
        decision = state.decision
        if decision is UNRESOLVED_DECISION:
            decision = self._next_decision(query)
            state.decision = decision
        if decision is None:
            return None if request_only else []
        kind = decision[0]
        ctx = self._ctx.with_partial(query)
        handler = getattr(self, f"_expand_{kind}")
        if request_only:
            if state.request is UNRESOLVED_DECISION:
                state.request = handler(ctx, state, *decision[1:],
                                        request_only=True)
            return state.request
        return handler(ctx, state, *decision[1:], dist=dist)

    def _next_decision(self, query: Query) -> Optional[Tuple]:
        """Locate the next placeholder to fill, in pipeline order."""
        if isinstance(query.where, Hole):
            return ("kw", SLOT_WHERE)
        if isinstance(query.group_by, Hole):
            return ("kw", SLOT_GROUP_BY)
        if isinstance(query.order_by, Hole):
            return ("kw", SLOT_ORDER_BY)
        if isinstance(query.select, Hole):
            return ("num", SLOT_SELECT)
        for i, item in enumerate(query.select):
            if isinstance(item, Hole):
                return ("col", SLOT_SELECT, i)
            if isinstance(item.agg, Hole):
                return ("agg", SLOT_SELECT, i)
        if isinstance(query.where, Where):
            if not query.where.predicates:
                return ("num", SLOT_WHERE)
            if len(query.where.predicates) > 1 and \
                    isinstance(query.where.logic, Hole):
                return ("logic",)
            for i, pred in enumerate(query.where.predicates):
                if isinstance(pred, Hole):
                    return ("col", SLOT_WHERE, i)
                if isinstance(pred.op, Hole):
                    return ("op", SLOT_WHERE, i)
                if isinstance(pred.value, Hole):
                    return ("val", SLOT_WHERE, i)
        if query.group_by is not None:
            if not query.group_by:
                return ("num", SLOT_GROUP_BY)
            for i, col in enumerate(query.group_by):
                if isinstance(col, Hole):
                    return ("col", SLOT_GROUP_BY, i)
            if isinstance(query.having, Hole):
                return ("having",)
            if query.having is not None:
                if not query.having:
                    return ("col", SLOT_HAVING, 0)
                for i, pred in enumerate(query.having):
                    if isinstance(pred, Hole):
                        return ("col", SLOT_HAVING, i)
                    if isinstance(pred.agg, Hole):
                        return ("agg", SLOT_HAVING, i)
                    if isinstance(pred.op, Hole):
                        return ("op", SLOT_HAVING, i)
                    if isinstance(pred.value, Hole):
                        return ("val", SLOT_HAVING, i)
        if query.order_by is not None:
            if not query.order_by:
                return ("num", SLOT_ORDER_BY)
            for i, item in enumerate(query.order_by):
                if isinstance(item, Hole):
                    return ("col", SLOT_ORDER_BY, i)
                if isinstance(item.agg, Hole):
                    return ("agg", SLOT_ORDER_BY, i)
                if isinstance(item.direction, Hole):
                    return ("dir", i)
        if isinstance(query.limit, Hole):
            return ("limit",)
        if isinstance(query.join_path, Hole):
            return ("join",)
        return None

    # ------------------------------------------------------------------
    # Decision handlers
    # ------------------------------------------------------------------
    def _memoised_candidates(self, state: _State,
                             request_only: bool) -> Optional[List]:
        """Candidates already reified into ``state.request``, if any.

        The candidate-carrying requests put their candidate tuple last
        in ``args``, so a consume-time expansion (and any re-dispatch
        after a push-back) reads the list back instead of rebuilding it
        from the schema. The reify path itself (``request_only=True``)
        and direct ``expand_with`` calls on fresh states return ``None``
        and recompute.
        """
        if request_only:
            return None
        request = state.request
        if isinstance(request, GuidanceRequest) and request.args \
                and isinstance(request.args[-1], tuple):
            return list(request.args[-1])
        return None

    def _children(self, state: _State, dist: Distribution,
                  build) -> List[_State]:
        children = []
        for choice, prob in dist:
            query = build(choice)
            if query is None:
                continue
            children.append(_State(query=query,
                                   confidence=state.confidence * prob,
                                   depth=state.depth + 1))
        return children

    def _expand_kw(self, ctx: GuidanceContext, state: _State,
                   clause: str, dist: Optional[Distribution] = None,
                   request_only: bool = False) -> List[_State]:
        if request_only:
            return GuidanceRequest("clause_presence", ctx, (clause,))
        if dist is None:
            dist = self.model.clause_presence(ctx, clause)

        def build(present: bool) -> Query:
            query = state.query
            if clause == SLOT_WHERE:
                return query.replace(
                    where=Where(logic=HOLE, predicates=()) if present
                    else None)
            if clause == SLOT_GROUP_BY:
                if present:
                    return query.replace(group_by=())
                return query.replace(group_by=None, having=None)
            if present:
                return query.replace(order_by=())
            return query.replace(order_by=None, limit=None)

        return self._children(state, dist, build)

    def _expand_num(self, ctx: GuidanceContext, state: _State,
                    slot: str, dist: Optional[Distribution] = None,
                    request_only: bool = False) -> List[_State]:
        config = self.config
        max_n = {SLOT_SELECT: config.max_select,
                 SLOT_WHERE: config.max_where,
                 SLOT_GROUP_BY: config.max_group_by,
                 SLOT_ORDER_BY: config.max_order_by}[slot]
        # A TSQ with annotations or example tuples fixes the projection
        # width; branches with other widths fail VerifyColumnTypes
        # immediately, so only the matching width is generated.
        if slot == SLOT_SELECT and self.tsq.width is not None:
            max_n = max(max_n, self.tsq.width)
        if request_only:
            return GuidanceRequest("num_items", ctx, (slot, max_n))
        if dist is None:
            dist = self.model.num_items(ctx, slot, max_n)
        if slot == SLOT_SELECT and self.tsq.width is not None:
            width = self.tsq.width
            if width < 1 or dist.prob_of(width) <= 0.0:
                return []
            dist = dist.restrict([width])

        def build(n: int) -> Query:
            holes = (HOLE,) * n
            if slot == SLOT_SELECT:
                return state.query.replace(select=holes)
            if slot == SLOT_WHERE:
                logic = LogicOp.AND if n == 1 else HOLE
                return state.query.replace(
                    where=Where(logic=logic, predicates=holes))
            if slot == SLOT_GROUP_BY:
                return state.query.replace(group_by=holes)
            return state.query.replace(order_by=holes)

        return self._children(state, dist, build)

    def _expand_logic(self, ctx: GuidanceContext, state: _State,
                      dist: Optional[Distribution] = None,
                      request_only: bool = False) -> List[_State]:
        if request_only:
            return GuidanceRequest("logic", ctx)
        if dist is None:
            dist = self.model.logic(ctx)
        where = state.query.where
        assert isinstance(where, Where)

        def build(logic: LogicOp) -> Query:
            return state.query.replace(
                where=Where(logic=logic, predicates=where.predicates))

        return self._children(state, dist, build)

    # -- column decisions -------------------------------------------------
    def _select_column_candidates(self, index: int) -> List[ColumnRef]:
        candidates: List[ColumnRef] = [STAR]
        annotation = None
        if self.tsq.types is not None and index < len(self.tsq.types):
            annotation = self.tsq.types[index]
        if annotation is ColumnType.TEXT:
            # Text output requires a text column projected unaggregated
            # (MIN/MAX on text is forbidden by the semantic rules).
            return list(self._text_columns)
        return candidates + list(self._all_columns)

    def _column_candidates(self, query: Query, slot: str,
                           index: int) -> List[ColumnRef]:
        if slot == SLOT_SELECT:
            candidates = self._select_column_candidates(index)
        elif slot == SLOT_WHERE:
            literal_types = set()
            if self._text_values:
                literal_types.add(ColumnType.TEXT)
            if self._numeric_values:
                literal_types.add(ColumnType.NUMBER)
            candidates = [ref for ref in self._all_columns
                          if self.schema.column_type(ref) in literal_types]
            # Predicates are picked in non-decreasing canonical order so
            # each predicate set is enumerated exactly once.
            assert isinstance(query.where, Where)
            prev: Optional[ColumnRef] = None
            for pred in query.where.predicates[:index]:
                if isinstance(pred, Predicate) and \
                        isinstance(pred.column, ColumnRef):
                    prev = pred.column
            if prev is not None:
                candidates = [c for c in candidates if c >= prev]
        elif slot == SLOT_GROUP_BY:
            # Grouping columns come from the unaggregated projections — the
            # same restriction SyntaxSQLNet's column pointer applies, and
            # one that holds for every query in the task scope.
            candidates = []
            if not isinstance(query.select, Hole):
                for item in query.select:
                    if isinstance(item, SelectItem) \
                            and isinstance(item.column, ColumnRef) \
                            and not item.column.is_star \
                            and not item.is_aggregate:
                        if item.column not in candidates:
                            candidates.append(item.column)
            assert query.group_by is not None
            prev = None
            for col in query.group_by[:index]:
                if isinstance(col, ColumnRef):
                    prev = col
            if prev is not None:
                candidates = [c for c in candidates if c > prev]
        elif slot == SLOT_HAVING:
            # HAVING aggregates COUNT(*) or an aggregate of a projected
            # numeric column.
            candidates = [STAR]
            if not isinstance(query.select, Hole):
                for item in query.select:
                    if isinstance(item, SelectItem) \
                            and isinstance(item.column, ColumnRef) \
                            and not item.column.is_star \
                            and self.schema.column_type(item.column) \
                            is ColumnType.NUMBER:
                        if item.column not in candidates:
                            candidates.append(item.column)
        else:  # SLOT_ORDER_BY
            candidates = [STAR] + list(self._all_columns)
        return candidates

    def _expand_col(self, ctx: GuidanceContext, state: _State,
                    slot: str, index: int,
                    dist: Optional[Distribution] = None,
                    request_only: bool = False) -> List[_State]:
        query = state.query
        candidates = self._memoised_candidates(state, request_only)
        if candidates is None:
            candidates = self._column_candidates(query, slot, index)
        if not candidates:
            return None if request_only else []
        if request_only:
            return GuidanceRequest("column", ctx, (slot, tuple(candidates)))
        if dist is None:
            dist = self.model.column(ctx, slot, candidates)

        def build(column: ColumnRef) -> Optional[Query]:
            if slot == SLOT_SELECT:
                agg = AggOp.COUNT if column.is_star else HOLE
                items = list(query.select)
                items[index] = SelectItem(agg=agg, column=column)
                return query.replace(select=tuple(items))
            if slot == SLOT_WHERE:
                assert isinstance(query.where, Where)
                preds = list(query.where.predicates)
                preds[index] = Predicate(agg=AggOp.NONE, column=column,
                                         op=HOLE, value=HOLE)
                return query.replace(where=Where(logic=query.where.logic,
                                                 predicates=tuple(preds)))
            if slot == SLOT_GROUP_BY:
                cols = list(query.group_by)
                cols[index] = column
                return query.replace(group_by=tuple(cols))
            if slot == SLOT_HAVING:
                agg = AggOp.COUNT if column.is_star else HOLE
                pred = Predicate(agg=agg, column=column, op=HOLE, value=HOLE)
                having = list(query.having) if query.having else [HOLE]
                having[index] = pred
                return query.replace(having=tuple(having))
            agg = AggOp.COUNT if column.is_star else HOLE
            items = list(query.order_by)
            items[index] = OrderItem(agg=agg, column=column, direction=HOLE)
            return query.replace(order_by=tuple(items))

        return self._children(state, dist, build)

    # -- aggregate decisions ------------------------------------------------
    def _agg_candidates(self, slot: str, column: ColumnRef,
                        query: Query, index: int) -> List[AggOp]:
        numeric = (self.schema.column_type(column) is ColumnType.NUMBER
                   if not column.is_star else True)
        if slot == SLOT_SELECT:
            annotation = None
            if self.tsq.types is not None and index < len(self.tsq.types):
                annotation = self.tsq.types[index]
            if annotation is ColumnType.TEXT:
                return [AggOp.NONE]
            candidates = [AggOp.NONE, AggOp.COUNT]
            if numeric:
                candidates += [AggOp.MAX, AggOp.MIN, AggOp.SUM, AggOp.AVG]
            if annotation is ColumnType.NUMBER and not numeric:
                candidates = [AggOp.COUNT]
            return candidates
        if slot == SLOT_HAVING:
            candidates = [AggOp.COUNT]
            if numeric:
                candidates += [AggOp.MAX, AggOp.MIN, AggOp.SUM, AggOp.AVG]
            return candidates
        # ORDER BY: aggregates only make sense for grouped queries.
        grouped = query.group_by is not None and \
            not isinstance(query.group_by, Hole)
        if not grouped:
            return [AggOp.NONE]
        candidates = [AggOp.NONE, AggOp.COUNT]
        if numeric:
            candidates += [AggOp.MAX, AggOp.MIN, AggOp.SUM, AggOp.AVG]
        return candidates

    def _expand_agg(self, ctx: GuidanceContext, state: _State,
                    slot: str, index: int,
                    dist: Optional[Distribution] = None,
                    request_only: bool = False) -> List[_State]:
        query = state.query
        if slot == SLOT_SELECT:
            item = query.select[index]
            column = item.column
        elif slot == SLOT_HAVING:
            pred = query.having[index]
            column = pred.column
        else:
            item = query.order_by[index]
            column = item.column
        assert isinstance(column, ColumnRef)
        candidates = self._memoised_candidates(state, request_only)
        if candidates is None:
            candidates = self._agg_candidates(slot, column, query, index)
        if not candidates:
            return None if request_only else []
        if request_only:
            return GuidanceRequest("aggregate", ctx,
                                   (slot, column, tuple(candidates)))
        if dist is None:
            dist = self.model.aggregate(ctx, slot, column, candidates)

        def build(agg: AggOp) -> Query:
            if slot == SLOT_SELECT:
                items = list(query.select)
                items[index] = SelectItem(agg=agg, column=column)
                return query.replace(select=tuple(items))
            if slot == SLOT_HAVING:
                preds = list(query.having)
                old = preds[index]
                preds[index] = Predicate(agg=agg, column=column,
                                         op=old.op, value=old.value)
                return query.replace(having=tuple(preds))
            items = list(query.order_by)
            old = items[index]
            items[index] = OrderItem(agg=agg, column=column,
                                     direction=old.direction)
            return query.replace(order_by=tuple(items))

        return self._children(state, dist, build)

    # -- operator decisions ---------------------------------------------------
    def _op_candidates(self, slot: str, column: ColumnRef,
                       agg: AggOp) -> List[CompOp]:
        if slot == SLOT_HAVING or agg.is_aggregate:
            ops = [CompOp.GT, CompOp.GE, CompOp.LT, CompOp.LE, CompOp.EQ]
            if self._between_pairs:
                ops.append(CompOp.BETWEEN)
            return ops
        col_type = self.schema.column_type(column)
        if col_type is ColumnType.TEXT:
            ops = [CompOp.EQ, CompOp.NE]
            if self._text_values:
                ops.append(CompOp.LIKE)
            return ops
        ops = [CompOp.EQ, CompOp.NE, CompOp.GT, CompOp.LT, CompOp.GE,
               CompOp.LE]
        if self._between_pairs:
            ops.append(CompOp.BETWEEN)
        return ops

    def _expand_op(self, ctx: GuidanceContext, state: _State,
                   slot: str, index: int,
                   dist: Optional[Distribution] = None,
                   request_only: bool = False) -> List[_State]:
        query = state.query
        preds = (query.where.predicates if slot == SLOT_WHERE
                 else query.having)
        pred = preds[index]
        assert isinstance(pred, Predicate)
        assert isinstance(pred.column, ColumnRef)
        assert isinstance(pred.agg, AggOp)
        candidates = self._memoised_candidates(state, request_only)
        if candidates is None:
            candidates = self._op_candidates(slot, pred.column, pred.agg)
        if request_only:
            return GuidanceRequest("comparison", ctx,
                                   (slot, pred.column, tuple(candidates)))
        if dist is None:
            dist = self.model.comparison(ctx, slot, pred.column, candidates)

        def build(op: CompOp) -> Query:
            new_pred = Predicate(agg=pred.agg, column=pred.column,
                                 op=op, value=pred.value)
            new_preds = list(preds)
            new_preds[index] = new_pred
            if slot == SLOT_WHERE:
                return query.replace(where=Where(
                    logic=query.where.logic, predicates=tuple(new_preds)))
            return query.replace(having=tuple(new_preds))

        return self._children(state, dist, build)

    # -- value decisions ----------------------------------------------------------
    def _value_candidates(self, slot: str, pred: Predicate) -> List[object]:
        assert isinstance(pred.op, CompOp)
        if pred.op is CompOp.BETWEEN:
            return list(self._between_pairs)
        if slot == SLOT_HAVING or pred.agg.is_aggregate:
            return list(self._numeric_values)
        col_type = self.schema.column_type(pred.column)
        if col_type is ColumnType.TEXT:
            return list(self._text_values)
        return list(self._numeric_values)

    def _expand_val(self, ctx: GuidanceContext, state: _State,
                    slot: str, index: int,
                    dist: Optional[Distribution] = None,
                    request_only: bool = False) -> List[_State]:
        query = state.query
        preds = (query.where.predicates if slot == SLOT_WHERE
                 else query.having)
        pred = preds[index]
        assert isinstance(pred, Predicate)
        candidates = self._memoised_candidates(state, request_only)
        if candidates is None:
            candidates = self._value_candidates(slot, pred)
        if not candidates:
            return None if request_only else []
        if request_only:
            return GuidanceRequest("value", ctx,
                                   (slot, pred.column, tuple(candidates)))
        if dist is None:
            dist = self.model.value(ctx, slot, pred.column, candidates)

        def build(value: object) -> Query:
            new_pred = Predicate(agg=pred.agg, column=pred.column,
                                 op=pred.op, value=value)
            new_preds = list(preds)
            new_preds[index] = new_pred
            if slot == SLOT_WHERE:
                return query.replace(where=Where(
                    logic=query.where.logic, predicates=tuple(new_preds)))
            return query.replace(having=tuple(new_preds))

        return self._children(state, dist, build)

    # -- HAVING presence --------------------------------------------------------
    def _expand_having(self, ctx: GuidanceContext, state: _State,
                       dist: Optional[Distribution] = None,
                       request_only: bool = False) -> List[_State]:
        if request_only:
            return GuidanceRequest("having_presence", ctx)
        if dist is None:
            dist = self.model.having_presence(ctx)
        if not self._numeric_values:
            # A HAVING predicate needs a numeric literal; without one the
            # present branch cannot complete, so only absent survives.
            confidence = state.confidence * dist.prob_of(False)
            return [_State(query=state.query.replace(having=None),
                           confidence=confidence, depth=state.depth + 1)]

        def build(present: bool) -> Query:
            return state.query.replace(having=(HOLE,) if present else None)

        return self._children(state, dist, build)

    # -- ORDER BY direction (+ LIMIT flag) -----------------------------------------
    def _expand_dir(self, ctx: GuidanceContext, state: _State,
                    index: int, dist: Optional[Distribution] = None,
                    request_only: bool = False) -> List[_State]:
        query = state.query
        item = query.order_by[index]
        assert isinstance(item, OrderItem)
        assert isinstance(item.column, ColumnRef)
        if request_only:
            return GuidanceRequest("direction", ctx, (item.column,))
        if dist is None:
            dist = self.model.direction(ctx, item.column)

        def build(choice: Tuple[Direction, bool]) -> Query:
            direction, has_limit = choice
            items = list(query.order_by)
            items[index] = OrderItem(agg=item.agg, column=item.column,
                                     direction=direction)
            updated = query.replace(order_by=tuple(items))
            if index == 0:
                updated = updated.replace(limit=HOLE if has_limit else None)
            return updated

        return self._children(state, dist, build)

    def _expand_limit(self, ctx: GuidanceContext, state: _State,
                      dist: Optional[Distribution] = None,
                      request_only: bool = False) -> List[_State]:
        if request_only:
            return GuidanceRequest("limit_value", ctx,
                                   (tuple(self._limit_values),))
        if dist is None:
            dist = self.model.limit_value(ctx, list(self._limit_values))

        def build(value: int) -> Query:
            return state.query.replace(limit=int(value))

        return self._children(state, dist, build)

    # -- final join path branching (Algorithm 2) --------------------------------------
    def _expand_join(self, ctx: GuidanceContext, state: _State,
                     dist: Optional[Distribution] = None,
                     request_only: bool = False) -> List[_State]:
        if request_only:
            return None  # pure branching: no guidance decision involved
        tables = state.query.referenced_tables()
        paths = self.joins.paths_for_tables(tables)
        # Extension paths (tables beyond those referenced, Example 3.2)
        # only change observable results for aggregate queries — an extra
        # FK-PK inner join alters COUNT/SUM/AVG groups but merely
        # duplicates rows otherwise — so plain queries keep the minimal
        # Steiner paths and skip the near-duplicate candidates.
        if not state.query.has_aggregate:
            table_count = min((len(p) for p in paths), default=0)
            paths = tuple(p for p in paths if len(p) == table_count)
        children = []
        for path in paths:
            # All join-path states share the parent's confidence score;
            # the heap tie-breaks on join path length (Section 3.3.4).
            children.append(_State(
                query=state.query.replace(join_path=path),
                confidence=state.confidence,
                depth=state.depth + 1))
        return children
