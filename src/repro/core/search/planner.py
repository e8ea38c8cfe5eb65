"""Canonical probe planner: parameterised plan cache + round batching.

Every probe the verifier cascade issues used to be rendered to a fresh
SQL string and executed one round-trip at a time — sibling candidates in
an expansion round share join prefixes and clause subsets, so SQLite
re-parsed near-identical statements thousands of times per task. The
planner sits between :class:`~repro.core.verifier.Verifier` and
:class:`~repro.db.database.Database` and factors that shared structure
out, in two stacked modes:

* **``plan``** — every probe is canonicalised
  (:func:`repro.sqlir.canon.canonicalize_probe`) into a literal-stripped
  parameterised statement plus a parameter tuple. Probes sharing a
  structural signature execute through one SQL string — which the
  ``sqlite3`` module maps to one cached prepared plan per connection —
  and share one probe-cache entry keyed by
  :func:`~repro.sqlir.canon.probe_plan_key` (``(signature, params)``
  folded to a string), so semantically identical probes with different
  renderings (whitespace, literal position) hit the same entry. Param
  keys are type-exact — see ``canon._normalise_param`` for why folding
  int/float values would be unsound under TEXT affinity.

* **``batch``** — everything ``plan`` does, plus round-level fusion: the
  verification pool backends hand the planner whole rounds of jobs
  before verifying them, and :meth:`ProbePlanner.prefetch` collects the
  rounds' pending existence probes, groups the uncached ones by join
  skeleton (the FROM clause of the parameterised statement), fuses each
  group into one multi-probe statement — a ``UNION ALL`` of tagged
  ``SELECT 1 ... LIMIT 1`` arms — executes it once, and scatters the
  per-arm outcomes into the shared probe cache. The cascade then runs
  unchanged and finds its probes already answered, so its per-candidate
  :class:`~repro.core.verifier.VerifyResult` stream is untouched.

* **``fuse``** — everything ``batch`` does, but each group compiles to
  **one statement over a single scan** instead of one ``UNION ALL`` arm
  per probe: ``COUNT(*) FILTER (WHERE …)`` per existence probe and a
  ``MIN``/``MAX`` aggregate pair per AVG-range column, all over one
  pass of the shared join skeleton (see
  :func:`repro.sqlir.canon.fused_group_sql`). The prefetch is also
  *staged*: the round's by-column workload (cheap single-table scans,
  plus the min/max bounds the AVG checks need) executes first, and the
  strictly costlier row probes are only compiled for candidates the
  scattered column-stage answers did not already refute
  (:meth:`~repro.core.verifier.Verifier.column_stage_refuted`), so a
  refuted candidate's row probes are never even rendered. A fused scan
  that fails execution degrades per group: first to the ``batch``
  mode's ``UNION ALL`` fusion, then to the cascade's individual
  probing; a fused scan that blows the probe budget memoises nothing
  (no conclusion was drawn for *any* arm), leaving every arm to the
  cascade's own per-probe budget — which is where the cost-order
  ``abort`` semantics live.

Probe answers are facts of the database contents, so no mode can
change a verification outcome: candidate streams and verifier stats
stay bit-for-bit identical with the planner on (locked in by
``tests/core/test_search_equivalence.py``). A fused statement whose
arms cannot execute falls back to individual probing, preserving the
cascade's probe-error semantics exactly. Amortisation is observable in
telemetry (``probe_compiles`` / ``probe_plan_hits`` /
``probe_batch_stmts`` / ``probe_fused_groups``, the ``PlanHit`` and
``FuseGrp`` columns of ``search_report``) and in the statement counters
of :class:`~repro.db.database.ExecutionStats` (the planner benchmark
asserts a batched run executes strictly fewer statements, and a fused
run strictly fewer still).

Thread safety: one planner is shared by a verifier and all its
thread-pool forks (the same sharing discipline as the probe cache), so
plan-cache lookups and counter updates take a lock; statement execution
runs outside it.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...db.database import Database
from ...errors import ExecutionError, ExecutionTimeout
from ...sqlir.canon import (
    canonicalize_probe,
    fused_group_key,
    fused_group_sql,
    probe_plan_key,
    split_probe,
)
from ...sqlir.render import quote_ident
from ...sqlir.types import Value

logger = logging.getLogger(__name__)

#: Recognised planner modes (CLI/config validation). ``off`` disables
#: the planner entirely (the pre-planner raw-SQL probe path).
PROBE_PLANNER_MODES = ("off", "plan", "batch", "fuse")

#: Upper bound on arms fused into one multi-probe statement; keeps the
#: parameter count comfortably under SQLite's variable limit and the
#: statement under the compound-select term limit.
MAX_FUSED_ARMS = 64


def validate_probe_planner(mode: str) -> str:
    """Reject unknown planner modes at the configuration boundary."""
    if mode not in PROBE_PLANNER_MODES:
        raise ValueError(f"unknown probe_planner {mode!r}; expected one "
                         f"of {PROBE_PLANNER_MODES}")
    return mode


@dataclass(frozen=True)
class ProbePlan:
    """One raw probe statement, compiled.

    ``sql`` is the literal-stripped parameterised statement (the
    structural signature — equal strings share a prepared plan),
    ``params`` the literals stripped out of this particular probe, and
    ``key`` the shared probe-cache key derived from both.
    """

    sql: str
    params: Tuple[Value, ...]
    key: str


@dataclass
class PlannerCounters:
    """What the planner saved, as running totals.

    The search engine snapshots these at run start and records per-run
    deltas into telemetry — the same delta discipline as the shared
    probe cache, so a planner shared across tasks never attributes one
    task's traffic to another.
    """

    #: unique structural signatures consumed (first use of a shape)
    compiles: int = 0
    #: probes served by an already-compiled signature (plan reuse)
    plan_hits: int = 0
    #: fused multi-probe statements executed by round prefetching
    batch_stmts: int = 0
    #: probes answered inside fused statements (arms executed)
    batched_probes: int = 0
    #: fused statements that failed and fell back to individual probing
    batch_fallbacks: int = 0
    #: grouped single-scan statements executed by the fuse mode
    fused_groups: int = 0
    #: fused groups whose scan failed and degraded to UNION ALL fusion
    fuse_fallbacks: int = 0

    def copy(self) -> "PlannerCounters":
        return PlannerCounters(self.compiles, self.plan_hits,
                               self.batch_stmts, self.batched_probes,
                               self.batch_fallbacks, self.fused_groups,
                               self.fuse_fallbacks)

    def delta_since(self, earlier: "PlannerCounters") -> "PlannerCounters":
        return PlannerCounters(
            self.compiles - earlier.compiles,
            self.plan_hits - earlier.plan_hits,
            self.batch_stmts - earlier.batch_stmts,
            self.batched_probes - earlier.batched_probes,
            self.batch_fallbacks - earlier.batch_fallbacks,
            self.fused_groups - earlier.fused_groups,
            self.fuse_fallbacks - earlier.fuse_fallbacks)


class ProbePlanner:
    """Compiles probes once per structural signature; fuses rounds.

    One planner serves one database's verifier (and every thread fork
    of it); its plan cache maps raw rendered SQL to the compiled
    :class:`ProbePlan`, so repeated renderings canonicalise once.
    """

    def __init__(self, mode: str = "plan"):
        if validate_probe_planner(mode) == "off":
            raise ValueError("a ProbePlanner is never constructed for "
                             "mode 'off'; leave the verifier's planner "
                             "unset instead")
        self.mode = mode
        self.counters = PlannerCounters()
        #: optional probe-cost estimate (``sql -> float``), attached by
        #: the verifier in cost-order modes
        #: (``CostModel.probe_sql_cost``): prefetch then executes its
        #: fused statements cheapest-first, so under a probe budget the
        #: cheap arms land before anything expensive can time out.
        self.cost_key = None
        #: optional group-cost estimate (``[sql, ...] -> float``,
        #: ``CostModel.probe_group_cost``), attached alongside
        #: ``cost_key``: the fuse mode executes its grouped one-scan
        #: statements cheapest-group-first under a probe budget.
        self.group_cost_key = None
        self._plans: Dict[str, ProbePlan] = {}
        #: fused-group statement memo (``fused_group_key -> sql``), so a
        #: round that re-derives a group shape reuses the rendered text
        #: (equal strings share one prepared plan per connection)
        self._fused: Dict[str, str] = {}
        #: signatures the *cascade* has consumed (counter accounting);
        #: disjoint from the plan cache itself, so prefetch-compiled
        #: plans do not skew the compile/hit split between modes
        self._counted: set = set()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Plan cache
    # ------------------------------------------------------------------
    def plan_for(self, sql: str, count: bool = True) -> ProbePlan:
        """The compiled plan for a raw probe statement.

        ``count=False`` compiles without touching the compile/hit
        counters at all — used by the prefetch pass, so a probe is
        counted exactly once, when the cascade actually consumes it,
        and ``plan``/``batch`` telemetry stay comparable.
        """
        with self._lock:
            plan = self._plans.get(sql)
        if plan is None:
            param_sql, params = canonicalize_probe(sql)
            plan = ProbePlan(sql=param_sql, params=params,
                             key=probe_plan_key(param_sql, params))
            with self._lock:
                plan = self._plans.setdefault(sql, plan)
        if count:
            with self._lock:
                if plan.sql in self._counted:
                    self.counters.plan_hits += 1
                else:
                    self._counted.add(plan.sql)
                    self.counters.compiles += 1
        return plan

    def probe(self, db: Database, cache, sql: str) -> bool:
        """Answer one probe through the plan cache + shared probe cache.

        ``cache`` is the verifier's
        :class:`~repro.core.verifier.SharedProbeCache`; the entry is
        keyed canonically, so every rendering of a semantically
        identical probe shares it.
        """
        plan = self.plan_for(sql)
        return cache.probe_keyed(db, plan.key, plan.sql, plan.params)

    # ------------------------------------------------------------------
    # Round batching
    # ------------------------------------------------------------------
    def prefetch(self, verifier, jobs: Sequence[Tuple]) -> int:
        """Fuse and execute a round's pending probes ahead of the
        cascade; returns the number of answers seeded by fusion.

        ``jobs`` is the round's ``(query, treat_as_partial)`` sequence
        exactly as the verification pool received it. Probes already in
        the cache (or repeated within the round) are skipped; groups
        that end up with a single statement's worth of work are left
        for the cascade to execute individually (same statement count
        either way). A no-op unless the planner mode is ``batch`` or
        ``fuse``.
        """
        if not jobs:
            return 0
        if self.mode == "fuse":
            return self._prefetch_fuse(verifier, jobs)
        if self.mode != "batch":
            return 0
        cache = verifier.probe_cache
        pending: List[ProbePlan] = []
        seen: set = set()
        for query, treat_as_partial in jobs:
            for raw in verifier.pending_probe_sql(query, treat_as_partial):
                plan = self.plan_for(raw, count=False)
                if plan.key in seen or cache.peek(plan.key) is not None:
                    continue
                seen.add(plan.key)
                pending.append(plan)
        if not pending:
            return 0
        if self.cost_key is not None:
            # Stable, so equal-cost probes keep their cascade order;
            # answers are facts, so ordering cannot change outcomes.
            cost = self.cost_key
            pending.sort(key=lambda plan: cost(plan.sql))
        answered = 0
        for group in self._grouped(pending):
            if len(group) < 2:
                continue
            for start in range(0, len(group), MAX_FUSED_ARMS):
                answered += self._execute_fused(
                    verifier.db, cache, group[start:start + MAX_FUSED_ARMS])
        return answered

    @staticmethod
    def _skeleton(plan: ProbePlan) -> str:
        """The join-skeleton grouping key: the statement's FROM clause.

        Sibling probes against the same skeleton fuse together, so the
        arms of one fused statement scan the same tables — which is
        where the shared-structure win lives; probes over different
        skeletons go into different statements.
        """
        sql = plan.sql
        start = sql.find(" FROM ")
        end = sql.rfind(" WHERE ")
        if start < 0 or end <= start:
            return sql
        return sql[start + 6:end]

    def _grouped(self, pending: Sequence[ProbePlan]) -> List[List[ProbePlan]]:
        groups: Dict[str, List[ProbePlan]] = {}
        for plan in pending:
            groups.setdefault(self._skeleton(plan), []).append(plan)
        return list(groups.values())

    def _execute_fused(self, db: Database, cache,
                       plans: Sequence[ProbePlan]) -> int:
        """Execute one fused multi-probe statement and seed the cache.

        Each arm is wrapped so its ``LIMIT 1`` applies per probe::

            SELECT 0 AS tag FROM (SELECT 1 ... LIMIT 1)
            UNION ALL SELECT 1 FROM (SELECT 1 ... LIMIT 1) ...

        A returned tag means that arm's probe found a row. On any
        execution error the statement is abandoned — the cascade will
        probe individually, preserving the per-probe error semantics
        (an unexecutable probe draws no conclusion) exactly.
        """
        parts = []
        params: List[Value] = []
        for tag, plan in enumerate(plans):
            column = " AS probe_tag" if tag == 0 else ""
            parts.append(f"SELECT {tag}{column} FROM ({plan.sql})")
            params.extend(plan.params)
        fused = " UNION ALL ".join(parts)
        try:
            rows = db.execute(fused, params, max_rows=len(plans),
                              kind="probe_batch")
        except ExecutionError as exc:
            with self._lock:
                self.counters.batch_fallbacks += 1
            logger.debug("fused probe statement failed (%s); falling back "
                         "to individual probes", exc)
            return 0
        matched = {row[0] for row in rows}
        for tag, plan in enumerate(plans):
            cache.record_probe(plan.key, tag in matched)
        with self._lock:
            self.counters.batch_stmts += 1
            self.counters.batched_probes += len(plans)
        return len(plans)

    # ------------------------------------------------------------------
    # Grouped single-scan compilation (mode ``fuse``)
    # ------------------------------------------------------------------
    def _prefetch_fuse(self, verifier, jobs: Sequence[Tuple]) -> int:
        """The staged one-scan-per-group prefetch (see module docstring).

        Stage 1 collects the round's by-column workload — existence
        probes plus the min/max bounds the AVG range checks will need —
        across all jobs, fuses it per join skeleton, and scatters the
        answers. Stage 2 compiles row probes only for candidates those
        answers did not refute, and fuses them the same way. Returns
        the number of answers (probe outcomes + min/max bounds) seeded.
        """
        cache = verifier.probe_cache
        staged_jobs = []
        arms: List[ProbePlan] = []
        seen: set = set()
        minmax_columns: List = []
        minmax_seen: set = set()
        for query, treat_as_partial in jobs:
            staged = verifier.pending_probe_stages(query, treat_as_partial)
            if staged is None:
                continue
            staged_jobs.append((query, staged))
            for raw in staged.column_probes:
                plan = self.plan_for(raw, count=False)
                if plan.key in seen or cache.peek(plan.key) is not None:
                    continue
                seen.add(plan.key)
                arms.append(plan)
            for column in staged.avg_columns:
                if column in minmax_seen \
                        or cache.peek_minmax(column) is not None:
                    continue
                minmax_seen.add(column)
                minmax_columns.append(column)
        answered = self._execute_groups(
            verifier, self._fuse_groups(arms, minmax_columns))
        # Stage 2: the fused column answers are in the cache now, so the
        # (strictly costlier) row probes are compiled only for the
        # candidates they did not already refute.
        row_arms: List[ProbePlan] = []
        for query, staged in staged_jobs:
            if verifier.column_stage_refuted(query):
                continue
            for raw in staged.row_probes():
                plan = self.plan_for(raw, count=False)
                if plan.key in seen or cache.peek(plan.key) is not None:
                    continue
                seen.add(plan.key)
                row_arms.append(plan)
        answered += self._execute_groups(verifier,
                                         self._fuse_groups(row_arms))
        return answered

    def _fuse_groups(self, arms: Sequence[ProbePlan],
                     minmax_columns: Sequence = ()
                     ) -> List[Tuple[str, List[ProbePlan], List]]:
        """Group pending work by join skeleton into fusable items.

        Returns ``(skeleton, arm_plans, minmax_columns)`` work items:
        probes whose statements fall outside the probe grammar
        (:func:`~repro.sqlir.canon.split_probe` declines) are left to
        the cascade, as are groups whose total payload is a single
        statement's worth (fusing one lookup saves nothing). Arm lists
        are chunked at :data:`MAX_FUSED_ARMS`; min/max columns ride in
        a skeleton's first chunk. Items come out cheapest-group-first
        when a ``group_cost_key`` is attached (stable, so equal-cost
        groups keep their collection order).
        """
        groups: Dict[str, Tuple[List[ProbePlan], List]] = {}
        for plan in arms:
            parts = split_probe(plan.sql)
            if parts is None:
                continue
            groups.setdefault(parts[0], ([], []))[0].append(plan)
        for column in minmax_columns:
            skeleton = quote_ident(column.table)
            groups.setdefault(skeleton, ([], []))[1].append(column)
        items: List[Tuple[str, List[ProbePlan], List]] = []
        for skeleton, (plans, columns) in groups.items():
            if len(plans) + len(columns) < 2:
                continue
            chunks = [plans[start:start + MAX_FUSED_ARMS]
                      for start in range(0, len(plans), MAX_FUSED_ARMS)] \
                or [[]]
            for index, chunk in enumerate(chunks):
                items.append((skeleton, chunk,
                              columns if index == 0 else []))
        if self.group_cost_key is not None:
            cost = self.group_cost_key
            items.sort(key=lambda item: cost([p.sql for p in item[1]]))
        return items

    def _execute_groups(self, verifier,
                        items: Sequence[Tuple[str, List[ProbePlan],
                                              List]]) -> int:
        answered = 0
        for skeleton, plans, columns in items:
            answered += self._execute_group(verifier, skeleton, plans,
                                            columns)
        return answered

    def _execute_group(self, verifier, skeleton: str,
                       plans: Sequence[ProbePlan],
                       columns: Sequence) -> int:
        """Execute one grouped single-scan statement; seed the cache.

        One aggregate row answers every arm (``COUNT(*) FILTER`` per
        existence probe, ``MIN``/``MAX`` per AVG column) in one pass of
        the skeleton. The degrade ladder preserves the cascade's
        semantics exactly: a scan that blows the probe budget memoises
        *nothing* — no conclusion was drawn for any arm, so every arm
        is left to the cascade's own per-probe budget (the cost-order
        ``abort`` path) — while a scan that fails execution degrades to
        the ``batch`` mode's ``UNION ALL`` fusion, whose own failure
        falls through to individual probing.
        """
        db = verifier.db
        cache = verifier.probe_cache
        quoted = [quote_ident(column.column) for column in columns]
        memo_key = fused_group_key(
            skeleton, [plan.sql for plan in plans] + quoted)
        with self._lock:
            sql = self._fused.get(memo_key)
        if sql is None:
            conditions = []
            for plan in plans:
                parts = split_probe(plan.sql)
                assert parts is not None  # filtered in _fuse_groups
                conditions.append(parts[1])
            sql = fused_group_sql(skeleton, conditions, quoted)
            with self._lock:
                self._fused.setdefault(memo_key, sql)
        params: List[Value] = []
        for plan in plans:
            params.extend(plan.params)
        budget = verifier.config.probe_timeout_ms
        try:
            if budget:
                with db.interruptible(budget):
                    rows = db.execute(sql, params, max_rows=1,
                                      kind="probe_fuse")
            else:
                rows = db.execute(sql, params, max_rows=1,
                                  kind="probe_fuse")
        except ExecutionTimeout:
            logger.debug("fused group scan timed out; leaving %d arms to "
                         "the cascade", len(plans))
            return 0
        except ExecutionError as exc:
            with self._lock:
                self.counters.fuse_fallbacks += 1
            logger.debug("fused group scan failed (%s); degrading to "
                         "UNION ALL fusion", exc)
            return self._execute_fused(db, cache, plans) \
                if len(plans) >= 2 else 0
        if not rows:
            return 0
        row = rows[0]
        for index, plan in enumerate(plans):
            cache.record_probe(plan.key, bool(row[index]))
        base = len(plans)
        for offset, column in enumerate(columns):
            cache.record_minmax(column, (row[base + 2 * offset],
                                         row[base + 2 * offset + 1]))
        with self._lock:
            self.counters.fused_groups += 1
            self.counters.batched_probes += len(plans)
        return len(plans) + len(columns)
