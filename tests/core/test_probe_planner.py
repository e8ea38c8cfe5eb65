"""Probe planner: plan cache, canonical keys, round fusion, fallbacks.

The contract under test (see ``repro.core.search.planner``): probes
sharing a structural signature compile once and share one parameterised
statement and one probe-cache entry; round prefetching fuses sibling
probes into multi-probe statements whose per-arm outcomes are exactly
what individual execution would have produced; the ``fuse`` mode
compiles each group into one single-scan aggregate statement and stages
row probes behind the fused column-stage answers; a fused statement
that cannot execute degrades down the ladder (fuse -> UNION ALL batch
-> individual probing); and none of it can change a verification
outcome.
"""

from __future__ import annotations

import pytest

from repro.core.search.planner import (
    MAX_FUSED_ARMS,
    PROBE_PLANNER_MODES,
    ProbePlanner,
    validate_probe_planner,
)
from repro.core.tsq import TableSketchQuery
from repro.core.verifier import SharedProbeCache, Verifier, VerifierConfig
from repro.sqlir.canon import canonicalize_probe, probe_plan_key
from repro.sqlir.parser import parse_sql

from tests.conftest import build_movie_db


def probe_sql(year: object) -> str:
    return f"SELECT 1 FROM movie WHERE year = {year} LIMIT 1"


class TestValidation:
    def test_modes_are_closed(self):
        for mode in PROBE_PLANNER_MODES:
            assert validate_probe_planner(mode) == mode
        with pytest.raises(ValueError):
            validate_probe_planner("fused")

    def test_off_never_constructs_a_planner(self):
        with pytest.raises(ValueError):
            ProbePlanner("off")

    def test_enumerator_config_rejects_bad_mode(self):
        from repro.core.enumerator import EnumeratorConfig

        with pytest.raises(ValueError):
            EnumeratorConfig(probe_planner="nope")

    def test_verifier_builds_planner_from_config(self, movie_db):
        verifier = Verifier(movie_db,
                            config=VerifierConfig(probe_planner="plan"))
        assert verifier.planner is not None
        assert verifier.planner.mode == "plan"
        off = Verifier(movie_db)
        assert off.planner is None

    def test_forks_share_the_planner(self, movie_db):
        verifier = Verifier(movie_db,
                            config=VerifierConfig(probe_planner="batch"))
        fork = verifier.fork(movie_db)
        assert fork.planner is verifier.planner


class TestPlanCache:
    def test_compiles_once_per_structure(self):
        planner = ProbePlanner("plan")
        first = planner.plan_for(probe_sql(1994))
        second = planner.plan_for(probe_sql(2013))
        assert first.sql == second.sql
        assert first.params != second.params
        assert planner.counters.compiles == 1
        assert planner.counters.plan_hits == 1

    def test_distinct_structures_compile_separately(self):
        planner = ProbePlanner("plan")
        planner.plan_for(probe_sql(1994))
        planner.plan_for("SELECT 1 FROM movie WHERE revenue = 678 LIMIT 1")
        assert planner.counters.compiles == 2
        assert planner.counters.plan_hits == 0

    def test_renderings_of_the_same_probe_share_a_cache_entry(self):
        """Whitespace renderings of the same probe are one probe: the
        planner executes once and serves the repeat from the shared
        canonical entry."""
        db = build_movie_db()
        planner = ProbePlanner("plan")
        cache = SharedProbeCache()
        before = db.stats.snapshot()
        first = planner.probe(db, cache, probe_sql(1994))
        second = planner.probe(
            db, cache,
            "SELECT 1  FROM movie\n  WHERE year = 1994  LIMIT 1")
        assert first is second is True
        assert db.stats.delta_since(before).statements == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_int_and_float_literals_do_not_share_a_cache_entry(self):
        """``= 5`` and ``= 5.0`` share a *plan* but never a cache
        entry: against a TEXT-affinity column SQLite text-converts the
        operand and the two probes genuinely differ, so folding them
        onto one key would cache a wrong answer."""
        db = build_movie_db()
        db.insert_rows("actor", [(997, "5", "male", 1970)])
        planner = ProbePlanner("plan")
        cache = SharedProbeCache()
        int_sql = "SELECT 1 FROM actor WHERE name >= 5 LIMIT 1"
        float_sql = "SELECT 1 FROM actor WHERE name >= 5.0 LIMIT 1"
        int_probe = planner.probe(db, cache, int_sql)
        float_probe = planner.probe(db, cache, float_sql)
        assert int_probe == db.exists(int_sql)
        assert float_probe == db.exists(float_sql)
        # Neither probe may be served from the other's entry.
        assert cache.misses == 2 and cache.hits == 0

    def test_plan_outcomes_match_raw_execution(self):
        db = build_movie_db()
        planner = ProbePlanner("plan")
        cache = SharedProbeCache()
        for sql in (probe_sql(1994), probe_sql(1066),
                    "SELECT 1 FROM movie WHERE title = 'Gravity' "
                    "COLLATE NOCASE LIMIT 1",
                    "SELECT 1 FROM movie WHERE title = 'No Such' "
                    "COLLATE NOCASE LIMIT 1"):
            assert planner.probe(db, cache, sql) == db.exists(sql)



def make_verifier(db, mode="batch", rows=(("Forrest Gump",),)):
    tsq = TableSketchQuery.build(types=["text"], rows=[list(r) for r in rows])
    return Verifier(db, tsq=tsq,
                    config=VerifierConfig(probe_planner=mode))


class TestRoundBatching:
    def test_prefetch_fuses_and_seeds_the_cache(self):
        db = build_movie_db()
        verifier = make_verifier(db, rows=[["Forrest Gump"], ["Gravity"]])
        queries = [
            parse_sql("SELECT title FROM movie WHERE year < 1995",
                      db.schema),
            parse_sql("SELECT title FROM movie WHERE year > 2000",
                      db.schema),
        ]
        jobs = [(query, False) for query in queries]
        before = db.stats.snapshot()
        answered = verifier.planner.prefetch(verifier, jobs)
        assert answered > 1
        delta = db.stats.delta_since(before)
        # All answered probes rode in fused statements, strictly fewer
        # statements than probes answered.
        assert delta.per_kind.get("probe_batch", 0) >= 1
        assert delta.statements < answered
        assert verifier.planner.counters.batch_stmts >= 1
        # The cascade now runs entirely from the cache: no new probes.
        before = db.stats.snapshot()
        for query in queries:
            assert verifier.verify(query).ok or True
        delta = db.stats.delta_since(before)
        assert delta.per_kind.get("probe", 0) == 0

    def test_fused_outcomes_match_individual_execution(self):
        db = build_movie_db()
        verifier = make_verifier(db, rows=[["Forrest Gump"], ["No Such"]])
        query = parse_sql("SELECT title FROM movie WHERE year < 1995",
                          db.schema)
        pending = verifier.pending_probe_sql(query)
        assert len(pending) >= 2
        verifier.planner.prefetch(verifier, [(query, False)])
        for sql in pending:
            param_sql, params = canonicalize_probe(sql)
            key = probe_plan_key(param_sql, params)
            cached = verifier.probe_cache.peek(key)
            assert cached is not None
            assert cached == db.exists(sql)

    def test_prefetch_skips_cached_and_duplicate_probes(self):
        db = build_movie_db()
        verifier = make_verifier(db)
        query = parse_sql("SELECT title FROM movie WHERE year < 1995",
                          db.schema)
        verifier.planner.prefetch(verifier, [(query, False)])
        stmts = verifier.planner.counters.batch_stmts
        # Same round again: everything cached, nothing to fuse.
        answered = verifier.planner.prefetch(verifier,
                                             [(query, False), (query, False)])
        assert answered == 0
        assert verifier.planner.counters.batch_stmts == stmts

    def test_plan_mode_never_prefetches(self):
        db = build_movie_db()
        verifier = make_verifier(db, mode="plan")
        query = parse_sql("SELECT title FROM movie WHERE year < 1995",
                          db.schema)
        assert verifier.planner.prefetch(verifier, [(query, False)]) == 0

    def test_fused_failure_falls_back_to_individual_probes(self,
                                                           monkeypatch):
        """An unexecutable fused statement must not poison anything:
        the planner abandons it and the cascade's per-probe error
        semantics (no conclusion -> satisfied) take over unchanged."""
        from repro.errors import ExecutionError

        db = build_movie_db()
        verifier = make_verifier(db, rows=[["Forrest Gump"], ["Gravity"]])
        query = parse_sql("SELECT title FROM movie WHERE year < 1995",
                          db.schema)
        original = type(db).execute

        def failing(self, sql, params=(), max_rows=None, kind="query"):
            if kind == "probe_batch":
                raise ExecutionError("fused statement rejected")
            return original(self, sql, params, max_rows=max_rows, kind=kind)

        monkeypatch.setattr(type(db), "execute", failing)
        assert verifier.planner.prefetch(verifier, [(query, False)]) == 0
        assert verifier.planner.counters.batch_fallbacks == 1
        # The cascade still runs on individual probes and reaches the
        # same verdict it would without any planner (here: the full
        # check correctly rejects, since 'Gravity' is not in year<1995).
        result = verifier.verify(query)
        assert verifier.probe_cache.misses > 0  # probed individually
        monkeypatch.setattr(type(db), "execute", original)
        plain = Verifier(db, tsq=verifier.tsq).verify(query)
        assert (result.ok, result.failed_stage) == \
            (plain.ok, plain.failed_stage)

    def test_oversized_rounds_split_into_capped_statements(self):
        """More pending probes than MAX_FUSED_ARMS split into several
        fused statements, none exceeding the arm cap."""
        db = build_movie_db()
        planner = ProbePlanner("batch")
        cache = SharedProbeCache()

        class FakeVerifier:
            probe_cache = cache

            def __init__(self, database):
                self.db = database

            def pending_probe_sql(self, query, treat_as_partial=False):
                return [probe_sql(year) for year in range(1900, 1900 + 150)]

        fake = FakeVerifier(db)
        before = db.stats.snapshot()
        answered = planner.prefetch(fake, [(None, False)])
        assert answered == 150
        delta = db.stats.delta_since(before)
        expected = -(-150 // MAX_FUSED_ARMS)
        assert delta.per_kind.get("probe_batch", 0) == expected


class TestFuseMode:
    """``fuse``: one single-scan statement per group, staged so the
    fused column-stage answers prune row-probe compilation, with the
    degrade ladder (fuse -> UNION ALL batch -> individual probing) and
    the timeout path (nothing memoised, candidates stay alive) exact."""

    @staticmethod
    def partial_jobs(db, years=(1990, 1995, 2000, 2005)):
        queries = [parse_sql(
            f"SELECT title FROM movie WHERE year < {year}", db.schema)
            for year in years]
        return queries, [(query, True) for query in queries]

    def test_fuse_executes_one_scan_per_group(self):
        db = build_movie_db()
        verifier = make_verifier(db, mode="fuse")
        queries, jobs = self.partial_jobs(db)
        before = db.stats.snapshot()
        answered = verifier.planner.prefetch(verifier, jobs)
        delta = db.stats.delta_since(before)
        # Four distinct row probes over one join skeleton: ONE grouped
        # single-scan statement answered all of them.
        assert answered == 4
        assert delta.per_kind.get("probe_fuse", 0) == 1
        assert delta.statements == 1
        counters = verifier.planner.counters
        assert counters.fused_groups == 1
        assert counters.batched_probes == 4
        assert counters.fuse_fallbacks == 0
        assert counters.batch_stmts == 0

    def test_fused_answers_match_individual_execution(self):
        db = build_movie_db()
        verifier = make_verifier(db, mode="fuse",
                                 rows=[["Forrest Gump"], ["Gravity"]])
        queries, jobs = self.partial_jobs(db)
        verifier.planner.prefetch(verifier, jobs)
        checked = 0
        for query in queries:
            for sql in verifier.pending_probe_sql(query, True):
                key = probe_plan_key(*canonicalize_probe(sql))
                cached = verifier.probe_cache.peek(key)
                if cached is not None:
                    assert cached == db.exists(sql)
                    checked += 1
        assert checked > 0

    def test_fuse_seeds_minmax_bounds_without_meta_statements(self):
        """AVG range checks ride in the fused scan as MIN/MAX aggregate
        pairs: the cascade then finds the bounds cached, so no per-
        column ``meta`` statement is ever executed."""
        db = build_movie_db()
        tsq = TableSketchQuery.build(types=["number", "number"],
                                     rows=[[1995, 400.0]])
        verifier = Verifier(db, tsq=tsq,
                            config=VerifierConfig(probe_planner="fuse"))
        query = parse_sql("SELECT AVG(year), AVG(revenue) FROM movie",
                          db.schema)
        staged = verifier.pending_probe_stages(query)
        assert len(staged.avg_columns) == 2
        before = db.stats.snapshot()
        answered = verifier.planner.prefetch(verifier, [(query, False)])
        assert answered == 2  # two columns' bounds from one scan
        delta = db.stats.delta_since(before)
        assert delta.per_kind.get("probe_fuse", 0) == 1
        result = verifier.verify(query)
        delta = db.stats.delta_since(before)
        assert delta.per_kind.get("meta", 0) == 0
        # Same verdict as a planner-off verifier paying meta statements.
        plain = Verifier(db, tsq=tsq).verify(query)
        assert (result.ok, result.failed_stage) == \
            (plain.ok, plain.failed_stage)

    def test_fused_column_answers_prune_row_compilation(self):
        """The staged prefetch: both column arms land False in the
        fused scan, the candidate is refuted by peeked answers alone,
        and its row probes are never compiled — not in the plan cache,
        not in the probe cache."""
        db = build_movie_db()
        verifier = make_verifier(db, mode="fuse",
                                 rows=[["No Such A"], ["No Such B"]])
        query = parse_sql("SELECT title FROM movie WHERE year < 1995",
                          db.schema)
        staged = verifier.pending_probe_stages(query, True)
        row_sqls = staged.row_probes()
        assert len(staged.column_probes) == 2 and len(row_sqls) == 2
        answered = verifier.planner.prefetch(verifier, [(query, True)])
        assert answered == 2  # the two column arms only
        assert verifier.column_stage_refuted(query)
        for sql in row_sqls:
            key = probe_plan_key(*canonicalize_probe(sql))
            assert verifier.probe_cache.peek(key) is None
            assert sql not in verifier.planner._plans
        # The cascade reaches the refutation the peek predicted.
        result = verifier.verify(query, treat_as_partial=True)
        assert not result.ok and result.failed_stage == "by_column"

    def test_fuse_failure_degrades_to_batch_fusion(self, monkeypatch):
        """First rung of the ladder: a failed single-scan statement
        retries its arms as the ``batch`` mode's UNION ALL fusion, with
        the degradation visible in the counters — and the answers still
        exactly what individual execution would produce."""
        from repro.errors import ExecutionError

        db = build_movie_db()
        verifier = make_verifier(db, mode="fuse")
        queries, jobs = self.partial_jobs(db)
        original = type(db).execute

        def failing(self, sql, params=(), max_rows=None, kind="query"):
            if kind == "probe_fuse":
                raise ExecutionError("grouped scan rejected")
            return original(self, sql, params, max_rows=max_rows,
                            kind=kind)

        monkeypatch.setattr(type(db), "execute", failing)
        answered = verifier.planner.prefetch(verifier, jobs)
        assert answered == 4  # the UNION ALL retry answered every arm
        counters = verifier.planner.counters
        assert counters.fused_groups == 0
        assert counters.fuse_fallbacks == 1
        assert counters.batch_stmts == 1
        assert counters.batch_fallbacks == 0
        assert counters.batched_probes == 4
        monkeypatch.setattr(type(db), "execute", original)
        for query in queries:
            for sql in verifier.pending_probe_sql(query, True):
                key = probe_plan_key(*canonicalize_probe(sql))
                cached = verifier.probe_cache.peek(key)
                if cached is not None:
                    assert cached == db.exists(sql)

    def test_fuse_and_batch_failure_fall_back_to_individual(
            self, monkeypatch):
        """Bottom of the ladder: when the grouped scan AND the UNION
        ALL retry both fail, nothing is memoised and the cascade's
        per-probe error semantics take over unchanged."""
        from repro.errors import ExecutionError

        db = build_movie_db()
        verifier = make_verifier(db, mode="fuse")
        queries, jobs = self.partial_jobs(db)
        original = type(db).execute

        def failing(self, sql, params=(), max_rows=None, kind="query"):
            if kind in ("probe_fuse", "probe_batch"):
                raise ExecutionError("fused statement rejected")
            return original(self, sql, params, max_rows=max_rows,
                            kind=kind)

        monkeypatch.setattr(type(db), "execute", failing)
        assert verifier.planner.prefetch(verifier, jobs) == 0
        counters = verifier.planner.counters
        assert counters.fuse_fallbacks == 1
        assert counters.batch_fallbacks == 1
        assert counters.fused_groups == counters.batch_stmts == 0
        assert len(verifier.probe_cache) == 0  # nothing memoised
        # The cascade probes individually and reaches the verdicts a
        # planner-off verifier reaches.
        results = [verifier.verify(q, treat_as_partial=True)
                   for q in queries]
        monkeypatch.setattr(type(db), "execute", original)
        plain = Verifier(db, tsq=verifier.tsq)
        expected = [plain.verify(q, treat_as_partial=True)
                    for q in queries]
        assert [(r.ok, r.failed_stage) for r in results] == \
            [(r.ok, r.failed_stage) for r in expected]

    def test_fuse_timeout_memoises_nothing(self, monkeypatch):
        """A fused scan that blows the probe budget (``--cost-order
        abort`` interplay) draws no conclusion for ANY arm: nothing is
        memoised, no fallback statement runs, and every candidate stays
        alive for the cascade's own per-probe budget."""
        from repro.errors import ExecutionError

        db = build_movie_db()
        tsq = TableSketchQuery.build(types=["text"],
                                     rows=[["Forrest Gump"]])
        verifier = Verifier(db, tsq=tsq, config=VerifierConfig(
            probe_planner="fuse", cost_order="abort",
            probe_timeout_ms=60_000))
        queries, jobs = self.partial_jobs(db)
        original = type(db).execute

        def interrupted(self, sql, params=(), max_rows=None,
                        kind="query"):
            if kind == "probe_fuse":
                # What sqlite raises when the budget timer interrupts a
                # running statement; the interruptible() guard converts
                # it to ExecutionTimeout at scope exit.
                raise ExecutionError("interrupted")
            return original(self, sql, params, max_rows=max_rows,
                            kind=kind)

        monkeypatch.setattr(type(db), "execute", interrupted)
        timeouts_before = db.stats.timeouts
        assert verifier.planner.prefetch(verifier, jobs) == 0
        counters = verifier.planner.counters
        # A timeout is not a degradation: no fallback rung runs and no
        # outcome is recorded for any arm.
        assert counters.fuse_fallbacks == 0
        assert counters.batch_fallbacks == 0
        assert counters.fused_groups == counters.batch_stmts == 0
        assert len(verifier.probe_cache) == 0
        assert db.stats.timeouts == timeouts_before + 1
        # Candidates stay alive: the cascade re-probes each arm under
        # its own per-probe budget and reaches the planner-off
        # verdicts, with no timeout flag stamped on any result.
        results = [verifier.verify(q, treat_as_partial=True)
                   for q in queries]
        assert not any(r.timed_out for r in results)
        monkeypatch.setattr(type(db), "execute", original)
        plain = Verifier(db, tsq=tsq)
        expected = [plain.verify(q, treat_as_partial=True)
                    for q in queries]
        assert [(r.ok, r.failed_stage) for r in results] == \
            [(r.ok, r.failed_stage) for r in expected]

    def test_single_statement_groups_are_left_to_the_cascade(self):
        """A group whose payload is one statement's worth saves nothing
        by fusing: the planner leaves it alone (same statement count
        either way, simpler failure surface)."""
        db = build_movie_db()
        verifier = make_verifier(db, mode="fuse")
        query = parse_sql("SELECT title FROM movie WHERE year < 1995",
                          db.schema)
        # Complete query: one column probe, no row stage -> one lone arm.
        assert verifier.planner.prefetch(verifier, [(query, False)]) == 0
        assert verifier.planner.counters.fused_groups == 0


class TestPendingProbeSuperset:
    """pending_probe_sql mirrors the cascade's probe builders: every
    probe the cascade executes must be in the pending list (superset in
    the other direction is allowed — the cascade stops early)."""

    @pytest.mark.parametrize("sql,rows", [
        ("SELECT title FROM movie WHERE year < 1995", [["Forrest Gump"]]),
        ("SELECT title FROM movie WHERE year > 2000", [["Gravity"]]),
        ("SELECT name FROM actor WHERE birth_year < 1960",
         [["Tom Hanks"], ["Nobody"]]),
    ])
    def test_cascade_probes_are_predicted(self, sql, rows):
        db = build_movie_db()
        verifier = make_verifier(db, mode="plan", rows=rows)
        query = parse_sql(sql, db.schema)
        predicted = {probe_plan_key(*canonicalize_probe(raw))
                     for raw in verifier.pending_probe_sql(query)}
        verifier.verify(query)
        issued = set(verifier.probe_cache.export()[0])
        assert issued <= predicted

    def test_prefilter_mirrors_cheap_stage_rejections(self):
        """A query the probe-free stages reject yields no pending
        probes — the prefetch must not pay for doomed candidates."""
        db = build_movie_db()
        tsq = TableSketchQuery.build(types=["number"], rows=[[1994]])
        verifier = Verifier(db, tsq=tsq,
                            config=VerifierConfig(probe_planner="batch"))
        # Projects text but the TSQ demands a number column: rejected
        # by VerifyColumnTypes before any probe would run.
        query = parse_sql("SELECT title FROM movie WHERE year < 1995",
                          db.schema)
        assert verifier.pending_probe_sql(query) == []
