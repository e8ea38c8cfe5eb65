"""Cascade golden tests + shared probe cache concurrency.

The first half pins *which* stage of the ascending-cost cascade
(Algorithm 3) prunes each of a fixed set of doomed candidates — a
regression net over stage ordering: a reordering or a stage silently
going no-op shows up as a different ``failed_stage``.

The second half exercises the :class:`SharedProbeCache` under
concurrent access: many verifier forks on separate threads and
connections must agree on probe outcomes, and repeat probes must be
answered from the cache.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.tsq import TableSketchQuery
from repro.core.verifier import (
    STAGE_BY_COLUMN,
    STAGE_BY_ROW,
    STAGE_CLAUSES,
    STAGE_COLUMN_TYPES,
    STAGE_FULL,
    STAGE_LITERALS,
    STAGE_SEMANTICS,
    SharedProbeCache,
    Verifier,
    VerifierConfig,
)
from repro.nlq.literals import Literal
from repro.sqlir.parser import parse_sql


def q(sql, db):
    return parse_sql(sql, db.schema)


#: (case id, SQL, TSQ kwargs, literals, treat_as_partial, expected stage)
#: Each candidate is doomed by construction; the golden part is *where*
#: the cascade catches it.
DOOMED = (
    ("clauses/order-by-forbidden",
     "SELECT title FROM movie ORDER BY year",
     dict(rows=[["Forrest Gump"]], sorted=False), (), False,
     STAGE_CLAUSES),
    ("clauses/limit-exceeds-k",
     "SELECT title FROM movie ORDER BY year LIMIT 9",
     dict(rows=[["Forrest Gump"]], sorted=True, limit=2), (), False,
     STAGE_CLAUSES),
    ("semantics/avg-of-text",
     "SELECT AVG(title) FROM movie",
     None, (), False,
     STAGE_SEMANTICS),
    ("column_types/number-for-text-annotation",
     "SELECT year FROM movie",
     dict(types=["text"], rows=[["Forrest Gump"]]), (), False,
     STAGE_COLUMN_TYPES),
    ("column_types/width-mismatch",
     "SELECT title, year FROM movie",
     dict(types=["text"], rows=[["Forrest Gump"]]), (), False,
     STAGE_COLUMN_TYPES),
    ("by_column/unknown-cell-value",
     "SELECT title FROM movie",
     dict(rows=[["No Such Movie Anywhere"]]), (), False,
     STAGE_BY_COLUMN),
    ("by_row/cells-never-cooccur",
     # 'Forrest Gump' (1994) and year 2013 both exist column-wise, but
     # never on one row; only the row-wise probe can see that, and it
     # only runs for partial queries (complete ones go to stage 7).
     "SELECT title, year FROM movie",
     dict(rows=[["Forrest Gump", 2013]]), (), True,
     STAGE_BY_ROW),
    ("literals/tagged-literal-unused",
     "SELECT title FROM movie WHERE year = 2013",
     dict(rows=[["Gravity"]]), (Literal(1994),), False,
     STAGE_LITERALS),
    ("full_satisfaction/result-misses-example",
     "SELECT title FROM movie WHERE year = 2013",
     dict(rows=[["Forrest Gump"]]), (), False,
     STAGE_FULL),
)


class TestCascadeGoldens:
    @pytest.mark.parametrize(
        "sql,tsq_kwargs,literals,partial,stage",
        [case[1:] for case in DOOMED],
        ids=[case[0] for case in DOOMED])
    def test_doomed_candidate_pruned_at_pinned_stage(
            self, movie_db, sql, tsq_kwargs, literals, partial, stage):
        tsq = (TableSketchQuery.build(**tsq_kwargs)
               if tsq_kwargs is not None else None)
        verifier = Verifier(movie_db, tsq=tsq, literals=literals)
        result = verifier.verify(q(sql, movie_db),
                                 treat_as_partial=partial)
        assert not result.ok
        assert result.failed_stage == stage
        assert verifier.stats == {stage: 1}

    def test_every_stage_with_a_prune_is_pinned(self):
        """The golden set covers each prunable stage of the cascade."""
        pinned = {case[5] for case in DOOMED}
        assert pinned == {STAGE_CLAUSES, STAGE_SEMANTICS,
                          STAGE_COLUMN_TYPES, STAGE_BY_COLUMN,
                          STAGE_BY_ROW, STAGE_LITERALS, STAGE_FULL}

    def test_sound_candidate_passes_all_stages(self, movie_db):
        tsq = TableSketchQuery.build(rows=[["Forrest Gump"]])
        verifier = Verifier(movie_db, tsq=tsq)
        assert verifier.verify(
            q("SELECT title FROM movie WHERE year = 1994", movie_db)).ok
        assert verifier.stats == {"pass": 1}


def _snapshots_supported() -> bool:
    from repro.db.database import Database

    return Database.supports_snapshots()


class TestSharedProbeCacheConcurrency:
    PROBES = [
        "SELECT 1 FROM movie WHERE title = 'Forrest Gump' LIMIT 1",
        "SELECT 1 FROM movie WHERE title = 'Gravity' LIMIT 1",
        "SELECT 1 FROM movie WHERE title = 'Nope' LIMIT 1",
        "SELECT 1 FROM actor WHERE name = 'Tom Hanks' LIMIT 1",
        "SELECT 1 FROM actor WHERE name = 'Nobody' LIMIT 1",
    ]

    @pytest.mark.skipif(not _snapshots_supported(),
                        reason="sqlite3 build lacks serialize()")
    def test_concurrent_probes_agree_and_hit_cache(self, movie_db):
        cache = SharedProbeCache()
        payload = movie_db.snapshot()
        local = threading.local()
        rounds = 40

        def worker(_):
            db = getattr(local, "db", None)
            if db is None:
                from repro.db.database import Database
                db = local.db = Database.from_snapshot(movie_db.schema,
                                                       payload)
            return tuple(cache.probe(db, sql) for sql in self.PROBES)

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(worker, range(rounds)))

        assert len(set(outcomes)) == 1, "workers disagreed on probes"
        assert outcomes[0] == (True, True, False, True, False)
        total = rounds * len(self.PROBES)
        assert cache.counters.probe_hits + cache.counters.probe_misses == total
        # Each distinct probe is computed at most once per racing
        # thread; everything else must be a cache hit.
        assert cache.counters.probe_misses <= len(self.PROBES) * 8
        assert cache.counters.probe_hits >= total - len(self.PROBES) * 8
        assert cache.hit_rate > 0.5

    def test_serial_hit_rate_is_exact(self, movie_db):
        cache = SharedProbeCache()
        for _ in range(10):
            for sql in self.PROBES:
                cache.probe(movie_db, sql)
        assert cache.counters.probe_misses == len(self.PROBES)
        assert cache.counters.probe_hits == 9 * len(self.PROBES)
        assert cache.hit_rate == pytest.approx(0.9)

    @pytest.mark.skipif(not _snapshots_supported(),
                        reason="sqlite3 build lacks serialize()")
    def test_forked_verifiers_share_one_cache(self, movie_db):
        """Verifier.fork shares the probe cache: a probe answered by one
        fork is a hit for every other fork."""
        tsq = TableSketchQuery.build(rows=[["Forrest Gump"]])
        primary = Verifier(movie_db, tsq=tsq)
        query = q("SELECT title FROM movie", movie_db)
        assert primary.verify(query, treat_as_partial=True).ok
        misses_after_primary = primary.probe_cache.counters.probe_misses

        fork = primary.fork(movie_db.fork())
        assert fork.probe_cache is primary.probe_cache
        assert fork.verify(query, treat_as_partial=True).ok
        assert primary.probe_cache.counters.probe_misses == \
            misses_after_primary
        assert primary.probe_cache.counters.probe_hits > 0
