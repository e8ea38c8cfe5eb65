"""Tests for the Duoquest facade."""

import pytest

from repro.core import Duoquest, EnumeratorConfig, TableSketchQuery
from repro.guidance import CalibratedOracleModel
from repro.nlq.literals import NLQuery
from repro.sqlir.canon import queries_equal
from repro.sqlir.parser import parse_sql


@pytest.fixture
def system(movie_db):
    return Duoquest(movie_db, model=CalibratedOracleModel(seed=0),
                    config=EnumeratorConfig(time_budget=8.0,
                                            max_candidates=40))


class TestSynthesize:
    def test_returns_result(self, system, movie_db):
        gold = parse_sql("SELECT title FROM movie", movie_db.schema)
        result = system.synthesize(NLQuery.from_text("titles"), None,
                                   gold=gold, task_id="t")
        assert result.candidates
        assert result.elapsed > 0

    def test_ranked_by_confidence(self, system, movie_db):
        gold = parse_sql("SELECT title FROM movie", movie_db.schema)
        result = system.synthesize(NLQuery.from_text("titles"), None,
                                   gold=gold, task_id="t")
        confs = [c.confidence for c in result.ranked()]
        assert confs == sorted(confs, reverse=True)

    def test_top_k(self, system, movie_db):
        gold = parse_sql("SELECT title FROM movie", movie_db.schema)
        result = system.synthesize(NLQuery.from_text("titles"), None,
                                   gold=gold, task_id="t")
        assert len(result.top(3)) <= 3

    def test_rank_of_gold(self, system, movie_db):
        gold = parse_sql("SELECT title FROM movie WHERE year < 1994",
                         movie_db.schema)
        rows = movie_db.execute_query(gold)
        tsq = TableSketchQuery.build(types=["text"], rows=[[rows[0][0]]])
        result = system.synthesize(
            NLQuery.from_text("titles before 1994", literals=[1994]),
            tsq, gold=gold, task_id="t2")
        rank = result.rank_of(lambda q: queries_equal(q, gold))
        assert rank is not None
        assert rank <= 5

    def test_stop_when_terminates_early(self, system, movie_db):
        gold = parse_sql("SELECT title FROM movie", movie_db.schema)
        result = system.synthesize(
            NLQuery.from_text("titles"), None, gold=gold, task_id="t",
            stop_when=lambda c: c.index >= 2)
        assert len(result.candidates) == 3

    def test_sql_renders_topk(self, system, movie_db):
        gold = parse_sql("SELECT title FROM movie", movie_db.schema)
        result = system.synthesize(NLQuery.from_text("titles"), None,
                                   gold=gold, task_id="t")
        rendered = result.sql(3)
        assert all(sql.startswith("SELECT") for sql in rendered)

    def test_verifier_stats_exposed(self, system, movie_db):
        gold = parse_sql("SELECT title FROM movie", movie_db.schema)
        result = system.synthesize(NLQuery.from_text("titles"), None,
                                   gold=gold, task_id="t")
        assert "pass" in result.verifier_stats


class TestSoundness:
    def test_every_candidate_satisfies_tsq(self, movie_db):
        """The paper's soundness guarantee (Section 2.1)."""
        gold = parse_sql("SELECT title, year FROM movie WHERE year < 1994",
                         movie_db.schema)
        rows = movie_db.execute_query(gold)
        tsq = TableSketchQuery.build(
            types=["text", "number"],
            rows=[list(rows[0]), list(rows[1])])
        system = Duoquest(movie_db, model=CalibratedOracleModel(seed=1),
                          config=EnumeratorConfig(time_budget=8.0,
                                                  max_candidates=30))
        result = system.synthesize(
            NLQuery.from_text("titles and years before 1994",
                              literals=[1994]),
            tsq, gold=gold, task_id="sound")
        assert result.candidates
        for candidate in result.candidates:
            produced = movie_db.execute_query(candidate.query,
                                              max_rows=5000)
            assert tsq.satisfied_by_rows(produced)


class TestGuidanceBackendOwnership:
    """The facade builds the guidance backend (one wrapper per system,
    shared across synthesize() calls) and close() releases only a
    server backend it created, never a model the caller passed in."""

    def test_facade_wraps_once_and_reuses_across_synthesize(self,
                                                            movie_db):
        from repro.guidance import BatchingGuidanceModel

        with Duoquest(movie_db, model=CalibratedOracleModel(seed=0),
                      config=EnumeratorConfig(
                          time_budget=5.0, max_candidates=5)) as system:
            assert isinstance(system.model, BatchingGuidanceModel)
            nlq = NLQuery.from_text("movies before 1995",
                                    literals=[1995])
            first = system.synthesize(nlq, task_id="own")
            second = system.synthesize(nlq, task_id="own")
            assert [c.query for c in first.candidates] == \
                [c.query for c in second.candidates]
            # The repeat run is answered from the facade-owned cache.
            assert second.telemetry.guide_hits > 0
            assert second.telemetry.guide_calls == 0

    def test_close_releases_only_an_owned_backend(self, movie_db):
        from repro.guidance import BatchingGuidanceModel

        closed = []

        class Closeable(BatchingGuidanceModel):
            def close(self):
                closed.append(True)
                super().close()

        class CloseableOracle(CalibratedOracleModel):
            def close(self):
                closed.append(True)

        # Caller-wrapped model: the facade must not close it.
        shared = Closeable(CalibratedOracleModel(seed=0))
        system = Duoquest(movie_db, model=shared)
        assert system.model is shared
        system.close()
        assert not closed

        # A bare caller model behind the facade's wrapper stays open.
        Duoquest(movie_db, model=CloseableOracle(seed=0)).close()
        assert not closed

        # Facade-created server backend: close() must release it.
        system = Duoquest(movie_db, model=CalibratedOracleModel(seed=0),
                          config=EnumeratorConfig(
                              guidance_server="127.0.0.1:1"))
        monkey_closed = []
        system.model.close = lambda: monkey_closed.append(True)
        system.close()
        assert monkey_closed
