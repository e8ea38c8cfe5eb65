"""Per-model guidance cache-key projection.

The contract under test (see ``repro.guidance.base`` /
``repro.guidance.batched``): a model that declares which context fields
its decisions read (:meth:`GuidanceModel.cache_fields`) gets its
distributions cached under :meth:`GuidanceRequest.projected_key` — a key
over only those fields. A sound projection merges entries the
conservative full-context key kept apart (more hits), and must never
change a distribution: the candidate stream under a projected key is
bit-for-bit the stream under the conservative key.
"""

from __future__ import annotations

import pytest

from repro.core.enumerator import Enumerator, EnumeratorConfig
from repro.datasets import (
    DETAIL_FULL,
    SpiderCorpusConfig,
    generate_corpus,
    synthesize_tsq,
)
from repro.errors import GuidanceError
from repro.guidance.base import CACHE_FIELDS
from repro.guidance.batched import BatchingGuidanceModel
from repro.guidance.lexical import LexicalGuidanceModel
from repro.guidance.oracle import CalibratedOracleModel
from repro.sqlir.ast import Query
from repro.sqlir.canon import signature

from tests.core.fixtures.generate_search_golden import stable_repr
from tests.guidance.test_batched import kw_request


class TestDeclarations:
    def test_oracle_declares_its_projection(self):
        wrapper = BatchingGuidanceModel(CalibratedOracleModel())
        assert wrapper.cache_key_fields == ("task_id", "gold",
                                            "decision_prefix")

    def test_lexical_declares_its_projection(self):
        wrapper = BatchingGuidanceModel(LexicalGuidanceModel())
        assert wrapper.cache_key_fields == ("schema", "nlq", "partial")

    def test_undeclared_model_gets_the_conservative_key(self):
        class Undeclared(LexicalGuidanceModel):
            name = "undeclared"

            def cache_fields(self):
                return None

        wrapper = BatchingGuidanceModel(Undeclared())
        assert wrapper.cache_key_fields is None

    def test_unknown_fields_fail_at_wrap_time(self):
        class Sloppy(LexicalGuidanceModel):
            name = "sloppy"

            def cache_fields(self):
                return ("task_id", "moon_phase")

        with pytest.raises(GuidanceError, match="moon_phase"):
            BatchingGuidanceModel(Sloppy())

    def test_every_documented_field_is_accepted(self):
        class Everything(LexicalGuidanceModel):
            def cache_fields(self):
                return CACHE_FIELDS

        wrapper = BatchingGuidanceModel(Everything())
        assert wrapper.cache_key_fields == CACHE_FIELDS


class TestProjectedKey:
    def test_projection_merges_undeclared_fields(self):
        """Two requests differing only in the partial query share a key
        once ``partial`` is projected away — the conservative key keeps
        them apart."""
        bare = kw_request()
        shaped = kw_request(partial=Query.empty())
        assert bare.cache_key() != shaped.cache_key()
        fields = ("task_id", "decision_prefix")
        assert bare.projected_key(fields) == shaped.projected_key(fields)

    def test_method_and_args_always_distinguish(self):
        fields = ("task_id",)
        assert kw_request().projected_key(fields) \
            != kw_request(clause="group_by").projected_key(fields)

    def test_declared_fields_still_distinguish(self):
        fields = ("task_id",)
        assert kw_request(task_id="t1").projected_key(fields) \
            != kw_request(task_id="t2").projected_key(fields)

    def test_clause_presence_prefix_is_empty(self):
        """Keyword decisions are partial-independent, which is exactly
        why ``decision_prefix`` may replace ``partial`` in their key."""
        assert kw_request(partial=Query.empty()).decision_prefix() == ()

    def test_unknown_field_raises(self):
        with pytest.raises(GuidanceError, match="moon_phase"):
            kw_request().projected_key(("moon_phase",))


@pytest.fixture(scope="module")
def oracle_task():
    corpus = generate_corpus("dev", SpiderCorpusConfig(
        num_databases=1, tasks_per_database=1, seed=7))
    task = next(iter(corpus))
    db = corpus.database_for(task)
    tsq = synthesize_tsq(task, db, detail=DETAIL_FULL, seed=0)
    return db, task, tsq


def _run(wrapper, oracle_task):
    db, task, tsq = oracle_task
    config = EnumeratorConfig(max_candidates=10, max_expansions=2500,
                              time_budget=None)
    enumerator = Enumerator(db, wrapper, task.nlq, tsq=tsq, config=config,
                            gold=task.gold, task_id=task.task_id)
    return [(c.index, c.confidence, stable_repr(signature(c.query)))
            for c in enumerator.enumerate()]


class TestProjectionIsInvisibleInTheStream:
    def test_projected_stream_matches_conservative_with_more_hits(
            self, oracle_task, monkeypatch):
        """The whole point: projecting the oracle's key changes cache
        economics (>= hits), never the candidate stream."""
        projected = BatchingGuidanceModel(CalibratedOracleModel(seed=0))
        assert projected.cache_key_fields is not None
        projected_stream = _run(projected, oracle_task)

        monkeypatch.setattr(CalibratedOracleModel, "cache_fields",
                            lambda self: None)
        conservative = BatchingGuidanceModel(CalibratedOracleModel(seed=0))
        assert conservative.cache_key_fields is None
        conservative_stream = _run(conservative, oracle_task)

        assert projected_stream, "task must emit candidates"
        assert projected_stream == conservative_stream
        assert projected.counters.guide_hits \
            >= conservative.counters.guide_hits
        assert projected.counters.guide_requests \
            == conservative.counters.guide_requests
        # Fewer distinct keys reach the inner model under the merge.
        assert projected.counters.guide_calls \
            <= conservative.counters.guide_calls

    def test_lexical_projection_matches_conservative(
            self, oracle_task, monkeypatch):
        """Same lock for the lexical model's new declaration: projecting
        ``task_id``/``gold`` away merges cache entries but leaves the
        candidate stream bit-for-bit unchanged."""
        projected = BatchingGuidanceModel(LexicalGuidanceModel())
        assert projected.cache_key_fields == ("schema", "nlq", "partial")
        projected_stream = _run(projected, oracle_task)

        monkeypatch.setattr(LexicalGuidanceModel, "cache_fields",
                            lambda self: None)
        conservative = BatchingGuidanceModel(LexicalGuidanceModel())
        assert conservative.cache_key_fields is None
        conservative_stream = _run(conservative, oracle_task)

        assert projected_stream, "task must emit candidates"
        assert projected_stream == conservative_stream
        assert projected.counters.guide_hits \
            >= conservative.counters.guide_hits
        assert projected.counters.guide_requests \
            == conservative.counters.guide_requests
        assert projected.counters.guide_calls \
            <= conservative.counters.guide_calls
