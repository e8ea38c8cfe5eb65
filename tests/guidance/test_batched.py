"""Batching guidance backend: keying, dedup, memoisation, counters.

The contract under test (see ``repro.guidance.batched``): wrapping a
deterministic model in :class:`BatchingGuidanceModel` never changes any
distribution — identical requests (equal ``cache_key()``) are scored
once per batch and served from a bounded LRU across batches, with the
savings visible only in the amortisation counters.
"""

from __future__ import annotations

import pytest

from repro.core.search.scheduler import DecisionScheduler
from repro.errors import GuidanceError
from repro.guidance.base import (
    Distribution,
    GuidanceContext,
    GuidanceRequest,
    SLOT_SELECT,
    SLOT_WHERE,
)
from repro.guidance.batched import (
    AmortisationCounters,
    BatchingGuidanceModel,
    GuidanceCache,
    ServerGuidanceModel,
    make_guidance_backend,
    request_candidates,
)
from repro.guidance.oracle import CalibratedOracleModel
from repro.nlq.literals import NLQuery
from repro.sqlir.ast import HOLE, ColumnRef, Query

from tests.conftest import build_movie_schema

SCHEMA = build_movie_schema()


class SpyModel:
    """Forwards to a real model while recording score_batch traffic."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def score_batch(self, requests):
        self.batches.append(list(requests))
        return self.inner.score_batch(requests)


def make_ctx(task_id: str = "t1", partial=None) -> GuidanceContext:
    return GuidanceContext(nlq=NLQuery.from_text("movies before 1995"),
                           schema=SCHEMA, partial=partial, task_id=task_id)


def kw_request(task_id: str = "t1", clause: str = SLOT_WHERE,
               partial=None) -> GuidanceRequest:
    return GuidanceRequest("clause_presence", make_ctx(task_id, partial),
                           (clause,))


def col_request(task_id: str = "t1") -> GuidanceRequest:
    candidates = (ColumnRef("movie", "title"), ColumnRef("movie", "year"))
    return GuidanceRequest("column", make_ctx(task_id),
                           (SLOT_SELECT, candidates))


class TestCacheKey:
    def test_equal_content_gives_equal_keys(self):
        assert kw_request().cache_key() == kw_request().cache_key()

    def test_method_args_task_and_partial_all_distinguish(self):
        base = kw_request().cache_key()
        assert kw_request(clause="group_by").cache_key() != base
        assert kw_request(task_id="t2").cache_key() != base
        assert kw_request(partial=Query.empty()).cache_key() != base
        assert col_request().cache_key() != base

    def test_keys_are_hashable(self):
        assert len({kw_request().cache_key(), col_request().cache_key()}) \
            == 2

    def test_same_named_structurally_different_schemas_distinguish(self):
        """Schema identity is content-based, not name-based: a wrapper
        shared across two same-named but different schemas must never
        serve one schema's distribution for the other."""
        from repro.db import make_schema
        from repro.sqlir.types import ColumnType as T

        other = make_schema(
            "movies",  # same name as the fixture schema
            tables={"movie": [("mid", T.NUMBER), ("budget", T.NUMBER)]},
            primary_keys={"movie": "mid"})
        nlq = NLQuery.from_text("movies before 1995")
        same = GuidanceRequest(
            "clause_presence",
            GuidanceContext(nlq=nlq, schema=SCHEMA, task_id="t1"),
            (SLOT_WHERE,))
        renamed = GuidanceRequest(
            "clause_presence",
            GuidanceContext(nlq=nlq, schema=other, task_id="t1"),
            (SLOT_WHERE,))
        assert same.cache_key() == kw_request().cache_key()
        assert renamed.cache_key() != kw_request().cache_key()


class TestRequestCandidates:
    def test_fixed_arity_methods(self):
        assert request_candidates(kw_request()) == [True, False]
        ctx = make_ctx()
        assert request_candidates(
            GuidanceRequest("num_items", ctx, (SLOT_SELECT, 3))) == [1, 2, 3]
        assert len(request_candidates(
            GuidanceRequest("direction", ctx,
                            (ColumnRef("movie", "year"),)))) == 4

    def test_candidate_carrying_methods_echo_their_args(self):
        request = col_request()
        assert request_candidates(request) == list(request.args[-1])

    def test_unknown_method_raises(self):
        with pytest.raises(GuidanceError):
            request_candidates(
                GuidanceRequest("mystery", make_ctx(), ()))


class TestGuidanceCache:
    def test_roundtrip_and_len(self):
        cache = GuidanceCache(4)
        dist = Distribution.point(True)
        cache.put(("k",), dist)
        assert cache.get(("k",)) is dist
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self):
        cache = GuidanceCache(4)
        assert cache.get(("absent",)) is None
        assert cache.misses == 1

    def test_lru_eviction_is_bounded_and_counted(self):
        cache = GuidanceCache(2)
        for key in ("a", "b", "c"):
            cache.put((key,), Distribution.point(key))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(("a",)) is None  # the oldest went first

    def test_get_refreshes_recency(self):
        cache = GuidanceCache(2)
        cache.put(("a",), Distribution.point("a"))
        cache.put(("b",), Distribution.point("b"))
        cache.get(("a",))                        # a is now the freshest
        cache.put(("c",), Distribution.point("c"))
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None

    def test_zero_entries_rejected(self):
        with pytest.raises(GuidanceError):
            GuidanceCache(0)


class TestBatchingModel:
    def test_distributions_identical_to_unwrapped(self):
        inner = CalibratedOracleModel(seed=3)
        model = BatchingGuidanceModel(CalibratedOracleModel(seed=3))
        requests = [kw_request(), col_request(),
                    GuidanceRequest("logic", make_ctx())]
        batched = model.score_batch(requests)
        assert batched == [request.invoke(inner) for request in requests]

    def test_duplicates_within_a_batch_scored_once(self):
        spy = SpyModel(CalibratedOracleModel(seed=0))
        model = BatchingGuidanceModel(spy)
        request = kw_request()
        results = model.score_batch([request, col_request(), request])
        assert len(spy.batches) == 1
        assert len(spy.batches[0]) == 2          # deduplicated
        assert results[0] == results[2]
        counters = model.counters
        assert counters.guide_requests == 3
        assert counters.guide_calls == 2
        assert counters.guide_hits == 1          # the in-batch duplicate
        assert counters.guide_batch_calls == 1

    def test_repeats_across_batches_hit_the_cache(self):
        spy = SpyModel(CalibratedOracleModel(seed=0))
        model = BatchingGuidanceModel(spy)
        first = model.score_batch([kw_request(), col_request()])
        second = model.score_batch([kw_request(), col_request()])
        assert first == second
        assert len(spy.batches) == 1             # nothing new to score
        assert model.counters.guide_hits == 2
        assert model.counters.guide_requests == 4

    def test_per_call_methods_share_the_cache(self):
        spy = SpyModel(CalibratedOracleModel(seed=0))
        model = BatchingGuidanceModel(spy)
        ctx = make_ctx()
        direct = model.clause_presence(ctx, SLOT_WHERE)
        batched = model.score_batch([kw_request()])[0]
        assert direct == batched
        assert model.counters.guide_calls == 1
        assert model.counters.guide_hits == 1
        assert not spy.batches                   # per-call used invoke()

    def test_counters_always_balance(self):
        model = BatchingGuidanceModel(CalibratedOracleModel(seed=0))
        model.score_batch([kw_request(), kw_request(), col_request()])
        model.score_batch([kw_request(task_id="t9")])
        counters = model.counters
        assert counters.guide_requests == \
            counters.guide_calls + counters.guide_hits

    def test_delta_since(self):
        model = BatchingGuidanceModel(CalibratedOracleModel(seed=0))
        model.score_batch([kw_request()])
        start = model.counters.snapshot()
        model.score_batch([kw_request(), col_request()])
        delta = model.counters.delta_since(start)
        assert delta == AmortisationCounters(guide_requests=2, guide_calls=1,
                                             guide_hits=1,
                                             guide_batch_calls=1)

    def test_double_wrap_rejected(self):
        model = BatchingGuidanceModel(CalibratedOracleModel(seed=0))
        with pytest.raises(GuidanceError):
            BatchingGuidanceModel(model)

    def test_inner_miscounting_is_an_error(self):
        class Broken(SpyModel):
            def score_batch(self, requests):
                return []

        model = BatchingGuidanceModel(Broken(CalibratedOracleModel(seed=0)))
        with pytest.raises(GuidanceError):
            model.score_batch([kw_request()])

    def test_cache_bound_is_respected(self):
        model = BatchingGuidanceModel(CalibratedOracleModel(seed=0),
                                      cache_size=1)
        model.score_batch([kw_request(), col_request()])
        assert len(model.cache) == 1


class TestOneGuidancePath:
    """Every model is served through the batching wrapper; there is no
    option that turns it off."""

    def test_backend_wraps_a_bare_model(self):
        inner = CalibratedOracleModel(seed=0)
        model = make_guidance_backend(inner, cache_size=8)
        assert isinstance(model, BatchingGuidanceModel)
        assert model.inner is inner and model.cache.max_entries == 8

    def test_backend_returns_an_existing_wrapper_unchanged(self):
        wrapped = BatchingGuidanceModel(CalibratedOracleModel(seed=0))
        assert make_guidance_backend(wrapped) is wrapped
        assert make_guidance_backend(wrapped,
                                     server="127.0.0.1:1") is wrapped

    def test_server_sits_under_the_wrapper(self):
        model = make_guidance_backend(CalibratedOracleModel(seed=0),
                                      server="127.0.0.1:1")
        assert isinstance(model.inner, ServerGuidanceModel)

    def test_no_config_accepts_guidance_batch(self):
        from repro.core.enumerator import EnumeratorConfig
        from repro.eval.harness import SimulationConfig

        for config in (EnumeratorConfig, SimulationConfig):
            with pytest.raises(TypeError, match="guidance_batch"):
                config(guidance_batch=True)

    @pytest.mark.parametrize("address", ["127.0.0.1:70000", "nonsense",
                                         "127.0.0.1:x"])
    def test_config_rejects_a_bad_server_address(self, address):
        """Rejected at construction, not after reconnect back-off."""
        from repro.core.enumerator import EnumeratorConfig

        with pytest.raises(ValueError):
            EnumeratorConfig(guidance_server=address)


class TestSchedulerDedup:
    """Duplicate requests within a round reach score_batch exactly once.

    The scheduler memoises per partial query; the batching wrapper
    below it collapses requests that are *identical in content* even
    when they belong to different frontier states.
    """

    def test_duplicate_requests_scored_once_per_round(self):
        spy = SpyModel(CalibratedOracleModel(seed=0))
        scheduler = DecisionScheduler(BatchingGuidanceModel(spy))
        q1 = Query.empty()
        q2 = Query.empty().replace(select=(HOLE,))
        request = kw_request()
        scheduler.schedule([(q1, request), (q2, request)])
        assert scheduler.batches == 1
        assert scheduler.calls == 2              # two scheduled decisions
        assert len(spy.batches) == 1
        assert len(spy.batches[0]) == 1          # but one model call
        first = scheduler.distribution_for(q1)
        second = scheduler.distribution_for(q2)
        assert first is not None and first == second
