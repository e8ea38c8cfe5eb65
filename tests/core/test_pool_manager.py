"""Warm verification pools: leases, reuse, cache sharing, and failure.

The PoolManager contract under test: worker threads spawn once per
database and survive lease ``close()`` (the engine's ``finally`` must
never kill the shared executor), every lease's worker threads verify
against that lease's probe cache (so answers found anywhere are reused
by the next task), single-worker configurations fall back to inline
pools, and every failure mode degrades to inline verification visibly
instead of crashing the enumeration.
"""

from __future__ import annotations

import logging

import pytest

from repro.core.enumerator import Enumerator, EnumeratorConfig
from repro.core.search.parallel import (
    BaseVerificationPool,
    PoolLease,
    PoolManager,
)
from repro.core.tsq import TableSketchQuery
from repro.core.verifier import SharedProbeCache, Verifier
from repro.db.database import Database
from repro.errors import ExecutionError
from repro.nlq.literals import NLQuery
from repro.sqlir.parser import parse_sql

needs_snapshots = pytest.mark.skipif(
    not Database.supports_snapshots(),
    reason="sqlite build cannot serialize databases")


def make_verifier(db, cache=None):
    tsq = TableSketchQuery.build(types=["text"], rows=[["Forrest Gump"]])
    return Verifier(db, tsq=tsq, probe_cache=cache)


def make_jobs(db, count=4):
    query = parse_sql("SELECT title FROM movie WHERE year < 1995",
                      db.schema)
    return [(query, False)] * count


class TestLeaseLifecycle:
    @needs_snapshots
    def test_workers_spawn_once_across_leases(self, movie_db):
        with PoolManager() as manager:
            cache = SharedProbeCache()
            for _ in range(3):
                lease = manager.lease(make_verifier(movie_db, cache),
                                      workers=2)
                results = lease.run(make_jobs(movie_db))
                assert all(r.ok for r in results)
                lease.close()
            # Every key the daemon's stats verb reports.
            assert manager.stats == {
                "pools": 1, "worker_spawns": 1, "persistent_leases": 3,
                "fallback_leases": 0, "pool_retires": 0,
                "breaker_trips": 0}

    @needs_snapshots
    def test_first_lease_cold_rest_reused(self, movie_db):
        with PoolManager() as manager:
            cache = SharedProbeCache()
            first = manager.lease(make_verifier(movie_db, cache),
                                  workers=2)
            second = manager.lease(make_verifier(movie_db, cache),
                                   workers=2)
            assert type(first) is type(second) is PoolLease
            assert not first.reused
            assert second.reused

    @needs_snapshots
    def test_lease_close_keeps_executor_alive(self, movie_db):
        with PoolManager() as manager:
            cache = SharedProbeCache()
            lease = manager.lease(make_verifier(movie_db, cache),
                                  workers=2)
            lease.run(make_jobs(movie_db))
            lease.close()
            lease.close()  # idempotent
            _, pool = next(iter(manager._pools.values()))
            assert pool.executor is not None  # workers still warm

    @needs_snapshots
    def test_context_manager_protocol(self, movie_db):
        cache = SharedProbeCache()
        with PoolManager() as manager:
            with manager.lease(make_verifier(movie_db, cache),
                               workers=2) as lease:
                assert lease.run(make_jobs(movie_db))

    @needs_snapshots
    def test_manager_close_shuts_pools_and_falls_back(self, movie_db):
        manager = PoolManager()
        cache = SharedProbeCache()
        manager.lease(make_verifier(movie_db, cache), workers=2).close()
        _, pool = next(iter(manager._pools.values()))
        manager.close()
        manager.close()  # idempotent
        assert manager.closed
        assert pool.executor is None
        assert manager.stats["pools"] == 0
        # Still usable — but only hands out visibly degraded inline
        # pools now, which still answer.
        fallback = manager.lease(make_verifier(movie_db, cache), workers=2)
        assert type(fallback) is BaseVerificationPool
        assert fallback.degraded and fallback.workers == 1
        assert "closed" in fallback.degrade_reason
        assert all(r.ok for r in fallback.run(make_jobs(movie_db)))
        fallback.close()


class TestFallbackPolicy:
    """lease() is the policy boundary: single-worker configurations get
    an inline pool and never touch a worker pool."""

    def test_single_worker_falls_back(self, movie_db):
        with PoolManager() as manager:
            pool = manager.lease(make_verifier(movie_db), workers=1)
            assert type(pool) is BaseVerificationPool
            assert not pool.degraded
            assert manager.stats["fallback_leases"] == 1
            assert manager.stats["pools"] == 0

    def test_invalid_config_still_raises(self, movie_db):
        with PoolManager() as manager:
            with pytest.raises(ValueError, match="positive integer"):
                manager.lease(make_verifier(movie_db), workers=0)
            with pytest.raises(ValueError, match="unknown verify_backend"):
                manager.lease(make_verifier(movie_db), backend="fibers",
                              workers=2)

    def test_bad_max_pools_rejected(self):
        with pytest.raises(ValueError, match="max_pools"):
            PoolManager(max_pools=0)


class TestCacheSync:
    """Worker threads verify against the *lease's* probe cache, so
    every answer lands in (and every hit is counted by) the cache the
    engine reads its telemetry from — across leases and cache swaps."""

    @needs_snapshots
    def test_probe_entries_flow_back_to_primary(self, movie_db):
        with PoolManager() as manager:
            cache = SharedProbeCache()
            lease = manager.lease(make_verifier(movie_db, cache),
                                  workers=2)
            lease.run(make_jobs(movie_db, count=6))
            lease.close()
            assert len(cache) > 0
            assert cache.counters.probe_hits + cache.counters.probe_misses > 0

    @needs_snapshots
    def test_second_task_sees_first_tasks_probes(self, movie_db):
        """Probes answered during task 1 (on worker threads or inline)
        are cross-task hits inside task 2's worker threads."""
        with PoolManager() as manager:
            cache = SharedProbeCache()
            cache.begin_task()
            first = manager.lease(make_verifier(movie_db, cache),
                                  workers=2)
            first.run(make_jobs(movie_db, count=6))
            first.close()
            cache.begin_task()
            cross_before = cache.counters.cross_task_probe_hits
            second = manager.lease(make_verifier(movie_db, cache),
                                   workers=2)
            second.run(make_jobs(movie_db, count=6))
            second.close()
            assert cache.counters.cross_task_probe_hits > cross_before

    @needs_snapshots
    def test_switching_caches_reseeds_workers(self, movie_db):
        """A lease arriving with a different cache object (sharing
        disabled harness-side) verifies correctly, and its worker
        threads re-fork onto *its* cache without a respawn."""
        with PoolManager() as manager:
            first = manager.lease(make_verifier(movie_db,
                                                SharedProbeCache()),
                                  workers=2)
            first.run(make_jobs(movie_db))
            first.close()
            other = SharedProbeCache()
            second = manager.lease(make_verifier(movie_db, other),
                                   workers=2)
            results = second.run(make_jobs(movie_db, count=6))
            assert all(r.ok for r in results)
            second.close()
            assert manager.stats["worker_spawns"] == 1
            assert len(other) > 0

    @needs_snapshots
    def test_warm_hits_propagate_from_workers(self, movie_db):
        """Warm-start (disk-loaded) entries hit on worker threads count
        as warm hits in the primary cache."""
        cold = SharedProbeCache()
        verifier = make_verifier(movie_db, cold)
        for query, partial in make_jobs(movie_db, count=1):
            verifier.verify(query, treat_as_partial=partial, record=False)
        probes, minmax = cold.export()
        warm = SharedProbeCache()
        warm.seed(probes, minmax, warm=True)
        with PoolManager() as manager:
            lease = manager.lease(make_verifier(movie_db, warm),
                                  workers=2)
            lease.run(make_jobs(movie_db, count=6))
            lease.close()
        assert warm.counters.warm_start_probe_hits > 0

    @needs_snapshots
    def test_warm_hits_survive_cache_switch_on_warm_pool(self, movie_db):
        """A warm-seeded cache arriving at an *already-warm* pool (a
        second harness run over a long-lived manager) — the workers'
        verifiers must follow the new cache, or worker-side warm hits
        go to the old one."""
        cold = SharedProbeCache()
        verifier = make_verifier(movie_db, cold)
        for query, partial in make_jobs(movie_db, count=1):
            verifier.verify(query, treat_as_partial=partial, record=False)
        probes, minmax = cold.export()
        with PoolManager() as manager:
            # Spawn the pool with an unrelated cache and a *different
            # TSQ* (harness run 1): column probes derive from the TSQ's
            # example cells, so the first lease must not have computed
            # the warm entries itself.
            other_tsq = TableSketchQuery.build(types=["text"],
                                               rows=[["Gravity"]])
            other_verifier = Verifier(movie_db, tsq=other_tsq,
                                      probe_cache=SharedProbeCache())
            first = manager.lease(other_verifier, workers=2)
            first.run(make_jobs(movie_db))
            first.close()
            # Harness run 2: fresh registry cache, warm-seeded from disk.
            warm = SharedProbeCache()
            warm.seed(probes, minmax, warm=True)
            lease = manager.lease(make_verifier(movie_db, warm),
                                  workers=2)
            assert lease.reused
            lease.run(make_jobs(movie_db, count=6))
            lease.close()
        assert warm.counters.warm_start_probe_hits > 0


class TestDegradeAndEviction:
    def test_unsnapshottable_db_degrades_lease(self, movie_db,
                                               monkeypatch, caplog):
        def broken_snapshot(self):
            raise ExecutionError("no serialize support")

        monkeypatch.setattr(Database, "snapshot", broken_snapshot)
        with PoolManager() as manager:
            with caplog.at_level(logging.WARNING,
                                 logger="repro.core.search.parallel"):
                lease = manager.lease(make_verifier(movie_db),
                                      workers=2)
            assert lease.degraded
            assert lease.workers == 1
            assert "degraded to inline" in caplog.text
            results = lease.run(make_jobs(movie_db))
            assert all(r.ok for r in results)
            # The failure is db-level and permanent: the next lease
            # degrades immediately without a second snapshot attempt.
            again = manager.lease(make_verifier(movie_db),
                                  workers=2)
            assert again.degraded
            assert manager.stats["worker_spawns"] == 0

    @needs_snapshots
    def test_worker_failure_degrades_and_respawns_next_lease(self,
                                                             movie_db,
                                                             caplog):
        with PoolManager() as manager:
            cache = SharedProbeCache()
            lease = manager.lease(make_verifier(movie_db, cache),
                                  workers=2)
            _, pool = next(iter(manager._pools.values()))

            def broken_map(fn, payloads):
                raise RuntimeError("worker died")

            pool.executor.map = broken_map
            with caplog.at_level(logging.WARNING,
                                 logger="repro.core.search.parallel"):
                results = lease.run(make_jobs(movie_db))
            assert all(r.ok for r in results)  # inline fallback answered
            assert lease.degraded
            assert pool.executor is None  # retired
            # The next lease heals: a fresh executor spawns.
            healed = manager.lease(make_verifier(movie_db, cache),
                                   workers=2)
            assert not healed.degraded
            assert manager.stats["worker_spawns"] == 2
            healed.run(make_jobs(movie_db))
            healed.close()

    @needs_snapshots
    def test_close_after_retire_is_idempotent(self, movie_db, caplog):
        """retire() racing a second retire (or close()) is a silent
        no-op: one warning, one shutdown, no crash."""
        with PoolManager() as manager:
            cache = SharedProbeCache()
            lease = manager.lease(make_verifier(movie_db, cache),
                                  workers=2)
            _, pool = next(iter(manager._pools.values()))

            def broken_map(fn, payloads):
                raise RuntimeError("worker died")

            pool.executor.map = broken_map
            with caplog.at_level(logging.WARNING,
                                 logger="repro.core.search.parallel"):
                lease.run(make_jobs(movie_db))  # degrades + retires
                assert pool.executor is None
                pool.retire("second retire must be silent")
                pool.close()
                lease.close()
                lease.close()
            assert caplog.text.count("retired:") == 1

    @needs_snapshots
    def test_sibling_retire_degrades_lease_without_re_retiring(
            self, movie_db):
        """A lease whose pool was retired by a *sibling* lease (its
        batch hit the dead worker first) degrades to inline — it must
        not retire again, and the manager heals on the next lease."""
        with PoolManager() as manager:
            cache = SharedProbeCache()
            survivor = manager.lease(make_verifier(movie_db, cache),
                                     workers=2)
            _, pool = next(iter(manager._pools.values()))
            pool.retire("sibling lease hit a dead worker")
            assert pool.executor is None
            results = survivor.run(make_jobs(movie_db))
            assert all(r.ok for r in results)
            assert survivor.degraded
            assert "retired by a concurrent lease" \
                in survivor.degrade_reason
            healed = manager.lease(make_verifier(movie_db, cache),
                                   workers=2)
            assert not healed.degraded
            assert manager.stats["worker_spawns"] == 2
            healed.close()

    @needs_snapshots
    def test_midrun_degrade_clears_pool_reused(self, movie_db):
        """A warm lease whose workers die mid-enumeration ran inline:
        telemetry must not claim the run rode a warm pool."""
        from repro.guidance.lexical import LexicalGuidanceModel

        nlq = NLQuery.from_text("movies called 'Forrest Gump'")
        tsq = TableSketchQuery.build(types=["text"],
                                     rows=[["Forrest Gump"]])
        config = EnumeratorConfig(max_candidates=10, workers=2)
        with PoolManager() as manager:
            cache = SharedProbeCache()
            warmup = manager.lease(make_verifier(movie_db, cache),
                                   workers=2)
            warmup.run(make_jobs(movie_db))
            warmup.close()
            _, pool = next(iter(manager._pools.values()))

            def broken_map(fn, payloads):
                raise RuntimeError("worker died")

            pool.executor.map = broken_map
            enumerator = Enumerator(
                movie_db, model=LexicalGuidanceModel(), nlq=nlq, tsq=tsq,
                config=config, probe_cache=cache, pool_manager=manager)
            list(enumerator.enumerate())
            telemetry = enumerator.telemetry
            assert telemetry.snapshot_degraded
            assert not telemetry.pool_reused
            assert telemetry.workers == 1

    @needs_snapshots
    def test_lru_eviction_bounds_worker_pools(self, movie_db):
        other = Database.from_snapshot(movie_db.schema,
                                       movie_db.snapshot())
        with PoolManager(max_pools=1) as manager:
            manager.lease(make_verifier(movie_db), workers=2).close()
            _, first = next(iter(manager._pools.values()))
            manager.lease(make_verifier(other), workers=2).close()
            assert manager.stats["pools"] == 1
            (held, _), = manager._pools.values()
            assert held is other  # most recent survives
            assert first.executor is None  # the evicted pool shut down


class TestEngineIntegration:
    @needs_snapshots
    def test_enumerations_share_one_pool_and_match_cold_run(self,
                                                            movie_db):
        """Full stack: Duoquest enumerations through a manager reuse one
        warm pool, report it in telemetry, and emit the exact stream a
        cold run on the engine's private manager produces."""
        from repro.guidance.lexical import LexicalGuidanceModel

        nlq = NLQuery.from_text("movies called 'Forrest Gump'")
        tsq = TableSketchQuery.build(types=["text"],
                                     rows=[["Forrest Gump"]])
        config = EnumeratorConfig(max_candidates=10, workers=2)

        def run(pool_manager, cache):
            enumerator = Enumerator(
                movie_db, model=LexicalGuidanceModel(), nlq=nlq, tsq=tsq,
                config=config, probe_cache=cache,
                pool_manager=pool_manager)
            stream = [(c.confidence, c.index, str(c.query))
                      for c in enumerator.enumerate()]
            return stream, enumerator.telemetry

        cold_stream, cold_telemetry = run(None, None)
        assert not cold_telemetry.pool_reused
        with PoolManager() as manager:
            cache = SharedProbeCache()
            first, t1 = run(manager, cache)
            second, t2 = run(manager, cache)
            assert first == cold_stream
            assert second == cold_stream
            assert not t1.pool_reused  # spawned this enumeration
            assert t2.pool_reused      # warm by the second
            assert manager.stats["worker_spawns"] == 1
            assert t2.cross_task_probe_hits > 0
