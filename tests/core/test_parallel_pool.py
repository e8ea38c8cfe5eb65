"""Verification pool lifecycle, validation, degrade, and cache sharing.

The PR 1 thread pool leaked SQLite connections and dropped fork stats
when an exception aborted an enumeration before ``close()`` ran, and
silently clamped invalid worker counts. These tests lock in the fixed
contract for the inline pool and the worker-pool lease: validated
worker counts, idempotent and exception-safe ``close()``,
context-manager support, visible degrade when snapshots are
unsupported, and cross-task probe-cache reuse.
"""

from __future__ import annotations

import logging

import pytest

from repro.core.enumerator import Enumerator, EnumeratorConfig
from repro.core.search.parallel import (
    BaseVerificationPool,
    PoolLease,
    PoolManager,
    WorkerPool,
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


@pytest.fixture
def verifier(movie_db):
    tsq = TableSketchQuery.build(types=["text"], rows=[["Forrest Gump"]])
    return Verifier(movie_db, tsq=tsq)


@pytest.fixture
def manager():
    with PoolManager() as pools:
        yield pools


def make_jobs(movie_db, count=4):
    query = parse_sql("SELECT title FROM movie WHERE year < 1995",
                      movie_db.schema)
    return [(query, False)] * count


class TestWorkerValidation:
    """Invalid worker counts error out instead of silently running
    inline (the old pools clamped with max(1, workers))."""

    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize("pool_cls", [BaseVerificationPool,
                                          WorkerPool])
    def test_pool_rejects_nonpositive_workers(self, verifier, pool_cls,
                                              workers):
        target = verifier.db if pool_cls is WorkerPool else verifier
        with pytest.raises(ValueError, match="positive integer"):
            pool_cls(target, workers=workers)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_config_rejects_nonpositive_workers(self, workers):
        with pytest.raises(ValueError, match="positive integer"):
            EnumeratorConfig(workers=workers)

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="verify_backend"):
            EnumeratorConfig(verify_backend="fibers")

    def test_config_rejects_inline_with_workers(self):
        with pytest.raises(ValueError, match="inline"):
            EnumeratorConfig(verify_backend="inline", workers=4)

    def test_factory_rejects_inline_with_workers(self, verifier, manager):
        with pytest.raises(ValueError, match="inline"):
            manager.lease(verifier, backend="inline", workers=2)

    def test_factory_rejects_unknown_backend(self, verifier, manager):
        with pytest.raises(ValueError, match="unknown verify_backend"):
            manager.lease(verifier, backend="greenlets")

    def test_processes_backend_is_gone(self, verifier, manager):
        from repro.eval.harness import SimulationConfig

        for build in (lambda: EnumeratorConfig(verify_backend="processes",
                                               workers=2),
                      lambda: SimulationConfig(verify_backend="processes",
                                               workers=2),
                      lambda: manager.lease(verifier, backend="processes",
                                            workers=2)):
            with pytest.raises(ValueError, match="unknown verify_backend"):
                build()


class TestLifecycle:
    @needs_snapshots
    def test_close_is_idempotent(self, movie_db, verifier, manager):
        pool = manager.lease(verifier, workers=2)
        pool.run(make_jobs(movie_db))
        pool.close()
        pool.close()  # second close must be a no-op, not an error

    @needs_snapshots
    def test_close_folds_fork_stats_once(self, movie_db, manager):
        tsq = TableSketchQuery.build(types=["text"],
                                     rows=[["Forrest Gump"]])
        db = Database.from_snapshot(movie_db.schema, movie_db.snapshot())
        verifier = Verifier(db, tsq=tsq)
        pool = manager.lease(verifier, workers=2)
        pool.run(make_jobs(db))
        before = db.stats.statements
        pool.close()
        folded = db.stats.statements
        assert folded > before  # fork counters arrived
        pool.close()
        assert db.stats.statements == folded  # and only once

    @needs_snapshots
    @pytest.mark.parametrize("workers,pool_cls", [
        (1, BaseVerificationPool), (2, PoolLease)])
    def test_context_manager_closes(self, movie_db, verifier, manager,
                                    workers, pool_cls):
        with manager.lease(verifier, workers=workers) as pool:
            assert type(pool) is pool_cls
            results = pool.run(make_jobs(movie_db))
            assert all(r.ok for r in results)
        assert pool._closed
        pool.close()  # still idempotent after __exit__

    @needs_snapshots
    def test_engine_closes_pool_on_midrun_exception(self, movie_db,
                                                    monkeypatch):
        """An exception raised while expanding must still close the
        lease (fold stats) and the engine's private manager (stop the
        threads, close fork connections) via the engine's try/finally —
        the old code only closed on clean exhaustion."""
        closes = []
        original_close = PoolLease.close

        def counting_close(self):
            closes.append(self)
            return original_close(self)

        managers = []
        original_manager_close = PoolManager.close

        def recording_manager_close(self):
            managers.append(self)
            return original_manager_close(self)

        monkeypatch.setattr(PoolLease, "close", counting_close)
        monkeypatch.setattr(PoolManager, "close", recording_manager_close)
        nlq = NLQuery.from_text("movies called 'Forrest Gump'")
        enumerator = Enumerator(
            movie_db, model=_exploding_model(), nlq=nlq,
            tsq=TableSketchQuery.build(types=["text"],
                                       rows=[["Forrest Gump"]]),
            config=EnumeratorConfig(workers=2, max_candidates=5))
        with pytest.raises(RuntimeError, match="boom"):
            list(enumerator.enumerate())
        assert closes, "engine did not close the pool after the error"
        assert all(pool._closed for pool in closes)
        assert managers and all(m.closed for m in managers)


def _exploding_model():
    from repro.guidance.lexical import LexicalGuidanceModel

    class Exploding(LexicalGuidanceModel):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def clause_presence(self, ctx, clause):
            self.calls += 1
            if self.calls > 1:
                raise RuntimeError("boom")
            return super().clause_presence(ctx, clause)

    return Exploding()


class TestSnapshotDegrade:
    """No silent behaviour change: falling back to inline verification
    logs a warning and is visible in pool state + telemetry."""

    @pytest.mark.parametrize("source", [PoolManager, WorkerPool])
    def test_degrade_warns_and_flags(self, verifier, manager, monkeypatch,
                                     caplog, source):
        """Both ways to open a lease — through a manager, or straight
        from a worker pool — degrade the same visible way."""
        def broken_snapshot(self):
            raise ExecutionError("no serialize support")

        monkeypatch.setattr(Database, "snapshot", broken_snapshot)
        with caplog.at_level(logging.WARNING,
                             logger="repro.core.search.parallel"):
            if source is PoolManager:
                pool = manager.lease(verifier, workers=4)
            else:  # the snapshot fails, so no executor ever starts
                pool = WorkerPool(verifier.db, workers=4).lease(verifier)
        assert pool.degraded
        assert pool.workers == 1
        assert "degraded to inline" in caplog.text
        pool.close()

    @needs_snapshots
    def test_lease_degrades_midrun_on_broken_workers(self, movie_db,
                                                     verifier, manager,
                                                     caplog):
        """A worker crash mid-search degrades to inline for the rest of
        the run instead of aborting, and reports the effective state."""
        pool = manager.lease(verifier, workers=2)
        assert not pool.degraded

        def broken_map(fn, jobs):
            raise RuntimeError("worker died")

        pool._pool.executor.map = broken_map
        with caplog.at_level(logging.WARNING,
                             logger="repro.core.search.parallel"):
            results = pool.run(make_jobs(movie_db))
        assert all(r.ok for r in results)  # inline fallback still answers
        assert pool.degraded
        assert pool.workers == 1
        assert "degraded to inline" in caplog.text
        pool.close()

    def test_degrade_surfaces_in_telemetry(self, movie_db, monkeypatch):
        def broken_snapshot(self):
            raise ExecutionError("no serialize support")

        monkeypatch.setattr(Database, "snapshot", broken_snapshot)
        nlq = NLQuery.from_text("movies called 'Forrest Gump'")
        enumerator = Enumerator(
            movie_db, model=_lexical(), nlq=nlq,
            tsq=TableSketchQuery.build(types=["text"],
                                       rows=[["Forrest Gump"]]),
            config=EnumeratorConfig(workers=4, max_candidates=3))
        list(enumerator.enumerate())
        telemetry = enumerator.telemetry
        assert telemetry.snapshot_degraded
        assert telemetry.workers == 1


def _lexical():
    from repro.guidance.lexical import LexicalGuidanceModel

    return LexicalGuidanceModel()


class TestPoolResults:
    @needs_snapshots
    def test_results_align_and_counters_fold(self, movie_db, manager):
        tsq = TableSketchQuery.build(types=["text"],
                                     rows=[["Forrest Gump"]])
        verifier = Verifier(movie_db, tsq=tsq)
        good = parse_sql("SELECT title FROM movie WHERE year < 1995",
                         movie_db.schema)
        jobs = make_jobs(movie_db, count=6)
        with manager.lease(verifier, workers=2) as pool:
            results = pool.run(jobs)
            assert len(results) == len(jobs)
            inline = verifier.verify(good, record=False)
            assert all(r.ok == inline.ok for r in results)
            # Worker probe traffic lands in the primary cache.
            cache = verifier.probe_cache
            assert cache.counters.probe_hits + cache.counters.probe_misses > 0
            assert len(cache) > 0


class TestCrossTaskCacheReuse:
    """One SharedProbeCache shared across sequential enumerations on the
    same database reuses probe answers and stays correct."""

    def run(self, db, cache, backend="threads", workers=1):
        nlq = NLQuery.from_text("movies called 'Forrest Gump'")
        tsq = TableSketchQuery.build(types=["text"],
                                     rows=[["Forrest Gump"]])
        enumerator = Enumerator(
            db, model=_lexical(), nlq=nlq, tsq=tsq,
            config=EnumeratorConfig(max_candidates=10, workers=workers,
                                    verify_backend=backend),
            probe_cache=cache)
        stream = [(c.confidence, c.index, str(c.query))
                  for c in enumerator.enumerate()]
        return stream, enumerator.telemetry

    def test_second_enumeration_reuses_probes(self, movie_db):
        cache = SharedProbeCache()
        first, t1 = self.run(movie_db, cache)
        second, t2 = self.run(movie_db, cache)
        assert first == second  # warm cache must not change the stream
        assert t1.cross_task_probe_hits == 0
        assert t2.cross_task_probe_hits > 0
        assert t2.probe_misses < t1.probe_misses

    def test_shared_equals_unshared_stream(self, movie_db):
        cold, _ = self.run(movie_db, None)
        cache = SharedProbeCache()
        self.run(movie_db, cache)
        warm, telemetry = self.run(movie_db, cache)
        assert warm == cold
        assert telemetry.cross_task_probe_hits > 0

    @needs_snapshots
    def test_worker_threads_reuse_the_shared_cache(self, movie_db):
        cache = SharedProbeCache()
        cold, _ = self.run(movie_db, cache)  # task 1 fills the cache
        warm, telemetry = self.run(movie_db, cache, workers=2)
        assert warm == cold
        assert not telemetry.snapshot_degraded
        assert telemetry.cross_task_probe_hits > 0

    def test_per_run_telemetry_is_a_delta(self, movie_db):
        cache = SharedProbeCache()
        _, t1 = self.run(movie_db, cache)
        _, t2 = self.run(movie_db, cache)
        # Totals on the shared cache keep growing, but each run's
        # telemetry only counts its own traffic: the two deltas add up
        # to the cache's totals.
        assert t1.probe_hits + t2.probe_hits == cache.counters.probe_hits
        assert t1.probe_misses + t2.probe_misses == cache.counters.probe_misses
