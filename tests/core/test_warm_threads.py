"""Warm worker pools: lease lifecycle, stat folding, degrade paths.

The contract under test (see ``repro.core.search.parallel``): a
per-database :class:`WorkerPool` serves multi-worker leases whose
executor (and per-thread database forks) survive lease close — later
leases attach warm (``reused``). Failures degrade visibly on the lease,
never raise into the engine, and fork statement counters fold back into
the primary database exactly once. The rest of the manager's policy
over these pools is pinned in ``test_pool_manager.py``.
"""

from __future__ import annotations

import pytest

from repro.core.search.parallel import (
    BaseVerificationPool,
    PoolLease,
    PoolManager,
    WorkerPool,
)
from repro.core.tsq import TableSketchQuery
from repro.core.verifier import Verifier
from repro.db.database import Database
from repro.errors import ExecutionError
from repro.sqlir.ast import AggOp, ColumnRef, JoinPath, Query, SelectItem

from tests.conftest import build_movie_db

pytestmark = pytest.mark.skipif(
    not Database.supports_snapshots(),
    reason="sqlite build cannot snapshot databases")


@pytest.fixture
def db():
    database = build_movie_db()
    yield database
    database.close()


@pytest.fixture
def verifier(db):
    return Verifier(db, tsq=TableSketchQuery.build(
        rows=[["Forrest Gump"]]))


def title_query() -> Query:
    return Query(select=(SelectItem(AggOp.NONE,
                                    ColumnRef("movie", "title")),),
                 join_path=JoinPath(tables=("movie",)),
                 where=None, group_by=None, having=None, order_by=None,
                 limit=None)


class TestLeaseLifecycle:
    def test_second_lease_attaches_warm(self, db, verifier):
        pool = WorkerPool(db, workers=2)
        try:
            first = pool.lease(verifier)
            assert first.reused is False and not first.degraded
            first.close()
            second = pool.lease(verifier)
            assert second.reused is True
            assert pool.spawns == 1 and pool.leases == 2
            second.close()
        finally:
            pool.close()

    def test_lease_runs_jobs_and_folds_stats(self, db, verifier):
        pool = WorkerPool(db, workers=2)
        try:
            lease = pool.lease(verifier)
            jobs = [(title_query(), False)] * 4
            results = lease.run(jobs)
            assert len(results) == 4
            before = db.stats.statements
            lease.close()
            # fork statement counters folded back into the primary
            assert db.stats.statements > before
            assert lease._closed
            lease.close()  # idempotent
        finally:
            pool.close()

    def test_executor_survives_lease_close(self, db, verifier):
        pool = WorkerPool(db, workers=2)
        try:
            pool.lease(verifier).close()
            assert pool.executor is not None
            pool.close()
            assert pool.executor is None
        finally:
            pool.close()


class TestDegradePaths:
    def test_unsnapshottable_database_degrades_every_lease(
            self, db, verifier, monkeypatch):
        monkeypatch.setattr(db, "snapshot", lambda: (_ for _ in ()).throw(
            ExecutionError("no snapshots here")))
        pool = WorkerPool(db, workers=2)
        try:
            first = pool.lease(verifier)
            assert first.degraded
            assert "no snapshots" in first.degrade_reason
            # the pool remembers: later leases degrade without retrying
            second = pool.lease(verifier)
            assert second.degraded
            assert pool.spawns == 0
            # degraded leases still verify (inline)
            results = second.run([(title_query(), False)])
            assert len(results) == 1
        finally:
            pool.close()

    def test_retired_pool_degrades_inflight_lease(self, db, verifier):
        pool = WorkerPool(db, workers=2)
        try:
            lease = pool.lease(verifier)
            pool.retire("simulated worker failure")
            results = lease.run([(title_query(), False)] * 2)
            assert len(results) == 2
            assert lease.degraded
            assert "retired" in lease.degrade_reason
        finally:
            pool.close()


class TestManagerPolicy:
    def test_threads_backend_serves_persistent_leases(self, verifier):
        """No opt-in: every multi-worker ``threads`` lease comes from
        the database's warm pool. A second lease of the same width
        attaches warm; a new width replaces the pool."""
        with PoolManager() as manager:
            first = manager.lease(verifier, backend="threads", workers=2)
            assert type(first) is PoolLease
            first.close()
            second = manager.lease(verifier, backend="threads", workers=2)
            assert second.reused is True
            second.close()
            assert manager.stats == {"pools": 1, "worker_spawns": 1,
                                     "persistent_leases": 2,
                                     "fallback_leases": 0,
                                     "pool_retires": 0, "breaker_trips": 0}
            (_, narrow), = manager._pools.values()
            wider = manager.lease(verifier, backend="threads", workers=3)
            assert wider.reused is False and wider.workers == 3
            wider.close()
            assert narrow.executor is None  # the replaced pool shut down
            assert manager.stats["pools"] == 1

    def test_single_worker_still_falls_back(self, verifier):
        with PoolManager() as manager:
            lease = manager.lease(verifier, backend="inline", workers=1)
            assert type(lease) is BaseVerificationPool
            assert manager.stats["pools"] == 0
            lease.close()
