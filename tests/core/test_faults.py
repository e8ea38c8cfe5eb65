"""The fault-injection subsystem and the hardening it forces.

PR 10's contract: every injected fault is *receipted* — counted when it
fires, and booked either ``absorbed`` (a bounded retry or recreate cured
it) or ``surfaced`` (it landed in a visible degrade counter, warning, or
clean error). The degrade-ladder audit at the bottom walks every named
fault point and fails if any disposition goes missing: a point whose
``injected != absorbed + surfaced`` is a silent failure path.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro import faults
from repro.core import Duoquest
from repro.core.enumerator import EnumeratorConfig
from repro.core.search.cachestore import PersistentProbeCache
from repro.core.search.parallel import RespawnBreaker, WorkerPool
from repro.core.tsq import TableSketchQuery
from repro.core.verifier import SharedProbeCache
from repro.db.database import Database
from repro.errors import ExecutionError, ExecutionTimeout
from repro.faults import FaultPlan, FaultInjector, RetryPolicy
from repro.nlq.literals import NLQuery
from repro.sqlir import to_sql

from tests.conftest import build_movie_db


def synthesize(db, config):
    nlq = NLQuery.from_text("titles before 1994", literals=(1994,))
    tsq = TableSketchQuery.build(types=["text"],
                                 rows=[["Forrest Gump"]])
    system = Duoquest(db, config=config)
    try:
        return system.synthesize(nlq, tsq)
    finally:
        system.close()


@pytest.fixture(autouse=True)
def clean_injector():
    """Every test starts and ends without a global injector."""
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture
def db():
    # A private database per test: the injector mutates execution
    # behaviour, so the session-scoped movie_db must not be shared here.
    return build_movie_db()


class TestPlanGrammar:
    def test_parses_rules_seed_and_options(self):
        plan = FaultPlan.parse(
            "seed=7; db.execute:locked:rate=0.25,times=3,after=2 ;"
            "guidance.connect:refused")
        assert plan.seed == 7
        assert len(plan.rules) == 2
        rule = plan.rules[0]
        assert (rule.point, rule.mode) == ("db.execute", "locked")
        assert rule.rate == 0.25 and rule.times == 3 and rule.after == 2
        assert plan.rules[1].point == "guidance.connect"

    @pytest.mark.parametrize("spec,message", [
        ("nosuch.point:crash", "unknown fault point"),
        ("db.execute:melt", "no mode"),
        ("db.execute", "expected"),
        ("db.execute:locked:rate", "bad option"),
        ("db.execute:locked:rate=lots", "bad value"),
        ("db.execute:locked:color=red", "unknown option"),
        ("seed=x;db.execute:locked", "bad seed"),
        ("seed=3", "no rules"),
        ("", "non-empty"),
        ("db.execute:locked:rate=0", "rate"),
        ("db.execute:locked:times=0", "times"),
    ])
    def test_rejects_malformed_specs(self, spec, message):
        with pytest.raises(ValueError, match=message):
            FaultPlan.parse(spec)


class TestRetryPolicy:
    def test_delays_are_deterministic_and_bounded(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=0.3)
        first = list(policy.delays())
        assert first == list(policy.delays())
        assert len(first) == 4
        assert all(0.0 <= d <= 0.3 for d in first)
        # Exponential shape survives the jitter given the 0.5 band.
        assert policy.delay_for(3) > policy.delay_for(0)

    def test_call_retries_then_propagates_the_final_failure(self):
        attempts = []
        slept = []

        def flaky():
            attempts.append(1)
            raise OSError("boom")

        policy = RetryPolicy(attempts=3, base_delay=0.01)
        with pytest.raises(OSError):
            policy.call(flaky, retryable=(OSError,), sleep=slept.append)
        assert len(attempts) == 3
        assert len(slept) == 2

    def test_call_returns_first_success(self):
        outcomes = iter([OSError("once"), "ok"])

        def once():
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        policy = RetryPolicy(attempts=3, base_delay=0.0)
        assert policy.call(once, retryable=(OSError,),
                           sleep=lambda _: None) == "ok"

    def test_should_retry_vetoes(self):
        def fail():
            raise OSError("permanent")

        policy = RetryPolicy(attempts=5, base_delay=0.0)
        calls = []
        with pytest.raises(OSError):
            policy.call(fail, retryable=(OSError,),
                        should_retry=lambda exc: False,
                        sleep=calls.append)
        assert calls == []


class TestInjectorDeterminism:
    def test_same_plan_draws_identically(self):
        plan = FaultPlan.parse("seed=11;db.execute:locked:rate=0.3")
        a, b = FaultInjector(plan), FaultInjector(plan)
        draws_a = [a.draw("db.execute") is not None for _ in range(200)]
        draws_b = [b.draw("db.execute") is not None for _ in range(200)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_after_and_times_bound_the_rule(self):
        plan = FaultPlan.parse("db.execute:error:after=2,times=3")
        injector = FaultInjector(plan)
        draws = [injector.draw("db.execute") is not None
                 for _ in range(10)]
        assert draws == [False, False, True, True, True,
                         False, False, False, False, False]
        assert injector.book.injected == {"db.execute": 3}

    def test_points_draw_independently(self):
        plan = FaultPlan.parse(
            "db.execute:locked:rate=0.5;cachestore.load:busy:rate=0.5")
        injector = FaultInjector(plan)
        db_draws = [injector.draw("db.execute") is not None
                    for _ in range(64)]
        # A fresh injector consulted only at the other point must not
        # be perturbed by db.execute's rng stream.
        other = FaultInjector(plan)
        other_db = [other.draw("db.execute") is not None
                    for _ in range(64)]
        assert db_draws == other_db


class TestDatabaseExecuteHardening:
    def test_bounded_rule_is_absorbed_by_retries(self, db):
        injector = faults.install("db.execute:locked:times=2")
        rows = db.execute("SELECT COUNT(*) FROM movie")
        assert rows == [(40,)]
        assert db.stats.retries == 2
        assert injector.book.injected == {"db.execute": 2}
        assert injector.book.absorbed == {"db.execute": 2}
        assert injector.book.surfaced == {}

    def test_exhausted_retries_surface_a_transient_error(self, db):
        injector = faults.install("db.execute:error")
        with pytest.raises(ExecutionError) as excinfo:
            db.execute("SELECT COUNT(*) FROM movie")
        assert faults.is_transient(excinfo.value)
        # attempts=3: the injection fired on every try; two were
        # absorbed by retries, the third surfaced.
        assert injector.book.injected == {"db.execute": 3}
        assert injector.book.absorbed == {"db.execute": 2}
        assert injector.book.surfaced == {"db.execute": 1}

    def test_timeout_mode_surfaces_as_execution_timeout(self, db):
        injector = faults.install("db.execute:timeout:times=1")
        with pytest.raises(ExecutionTimeout):
            with db.interruptible(250):
                db.execute("SELECT COUNT(*) FROM movie")
        assert injector.book.injected == {"db.execute": 1}
        assert injector.book.surfaced == {"db.execute": 1}

    def test_disabled_injector_leaves_execute_untouched(self, db):
        rows = db.execute("SELECT COUNT(*) FROM movie")
        assert rows == [(40,)]
        assert db.stats.retries == 0


class TestProbeCachePoisoning:
    def test_transient_failure_is_never_memoised(self, db):
        faults.install("db.execute:error")
        cache = SharedProbeCache()
        with pytest.raises(ExecutionError):
            cache.probe_keyed(db, "k1", "SELECT 1 FROM movie")
        assert cache.peek("k1") is None
        # The fault plan expires nothing here (rate=1, unbounded), so
        # clear it and re-probe: the truthful answer lands in the cache.
        faults.uninstall()
        assert cache.probe_keyed(db, "k1", "SELECT 1 FROM movie") is True
        assert cache.peek("k1") is True

    def test_nontransient_failure_still_stays_sound(self, db):
        cache = SharedProbeCache()
        # An unexecutable probe draws no conclusion: pruning soundness
        # requires outcome True (the pre-existing contract).
        assert cache.probe_keyed(db, "bad", "SELECT nope FROM movie") \
            is True


class TestCachestoreHardening:
    def seed_store(self, tmp_path, db):
        store = PersistentProbeCache(tmp_path)
        cache, _ = store.warm_cache(db)
        cache.probe_keyed(db, "k", "SELECT 1 FROM movie")
        assert store.save(db, cache) is not None
        return store

    def test_injected_busy_load_is_absorbed(self, tmp_path, db):
        store = self.seed_store(tmp_path, db)
        injector = faults.install("cachestore.load:busy:times=1")
        entries = store.load(db)
        assert entries is not None and entries[0]
        assert injector.book.injected == {"cachestore.load": 1}
        assert injector.book.absorbed == {"cachestore.load": 1}

    def test_injected_corrupt_load_cold_starts(self, tmp_path, db,
                                               caplog):
        store = self.seed_store(tmp_path, db)
        injector = faults.install("cachestore.load:corrupt:times=1")
        assert store.load(db) is None
        assert injector.book.surfaced == {"cachestore.load": 1}
        assert "cold start" in caplog.text

    def test_injected_busy_save_exhausts_to_a_warned_skip(
            self, tmp_path, db, caplog):
        store = self.seed_store(tmp_path, db)
        injector = faults.install("cachestore.save:busy")
        cache, _ = store.warm_cache(db)
        cache.probe_keyed(db, "k2", "SELECT 2 FROM movie")
        assert store.save(db, cache) is None
        # attempts=3: two retries absorbed, the final failure surfaced.
        assert injector.book.injected == {"cachestore.save": 3}
        assert injector.book.absorbed == {"cachestore.save": 2}
        assert injector.book.surfaced == {"cachestore.save": 1}

    def test_injected_corrupt_save_recreates_the_store(self, tmp_path,
                                                       db, caplog):
        store = self.seed_store(tmp_path, db)
        injector = faults.install("cachestore.save:torn:times=1")
        cache, _ = store.warm_cache(db)
        cache.probe_keyed(db, "k2", "SELECT 2 FROM movie")
        # The recreate path unlinks the torn file and re-upserts.
        assert store.save(db, cache) is not None
        assert injector.book.surfaced == {"cachestore.save": 1}
        assert "recreating" in caplog.text or "corrupt" in caplog.text
        faults.uninstall()
        entries = store.load(db)
        assert entries is not None and "k2" in entries[0]

    def test_held_lock_retries_then_cold_starts(self, tmp_path, db,
                                                monkeypatch, caplog):
        """A real writer holding the store lock: load retries under the
        policy, then degrades to a cold start — never an exception."""
        store = self.seed_store(tmp_path, db)
        monkeypatch.setattr(PersistentProbeCache, "BUSY_TIMEOUT_MS", 1)
        monkeypatch.setattr(
            PersistentProbeCache, "RETRY_POLICY",
            RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.02))
        holder = sqlite3.connect(store.path_for(db))
        try:
            holder.execute("BEGIN EXCLUSIVE")
            assert store.load(db) is None
        finally:
            holder.rollback()
            holder.close()
        assert "locked" in caplog.text

    def test_held_lock_save_never_raises(self, tmp_path, db,
                                         monkeypatch, caplog):
        store = self.seed_store(tmp_path, db)
        monkeypatch.setattr(PersistentProbeCache, "BUSY_TIMEOUT_MS", 1)
        monkeypatch.setattr(
            PersistentProbeCache, "RETRY_POLICY",
            RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.02))
        cache, _ = store.warm_cache(db)
        cache.probe_keyed(db, "k2", "SELECT 2 FROM movie")
        holder = sqlite3.connect(store.path_for(db))
        try:
            holder.execute("BEGIN EXCLUSIVE")
            assert store.save(db, cache) is None
        finally:
            holder.rollback()
            holder.close()
        assert "locked" in caplog.text


class TestRespawnBreaker:
    def test_trips_after_threshold_in_window(self):
        clock = [0.0]
        breaker = RespawnBreaker(threshold=3, window=30.0,
                                 clock=lambda: clock[0])
        assert breaker.record() is False
        clock[0] = 1.0
        assert breaker.record() is False
        clock[0] = 2.0
        assert breaker.record() is True
        assert breaker.tripped
        assert breaker.retires == 3

    def test_old_marks_age_out_of_the_window(self):
        clock = [0.0]
        breaker = RespawnBreaker(threshold=3, window=30.0,
                                 clock=lambda: clock[0])
        breaker.record()
        breaker.record()
        clock[0] = 31.0
        assert breaker.record() is False
        assert not breaker.tripped

    def test_pool_opens_the_breaker_after_repeated_retires(self, db):
        from concurrent.futures import ThreadPoolExecutor

        pool = WorkerPool(db, workers=2)
        try:
            for _ in range(WorkerPool.BREAKER_THRESHOLD):
                # retire() only counts a live executor (the manager
                # respawns one per lease in production).
                pool.executor = ThreadPoolExecutor(max_workers=1)
                pool.retire("simulated worker failure")
            assert "circuit breaker open" in pool.unavailable_reason
            assert pool.breaker.tripped
        finally:
            pool.close()


class TestDegradeLadderAudit:
    """Every named fault point reconciles: injected == absorbed +
    surfaced, with at least one visible disposition. A point failing
    this audit has a silent failure path."""

    def assert_reconciled(self, counters, point, minimum=1):
        injected = counters["injected"].get(point, 0)
        absorbed = counters["absorbed"].get(point, 0)
        surfaced = counters["surfaced"].get(point, 0)
        assert injected >= minimum, f"{point} never injected"
        assert injected == absorbed + surfaced, (
            f"{point} lost receipts: injected={injected}, "
            f"absorbed={absorbed}, surfaced={surfaced}")

    def test_db_execute_reconciles(self, db):
        faults.install("db.execute:locked:times=2")
        db.execute("SELECT 1 FROM movie LIMIT 1")
        self.assert_reconciled(faults.counters(), "db.execute")

    def test_cachestore_points_reconcile(self, tmp_path, db):
        store = PersistentProbeCache(tmp_path)
        cache, _ = store.warm_cache(db)
        cache.probe_keyed(db, "k", "SELECT 1 FROM movie")
        store.save(db, cache)
        faults.install(
            "cachestore.load:busy:times=1;cachestore.save:torn:times=1")
        cache.probe_keyed(db, "k2", "SELECT 2 FROM movie")
        store.save(db, cache)
        store.load(db)
        counters = faults.counters()
        self.assert_reconciled(counters, "cachestore.load")
        self.assert_reconciled(counters, "cachestore.save")

    def test_guidance_points_reconcile(self):
        injector = faults.install(
            "guidance.connect:refused:times=1;"
            "guidance.transport:garbage:times=1")
        with pytest.raises(OSError):
            faults.fire_guidance_connect(injector)
        with pytest.raises(ValueError):
            faults.fire_guidance_transport(injector)
        counters = faults.counters()
        self.assert_reconciled(counters, "guidance.connect")
        self.assert_reconciled(counters, "guidance.transport")

    def test_daemon_connection_point_reconciles(self):
        injector = faults.install(
            "daemon.connection:vanish:times=1")
        rule = injector.draw("daemon.connection")
        assert rule is not None and rule.mode == "vanish"
        injector.note_surfaced("daemon.connection")
        self.assert_reconciled(faults.counters(), "daemon.connection")

    @pytest.mark.skipif(not Database.supports_snapshots(),
                        reason="no snapshot support")
    def test_pool_worker_crash_reconciles_via_the_primary(self, db):
        """A crashed worker job fails its batch: the pool retires, the
        lease visibly degrades, and the batch reruns inline — every
        injection booked surfaced on the primary's injector."""
        result = synthesize(db, EnumeratorConfig(
            time_budget=5.0, max_candidates=4, workers=2,
            fault_plan="pool.worker:crash:times=1"))
        assert result.candidates  # the run survived the crash
        self.assert_reconciled(faults.counters(), "pool.worker")
        assert result.telemetry.faults_injected >= 1
        assert result.telemetry.snapshot_degraded
        assert result.telemetry.workers == 1


class TestEquivalenceWhenDisabled:
    def test_no_plan_means_no_counters_and_identical_streams(self, db):
        baseline = synthesize(db, EnumeratorConfig(
            time_budget=5.0, max_candidates=6))
        again = synthesize(db, EnumeratorConfig(
            time_budget=5.0, max_candidates=6, fault_plan=None))
        assert [(c.index, c.confidence, to_sql(c.query)) for c in
                baseline.candidates] == \
            [(c.index, c.confidence, to_sql(c.query)) for c in
             again.candidates]
        assert faults.ACTIVE is None
        assert faults.injected_total() == 0
        assert baseline.telemetry.faults_injected == 0
        assert baseline.telemetry.transient_retries == 0
