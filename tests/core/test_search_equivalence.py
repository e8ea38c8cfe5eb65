"""Seeded regression: the search engine reproduces the seed enumerator.

``tests/core/fixtures/search_golden.json`` pins the exact candidate
stream (canonical signature, confidence, emission index, expansions at
emission) the seed best-first enumerator produced on bundled MAS and
synthetic-Spider fixtures. The engine must reproduce it bit for bit
with ``engine="best-first"`` for every worker count — speculative
batching, the shared probe cache, and batched guidance must all be
invisible in the output.

Regenerate the fixture (only for intentional behaviour changes) with::

    PYTHONPATH=src:. python tests/core/fixtures/generate_search_golden.py
"""

from __future__ import annotations

import json

import pytest

from repro.core.enumerator import Enumerator, EnumeratorConfig
from repro.sqlir.canon import signature

from tests.core.fixtures.generate_search_golden import (
    CONFIG,
    FIXTURE,
    fixture_tasks,
    stable_repr,
)


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def tasks():
    return {name: (db, model, nlq, tsq, gold, task_id)
            for name, db, model, nlq, tsq, gold, task_id in fixture_tasks()}


def run_engine(task, workers: int, engine: str = "best-first",
               verify_backend: str = "threads", pool_manager=None,
               probe_cache=None, **overrides):
    db, model, nlq, tsq, gold, task_id = task
    settings = dict(CONFIG)
    settings.update(overrides)
    config = EnumeratorConfig(engine=engine, workers=workers,
                              verify_backend=verify_backend, **settings)
    enumerator = Enumerator(db, model, nlq, tsq=tsq, config=config,
                            gold=gold, task_id=task_id,
                            pool_manager=pool_manager,
                            probe_cache=probe_cache)
    candidates = list(enumerator.enumerate())
    stream = [{
        "signature": stable_repr(signature(candidate.query)),
        "confidence": candidate.confidence,
        "index": candidate.index,
        "expansions": candidate.expansions,
    } for candidate in candidates]
    return stream, enumerator, candidates


class TestBestFirstMatchesSeed:
    """`--engine best-first` is bit-for-bit identical to the seed."""

    @pytest.mark.parametrize("workers,backend", [
        (1, "threads"), (4, "threads"), (1, "inline"),
    ])
    def test_candidate_stream_matches_golden(self, golden, tasks, workers,
                                             backend):
        assert golden["tasks"], "fixture must not be empty"
        for name, expected in golden["tasks"].items():
            stream, enumerator, _ = run_engine(tasks[name], workers,
                                               verify_backend=backend)
            assert stream == expected["candidates"], \
                f"{name} diverged from the seed enumerator " \
                f"(workers={workers}, backend={backend})"
            assert enumerator.expansions == expected["total_expansions"], \
                f"{name} expansion count diverged (workers={workers}, " \
                f"backend={backend})"

    def test_fixture_covers_both_datasets(self, golden):
        names = list(golden["tasks"])
        assert any(name.startswith("spider:") for name in names)
        assert any(name.startswith("mas:") for name in names)

    def test_parallel_run_reports_speculation(self, tasks):
        """workers=4 actually batches (push-backs happen) yet the stream
        above stayed identical — the speculation is observable only in
        telemetry."""
        name = next(iter(tasks))
        _, enumerator, _ = run_engine(tasks[name], workers=4)
        telemetry = enumerator.telemetry
        assert telemetry.workers == 4
        assert telemetry.engine == "best-first"
        assert telemetry.pushbacks > 0

    def test_telemetry_consistency(self, tasks):
        name = next(iter(tasks))
        stream, enumerator, _ = run_engine(tasks[name], workers=1)
        telemetry = enumerator.telemetry
        assert telemetry.emitted == len(stream)
        assert telemetry.expansions == enumerator.expansions
        assert telemetry.wall_time > 0.0
        prunes = sum(telemetry.prunes_by_stage.values())
        assert prunes == telemetry.pruned_partial + telemetry.pruned_complete

    @pytest.mark.parametrize("backend", ["threads"])
    def test_verifier_stats_match_serial(self, tasks, backend):
        """Speculative verification must not leak into verifier stats:
        only consumed outcomes are recorded, so stats match workers=1."""
        name = "spider:library_dev_0-t2"
        _, serial, _ = run_engine(tasks[name], workers=1)
        _, parallel, _ = run_engine(tasks[name], workers=4,
                                    verify_backend=backend)
        assert parallel.verifier.stats == serial.verifier.stats

    def test_threads_backend_did_not_degrade(self, tasks):
        """The equivalence runs above only prove something if the
        worker threads actually ran (no silent inline fallback)."""
        from repro.db.database import Database

        if not Database.supports_snapshots():
            pytest.skip("sqlite build cannot snapshot databases")
        name = next(iter(tasks))
        _, enumerator, _ = run_engine(tasks[name], workers=4)
        telemetry = enumerator.telemetry
        assert telemetry.verify_backend == "threads"
        assert not telemetry.snapshot_degraded
        assert telemetry.workers == 4


class TestPersistentPoolEquivalence:
    """The persistence layer must be invisible in the output: warm
    leased pools and disk-loaded probe caches change wall time and
    telemetry only, never the candidate stream."""

    @pytest.fixture()
    def snapshots_or_skip(self):
        from repro.db.database import Database

        if not Database.supports_snapshots():
            pytest.skip("sqlite build cannot snapshot databases")

    def test_warm_thread_pool_matches_golden_across_tasks(
            self, golden, tasks, snapshots_or_skip):
        """Every fixture task through ONE shared PoolManager (per-db
        warm thread pools, shared probe caches) reproduces the golden
        stream, spawning each database's executor once and reusing it
        for every later lease."""
        from repro.core.search.parallel import PoolManager
        from repro.core.verifier import SharedProbeCache

        with PoolManager() as manager:
            caches = {}
            reused_rounds = 0
            for name, expected in golden["tasks"].items():
                db = tasks[name][0]
                cache = caches.setdefault(id(db), SharedProbeCache())
                stream, enumerator, _ = run_engine(
                    tasks[name], workers=4, verify_backend="threads",
                    pool_manager=manager, probe_cache=cache)
                assert stream == expected["candidates"], \
                    f"{name} diverged under the warm thread pool"
                assert enumerator.expansions == \
                    expected["total_expansions"]
                assert not enumerator.telemetry.snapshot_degraded
                reused_rounds += enumerator.telemetry.pool_reused
            stats = manager.stats
            assert stats["worker_spawns"] == stats["pools"] == len(caches)
            assert stats["persistent_leases"] == len(golden["tasks"])
            # every lease after each database's first found warm threads
            assert reused_rounds == len(golden["tasks"]) - len(caches)

    def test_persistent_pool_matches_golden_across_tasks(
            self, golden, tasks, snapshots_or_skip):
        """Evicting a persistent pool is invisible too: with room for
        one pool and the databases interleaved, every switch evicts the
        held pool and spawns a fresh one, and every task still
        reproduces the golden stream."""
        from repro.core.search.parallel import PoolManager
        from repro.core.verifier import SharedProbeCache

        rank, seen = {}, {}
        for name in golden["tasks"]:
            db_key = id(tasks[name][0])
            rank[name] = seen[db_key] = seen.get(db_key, -1) + 1
        names = sorted(golden["tasks"], key=rank.get)  # round-robin
        switches = sum(tasks[a][0] is not tasks[b][0]
                       for a, b in zip(names, names[1:]))
        assert switches > len(seen) - 1, "order must revisit a database"

        with PoolManager(max_pools=1) as manager:
            caches, previous = {}, None
            for name in names:
                expected = golden["tasks"][name]
                db = tasks[name][0]
                cache = caches.setdefault(id(db), SharedProbeCache())
                stream, enumerator, _ = run_engine(
                    tasks[name], workers=2, verify_backend="threads",
                    pool_manager=manager, probe_cache=cache)
                assert stream == expected["candidates"], \
                    f"{name} diverged after a pool eviction"
                assert enumerator.expansions == \
                    expected["total_expansions"]
                telemetry = enumerator.telemetry
                assert not telemetry.snapshot_degraded
                # warm only if the previous task left this db's pool held
                assert telemetry.pool_reused == (db is previous)
                previous = db
            assert manager.stats["pools"] == 1

    def test_warm_cache_matches_golden_with_warm_hits(self, golden, tasks,
                                                      tmp_path):
        """A run warm-started from the disk store is bit-for-bit the
        golden stream — and actually served probes from disk entries."""
        from repro.core.search.cachestore import PersistentProbeCache

        store = PersistentProbeCache(tmp_path)
        name = next(iter(golden["tasks"]))
        db = tasks[name][0]
        cold_cache, loaded = store.warm_cache(db)
        assert loaded == 0  # nothing persisted yet
        run_engine(tasks[name], workers=1, probe_cache=cold_cache)
        store.save(db, cold_cache)

        warm_cache, loaded = store.warm_cache(db)
        assert loaded > 0
        stream, enumerator, _ = run_engine(tasks[name], workers=1,
                                           probe_cache=warm_cache)
        assert stream == golden["tasks"][name]["candidates"]
        telemetry = enumerator.telemetry
        assert telemetry.warm_start_probe_hits > 0
        assert telemetry.probe_misses == 0  # fully served from disk

    def test_warm_cache_with_persistent_pool_matches_golden(
            self, golden, tasks, tmp_path, snapshots_or_skip):
        """The full stack at once — disk warm start + warm leased
        worker threads — still reproduces the golden stream, and the
        worker threads take warm hits on the shared cache."""
        from repro.core.search.cachestore import PersistentProbeCache
        from repro.core.search.parallel import PoolManager

        store = PersistentProbeCache(tmp_path)
        name = next(iter(golden["tasks"]))
        db = tasks[name][0]
        cold_cache, _ = store.warm_cache(db)
        run_engine(tasks[name], workers=1, probe_cache=cold_cache)
        store.save(db, cold_cache)

        warm_cache, loaded = store.warm_cache(db)
        assert loaded > 0
        with PoolManager() as manager:
            stream, enumerator, _ = run_engine(
                tasks[name], workers=4, pool_manager=manager,
                probe_cache=warm_cache)
        assert stream == golden["tasks"][name]["candidates"]
        assert enumerator.telemetry.warm_start_probe_hits > 0
        assert not enumerator.telemetry.snapshot_degraded


class TestDecisionDispatch:
    """The reified decision is memoised on the search state: the
    engine's double dispatch (decision_request speculatively,
    expand_with at consume time, again after push-backs) resolves
    _next_decision at most once per state — with an unchanged stream."""

    def test_next_decision_runs_at_most_once_per_state(self, golden,
                                                       tasks,
                                                       monkeypatch):
        from repro.core.enumerator import Enumerator as EnumeratorClass

        calls = []  # strong refs, so id() cannot be reused by the GC
        original = EnumeratorClass._next_decision

        def counting(self, query):
            calls.append(query)
            return original(self, query)

        monkeypatch.setattr(EnumeratorClass, "_next_decision", counting)
        name = next(iter(golden["tasks"]))
        stream, _, _ = run_engine(tasks[name], workers=4)
        assert stream == golden["tasks"][name]["candidates"]
        assert calls, "no decisions were dispatched at all"
        assert len(calls) == len({id(q) for q in calls}), \
            "_next_decision recomputed for an already-resolved state"

    def test_request_reified_at_most_once_per_state(self, golden, tasks,
                                                    monkeypatch):
        """The GuidanceRequest (which carries the decision's candidate
        list) memoises on SearchState.request: even with push-backs
        re-dispatching states, each state's handler builds its request
        — and therefore its candidates — at most once."""
        from repro.core.enumerator import Enumerator as EnumeratorClass

        reified = []  # strong refs, so id() cannot be reused by the GC
        kinds = [attr[len("_expand_"):] for attr in dir(EnumeratorClass)
                 if attr.startswith("_expand_")]
        assert "col" in kinds and "join" in kinds
        for kind in kinds:
            original = getattr(EnumeratorClass, f"_expand_{kind}")

            def counting(self, ctx, state, *args, __original=original,
                         **kwargs):
                if kwargs.get("request_only"):
                    reified.append(state)
                return __original(self, ctx, state, *args, **kwargs)

            monkeypatch.setattr(EnumeratorClass, f"_expand_{kind}",
                                counting)
        name = next(iter(golden["tasks"]))
        stream, enumerator, _ = run_engine(tasks[name], workers=4)
        assert stream == golden["tasks"][name]["candidates"]
        # Push-backs re-dispatch states, so the memo was actually
        # exercised — without it the assertion below would fail.
        assert enumerator.telemetry.pushbacks > 0
        assert reified, "no requests were reified at all"
        assert len(reified) == len({id(s) for s in reified}), \
            "a state's GuidanceRequest (and candidate list) was " \
            "reified more than once"


class TestGuidanceBatchingEquivalence:
    """``--guidance-batch`` must be invisible in the output: request
    dedup, the distribution cache, and the server backend's degrade
    path change telemetry and wall time only, never the candidate
    stream (the models are deterministic per request, so a cached
    distribution is identical to a recomputed one)."""

    @pytest.mark.parametrize("workers,backend", [
        (1, "threads"), (4, "threads"), (1, "inline"),
    ])
    def test_batched_stream_matches_golden(self, golden, tasks, workers,
                                           backend):
        for name, expected in golden["tasks"].items():
            stream, enumerator, _ = run_engine(tasks[name], workers,
                                               verify_backend=backend,
                                               guidance_batch=True)
            assert stream == expected["candidates"], \
                f"{name} diverged under --guidance-batch " \
                f"(workers={workers}, backend={backend})"
            assert enumerator.expansions == expected["total_expansions"]
            assert enumerator.telemetry.guidance_batched

    def test_batching_amortisation_is_visible_in_telemetry(self, tasks):
        """workers=4 batches multiple decisions per round, so the
        wrapper issues strictly fewer model invocations than requests —
        the same stream, measurably fewer calls."""
        name = next(iter(tasks))
        _, enumerator, _ = run_engine(tasks[name], workers=4,
                                      guidance_batch=True)
        telemetry = enumerator.telemetry
        assert telemetry.guide_requests > 0
        assert telemetry.guide_batch_calls < telemetry.guide_requests
        assert telemetry.guide_calls + telemetry.guide_hits == \
            telemetry.guide_requests

    def test_shared_wrapper_amortises_across_enumerations(self, golden,
                                                          tasks):
        """A wrapper shared across enumerations (what the eval harness
        does) serves the second identical run entirely from its cache —
        zero model calls — while both streams stay golden."""
        from repro.guidance.batched import BatchingGuidanceModel

        name = next(iter(golden["tasks"]))
        db, model, nlq, tsq, gold, task_id = tasks[name]
        shared = BatchingGuidanceModel(model, cache_size=1 << 16)
        task = (db, shared, nlq, tsq, gold, task_id)
        first, _, _ = run_engine(task, workers=1, guidance_batch=True)
        second, enumerator, _ = run_engine(task, workers=1,
                                           guidance_batch=True)
        assert first == second == golden["tasks"][name]["candidates"]
        telemetry = enumerator.telemetry
        assert telemetry.guide_hits == telemetry.guide_requests > 0
        assert telemetry.guide_calls == 0

    def test_dead_server_degrades_to_the_golden_stream(self, golden,
                                                       tasks, caplog):
        """Server failure must be visible (warning + telemetry flag)
        and harmless: the fallback is the local model, so the stream is
        bit-for-bit the golden one."""
        import logging

        name = next(iter(golden["tasks"]))
        with caplog.at_level(logging.WARNING, "repro.guidance.batched"):
            stream, enumerator, _ = run_engine(
                tasks[name], workers=1, guidance_server="127.0.0.1:1")
        assert stream == golden["tasks"][name]["candidates"]
        assert enumerator.telemetry.guidance_degraded
        assert enumerator.telemetry.guidance_batched
        assert "degrading to the local" in caplog.text


class TestProbePlannerEquivalence:
    """``--probe-planner`` must be invisible in the output: compiling
    probes to shared parameterised plans and fusing rounds into
    multi-probe statements change statement counts and telemetry only —
    probe answers are facts of the database, so the candidate stream
    and the verifier's stage stats stay bit-for-bit identical."""

    @pytest.mark.parametrize("planner", ["plan", "batch", "fuse"])
    @pytest.mark.parametrize("workers,backend", [
        (1, "inline"), (4, "threads"),
    ])
    def test_planner_stream_matches_golden(self, golden, tasks, planner,
                                           workers, backend):
        for name, expected in golden["tasks"].items():
            stream, enumerator, _ = run_engine(tasks[name], workers,
                                               verify_backend=backend,
                                               probe_planner=planner)
            assert stream == expected["candidates"], \
                f"{name} diverged under --probe-planner {planner} " \
                f"(workers={workers}, backend={backend})"
            assert enumerator.expansions == expected["total_expansions"]
            assert enumerator.telemetry.probe_planner == planner

    @pytest.mark.parametrize("planner", ["plan", "batch", "fuse"])
    def test_planner_verifier_stats_match_serial(self, tasks, planner):
        """Stage pass/fail counts are part of the contract: the planner
        must not change any verification outcome."""
        name = "spider:library_dev_0-t2"
        _, plain, _ = run_engine(tasks[name], workers=1)
        _, planned, _ = run_engine(tasks[name], workers=4,
                                   probe_planner=planner)
        assert planned.verifier.stats == plain.verifier.stats

    def test_plan_reuse_is_visible_in_telemetry(self, tasks):
        """The planner must actually amortise: probes structurally
        identical to an earlier one are served by a compiled plan, so
        plan hits dominate compiles on any real task."""
        name = next(iter(tasks))
        _, enumerator, _ = run_engine(tasks[name], workers=1,
                                      probe_planner="plan")
        telemetry = enumerator.telemetry
        assert telemetry.probe_compiles > 0
        assert telemetry.probe_plan_hits > telemetry.probe_compiles

    def test_batch_mode_fuses_statements(self, tasks):
        """``batch`` actually executes fused multi-probe statements,
        and they show up in the per-kind statement counters."""
        name = next(iter(tasks))
        db = tasks[name][0]
        before = db.stats.snapshot()
        _, enumerator, _ = run_engine(tasks[name], workers=4,
                                      probe_planner="batch")
        delta = db.stats.delta_since(before)
        assert enumerator.telemetry.probe_batch_stmts > 0
        assert delta.per_kind.get("probe_batch", 0) > 0

    def test_batch_issues_fewer_statements_than_off(self, tasks):
        """The point of the tentpole: a batched round executes fewer
        probe-path statements than one-probe-per-round-trip."""
        name = next(iter(tasks))
        db = tasks[name][0]
        before = db.stats.snapshot()
        run_engine(tasks[name], workers=4)
        off_delta = db.stats.delta_since(before)
        before = db.stats.snapshot()
        run_engine(tasks[name], workers=4, probe_planner="batch")
        batch_delta = db.stats.delta_since(before)
        off_probe_stmts = off_delta.per_kind.get("probe", 0)
        batch_probe_stmts = batch_delta.per_kind.get("probe", 0) \
            + batch_delta.per_kind.get("probe_batch", 0)
        assert batch_probe_stmts < off_probe_stmts

    def test_planner_composes_with_shared_cache_and_pool(
            self, golden, tasks, tmp_path):
        """The full stack — planner batch mode, canonical cache keys
        persisted to disk, warm restart — still reproduces the golden
        stream, and the second run warm-starts from canonical keys."""
        from repro.core.search.cachestore import PersistentProbeCache

        store = PersistentProbeCache(tmp_path)
        name = next(iter(golden["tasks"]))
        db = tasks[name][0]
        cold_cache, loaded = store.warm_cache(db)
        assert loaded == 0
        first, _, _ = run_engine(tasks[name], workers=1,
                                 probe_planner="batch",
                                 probe_cache=cold_cache)
        store.save(db, cold_cache)

        warm_cache, loaded = store.warm_cache(db)
        assert loaded > 0
        second, enumerator, _ = run_engine(tasks[name], workers=1,
                                           probe_planner="batch",
                                           probe_cache=warm_cache)
        assert first == second == golden["tasks"][name]["candidates"]
        assert enumerator.telemetry.warm_start_probe_hits > 0
        # Fully warm: the prefetch finds every probe cached, so no
        # fused statements (and no probe misses) are paid at all.
        assert enumerator.telemetry.probe_misses == 0
        assert enumerator.telemetry.probe_batch_stmts == 0


class TestFuseEquivalence:
    """``--probe-planner fuse`` must be invisible in the output: the
    grouped single-scan statements and the staged (column-first)
    prefetch change statement counts and telemetry only — the candidate
    stream stays bit-for-bit golden across backends and warm starts.
    The stream matrix itself runs in TestProbePlannerEquivalence
    (``planner="fuse"`` across inline/threads); these tests
    pin what the matrix cannot: the fused groups actually execute, the
    new statement kind shows up, and the mode composes with the rest of
    the stack."""

    def test_fuse_executes_grouped_scans(self, golden, tasks):
        """``fuse`` actually executes grouped single-scan statements:
        the FuseGrp telemetry is nonzero, the new ``probe_fuse``
        statement kind shows up in the per-kind counters, nothing
        degraded — and the stream stayed golden."""
        name = next(iter(golden["tasks"]))
        db = tasks[name][0]
        before = db.stats.snapshot()
        stream, enumerator, _ = run_engine(tasks[name], workers=4,
                                           probe_planner="fuse")
        delta = db.stats.delta_since(before)
        assert stream == golden["tasks"][name]["candidates"]
        assert enumerator.telemetry.probe_fused_groups > 0
        assert enumerator.telemetry.probe_fuse_fallbacks == 0
        assert enumerator.telemetry.probe_batch_fallbacks == 0
        assert delta.per_kind.get("probe_fuse", 0) > 0

    def test_fuse_issues_fewer_statements_than_batch(self, tasks):
        """The point of the tentpole: one scan per group beats one
        UNION ALL arm per probe — strictly fewer probe-path statements
        than ``batch`` on the same task."""
        name = next(iter(tasks))
        db = tasks[name][0]
        before = db.stats.snapshot()
        run_engine(tasks[name], workers=4, probe_planner="batch")
        batch_delta = db.stats.delta_since(before)
        before = db.stats.snapshot()
        run_engine(tasks[name], workers=4, probe_planner="fuse")
        fuse_delta = db.stats.delta_since(before)

        def probe_stmts(delta):
            return sum(delta.per_kind.get(kind, 0)
                       for kind in ("probe", "probe_batch", "probe_fuse"))

        assert probe_stmts(fuse_delta) < probe_stmts(batch_delta)

    def test_fuse_warm_start_matches_golden(self, golden, tasks,
                                            tmp_path):
        """fuse -> save -> fuse warm restart: the canonical keys the
        fused scans scatter persist like executed ones, so the second
        run warm-starts fully (no misses, no fused scans paid) and
        stays golden."""
        from repro.core.search.cachestore import PersistentProbeCache

        store = PersistentProbeCache(tmp_path)
        name = next(iter(golden["tasks"]))
        db = tasks[name][0]
        cold_cache, loaded = store.warm_cache(db)
        assert loaded == 0
        first, _, _ = run_engine(tasks[name], workers=1,
                                 probe_planner="fuse",
                                 probe_cache=cold_cache)
        store.save(db, cold_cache)

        warm_cache, loaded = store.warm_cache(db)
        assert loaded > 0
        second, enumerator, _ = run_engine(tasks[name], workers=1,
                                           probe_planner="fuse",
                                           probe_cache=warm_cache)
        assert first == second == golden["tasks"][name]["candidates"]
        assert enumerator.telemetry.warm_start_probe_hits > 0
        assert enumerator.telemetry.probe_misses == 0
        assert enumerator.telemetry.probe_fused_groups == 0

    def test_fuse_with_persistent_pool_matches_golden(self, golden,
                                                      tasks):
        """fuse × warm leased thread pools: worker threads share the
        primary's fuse-mode planner, and every task's stream stays
        golden."""
        from repro.core.search.parallel import PoolManager
        from repro.core.verifier import SharedProbeCache
        from repro.db.database import Database

        if not Database.supports_snapshots():
            pytest.skip("sqlite build cannot snapshot databases")
        with PoolManager() as manager:
            caches = {}
            fused_groups = 0
            for name, expected in golden["tasks"].items():
                db = tasks[name][0]
                cache = caches.setdefault(id(db), SharedProbeCache())
                stream, enumerator, _ = run_engine(
                    tasks[name], workers=4, pool_manager=manager,
                    probe_cache=cache, probe_planner="fuse")
                assert stream == expected["candidates"], \
                    f"{name} diverged under fuse + persistent pool"
                assert not enumerator.telemetry.snapshot_degraded
                assert enumerator.telemetry.probe_fuse_fallbacks == 0
                fused_groups += enumerator.telemetry.probe_fused_groups
        assert fused_groups > 0

    def test_fuse_composes_with_cost_order(self, golden, tasks):
        """fuse × ``--cost-order order``: the group-cost ordering is a
        reordering of fact lookups, so the answer set is exactly the
        golden one and no group degrades."""
        name = next(iter(golden["tasks"]))
        stream, enumerator, _ = run_engine(tasks[name], workers=4,
                                           probe_planner="fuse",
                                           cost_order="order")
        assert {c["signature"] for c in stream} == \
            {c["signature"]
             for c in golden["tasks"][name]["candidates"]}
        assert enumerator.telemetry.probe_fuse_fallbacks == 0

    def test_fuse_verifier_stats_match_serial_off(self, tasks):
        """Stage pass/fail counts are part of the contract: the staged
        prefetch (including its peek-based row-probe pruning) must not
        change any verification outcome."""
        name = "spider:library_dev_0-t2"
        _, plain, _ = run_engine(tasks[name], workers=1)
        _, fused, _ = run_engine(tasks[name], workers=4,
                                 probe_planner="fuse")
        assert fused.verifier.stats == plain.verifier.stats


class TestCostOrderEquivalence:
    """``--cost-order`` ships with a tiered stream contract: ``off``
    (the default) is pinned bit-for-bit by the golden fixture across
    backend combinations, ``order`` must preserve the final answer set
    exactly while never executing more probes, and ``abort`` is the
    only mode allowed to change answers (gated by the harness's
    ``run_cost_order_audit`` accuracy-delta report, not by this
    suite)."""

    @pytest.mark.parametrize("workers,backend,overrides", [
        (1, "threads", {}),
        (4, "threads", {}),
        (4, "threads", {"probe_planner": "batch"}),
    ])
    def test_off_stream_matches_golden(self, golden, tasks, workers,
                                       backend, overrides):
        for name, expected in golden["tasks"].items():
            stream, enumerator, _ = run_engine(tasks[name], workers,
                                               verify_backend=backend,
                                               cost_order="off",
                                               **overrides)
            assert stream == expected["candidates"], \
                f"{name} diverged with explicit cost_order='off' " \
                f"(workers={workers}, backend={backend}, {overrides})"
            assert enumerator.expansions == expected["total_expansions"]
            assert enumerator.telemetry.cost_order == "off"
            assert enumerator.telemetry.cost_ordered == 0
            assert enumerator.telemetry.cost_aborts == 0

    def test_off_with_warm_start_matches_golden(self, golden, tasks,
                                                tmp_path):
        from repro.core.search.cachestore import PersistentProbeCache

        store = PersistentProbeCache(tmp_path)
        name = next(iter(golden["tasks"]))
        db = tasks[name][0]
        cold_cache, _ = store.warm_cache(db)
        run_engine(tasks[name], workers=1, cost_order="off",
                   probe_cache=cold_cache)
        store.save(db, cold_cache)

        warm_cache, loaded = store.warm_cache(db)
        assert loaded > 0
        stream, enumerator, _ = run_engine(tasks[name], workers=1,
                                           cost_order="off",
                                           probe_cache=warm_cache)
        assert stream == golden["tasks"][name]["candidates"]
        assert enumerator.telemetry.warm_start_probe_hits > 0

    @pytest.mark.parametrize("workers,backend", [
        (1, "threads"), (4, "threads"),
    ])
    def test_order_preserves_answer_set(self, golden, tasks, workers,
                                        backend):
        """The ``order`` contract: cheapest-first dispatch reorders
        statement execution only — probe answers are facts, so the
        emitted answer set is exactly the golden one."""
        for name, expected in golden["tasks"].items():
            stream, enumerator, _ = run_engine(tasks[name], workers,
                                               verify_backend=backend,
                                               cost_order="order")
            assert {c["signature"] for c in stream} == \
                {c["signature"] for c in expected["candidates"]}, \
                f"{name} answer set changed under --cost-order order " \
                f"(workers={workers}, backend={backend})"
            assert enumerator.telemetry.cost_order == "order"
            if workers > 1:
                assert enumerator.telemetry.cost_ordered > 0

    def test_order_never_executes_more_probes(self, tasks):
        """The other half of the ``order`` contract: with single-flight
        dedup on, a cost-ordered parallel round can never execute more
        probes than the plain parallel run (which may race duplicate
        probes before the first insert lands)."""
        name = "spider:library_dev_0-t2"
        _, off_enum, _ = run_engine(tasks[name], workers=4)
        _, cost_enum, _ = run_engine(tasks[name], workers=4,
                                     cost_order="order")
        assert cost_enum.telemetry.probe_misses \
            <= off_enum.telemetry.probe_misses
        assert cost_enum.telemetry.probe_timeouts == 0

    def test_order_verifier_stats_match_off(self, tasks):
        """Reordering must not change any verification outcome: stage
        pass/fail counts match the plain run exactly."""
        name = "spider:library_dev_0-t2"
        _, plain, _ = run_engine(tasks[name], workers=1)
        _, ordered, _ = run_engine(tasks[name], workers=4,
                                   cost_order="order")
        assert ordered.verifier.stats == plain.verifier.stats


class TestWarmStartSurvivesPlannerFlip:
    """The probe store is dual-keyed (raw SQL + canonical twins), so a
    warm ``--cache-dir`` written under one ``--probe-planner`` mode
    still warm-starts a run under the other — in both directions."""

    def test_off_store_warms_a_planner_run(self, golden, tasks, tmp_path):
        """off (raw keys) -> save -> batch (canonical lookups): the
        save-side canonical twins serve the planner's keyed probes."""
        from repro.core.search.cachestore import PersistentProbeCache

        store = PersistentProbeCache(tmp_path)
        name = next(iter(golden["tasks"]))
        db = tasks[name][0]
        cold_cache, _ = store.warm_cache(db)
        run_engine(tasks[name], workers=1, probe_cache=cold_cache)
        store.save(db, cold_cache)

        warm_cache, loaded = store.warm_cache(db)
        assert loaded > 0
        stream, enumerator, _ = run_engine(tasks[name], workers=1,
                                           probe_planner="batch",
                                           probe_cache=warm_cache)
        assert stream == golden["tasks"][name]["candidates"]
        assert enumerator.telemetry.warm_start_probe_hits > 0

    def test_planner_store_warms_an_off_run(self, golden, tasks,
                                            tmp_path):
        """batch (canonical keys) -> save -> off (raw lookups): the
        cache-side fallback aliases a missing raw key to its canonical
        twin when the store was seeded with canonical entries."""
        from repro.core.search.cachestore import PersistentProbeCache

        store = PersistentProbeCache(tmp_path)
        name = next(iter(golden["tasks"]))
        db = tasks[name][0]
        cold_cache, _ = store.warm_cache(db)
        run_engine(tasks[name], workers=1, probe_planner="batch",
                   probe_cache=cold_cache)
        store.save(db, cold_cache)

        warm_cache, loaded = store.warm_cache(db)
        assert loaded > 0
        stream, enumerator, _ = run_engine(tasks[name], workers=1,
                                           probe_cache=warm_cache)
        assert stream == golden["tasks"][name]["candidates"]
        assert enumerator.telemetry.warm_start_probe_hits > 0


class TestBeamEngines:
    """Beam engines trade completeness for bounded frontiers but stay
    sound: everything they emit also passes the full verifier."""

    @pytest.mark.parametrize("engine", ["beam", "diverse-beam"])
    def test_beam_emits_verified_candidates(self, tasks, engine):
        name = "spider:library_dev_0-t0"
        stream, enumerator, candidates = run_engine(
            tasks[name], workers=1, engine=engine, beam_width=8)
        assert stream, f"{engine} emitted nothing"
        assert enumerator.telemetry.engine == engine
        # Soundness: every emitted candidate passes a fresh verification.
        for candidate in candidates:
            assert enumerator.verifier.verify(candidate.query).ok

    @pytest.mark.parametrize("engine", ["beam", "diverse-beam"])
    def test_beam_subset_of_best_first(self, golden, tasks, engine):
        """A beam never invents candidates: its emissions are a subset
        of the exhaustive best-first stream's signatures (both searches
        are bounded by the same expansion budget here, so the beam —
        which only discards states — cannot add new completions)."""
        name = "mas:A1"
        beam_stream, _, _ = run_engine(tasks[name], workers=1,
                                       engine=engine, beam_width=6)
        exhaustive = {c["signature"]
                      for c in golden["tasks"][name]["candidates"]}
        beam_signatures = {c["signature"] for c in beam_stream}
        # With a small beam some candidates are lost, none are invented
        # beyond what a (larger-budget) exhaustive enumeration yields;
        # check against the golden top plus a fresh unbounded run.
        if not beam_signatures <= exhaustive:
            full_stream, _, _ = run_engine(tasks[name], workers=1,
                                           max_candidates=200,
                                           max_expansions=20_000)
            exhaustive |= {c["signature"] for c in full_stream}
        assert beam_signatures <= exhaustive

    def test_beam_truncation_reported(self, tasks):
        name = "mas:A2"
        _, enumerator, _ = run_engine(tasks[name], workers=1,
                                      engine="beam", beam_width=4)
        assert enumerator.telemetry.beam_dropped > 0



class TestBoundedCacheEquivalence:
    """``--probe-cache-entries`` changes memory, never answers: a
    tightly bounded cache emits the golden stream with the same prune
    profile across backends and planner modes — eviction may only cost
    re-probes (visible in hit/miss counters), never a candidate."""

    @pytest.mark.parametrize("workers,backend", [
        (1, "threads"), (4, "threads"),
    ])
    def test_bounded_stream_matches_golden(self, golden, tasks, workers,
                                           backend):
        from repro.core.verifier import SharedProbeCache

        for name, expected in golden["tasks"].items():
            cache = SharedProbeCache(max_entries=12)
            stream, enumerator, _ = run_engine(
                tasks[name], workers, verify_backend=backend,
                probe_cache=cache)
            assert stream == expected["candidates"], \
                f"{name} diverged under a bounded probe cache " \
                f"(workers={workers}, backend={backend})"
            assert enumerator.expansions == expected["total_expansions"]
            assert len(cache) <= 12

    @pytest.mark.parametrize("planner", ["batch", "fuse"])
    def test_bounded_planner_modes_match_golden(self, golden, tasks,
                                                planner):
        from repro.core.verifier import SharedProbeCache

        name = "spider:library_dev_0-t1"
        cache = SharedProbeCache(max_entries=12)
        stream, _, _ = run_engine(tasks[name], workers=1,
                                  probe_planner=planner,
                                  probe_cache=cache)
        assert stream == golden["tasks"][name]["candidates"]
        assert len(cache) <= 12

    def test_eviction_changes_counters_not_prunes(self, tasks):
        """The bound really engages — and still the search makes
        exactly the same pruning decisions as the unbounded run."""
        from repro.core.verifier import SharedProbeCache

        name = "spider:library_dev_0-t1"  # 39 distinct probe entries
        _, unbounded, _ = run_engine(tasks[name], workers=1)
        cache = SharedProbeCache(max_entries=8)
        _, bounded, _ = run_engine(tasks[name], workers=1,
                                   probe_cache=cache)
        assert bounded.telemetry.probe_cache_evictions > 0
        assert bounded.telemetry.probe_cache_entries <= 8
        assert bounded.telemetry.prunes_by_stage == \
            unbounded.telemetry.prunes_by_stage
        # re-probes surface as extra misses, the documented trade
        assert cache.misses >= unbounded.verifier.probe_cache.misses

    def test_config_knob_builds_a_bounded_cache(self, golden, tasks):
        """``EnumeratorConfig.probe_cache_entries`` (the CLI's
        ``--probe-cache-entries``) bounds the enumerator-owned cache."""
        name = "spider:library_dev_0-t1"
        stream, enumerator, _ = run_engine(tasks[name], workers=1,
                                           probe_cache_entries=8)
        assert stream == golden["tasks"][name]["candidates"]
        assert enumerator.telemetry.probe_cache_entries <= 8
        assert enumerator.telemetry.probe_cache_evictions > 0

    def test_bounded_warm_start_after_eviction(self, golden, tasks,
                                               tmp_path):
        """The tentpole contract end to end: a bounded cache evicts,
        eviction flushes to the store, and the next bounded session
        still warm-starts from disk — with an identical stream."""
        from repro.core.search.cachestore import PersistentProbeCache

        store = PersistentProbeCache(tmp_path)
        name = "spider:library_dev_0-t1"
        db = tasks[name][0]
        cache, loaded = store.warm_cache(db, max_entries=24)
        assert loaded == 0  # cold start
        stream, _, _ = run_engine(tasks[name], workers=1,
                                  probe_cache=cache)
        assert stream == golden["tasks"][name]["candidates"]
        assert cache.evictions > 0
        store.save(db, cache)

        warm, loaded = store.warm_cache(db, max_entries=24)
        assert 0 < loaded
        assert len(warm) <= 24
        stream, enumerator, _ = run_engine(tasks[name], workers=1,
                                           probe_cache=warm)
        assert stream == golden["tasks"][name]["candidates"]
        assert enumerator.telemetry.warm_start_probe_hits > 0
        assert warm.evictions > 0  # the bound stayed engaged
