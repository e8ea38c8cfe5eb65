"""Integration tests for the experiment harness."""

import pytest

from repro.datasets import SpiderCorpusConfig, generate_corpus
from repro.eval import (
    SimulationConfig,
    fig10_report,
    fig11_report,
    fig12_report,
    run_ablations,
    run_detail_sweep,
    run_simulation,
    table5_report,
    table6_report,
)


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate_corpus("dev", SpiderCorpusConfig(
        num_databases=3, tasks_per_database=4, seed=2))


@pytest.fixture(scope="module")
def sim_records(tiny_corpus):
    return run_simulation(tiny_corpus,
                          config=SimulationConfig(timeout=4.0))


class TestRunSimulation:
    def test_records_per_system(self, sim_records, tiny_corpus):
        for system in ("Duoquest", "NLI", "PBE"):
            bucket = [r for r in sim_records if r.system == system]
            assert len(bucket) == len(tiny_corpus)

    def test_duoquest_beats_nli_top1(self, sim_records):
        """The headline claim: >2x top-1 accuracy over NLI."""
        from repro.eval.metrics import top_k_accuracy

        duoquest = [r for r in sim_records if r.system == "Duoquest"]
        nli = [r for r in sim_records if r.system == "NLI"]
        _, dq_top1 = top_k_accuracy(duoquest, 1)
        _, nli_top1 = top_k_accuracy(nli, 1)
        assert dq_top1 > nli_top1

    def test_pbe_unsupported_on_hard(self, sim_records):
        hard_pbe = [r for r in sim_records
                    if r.system == "PBE" and r.difficulty == "hard"]
        assert all(not r.supported for r in hard_pbe)

    def test_ranks_well_formed(self, sim_records):
        for r in sim_records:
            if r.rank is not None:
                assert r.rank >= 1
                assert r.time_to_gold is not None

    def test_reports_render(self, sim_records, tiny_corpus):
        fig10 = fig10_report(sim_records, "tiny")
        assert "Duoquest" in fig10 and "PBE" in fig10
        fig11 = fig11_report(sim_records, "tiny")
        assert "easy" in fig11 or "E%" in fig11
        table5 = table5_report([tiny_corpus])
        assert "spider-dev" in table5


class TestDetailSweep:
    def test_detail_ordering(self, tiny_corpus):
        """Table 6's shape: more TSQ detail, no worse top-10 accuracy."""
        from repro.eval.metrics import top_k_accuracy

        records = run_detail_sweep(
            tiny_corpus, details=("full", "minimal"),
            config=SimulationConfig(timeout=4.0))
        full = [r for r in records if r.detail == "full"]
        minimal = [r for r in records if r.detail == "minimal"]
        _, full_top10 = top_k_accuracy(full, 10)
        _, minimal_top10 = top_k_accuracy(minimal, 10)
        assert full_top10 >= minimal_top10
        report = table6_report(records, [], "tiny")
        assert "Full" in report and "Minimal" in report


class TestAblations:
    def test_duoquest_dominates_curve(self, tiny_corpus):
        records = run_ablations(tiny_corpus,
                                config=SimulationConfig(timeout=4.0))
        from repro.eval.metrics import completion_curve

        grid = [4.0]
        duoquest = completion_curve(
            [r for r in records if r.system == "Duoquest"], grid)
        noguide = completion_curve(
            [r for r in records if r.system == "NoGuide"], grid)
        assert duoquest[0] >= noguide[0]
        report = fig12_report(records, [1.0, 4.0])
        assert "NoPQ" in report and "NoGuide" in report


class TestPersistentPools:
    """Each harness run owns a PoolManager (through its ServiceContext):
    worker threads spawn once per database per run, not once per task,
    and are gone when the run returns."""

    @pytest.fixture
    def contexts(self, monkeypatch):
        """Every ServiceContext a run builds, each recording its pool
        stats as they stood just before close."""
        from repro.db.database import Database
        from repro.eval import harness
        from repro.serve.context import ServiceContext

        if not Database.supports_snapshots():
            pytest.skip("sqlite build cannot snapshot databases")
        built = []

        class Recording(ServiceContext):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

            def close(self):
                if not self.closed:
                    self.final_stats = dict(self.pool_manager.stats)
                super().close()

        monkeypatch.setattr(harness, "ServiceContext", Recording)
        return built

    @staticmethod
    def live_verify_threads():
        import threading

        return {thread for thread in threading.enumerate()
                if thread.name.startswith("repro-verify")}

    def test_mid_sweep_spawns_are_zero(self, tiny_corpus, tmp_path,
                                       contexts):
        config = SimulationConfig(timeout=4.0, workers=2,
                                  cache_dir=str(tmp_path))
        records = run_simulation(tiny_corpus, systems=("Duoquest",),
                                 config=config)
        (ctx,) = contexts
        spawns = ctx.final_stats["worker_spawns"]
        leases = ctx.final_stats["persistent_leases"]
        # One spawn per database; every task after each database's first
        # rides a warm pool ("zero new pool workers mid-sweep").
        assert spawns == len(tiny_corpus.databases)
        assert leases == len(records)
        reused = [r.telemetry.get("pool_reused") for r in records
                  if r.telemetry]
        assert sum(reused) == leases - spawns

    def test_run_leaves_no_live_pool(self, tiny_corpus, contexts):
        config = SimulationConfig(timeout=4.0, workers=2)
        before = self.live_verify_threads()
        run_simulation(tiny_corpus, systems=("Duoquest",), config=config)
        assert self.live_verify_threads() <= before
        run_simulation(tiny_corpus, systems=("Duoquest",), config=config)
        assert self.live_verify_threads() <= before
        first, second = contexts
        assert first.pool_manager.closed and second.pool_manager.closed
        assert first.pool_manager is not second.pool_manager
        # Nothing carried over: the second run spawned its own pools.
        assert second.final_stats["worker_spawns"] \
            == len(tiny_corpus.databases)


class TestCrossTaskProbeCache:
    """The harness owns one probe cache per database, so enumerations
    over the same database reuse each other's probe answers. The effect
    is largest where probes actually repeat — the ablation study runs
    every task three times (Duoquest / NoPQ / NoGuide) against the same
    TSQ, so the second and third variants hit the first one's probes."""

    @staticmethod
    def _cross_hits(records):
        return sum(r.telemetry.get("cross_task_probe_hits", 0)
                   for r in records if r.telemetry is not None)

    def test_ablations_record_cross_task_hits(self, tiny_corpus):
        from repro.eval import search_report

        records = run_ablations(tiny_corpus,
                                config=SimulationConfig(timeout=4.0))
        cross = self._cross_hits(records)
        assert cross > 0, "no probe answers were reused across tasks"
        report = search_report(records)
        assert "XTaskHit" in report
        # The per-variant row totals sum back to the overall count.
        total_column = sum(
            int(row.split()[8]) for row in report.splitlines()[3:])
        assert total_column == cross

    def test_sharing_is_opt_out(self, tiny_corpus):
        records = run_ablations(
            tiny_corpus,
            config=SimulationConfig(timeout=4.0, share_probe_cache=False))
        assert self._cross_hits(records) == 0

    def test_sharing_does_not_change_outcomes(self, tiny_corpus):
        # A generous budget: the comparison must be decided by search
        # exhaustion, not by which run the wall clock truncated first.
        shared = run_ablations(tiny_corpus,
                               config=SimulationConfig(timeout=60.0))
        isolated = run_ablations(
            tiny_corpus,
            config=SimulationConfig(timeout=60.0, share_probe_cache=False))
        assert [(r.task_id, r.system, r.rank, r.num_candidates)
                for r in shared] \
            == [(r.task_id, r.system, r.rank, r.num_candidates)
                for r in isolated]

    def test_second_run_with_cache_dir_warm_starts(self, tiny_corpus,
                                                   tmp_path):
        """The PR-3 acceptance path: a second run_simulation on the same
        corpus via cache_dir reports nonzero warm-start probe hits while
        the records stay identical to the cold run."""
        config = SimulationConfig(timeout=4.0, cache_dir=str(tmp_path))
        cold = run_simulation(tiny_corpus, systems=("Duoquest",),
                              config=config)
        assert sum(r.telemetry.get("warm_start_probe_hits", 0)
                   for r in cold if r.telemetry) == 0
        assert list(tmp_path.glob("probes-*.sqlite"))  # persisted
        warm = run_simulation(tiny_corpus, systems=("Duoquest",),
                              config=config)
        warm_hits = sum(r.telemetry.get("warm_start_probe_hits", 0)
                        for r in warm if r.telemetry)
        assert warm_hits > 0
        assert [(r.task_id, r.system, r.rank, r.num_candidates)
                for r in cold] \
            == [(r.task_id, r.system, r.rank, r.num_candidates)
                for r in warm]
        from repro.eval import search_report

        assert "WarmStart" in search_report(warm)

    def test_guidance_batching_amortises_across_systems(self, tiny_corpus):
        """With guidance_batch on, the harness wraps the oracle once per
        run, so the NLI baseline reuses Duoquest's scored decisions
        (same tasks, same model) — nonzero GuideHits — while every
        outcome matches the unbatched run exactly."""
        from repro.eval import search_report

        plain = run_simulation(tiny_corpus, systems=("Duoquest", "NLI"),
                               config=SimulationConfig(timeout=60.0))
        batched = run_simulation(
            tiny_corpus, systems=("Duoquest", "NLI"),
            config=SimulationConfig(timeout=60.0, guidance_batch=True))
        assert [(r.task_id, r.system, r.rank, r.num_candidates)
                for r in plain] \
            == [(r.task_id, r.system, r.rank, r.num_candidates)
                for r in batched]
        hits = sum(r.telemetry.get("guide_hits", 0)
                   for r in batched if r.telemetry is not None)
        assert hits > 0, "no guidance decisions were reused across tasks"
        requests = sum(r.telemetry.get("guide_requests", 0)
                       for r in batched if r.telemetry is not None)
        scored = sum(r.telemetry.get("guide_calls", 0)
                     for r in batched if r.telemetry is not None)
        assert scored + hits == requests
        assert scored < requests
        report = search_report(batched)
        assert "GuideCalls" in report and "GuideHits" in report

    def test_cache_dir_without_sharing_is_ignored(self, tiny_corpus,
                                                  tmp_path):
        """Persistence piggybacks on per-database caches; with sharing
        disabled nothing is persisted (and nothing crashes)."""
        config = SimulationConfig(timeout=4.0, cache_dir=str(tmp_path),
                                  share_probe_cache=False)
        run_simulation(tiny_corpus, systems=("Duoquest",), config=config)
        assert not list(tmp_path.glob("probes-*.sqlite"))

    def test_simulation_shares_per_database(self, tiny_corpus):
        """run_simulation wires the registry too: all Duoquest/NLI runs
        on one database share one cache (observable via generations)."""
        import repro.eval.harness as harness_module

        seen = []
        original = harness_module.ProbeCacheRegistry.cache_for

        def spy(self, db):
            cache = original(self, db)
            seen.append((db.schema.name, id(cache)))
            return cache

        harness_module.ProbeCacheRegistry.cache_for = spy
        try:
            run_simulation(tiny_corpus, systems=("Duoquest", "NLI"),
                           config=SimulationConfig(timeout=4.0))
        finally:
            harness_module.ProbeCacheRegistry.cache_for = original
        assert seen
        per_db = {}
        for name, cache_id in seen:
            per_db.setdefault(name, set()).add(cache_id)
        assert all(len(ids) == 1 for ids in per_db.values())
        assert len(per_db) == len(tiny_corpus.databases)
