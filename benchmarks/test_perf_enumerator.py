"""Enumerator throughput smoke benchmark (candidates/sec).

Not a paper figure: this pins the search-engine subsystem's performance
envelope. It records candidates/sec for the serial best-first engine
and for the thread-pool verification stage (workers=4), reporting the
parallel-vs-serial speedup, plus the cold-vs-warm
comparison for the disk-backed probe cache (run the workload cold, save
the caches, reload, run again), the score-call reduction of the
batched guidance backend (dedup + distribution cache behind
``score_batch``), the probe-exec reduction of the canonical probe
planner (round-level probe fusion), the one-scan-per-group compression
of the fuse planner (``--probe-planner fuse`` vs ``batch``: each
skeleton group collapses to a single aggregate scan and staged column
answers prune row probes before they are compiled), and the probe
savings of cost-ordered verification (``--cost-order order``: same
answers, never more executed probes, plus single-flight dedup of
concurrent duplicate probes). Set ``REPRO_PERF_STRICT=1`` (multi-core hosts only — SQLite
probe execution releases the GIL, but a single core has nothing to run
the extra workers on) to turn the targets into hard assertions: ≥1.5x
for threads, for the warm-cache run zero probe misses plus no slowdown, for the
batched-guidance repeat run zero model calls, for the planner-batched
run strictly fewer executed ``Database.execute`` statements than
planner-off, for the fuse run strictly fewer executed statements *and*
lower wall-clock than the batched run, and for the cost-ordered
contended round strictly fewer executed probes than the racing
baseline; by default the numbers are
recorded, and every configuration is only required to preserve the
candidate stream exactly.

Scale with ``REPRO_BENCH_FULL=1`` like the other benchmarks.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import FULL, run_once

#: (databases, tasks) and per-task budget for the throughput workload.
SHAPE = (3, 4) if FULL else (2, 3)
MAX_CANDIDATES = 60 if FULL else 40
MAX_EXPANSIONS = 12_000 if FULL else 6_000
PARALLEL_WORKERS = 4
MULTICORE = (os.cpu_count() or 1) >= 2


def _parallel_possible() -> bool:
    """Thread-pool verification needs sqlite snapshot support; without
    it the pool degrades to inline and a speedup is structurally
    impossible."""
    from repro.db.database import Database

    return MULTICORE and Database.supports_snapshots()


STRICT = os.environ.get("REPRO_PERF_STRICT", "") == "1" \
    and _parallel_possible()


@pytest.fixture(scope="module")
def workload():
    from repro.datasets import (
        DETAIL_FULL,
        SpiderCorpusConfig,
        generate_corpus,
        synthesize_tsq,
    )
    from repro.guidance.oracle import CalibratedOracleModel

    corpus = generate_corpus("dev", SpiderCorpusConfig(
        num_databases=SHAPE[0], tasks_per_database=SHAPE[1], seed=11))
    model = CalibratedOracleModel(seed=0)
    tasks = []
    for task in corpus:
        db = corpus.database_for(task)
        tsq = synthesize_tsq(task, db, detail=DETAIL_FULL, seed=0)
        tasks.append((task, db, tsq))
    return model, tasks


def run_workload(workload, workers: int, caches=None,
                 probe_planner: str = "off", cost_order: str = "off",
                 probe_timeout=None):
    """Enumerate every task; returns (candidates, elapsed, cand/sec).

    ``caches`` optionally maps ``id(db)`` to a ``SharedProbeCache``,
    mirroring the harness's per-database sharing (and enabling the
    cold-vs-warm comparison below); ``probe_planner`` selects the
    probe-planner mode for the planner-on/off comparison;
    ``cost_order``/``probe_timeout`` select the verification
    scheduling mode for the cost-order comparison.
    """
    from repro.core.enumerator import Enumerator, EnumeratorConfig

    model, tasks = workload
    config = EnumeratorConfig(engine="best-first", workers=workers,
                              max_candidates=MAX_CANDIDATES,
                              max_expansions=MAX_EXPANSIONS,
                              probe_planner=probe_planner,
                              cost_order=cost_order,
                              probe_timeout_ms=probe_timeout)
    emitted = 0
    start = time.monotonic()
    for task, db, tsq in tasks:
        enumerator = Enumerator(db, model, task.nlq, tsq=tsq,
                                config=config, gold=task.gold,
                                task_id=task.task_id,
                                probe_cache=(caches or {}).get(id(db)))
        emitted += sum(1 for _ in enumerator.enumerate())
    elapsed = time.monotonic() - start
    return emitted, elapsed, emitted / elapsed if elapsed > 0 else 0.0


def test_serial_throughput(benchmark, workload):
    emitted, elapsed, rate = run_once(
        benchmark, lambda: run_workload(workload, workers=1))
    benchmark.extra_info["candidates"] = emitted
    benchmark.extra_info["candidates_per_sec"] = round(rate, 1)
    print(f"\n[perf] serial: {emitted} candidates in {elapsed:.2f}s "
          f"({rate:.1f} cand/s)")
    assert emitted > 0
    assert rate > 0


def test_parallel_speedup(benchmark, workload):
    serial_emitted, _, serial_rate = run_workload(workload, workers=1)
    emitted, elapsed, rate = run_once(
        benchmark, lambda: run_workload(workload,
                                        workers=PARALLEL_WORKERS))
    speedup = rate / serial_rate if serial_rate else 0.0
    benchmark.extra_info["candidates_per_sec"] = round(rate, 1)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 2)
    benchmark.extra_info["cpus"] = os.cpu_count()
    print(f"\n[perf] workers={PARALLEL_WORKERS}: {emitted} candidates in "
          f"{elapsed:.2f}s ({rate:.1f} cand/s, {speedup:.2f}x serial, "
          f"{os.cpu_count()} cpus)")
    # Parallelism must never change the result stream...
    assert emitted == serial_emitted
    assert rate > 0
    # ...and must actually pay off where strict mode demands it.
    if STRICT:
        assert speedup >= 1.5, \
            f"workers={PARALLEL_WORKERS} only reached {speedup:.2f}x"


def test_guidance_batching_amortisation(benchmark, workload):
    """Score-call reduction from the batched guidance backend.

    The workload runs on one shared ``BatchingGuidanceModel`` twice,
    at workers=4 so the scheduler actually batches multiple decisions
    per round. The first (cold) pass measures round-trip amortisation:
    the wrapper must issue strictly fewer ``score_batch`` invocations
    on the underlying model than it received requests. The repeat pass
    — the benchmark analogue of the harness sharing one wrapper across
    systems and variants — must be served from the distribution cache.
    Recorded: the amortisation counters and the repeat's hit rate;
    strict mode additionally demands the repeat pays zero model calls.
    Both passes must emit the same candidates.
    """
    from repro.guidance.batched import BatchingGuidanceModel

    model, tasks = workload
    wrapped = BatchingGuidanceModel(model, cache_size=1 << 17)
    shared = (wrapped, tasks)
    cold_emitted, cold_elapsed, _ = run_workload(shared,
                                                 workers=PARALLEL_WORKERS)
    cold = wrapped.counters.snapshot()
    emitted, elapsed, _ = run_once(
        benchmark, lambda: run_workload(shared, workers=PARALLEL_WORKERS))
    repeat = wrapped.counters.delta_since(cold)
    hit_rate = repeat.guide_hits / repeat.guide_requests \
        if repeat.guide_requests else 0.0
    benchmark.extra_info["requests_in"] = cold.guide_requests
    benchmark.extra_info["unique_scored"] = cold.guide_calls
    benchmark.extra_info["batch_calls"] = cold.guide_batch_calls
    benchmark.extra_info["repeat_cache_hit_rate"] = round(hit_rate, 3)
    benchmark.extra_info["repeat_unique_scored"] = repeat.guide_calls
    print(f"\n[perf] guidance batching: cold {cold.guide_calls} scored /"
          f" {cold.guide_requests} requests in {cold.guide_batch_calls} "
          f"batch calls ({cold_elapsed:.2f}s); repeat "
          f"{100.0 * hit_rate:.1f}% cache hits, "
          f"{repeat.guide_calls} scored ({elapsed:.2f}s)")
    # The cache must never change the result stream...
    assert emitted == cold_emitted
    # ...must amortise round trips (fewer model invocations than
    # requests — the scheduler's rounds carry more than one decision)...
    assert cold.guide_batch_calls < cold.guide_requests
    # ...and the repeat must actually reuse cached distributions.
    assert repeat.guide_hits > 0
    if os.environ.get("REPRO_PERF_STRICT", "") == "1":
        assert repeat.guide_calls == 0, \
            f"repeat run still scored {repeat.guide_calls} requests"


def test_probe_planner_batching(benchmark, workload):
    """Probe-exec reduction from the canonical probe planner.

    The workload runs planner-off and planner-batch (workers=4, so
    expansion rounds carry several sibling candidates whose probes can
    fuse); both runs use fresh per-task probe caches, so the comparison
    isolates the planner. Recorded: executed statements on the probe
    path (individual probes + fused multi-probe statements) for both
    runs, the reduction ratio, and the plan-cache counters. Strict mode
    asserts the batched run issues strictly fewer ``Database.execute``
    calls than the unbatched one; the candidate stream must match
    exactly either way (probe answers are facts of the database).
    """
    model, tasks = workload
    dbs = {id(db): db for _, db, _ in tasks}

    def probe_stmts(deltas):
        return sum(d.per_kind.get("probe", 0)
                   + d.per_kind.get("probe_batch", 0) for d in deltas)

    def total_stmts(deltas):
        return sum(d.statements for d in deltas)

    def measured(planner):
        before = {key: db.stats.snapshot() for key, db in dbs.items()}
        emitted, elapsed, _ = run_workload(workload,
                                           workers=PARALLEL_WORKERS,
                                           probe_planner=planner)
        deltas = [db.stats.delta_since(before[key])
                  for key, db in dbs.items()]
        return emitted, elapsed, deltas

    off_emitted, off_elapsed, off_deltas = measured("off")
    emitted, elapsed, batch_deltas = run_once(
        benchmark, lambda: measured("batch"))
    off_probe, batch_probe = probe_stmts(off_deltas), \
        probe_stmts(batch_deltas)
    off_total, batch_total = total_stmts(off_deltas), \
        total_stmts(batch_deltas)
    reduction = 1.0 - (batch_probe / off_probe) if off_probe else 0.0
    benchmark.extra_info["probe_stmts_off"] = off_probe
    benchmark.extra_info["probe_stmts_batch"] = batch_probe
    benchmark.extra_info["stmts_off"] = off_total
    benchmark.extra_info["stmts_batch"] = batch_total
    benchmark.extra_info["probe_stmt_reduction"] = round(reduction, 3)
    print(f"\n[perf] probe planner: {off_probe} probe-path statements "
          f"off -> {batch_probe} batched ({100.0 * reduction:.1f}% "
          f"fewer; total {off_total} -> {batch_total}; off "
          f"{off_elapsed:.2f}s, batch {elapsed:.2f}s)")
    # The planner must never change the result stream...
    assert emitted == off_emitted
    # ...and must actually fuse something on this workload.
    assert batch_probe > 0
    if os.environ.get("REPRO_PERF_STRICT", "") == "1":
        assert batch_total < off_total, \
            f"batched run executed {batch_total} statements vs " \
            f"{off_total} unbatched"
        assert batch_probe < off_probe, \
            f"batched run issued {batch_probe} probe-path statements " \
            f"vs {off_probe} unbatched"


def test_probe_planner_fuse(benchmark, workload):
    """One-scan-per-group compression of ``--probe-planner fuse``.

    The workload runs planner-batch and planner-fuse (workers=4, fresh
    per-task caches, same ``db.stats`` accounting as the batching
    comparison). Fuse compiles each join-skeleton group into a single
    aggregate scan (one ``COUNT(*) FILTER`` arm per probe, ``MIN``/
    ``MAX`` pairs for by-column bounds) and stages the round: fused
    column answers land first and prune refuted candidates' row probes
    before they are ever compiled. Recorded: probe-path statements and
    totals for both runs, the per-kind fused-scan count, the reduction
    ratio, and both wall-clocks. Strict mode asserts the fuse run
    issues strictly fewer ``Database.execute`` calls *and* finishes
    faster than the batched run; the candidate stream must match
    exactly either way (fused answers are the same database facts).
    """
    model, tasks = workload
    dbs = {id(db): db for _, db, _ in tasks}
    kinds = ("probe", "probe_batch", "probe_fuse")

    def probe_stmts(deltas):
        return sum(d.per_kind.get(kind, 0)
                   for d in deltas for kind in kinds)

    def total_stmts(deltas):
        return sum(d.statements for d in deltas)

    def measured(planner):
        before = {key: db.stats.snapshot() for key, db in dbs.items()}
        emitted, elapsed, _ = run_workload(workload,
                                           workers=PARALLEL_WORKERS,
                                           probe_planner=planner)
        deltas = [db.stats.delta_since(before[key])
                  for key, db in dbs.items()]
        return emitted, elapsed, deltas

    batch_emitted, batch_elapsed, batch_deltas = measured("batch")
    emitted, elapsed, fuse_deltas = run_once(
        benchmark, lambda: measured("fuse"))
    batch_probe = probe_stmts(batch_deltas)
    fuse_probe = probe_stmts(fuse_deltas)
    batch_total = total_stmts(batch_deltas)
    fuse_total = total_stmts(fuse_deltas)
    fused_scans = sum(d.per_kind.get("probe_fuse", 0)
                      for d in fuse_deltas)
    reduction = 1.0 - (fuse_probe / batch_probe) if batch_probe else 0.0
    benchmark.extra_info["probe_stmts_batch"] = batch_probe
    benchmark.extra_info["probe_stmts_fuse"] = fuse_probe
    benchmark.extra_info["stmts_batch"] = batch_total
    benchmark.extra_info["stmts_fuse"] = fuse_total
    benchmark.extra_info["fused_scans"] = fused_scans
    benchmark.extra_info["probe_stmt_reduction_vs_batch"] = \
        round(reduction, 3)
    benchmark.extra_info["batch_elapsed_s"] = round(batch_elapsed, 3)
    benchmark.extra_info["fuse_elapsed_s"] = round(elapsed, 3)
    print(f"\n[perf] fuse planner: {batch_probe} probe-path statements "
          f"batched -> {fuse_probe} fused ({100.0 * reduction:.1f}% "
          f"fewer; total {batch_total} -> {fuse_total}; {fused_scans} "
          f"single-scan groups; batch {batch_elapsed:.2f}s, fuse "
          f"{elapsed:.2f}s)")
    # Fusing must never change the result stream...
    assert emitted == batch_emitted
    # ...and must actually compile single-scan groups on this workload.
    assert fused_scans > 0
    if os.environ.get("REPRO_PERF_STRICT", "") == "1":
        assert fuse_total < batch_total, \
            f"fuse run executed {fuse_total} statements vs " \
            f"{batch_total} batched"
        assert fuse_probe < batch_probe, \
            f"fuse run issued {fuse_probe} probe-path statements vs " \
            f"{batch_probe} batched"
        assert elapsed < batch_elapsed, \
            f"fuse run ({elapsed:.2f}s) not faster than batch " \
            f"({batch_elapsed:.2f}s)"


def test_cost_order_probe_savings(benchmark, workload):
    """Probe savings of cost-ordered verification (``--cost-order``).

    Two measurements. First the full workload runs off and order at
    workers=4 (fresh per-task caches, same ``db.stats`` accounting as
    the planner comparison): ``order`` must emit the identical
    candidate count with **never more** probe-path statements — on a
    well-cached workload the two are typically equal, because executed
    probes already converge to the distinct-key union. Second, the
    savings mechanism itself is pinned under contention: order mode
    arms single-flight dedup on the shared probe cache, so N workers
    requesting the same cold probe key execute it once (the leader)
    instead of racing N duplicates. The contended round widens the race
    window (a slow probe wrapper) to make the off-mode duplicate races
    — rare and timing-dependent in the wild — deterministic and
    measurable. Recorded: probe-path statements for both workload runs
    and executed-probe counts for both contended rounds; strict mode
    asserts the contended single-flight round executes strictly fewer
    probes than the racing baseline.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.verifier import SharedProbeCache

    model, tasks = workload
    dbs = {id(db): db for _, db, _ in tasks}

    def probe_stmts(deltas):
        return sum(d.per_kind.get("probe", 0)
                   + d.per_kind.get("probe_batch", 0) for d in deltas)

    def measured(cost_order):
        before = {key: db.stats.snapshot() for key, db in dbs.items()}
        emitted, elapsed, _ = run_workload(workload,
                                           workers=PARALLEL_WORKERS,
                                           cost_order=cost_order)
        deltas = [db.stats.delta_since(before[key])
                  for key, db in dbs.items()]
        return emitted, elapsed, probe_stmts(deltas)

    off_emitted, off_elapsed, off_probe = measured("off")
    emitted, elapsed, order_probe = run_once(
        benchmark, lambda: measured("order"))

    class SlowProbeDb:
        """Delays ``exists`` so concurrent duplicate requests for one
        cold key reliably overlap the check-execute-insert window."""

        interrupt_armed = False

        def __init__(self, db, delay):
            self.db = db
            self.delay = delay
            self.execs = 0
            self._lock = threading.Lock()

        def exists(self, sql, params=()):
            with self._lock:
                self.execs += 1
            time.sleep(self.delay)
            return self.db.exists(sql, params)

    def contended_round(single_flight):
        db = SlowProbeDb(next(iter(dbs.values())), delay=0.05)
        cache = SharedProbeCache()
        if single_flight:
            cache.enable_single_flight()
        start = threading.Barrier(PARALLEL_WORKERS)

        def one_probe(_):
            start.wait()
            return cache.probe_keyed(db, "probe-key", "SELECT 1 LIMIT 1")

        with ThreadPoolExecutor(max_workers=PARALLEL_WORKERS) as pool:
            answers = list(pool.map(one_probe, range(PARALLEL_WORKERS)))
        assert answers == [True] * PARALLEL_WORKERS
        return db.execs

    racing_execs = contended_round(single_flight=False)
    deduped_execs = contended_round(single_flight=True)

    benchmark.extra_info["probe_stmts_off"] = off_probe
    benchmark.extra_info["probe_stmts_order"] = order_probe
    benchmark.extra_info["contended_execs_racing"] = racing_execs
    benchmark.extra_info["contended_execs_single_flight"] = deduped_execs
    benchmark.extra_info["workers"] = PARALLEL_WORKERS
    print(f"\n[perf] cost order: {off_probe} probe-path statements off "
          f"-> {order_probe} ordered (off {off_elapsed:.2f}s, order "
          f"{elapsed:.2f}s); contended round x{PARALLEL_WORKERS}: "
          f"{racing_execs} raced execs -> {deduped_execs} single-flight")
    # Cost ordering must never change the final answer count...
    assert emitted == off_emitted
    # ...never execute more probes than the seed scheduler...
    assert order_probe <= off_probe
    # ...and single-flight must pin the contended round to one
    # execution of the shared key (the racing baseline can only tie
    # under pathological scheduling — a >50ms stall between sibling
    # threads' cache checks).
    assert deduped_execs == 1
    assert racing_execs >= deduped_execs
    if STRICT:
        assert racing_execs > deduped_execs, \
            f"contended round raced {racing_execs} executions vs " \
            f"{deduped_execs} single-flight — no savings measured"


def test_warm_cache_speedup(benchmark, workload, tmp_path):
    """Cold-vs-warm comparison for the disk-backed probe cache.

    The workload runs once cold (fresh per-database caches, persisted
    to a store afterwards), then again warm-started from that store —
    the cross-process analogue of what two successive
    ``duoquest simulate --cache-dir`` runs do. Recorded: both run
    times, the probe-miss delta, and the warm-start hit count. Strict
    mode asserts the warm run pays zero probe misses and is no slower
    than the cold one (small slack for timer noise); the candidate
    stream must match the cold run exactly either way.
    """
    from repro.core.search.cachestore import PersistentProbeCache
    from repro.core.verifier import SharedProbeCache

    _, tasks = workload
    dbs = {id(db): db for _, db, _ in tasks}
    store = PersistentProbeCache(tmp_path)

    cold_caches = {key: SharedProbeCache() for key in dbs}
    cold_emitted, cold_elapsed, _ = run_workload(workload, workers=1,
                                                 caches=cold_caches)
    for key, db in dbs.items():
        assert store.save(db, cold_caches[key]) is not None
    cold_misses = sum(c.counters.probe_misses for c in cold_caches.values())

    warm_caches = {}
    loaded = 0
    for key, db in dbs.items():
        cache, entries = store.warm_cache(db)
        warm_caches[key] = cache
        loaded += entries
    assert loaded > 0, "nothing was persisted to warm-start from"

    emitted, elapsed, rate = run_once(
        benchmark, lambda: run_workload(workload, workers=1,
                                        caches=warm_caches))
    warm_misses = sum(c.counters.probe_misses for c in warm_caches.values())
    warm_hits = sum(c.counters.warm_start_probe_hits
                    for c in warm_caches.values())
    speedup = cold_elapsed / elapsed if elapsed > 0 else 0.0
    benchmark.extra_info["cold_elapsed_s"] = round(cold_elapsed, 3)
    benchmark.extra_info["warm_elapsed_s"] = round(elapsed, 3)
    benchmark.extra_info["speedup_vs_cold"] = round(speedup, 2)
    benchmark.extra_info["probe_misses_cold"] = cold_misses
    benchmark.extra_info["probe_misses_warm"] = warm_misses
    benchmark.extra_info["warm_start_hits"] = warm_hits
    benchmark.extra_info["store_entries_loaded"] = loaded
    print(f"\n[perf] warm cache: {emitted} candidates in {elapsed:.2f}s "
          f"(cold {cold_elapsed:.2f}s, {speedup:.2f}x; misses "
          f"{cold_misses} -> {warm_misses}, {warm_hits} warm-start hits, "
          f"{loaded} entries loaded)")
    # Warm starting must never change the result stream...
    assert emitted == cold_emitted
    assert warm_hits > 0
    assert warm_misses < cold_misses
    # ...and in strict mode it must actually eliminate the probe cost.
    if os.environ.get("REPRO_PERF_STRICT", "") == "1":
        assert warm_misses == 0, \
            f"warm run still paid {warm_misses} probe misses"
        assert elapsed <= cold_elapsed * 1.1, \
            f"warm run ({elapsed:.2f}s) slower than cold " \
            f"({cold_elapsed:.2f}s)"
