"""Command-line interface for the Duoquest reproduction.

Subcommands:

* ``duoquest demo`` — interactive-ish demo on the MAS database: takes an
  NLQ (and optional example tuple cells) and prints ranked candidates.
* ``duoquest simulate`` — run the simulation study on a synthetic Spider
  split and print the Figure 10/11 tables.
* ``duoquest user-study`` — run the simulated user studies and print the
  Figure 5-9 tables.
* ``duoquest ablate`` — run the Figure 12 ablation.
* ``duoquest serve`` — run the synthesis session daemon (NDJSON/TCP).
* ``duoquest tables`` — print the static tables (1, 3, 4).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence


def _print_fault_receipts(plan: Optional[str], leading_blank: bool = False) -> None:
    """Whole-run fault receipts (the telemetry fields are engine-window
    deltas; injections during verifier setup land outside them)."""
    if not plan:
        return
    from . import faults
    book = faults.counters()
    prefix = "\n" if leading_blank else ""
    print(f"{prefix}[faults] plan {plan!r}: "
          f"{faults.injected_total()} injected, "
          f"{sum(book['absorbed'].values())} absorbed, "
          f"{sum(book['surfaced'].values())} surfaced")


def _resolve_fault_plan(args: argparse.Namespace) -> Optional[str]:
    """The effective fault plan: ``--fault-plan`` wins over the
    ``REPRO_FAULTS`` environment variable."""
    return args.fault_plan or os.environ.get("REPRO_FAULTS") or None


def _cmd_demo(args: argparse.Namespace) -> int:
    from .core import Duoquest, EnumeratorConfig, TableSketchQuery
    from .core.search import PersistentProbeCache
    from .datasets import build_mas_database
    from .errors import ReproError
    from .guidance import LexicalGuidanceModel
    from .nlq import NLQuery
    from .sqlir import to_sql

    db = build_mas_database(seed=args.seed)
    nlq = NLQuery.from_text(args.nlq)
    tsq = None
    if args.example:
        rows = [[cell if cell != "_" else None for cell in args.example]]
        tsq = TableSketchQuery.build(rows=rows)
    try:
        config = EnumeratorConfig(time_budget=args.timeout,
                                  max_candidates=args.top,
                                  engine=args.engine,
                                  workers=args.workers,
                                  verify_backend=args.verify_backend,
                                  beam_width=args.beam_width,
                                  guidance_batch=args.guidance_batch,
                                  guidance_cache_size=args.guidance_cache_size,
                                  guidance_server=args.guidance_server,
                                  probe_planner=args.probe_planner,
                                  cost_order=args.cost_order,
                                  probe_timeout_ms=args.probe_timeout,
                                  probe_cache_entries=args.probe_cache_entries,
                                  fault_plan=_resolve_fault_plan(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = probe_cache = None
    if args.cache_dir:
        store = PersistentProbeCache(args.cache_dir)
        probe_cache, loaded = store.warm_cache(
            db, max_entries=args.probe_cache_entries)
        print(f"[cache] loaded {loaded} probe entries from "
              f"{store.path_for(db)}")
    system = Duoquest(db, model=LexicalGuidanceModel(), config=config,
                      probe_cache=probe_cache)
    try:
        result = system.synthesize(nlq, tsq)
    except ReproError as exc:
        # Surfaced failures (including exhausted fault plans) exit
        # cleanly with receipts, never a traceback.
        print(f"error: synthesis failed: {exc}", file=sys.stderr)
        _print_fault_receipts(config.fault_plan)
        return 1
    finally:
        system.close()  # releases a --guidance-server connection
    if store is not None and probe_cache is not None:
        store.save(db, probe_cache)
    print(f"{len(result.candidates)} candidates in {result.elapsed:.2f}s")
    for rank, candidate in enumerate(result.top(args.top), start=1):
        print(f"{rank:3d}. [{candidate.confidence:.4f}] "
              f"{to_sql(candidate.query)}")
    telemetry = result.telemetry
    if telemetry is not None:
        # Reason-neutral: pools degrade for several causes (no snapshot
        # support, a failed worker batch); the logged warning carries
        # the specific one.
        degraded = " (degraded to inline verification)" \
            if telemetry.snapshot_degraded else ""
        warm = f", {telemetry.warm_start_probe_hits} warm-start hits" \
            if args.cache_dir else ""
        print(f"[{telemetry.engine} x{telemetry.workers} "
              f"{telemetry.verify_backend}{degraded}] "
              f"{telemetry.expansions} expansions, "
              f"{telemetry.pruned_partial + telemetry.pruned_complete} "
              f"pruned, cache hit rate "
              f"{100.0 * telemetry.cache_hit_rate:.1f}%{warm}, "
              f"{telemetry.wall_time:.2f}s")
        if telemetry.probe_planner != "off":
            print(f"[planner] mode {telemetry.probe_planner}: "
                  f"{telemetry.probe_compiles} plans compiled, "
                  f"{telemetry.probe_plan_hits} plan hits, "
                  f"{telemetry.probe_batch_stmts} fused statements, "
                  f"{telemetry.probe_batch_fallbacks} fused fallbacks, "
                  f"{telemetry.probe_fused_groups} fused groups, "
                  f"{telemetry.probe_fuse_fallbacks} group fallbacks")
        if telemetry.cost_order != "off":
            print(f"[cost] mode {telemetry.cost_order}: "
                  f"{telemetry.cost_ordered} candidates cost-ordered, "
                  f"{telemetry.probe_timeouts} probe timeouts, "
                  f"{telemetry.cost_aborts} cost aborts")
        if args.probe_cache_entries:
            print(f"[memory] probe cache bounded at "
                  f"{args.probe_cache_entries} entries: "
                  f"{telemetry.probe_cache_entries} live, "
                  f"{telemetry.probe_cache_evictions} evicted, "
                  f"{telemetry.evicted_flushed} flushed to store")
        if telemetry.guidance_batched:
            served = " (degraded to the local model)" \
                if telemetry.guidance_degraded else ""
            print(f"[guidance] {telemetry.guide_calls} of "
                  f"{telemetry.guide_requests} requests scored in "
                  f"{telemetry.guide_batch_calls} batches, "
                  f"{telemetry.guide_hits} cache hits{served}")
        _print_fault_receipts(config.fault_plan)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .datasets import SpiderCorpusConfig, generate_corpus
    from .eval import (
        SimulationConfig,
        fig10_report,
        fig11_report,
        run_cost_order_audit,
        run_simulation,
        search_report,
    )

    corpus = generate_corpus(args.split, SpiderCorpusConfig(
        num_databases=args.databases, tasks_per_database=args.tasks,
        seed=args.seed))
    print(corpus)
    try:
        sim_config = SimulationConfig(
            timeout=args.timeout, engine=args.engine, workers=args.workers,
            verify_backend=args.verify_backend,
            beam_width=args.beam_width, cache_dir=args.cache_dir,
            guidance_batch=args.guidance_batch,
            guidance_cache_size=args.guidance_cache_size,
            guidance_server=args.guidance_server,
            probe_planner=args.probe_planner,
            cost_order=args.cost_order,
            probe_timeout_ms=args.probe_timeout,
            probe_cache_entries=args.probe_cache_entries,
            fault_plan=_resolve_fault_plan(args))
        sim_config.enumerator_config()  # validate the combination early
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from .errors import ReproError
    try:
        records = run_simulation(corpus, config=sim_config)
    except ReproError as exc:
        # Surfaced failures (including exhausted fault plans) exit
        # cleanly with receipts, never a traceback.
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        _print_fault_receipts(sim_config.fault_plan)
        return 1
    print(fig10_report(records, args.split))
    print()
    print(fig11_report(records, args.split))
    print()
    print(search_report(records))
    if args.cache_dir:
        warm = sum(r.telemetry.get("warm_start_probe_hits", 0)
                   for r in records if r.telemetry is not None)
        print(f"\n[cache] warm-start probe hits: {warm} "
              f"(store: {args.cache_dir})")
    gpqe = [r.telemetry for r in records if r.telemetry is not None]
    if sim_config.probe_planner != "off":
        plan_hits = sum(t.get("probe_plan_hits", 0) for t in gpqe)
        compiles = sum(t.get("probe_compiles", 0) for t in gpqe)
        fused = sum(t.get("probe_batch_stmts", 0) for t in gpqe)
        fallbacks = sum(t.get("probe_batch_fallbacks", 0) for t in gpqe)
        fused_groups = sum(t.get("probe_fused_groups", 0) for t in gpqe)
        group_falls = sum(t.get("probe_fuse_fallbacks", 0) for t in gpqe)
        # Pool degrades are not a planner metric, but a degraded pool
        # runs the planner's prefetch inline, so the smoke gate watches
        # both alongside the planner's own fused-statement fallbacks.
        degraded = sum(1 for t in gpqe if t.get("snapshot_degraded"))
        print(f"\n[planner] mode {sim_config.probe_planner}: probe plan "
              f"hits: {plan_hits}, {compiles} plans compiled, {fused} "
              f"fused statements, {fallbacks} fused fallbacks, "
              f"{fused_groups} fused groups, {group_falls} group "
              f"fallbacks, {degraded} degraded tasks")
    if sim_config.cost_order != "off":
        # The audit re-runs the corpus under "off" and under the chosen
        # mode, so the printed contract lines are self-contained (the
        # cost-order CI smoke greps them).
        audit = run_cost_order_audit(corpus, config=sim_config,
                                     mode=sim_config.cost_order)
        match = "identical" if audit["answers_match"] else \
            f"DIFFER on {', '.join(audit['answer_mismatches'])}"
        print(f"\n[cost] mode {audit['mode']}: "
              f"{audit['cost_ordered']} candidates cost-ordered, "
              f"{audit['probe_timeouts']} probe timeouts, "
              f"{audit['cost_aborts']} cost aborts")
        print(f"[cost] answer sets: {match} across {audit['tasks']} tasks")
        print(f"[cost] executed probes: {audit['probes_off']} off -> "
              f"{audit['probes_cost']} {audit['mode']}")
        print(f"[cost] top-10 gold hits: {audit['top10_off']} off -> "
              f"{audit['top10_cost']} {audit['mode']} "
              f"(accuracy delta {audit['accuracy_delta']:+d})")
    if sim_config.probe_cache_entries:
        evictions = sum(t.get("probe_cache_evictions", 0) for t in gpqe)
        flushed = sum(t.get("evicted_flushed", 0) for t in gpqe)
        peak = max((t.get("probe_cache_entries", 0) for t in gpqe),
                   default=0)
        print(f"\n[memory] probe cache bounded at "
              f"{sim_config.probe_cache_entries} entries: peak {peak} "
              f"live, {evictions} evicted, {flushed} flushed to store")
    if sim_config.guidance_batch or sim_config.guidance_server:
        scored = sum(t.get("guide_calls", 0) for t in gpqe)
        requests = sum(t.get("guide_requests", 0) for t in gpqe)
        cache_hits = sum(t.get("guide_hits", 0) for t in gpqe)
        degraded = sum(1 for t in gpqe if t.get("guidance_degraded"))
        print(f"\n[guidance] {scored} of {requests} requests scored, "
              f"{cache_hits} cache hits, {degraded} degraded tasks")
    _print_fault_receipts(sim_config.fault_plan, leading_blank=True)
    return 0


def _cmd_user_study(args: argparse.Namespace) -> int:
    from .datasets import (
        build_mas_database,
        nli_study_tasks,
        pbe_study_tasks,
    )
    from .eval import (
        UserStudyConfig,
        run_nli_user_study,
        run_pbe_user_study,
        user_study_examples_report,
        user_study_success_report,
        user_study_time_report,
    )

    db = build_mas_database(seed=args.seed)
    config = UserStudyConfig(seed=args.seed, cohort_size=args.users)
    trials = run_nli_user_study(db, nli_study_tasks(db), config)
    print(user_study_success_report(trials, ("NLI", "Duoquest"),
                                    "Figure 5: % successful trials"))
    print()
    print(user_study_time_report(trials, ("NLI", "Duoquest"),
                                 "Figure 6: mean trial time (successful)"))
    print()
    ptrials = run_pbe_user_study(db, pbe_study_tasks(db), config)
    print(user_study_success_report(ptrials, ("PBE", "Duoquest"),
                                    "Figure 7: % successful trials"))
    print()
    print(user_study_time_report(ptrials, ("PBE", "Duoquest"),
                                 "Figure 8: mean trial time (successful)"))
    print()
    print(user_study_examples_report(ptrials, ("PBE", "Duoquest"),
                                     "Figure 9: mean # examples"))
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    from .datasets import SpiderCorpusConfig, generate_corpus
    from .eval import SimulationConfig, fig12_report, run_ablations

    corpus = generate_corpus("dev", SpiderCorpusConfig(
        num_databases=args.databases, tasks_per_database=args.tasks,
        seed=args.seed))
    records = run_ablations(corpus,
                            config=SimulationConfig(timeout=args.timeout))
    grid = [args.timeout * f for f in (0.05, 0.1, 0.25, 0.5, 0.75, 1.0)]
    print(fig12_report(records, grid))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .core.enumerator import EnumeratorConfig
    from .datasets import (
        SpiderCorpusConfig,
        build_mas_database,
        generate_corpus,
    )
    from .serve import SynthesisDaemon
    from .serve.protocol import parse_address

    try:
        host, port = parse_address(args.address)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    databases = {"mas": build_mas_database(seed=args.seed)}
    if args.databases:
        corpus = generate_corpus("dev", SpiderCorpusConfig(
            num_databases=args.databases, tasks_per_database=1,
            seed=args.seed))
        databases.update(corpus.databases)
    try:
        # Guidance batching is always on under the daemon: the shared
        # distribution cache is one of the resources it exists to own
        # (and the wrapper never changes candidate streams).
        config = EnumeratorConfig(time_budget=args.timeout,
                                  max_candidates=args.top,
                                  engine=args.engine,
                                  workers=args.workers,
                                  verify_backend=args.verify_backend,
                                  beam_width=args.beam_width,
                                  guidance_batch=True,
                                  guidance_cache_size=args.guidance_cache_size,
                                  guidance_server=args.guidance_server,
                                  probe_planner=args.probe_planner,
                                  cost_order=args.cost_order,
                                  probe_timeout_ms=args.probe_timeout,
                                  probe_cache_entries=args.probe_cache_entries,
                                  fault_plan=_resolve_fault_plan(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.fault_plan:
        print(f"[faults] injecting with plan {config.fault_plan!r}",
              flush=True)
    daemon = SynthesisDaemon(
        databases, config=config, cache_dir=args.cache_dir,
        max_concurrent=args.max_concurrent,
        session_max_candidates=args.session_max_candidates,
        session_max_probes=args.session_max_probes)
    try:
        asyncio.run(daemon.serve(host, port))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .core.semantics import DEFAULT_RULES
    from .eval import table1_report, table3_report
    from .eval.metrics import format_table

    print(table1_report())
    print()
    print(table3_report())
    print()
    rows = [(rule.name, rule.description) for rule in DEFAULT_RULES]
    print("Table 4: semantic pruning rules\n"
          + format_table(("Rule", "Description"), rows))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {value})")
    return value


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Search-engine selection flags shared by the GPQE subcommands."""
    from .core import (
        COST_ORDER_MODES,
        ENGINES,
        PROBE_PLANNER_MODES,
        VERIFY_BACKENDS,
    )

    parser.add_argument("--engine", choices=ENGINES, default="best-first",
                        help="search strategy (default: best-first, which "
                             "reproduces the paper's Algorithm 1 exactly)")
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="verification workers (default: 1 = inline; "
                             "values below 1 are rejected)")
    parser.add_argument("--verify-backend", dest="verify_backend",
                        choices=VERIFY_BACKENDS, default="threads",
                        help="verification pool backend (default: threads, "
                             "which verifies on --workers threads; "
                             "'inline' requires --workers 1)")
    parser.add_argument("--beam-width", type=_positive_int, default=16,
                        help="frontier width for the beam engines "
                             "(default: 16)")
    parser.add_argument("--cache-dir", dest="cache_dir", default=None,
                        help="directory for the disk-backed probe-cache "
                             "store; repeated runs on the same database "
                             "warm-start from it (keyed by database "
                             "content hash, stale entries invalidated "
                             "automatically)")
    parser.add_argument("--probe-planner", dest="probe_planner",
                        choices=PROBE_PLANNER_MODES, default="off",
                        help="canonical probe planner: 'plan' compiles "
                             "verifier probes into shared parameterised "
                             "plans (one prepared statement and one "
                             "cache entry per probe structure), 'batch' "
                             "additionally fuses each round's sibling "
                             "probes into multi-probe UNION ALL "
                             "statements, 'fuse' compiles each group "
                             "into one single-scan aggregate statement "
                             "and stages row probes after the by-column "
                             "answers; never changes the candidate "
                             "stream (PlanHit/FuseGrp telemetry columns)")
    parser.add_argument("--cost-order", dest="cost_order",
                        choices=COST_ORDER_MODES, default="off",
                        help="cost-aware verification scheduling: 'order' "
                             "verifies each round cheapest-first (same "
                             "final answer set, never more executed "
                             "probes), 'abort' additionally defers "
                             "costlier siblings once a cheaper candidate "
                             "times out (the only mode allowed to change "
                             "answers; CostAbort telemetry column). "
                             "Default: off (seed-identical stream)")
    parser.add_argument("--probe-timeout", dest="probe_timeout",
                        type=_positive_int, default=None, metavar="MS",
                        help="per-candidate probe budget in milliseconds; "
                             "a timed-out probe is inconclusive (the "
                             "candidate survives the stage) and feeds the "
                             "--cost-order abort cascade")
    parser.add_argument("--probe-cache-entries", dest="probe_cache_entries",
                        type=_positive_int, default=None, metavar="N",
                        help="LRU bound on each shared probe cache's "
                             "entry count (default: unbounded); never "
                             "changes results — an evicted entry costs a "
                             "re-probe, and with --cache-dir it flushes "
                             "to the disk store first, so bounded caches "
                             "still warm-start (Evict/Flushed telemetry "
                             "columns)")
    parser.add_argument("--guidance-batch", dest="guidance_batch",
                        action="store_true",
                        help="deduplicate and cache guidance decisions "
                             "behind the round-level score_batch seam; "
                             "never changes the candidate stream "
                             "(GuideCalls/GuideHits telemetry columns)")
    parser.add_argument("--guidance-cache-size", dest="guidance_cache_size",
                        type=_positive_int, default=4096,
                        help="bound (entries) for the guidance "
                             "distribution cache (default: 4096)")
    parser.add_argument("--guidance-server", dest="guidance_server",
                        default=None, metavar="HOST:PORT",
                        help="score guidance batches on an out-of-process "
                             "scorer (see examples/guidance_server.py); "
                             "implies --guidance-batch, and degrades "
                             "visibly to the local model if the server "
                             "fails")
    parser.add_argument("--fault-plan", dest="fault_plan",
                        default=None, metavar="SPEC",
                        help="deterministic fault injection for chaos "
                             "testing: ';'-separated rules of the form "
                             "point:mode[:key=value,...] plus an optional "
                             "seed=N item (e.g. 'seed=7;db.execute:locked:"
                             "rate=0.05'); every injected fault is counted "
                             "and either retried or surfaced as a visible "
                             "degrade (falls back to the REPRO_FAULTS "
                             "environment variable; default: disabled)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duoquest",
        description="Duoquest dual-specification SQL synthesis "
                    "(SIGMOD 2020 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="synthesize on the MAS database")
    demo.add_argument("nlq", help="natural language query; quote literals")
    demo.add_argument("--example", nargs="*", default=None,
                      help="one example tuple, cells separated by spaces "
                           "('_' = empty cell)")
    demo.add_argument("--top", type=int, default=10)
    demo.add_argument("--timeout", type=float, default=15.0)
    demo.add_argument("--seed", type=int, default=0)
    _add_engine_flags(demo)
    demo.set_defaults(func=_cmd_demo)

    simulate = sub.add_parser("simulate", help="run the simulation study")
    simulate.add_argument("--split", choices=("dev", "test"), default="dev")
    simulate.add_argument("--databases", type=int, default=10)
    simulate.add_argument("--tasks", type=int, default=8)
    simulate.add_argument("--timeout", type=float, default=8.0)
    simulate.add_argument("--seed", type=int, default=0)
    _add_engine_flags(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    study = sub.add_parser("user-study", help="run the user studies")
    study.add_argument("--users", type=int, default=16)
    study.add_argument("--seed", type=int, default=0)
    study.set_defaults(func=_cmd_user_study)

    ablate = sub.add_parser("ablate", help="run the Figure 12 ablation")
    ablate.add_argument("--databases", type=int, default=8)
    ablate.add_argument("--tasks", type=int, default=6)
    ablate.add_argument("--timeout", type=float, default=8.0)
    ablate.add_argument("--seed", type=int, default=0)
    ablate.set_defaults(func=_cmd_ablate)

    serve = sub.add_parser(
        "serve", help="run the synthesis session daemon (NDJSON/TCP)")
    serve.add_argument("address",
                       help="HOST:PORT to listen on (port 0 picks one)")
    serve.add_argument("--databases", type=int, default=2,
                       help="synthetic Spider databases to serve "
                            "alongside MAS")
    serve.add_argument("--top", type=int, default=200,
                       help="candidate cap per enumeration round")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="time budget per enumeration round (s)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--max-concurrent", dest="max_concurrent",
                       type=_positive_int, default=4,
                       help="admission bound on concurrent enumerations")
    serve.add_argument("--session-max-candidates",
                       dest="session_max_candidates", type=_positive_int,
                       default=None,
                       help="default per-session candidate budget "
                            "(cumulative across rounds)")
    serve.add_argument("--session-max-probes",
                       dest="session_max_probes", type=_positive_int,
                       default=None,
                       help="default per-session executed-probe budget")
    _add_engine_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    tables = sub.add_parser("tables", help="print the static tables")
    tables.set_defaults(func=_cmd_tables)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
