"""Report printers: regenerate every table and figure of the paper.

Each ``*_report`` function takes the records produced by
:mod:`repro.eval.harness` and returns the corresponding table as a
formatted string (the CLI prints these; benchmarks record them). The
mapping to the paper:

* :func:`table1_report` — system capability matrix (Table 1)
* :func:`table3_report` — guidance modules (Table 3)
* :func:`table5_report` — dataset statistics (Table 5)
* :func:`table6_report` — accuracy by TSQ detail level (Table 6)
* :func:`user_study_success_report` / :func:`user_study_time_report` /
  :func:`user_study_examples_report` — the user studies (Figures 5-9)
* :func:`fig10_report` / :func:`fig11_report` — simulation accuracy,
  overall and by difficulty (Figures 10/11)
* :func:`fig12_report` — the GPQE ablation completion curves (Figure 12)

:func:`search_report` is the one non-paper table: per-stage engine
telemetry, including the cache-reuse columns (``XTaskHit`` for
within-run cross-task hits, ``WarmStart`` for disk-backed warm starts).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..datasets.tasks import Difficulty, TaskSet
from ..guidance.modules import MODULES
from ..interaction.simulated_user import TrialRecord
from .metrics import (
    SimTaskRecord,
    completion_curve,
    correct_counts,
    format_table,
    mean,
    pct,
    std_error,
    top_k_accuracy,
    unsupported_counts,
)

# ----------------------------------------------------------------------
# Table 1 — capability matrix
# ----------------------------------------------------------------------
#: (system, soundness, join, selection, grouping, NS, PT, OW)
CAPABILITY_MATRIX: Tuple[Tuple[str, str, str, str, str, str, str, str], ...] = (
    ("NLIs",     " ", "y", "y", "y", "y", "-", "-"),
    ("QBE",      "y", "y", "y", " ", " ", "y", "y"),
    ("MWeaver",  "y", "y", " ", " ", "y", "y", " "),
    ("S4",       "y", "y", " ", " ", "y", "y", "y"),
    ("SQuID",    "y", "y", "y", "y", "y", "y", "y"),
    ("TALOS",    "y", "y", "y", "y", " ", " ", "y"),
    ("QFE",      "y", "y", "y", " ", " ", " ", " "),
    ("PALEO",    "y", " ", "y", "y", " ", " ", " "),
    ("Scythe",   "y", "y", "y", "y", " ", " ", " "),
    ("REGAL+",   "y", "y", "y", "y", "y", " ", " "),
    ("Duoquest", "y", "y", "y", "y", "y", "y", "y"),
)


def table1_report() -> str:
    """Table 1: which related systems support which query features."""
    headers = ("System", "Soundness", "Join", "Sel", "Group", "NS", "PT",
               "OW")
    return ("Table 1: system capabilities (y = supported)\n"
            + format_table(headers, CAPABILITY_MATRIX))


# ----------------------------------------------------------------------
# Table 3 — guidance modules
# ----------------------------------------------------------------------
def table3_report() -> str:
    """Table 3: the guidance modules and their GuidanceModel methods."""
    rows = [(m.name, m.responsibility, m.output, m.method) for m in MODULES]
    return ("Table 3: guidance modules\n"
            + format_table(("Module", "Responsibility", "Output",
                            "GuidanceModel method"), rows))


# ----------------------------------------------------------------------
# Table 5 — dataset statistics
# ----------------------------------------------------------------------
def table5_report(task_sets: Sequence[TaskSet]) -> str:
    """Table 5: per-dataset task counts and schema statistics."""
    rows = []
    for task_set in task_sets:
        counts = task_set.counts()
        tables, columns, fks = task_set.schema_stats()
        rows.append((task_set.name, len(task_set.databases),
                     counts[Difficulty.EASY], counts[Difficulty.MEDIUM],
                     counts[Difficulty.HARD], len(task_set),
                     f"{tables:.1f}", f"{columns:.1f}", f"{fks:.1f}"))
    headers = ("Dataset", "DBs", "Easy", "Med", "Hard", "Total",
               "Tables", "Columns", "FK-PK")
    return "Table 5: datasets\n" + format_table(headers, rows)


# ----------------------------------------------------------------------
# Figures 5-9 — user studies
# ----------------------------------------------------------------------
def _trials_by(trials: Sequence[TrialRecord]
               ) -> Dict[Tuple[str, str], List[TrialRecord]]:
    grouped: Dict[Tuple[str, str], List[TrialRecord]] = defaultdict(list)
    for trial in trials:
        grouped[(trial.task_id, trial.system)].append(trial)
    return grouped


def user_study_success_report(trials: Sequence[TrialRecord],
                              systems: Sequence[str],
                              title: str) -> str:
    """Figures 5 and 7: % successful trials per task and system."""
    grouped = _trials_by(trials)
    task_ids = sorted({t.task_id for t in trials})
    rows = []
    for task_id in task_ids:
        row: List[object] = [task_id]
        for system in systems:
            bucket = grouped.get((task_id, system), [])
            if bucket:
                rate = 100.0 * sum(t.success for t in bucket) / len(bucket)
                row.append(f"{rate:.0f}%")
            else:
                row.append("-")
        rows.append(tuple(row))
    overall: List[object] = ["ALL"]
    for system in systems:
        bucket = [t for t in trials if t.system == system]
        rate = 100.0 * sum(t.success for t in bucket) / len(bucket) \
            if bucket else 0.0
        overall.append(f"{rate:.0f}%")
    rows.append(tuple(overall))
    return title + "\n" + format_table(("Task", *systems), rows)


def user_study_time_report(trials: Sequence[TrialRecord],
                           systems: Sequence[str], title: str) -> str:
    """Figures 6 and 8: mean time per task for successful trials."""
    grouped = _trials_by(trials)
    task_ids = sorted({t.task_id for t in trials})
    rows = []
    for task_id in task_ids:
        row: List[object] = [task_id]
        for system in systems:
            good = [t.duration for t in grouped.get((task_id, system), [])
                    if t.success]
            if good:
                row.append(f"{mean(good):.0f}s +-{std_error(good):.0f}")
            else:
                row.append("-")
        rows.append(tuple(row))
    return title + "\n" + format_table(("Task", *systems), rows)


def user_study_examples_report(trials: Sequence[TrialRecord],
                               systems: Sequence[str], title: str) -> str:
    """Figure 9: mean # examples per task for successful trials."""
    grouped = _trials_by(trials)
    task_ids = sorted({t.task_id for t in trials})
    rows = []
    for task_id in task_ids:
        row: List[object] = [task_id]
        for system in systems:
            good = [t.num_examples
                    for t in grouped.get((task_id, system), [])
                    if t.success]
            row.append(f"{mean(good):.1f}" if good else "-")
        rows.append(tuple(row))
    return title + "\n" + format_table(("Task", *systems), rows)


# ----------------------------------------------------------------------
# Figure 10 — simulation accuracy
# ----------------------------------------------------------------------
def fig10_report(records: Sequence[SimTaskRecord], split: str) -> str:
    """Figure 10: top-k accuracy per system (correct/unsupported for
    the PBE baseline, which returns one query or none)."""
    rows = []
    for system in ("Duoquest", "NLI"):
        bucket = [r for r in records if r.system == system]
        if not bucket:
            continue
        top1_n, top1_p = top_k_accuracy(bucket, 1)
        top10_n, top10_p = top_k_accuracy(bucket, 10)
        rows.append((system, top1_n, pct(top1_p), top10_n, pct(top10_p),
                     "-", "-", 0, "0.0"))
    pbe = [r for r in records if r.system == "PBE"]
    if pbe:
        correct_n, correct_p = correct_counts(pbe)
        unsupported_n, unsupported_p = unsupported_counts(pbe)
        rows.append(("PBE", "-", "-", "-", "-", correct_n, pct(correct_p),
                     unsupported_n, pct(unsupported_p)))
    total = len({r.task_id for r in records})
    headers = ("System", "Top1#", "Top1%", "Top10#", "Top10%", "Corr#",
               "Corr%", "Unsupp#", "Unsupp%")
    return (f"Figure 10 ({split}, {total} tasks)\n"
            + format_table(headers, rows))


# ----------------------------------------------------------------------
# Figure 11 — breakdown by difficulty
# ----------------------------------------------------------------------
def fig11_report(records: Sequence[SimTaskRecord], split: str) -> str:
    """Figure 11: the Figure 10 metrics broken down by task difficulty."""
    rows = []
    difficulties = ("easy", "medium", "hard")
    for system in ("Duoquest", "NLI", "PBE"):
        row: List[object] = [system]
        for difficulty in difficulties:
            bucket = [r for r in records
                      if r.system == system and r.difficulty == difficulty]
            if not bucket:
                row.extend(("-", "-", "-"))
                continue
            if system == "PBE":
                hits, proportion = correct_counts(bucket)
                unsupported_n, _ = unsupported_counts(bucket)
            else:
                hits, proportion = top_k_accuracy(bucket, 10)
                unsupported_n = 0
            row.extend((hits, pct(proportion), unsupported_n))
        rows.append(tuple(row))
    headers = ("System",
               "E#", "E%", "EU#", "M#", "M%", "MU#", "H#", "H%", "HU#")
    return (f"Figure 11 ({split}; top-10 for Dq/NLI, correct for PBE)\n"
            + format_table(headers, rows))


# ----------------------------------------------------------------------
# Figure 12 — ablations
# ----------------------------------------------------------------------
def fig12_report(records: Sequence[SimTaskRecord],
                 grid: Sequence[float]) -> str:
    """Figure 12: % of tasks solved by time t, per GPQE ablation."""
    rows = []
    for variant in ("Duoquest", "NoPQ", "NoGuide"):
        bucket = [r for r in records if r.system == variant]
        if not bucket:
            continue
        curve = completion_curve(bucket, grid)
        rows.append((variant, *(f"{v:.1f}" for v in curve)))
    headers = ("Variant", *(f"t={g:g}s" for g in grid))
    return ("Figure 12: % tasks whose gold query was synthesized by time t\n"
            + format_table(headers, rows))


# ----------------------------------------------------------------------
# Search telemetry (per-stage engine instrumentation, not a paper table)
# ----------------------------------------------------------------------
def search_report(records: Sequence[SimTaskRecord],
                  title: str = "Search telemetry") -> str:
    """Aggregate per-stage search telemetry across GPQE task records.

    One row per (system, engine, verify backend, workers) group:
    expansions, states generated, candidates emitted, prunes per
    verifier stage, probe cache hit rate, cache-reuse counters, guidance
    batching ratio, and wall time. The two reuse columns split where
    cached probe answers came from: ``XTaskHit`` counts hits on entries
    cached by *earlier* tasks of the same run (PR 2's cross-task
    sharing), ``WarmStart`` hits on entries loaded from a ``--cache-dir``
    disk store — an earlier *process* entirely. ``PlanHit`` counts
    probes served by an already-compiled parameterised plan when the
    probe planner is on (``--probe-planner plan|batch|fuse``; 0
    otherwise); ``FuseGrp`` counts the grouped single-scan statements
    the ``fuse`` mode executed (0 in every other mode).
    ``CostAbort`` counts candidates deferred by the cost-propagated
    abort cascade (``--cost-order abort``; 0 in every other mode).
    The three memory columns watch the bounded-cache mode
    (``--probe-cache-entries``; all 0/level-only when unbounded):
    ``CacheEnt`` is the *largest* end-of-run entry count any task in the
    group observed — a level, which is what proves the bound holds —
    while ``Evict`` and ``Flushed`` total the entries the LRU bound
    dropped and the evicted entries persisted to the ``--cache-dir``
    store. The two guidance columns
    measure the batching layer every model runs behind: ``GuideCalls``
    is what the underlying model actually scored, ``GuideHits`` what
    the distribution cache answered instead.
    """
    grouped: Dict[Tuple[str, str, str, int], List[Dict[str, object]]] = \
        defaultdict(list)
    for record in records:
        if record.telemetry is None:
            continue
        key = (record.system, str(record.telemetry.get("engine", "?")),
               str(record.telemetry.get("verify_backend", "inline")),
               int(record.telemetry.get("workers", 1)))
        grouped[key].append(record.telemetry)

    stage_names: List[str] = []
    for bucket in grouped.values():
        for telemetry in bucket:
            for stage in telemetry.get("prunes_by_stage", {}):
                if stage not in stage_names:
                    stage_names.append(stage)
    stage_names.sort()

    rows = []
    for (system, engine, backend, workers), bucket in \
            sorted(grouped.items()):
        def total(field: str) -> int:
            return sum(int(t.get(field, 0)) for t in bucket)

        hits, misses = total("probe_hits"), total("probe_misses")
        probes = hits + misses
        cross = total("cross_task_probe_hits")
        warm = total("warm_start_probe_hits")
        plan_hits = total("probe_plan_hits")
        fused_groups = total("probe_fused_groups")
        cost_aborts = total("cost_aborts")
        cache_entries = max(
            (int(t.get("probe_cache_entries", 0)) for t in bucket),
            default=0)
        evictions = total("probe_cache_evictions")
        evicted_flushed = total("evicted_flushed")
        calls, batches = total("guidance_calls"), total("guidance_batches")
        guide_calls = total("guide_calls")
        guide_hits = total("guide_hits")
        wall = sum(float(t.get("wall_time", 0.0)) for t in bucket)
        row: List[object] = [
            system, engine, backend, workers, total("expansions"),
            total("generated"), total("emitted"),
            f"{100.0 * hits / probes:.1f}%" if probes else "-",
            cross,
            warm,
            plan_hits,
            fused_groups,
            cost_aborts,
            cache_entries,
            evictions,
            evicted_flushed,
            f"{calls / batches:.1f}" if batches else "-",
            guide_calls,
            guide_hits,
            f"{wall:.2f}s",
        ]
        for stage in stage_names:
            row.append(sum(int(t.get("prunes_by_stage", {}).get(stage, 0))
                           for t in bucket))
        rows.append(tuple(row))

    headers = ("System", "Engine", "Verify", "W", "Expand", "Gen", "Emit",
               "Cache%", "XTaskHit", "WarmStart", "PlanHit", "FuseGrp",
               "CostAbort", "CacheEnt", "Evict", "Flushed",
               "Calls/Batch",
               "GuideCalls", "GuideHits", "Wall",
               *(f"prune:{s}" for s in stage_names))
    return title + "\n" + format_table(headers, rows)


# ----------------------------------------------------------------------
# Table 6 — TSQ detail sweep
# ----------------------------------------------------------------------
def table6_report(detail_records: Sequence[SimTaskRecord],
                  nli_records: Sequence[SimTaskRecord],
                  split: str) -> str:
    """Table 6: accuracy as the TSQ detail level varies (vs. NLI)."""
    rows = []
    for detail in ("full", "partial", "minimal"):
        bucket = [r for r in detail_records if r.detail == detail]
        if not bucket:
            continue
        row = (detail.capitalize(),
               pct(top_k_accuracy(bucket, 1)[1]),
               pct(top_k_accuracy(bucket, 10)[1]),
               pct(top_k_accuracy(bucket, 100)[1]))
        rows.append(row)
    nli = [r for r in nli_records if r.system == "NLI"]
    if nli:
        rows.append(("NLI",
                     pct(top_k_accuracy(nli, 1)[1]),
                     pct(top_k_accuracy(nli, 10)[1]),
                     pct(top_k_accuracy(nli, 100)[1])))
    headers = ("Detail", "Top-1", "Top-10", "Top-100")
    return (f"Table 6 ({split}): accuracy by TSQ detail\n"
            + format_table(headers, rows))
