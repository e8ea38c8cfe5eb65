"""Per-stage search telemetry.

One :class:`SearchTelemetry` instance accompanies each search run and is
surfaced on :class:`~repro.core.duoquest.SynthesisResult`; the eval
layer aggregates and formats it (``repro.eval.reports.search_report``).
The counter families the engine folds in per run
(:class:`~repro.counters.Counters` subclasses of the probe cache, the
probe planner and the guidance wrapper) name their fields after the
telemetry fields below, so :meth:`SearchTelemetry.record` copies a
family's delta without restating a single counter.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict

from ...counters import Counters


@dataclass
class SearchTelemetry:
    """Counters describing one search run, stage by stage."""

    engine: str = "best-first"
    workers: int = 1
    #: verification backend that ran: "threads" when the lease verified
    #: on more than one worker, "inline" otherwise (a degrade included)
    verify_backend: str = "inline"
    #: True when the verification pool fell back to inline verification
    #: (no sqlite snapshot support, a failed worker batch, a closed or
    #: unavailable pool)
    snapshot_degraded: bool = False
    wall_time: float = 0.0
    #: states expanded (one guidance decision each)
    expansions: int = 0
    #: children generated across all expansions
    generated: int = 0
    #: candidates emitted
    emitted: int = 0
    #: complete queries dropped as duplicate signatures
    duplicates: int = 0
    #: partial states pruned by the verifier cascade
    pruned_partial: int = 0
    #: complete states rejected by the verifier cascade
    pruned_complete: int = 0
    #: prune counts per verifier stage name
    prunes_by_stage: Dict[str, int] = field(default_factory=dict)
    #: states dropped by beam truncation (0 for best-first)
    beam_dropped: int = 0
    #: guidance decisions scored / batches issued
    guidance_calls: int = 0
    guidance_batches: int = 0
    #: True when a guidance server degraded to the local fallback model
    guidance_degraded: bool = False
    #: guidance requests entering the batching layer this run
    guide_requests: int = 0
    #: requests the underlying model actually scored (the GuideCalls
    #: column)
    guide_calls: int = 0
    #: requests answered from the guidance distribution cache (the
    #: GuideHits column)
    guide_hits: int = 0
    #: underlying-model invocations (batched round trips); strictly
    #: smaller than guide_requests whenever a round scored more than
    #: one decision
    guide_batch_calls: int = 0
    #: speculative batch rounds cut short because a fresh child outranked
    #: the rest of the batch (the push-back that keeps ranking exact)
    pushbacks: int = 0
    #: shared probe cache counters accrued by this run (deltas, so a
    #: cache shared across tasks does not leak earlier tasks' counts)
    probe_hits: int = 0
    probe_misses: int = 0
    #: probe hits served from entries cached by an *earlier* enumeration
    #: on the same database (nonzero only with a shared cross-task cache)
    cross_task_probe_hits: int = 0
    #: probe hits served from entries loaded from a persisted cache
    #: store — an earlier *process* (nonzero only with a cache_dir
    #: warm start); disjoint from cross_task_probe_hits
    warm_start_probe_hits: int = 0
    #: live probe + minmax entries in the shared cache when this run
    #: ended (a level, not a delta — the bound-watching number)
    probe_cache_entries: int = 0
    #: cache entries evicted by the LRU bound during this run (a delta;
    #: nonzero only with probe_cache_entries / --probe-cache-entries)
    probe_cache_evictions: int = 0
    #: evicted entries persisted to the cache store during this run
    #: (a delta; nonzero only with a bounded cache *and* a cache_dir)
    evicted_flushed: int = 0
    #: True when verification ran on a warm pool leased from a
    #: PoolManager (no worker spawn, no snapshot rehydration)
    pool_reused: bool = False
    #: probe-planner mode for this run ("off", "plan", "batch", "fuse")
    probe_planner: str = "off"
    #: unique probe structures compiled to parameterised plans this run
    probe_compiles: int = 0
    #: probes served by an already-compiled plan (the PlanHit column)
    probe_plan_hits: int = 0
    #: fused multi-probe statements executed by round batching
    probe_batch_stmts: int = 0
    #: fused statements that failed and fell back to individual probes
    #: (nonzero means round batching is degrading on this workload)
    probe_batch_fallbacks: int = 0
    #: grouped single-scan statements executed by the fuse mode (the
    #: FuseGrp column; nonzero only with probe_planner=fuse)
    probe_fused_groups: int = 0
    #: fused group scans that failed and degraded to UNION ALL fusion
    #: (nonzero means one-scan grouping is degrading on this workload)
    probe_fuse_fallbacks: int = 0
    #: successful guidance-server reconnects after a failure
    guidance_reconnects: int = 0
    #: fault-injection draws that fired during this run (0 unless a
    #: fault plan is installed; see :mod:`repro.faults`)
    faults_injected: int = 0
    #: transient probe-execution failures absorbed by the database
    #: retry policy during this run
    transient_retries: int = 0
    #: cost-order mode for this run ("off", "order", or "abort")
    cost_order: str = "off"
    #: verification jobs dispatched in cost order (0 when cost_order=off)
    cost_ordered: int = 0
    #: probes / full checks that hit their execution budget this run
    probe_timeouts: int = 0
    #: candidates abandoned by cost-propagated early abort (the
    #: CostAbort column; nonzero only with cost_order=abort)
    cost_aborts: int = 0
    #: True when the run stopped because its cooperative
    #: :class:`~repro.core.search.engine.CancelToken` fired (session
    #: cancel or an exhausted per-session probe budget) — distinct from
    #: hitting max_expansions or the time budget
    cancelled: bool = False
    #: the token's reason string at the moment the engine observed it
    #: ("" when the run was not cancelled)
    cancel_reason: str = ""

    def record_prune(self, stage: str, partial: bool) -> None:
        if partial:
            self.pruned_partial += 1
        else:
            self.pruned_complete += 1
        self.prunes_by_stage[stage] = self.prunes_by_stage.get(stage, 0) + 1

    @property
    def cache_hit_rate(self) -> float:
        total = self.probe_hits + self.probe_misses
        return self.probe_hits / total if total else 0.0

    @property
    def candidates_per_second(self) -> float:
        return self.emitted / self.wall_time if self.wall_time > 0 else 0.0

    def record(self, delta: Counters) -> None:
        """Set the fields named like ``delta``'s to its counts."""
        for name, value in delta.as_dict().items():
            setattr(self, name, value)

    def as_dict(self) -> Dict[str, object]:
        return dict(asdict(self), cache_hit_rate=self.cache_hit_rate)
