"""Experiment harness: runs the paper's evaluations end to end.

Covers the simulation study (Figures 10-12, Table 6) and the two user
studies (Figures 5-9). Each ``run_*`` function returns plain record lists
that :mod:`repro.eval.reports` formats into the paper's tables and
figures.

The amortisation layers that make repeated evaluation cheap — probe
caches shared (and disk-persisted) per database, warm verification
pools, one batching guidance wrapper per run — live in
:mod:`repro.serve.context`; each ``run_*`` call builds one
:class:`~repro.serve.context.ServiceContext`, leases everything from
it, and closes it (warm pools included) before returning, exactly as
the synthesis daemon does for its lifetime.
:class:`ProbeCacheRegistry` is re-exported here for backwards
compatibility.

Neither layer changes results: probe answers are facts of the database
and verification outcomes are folded back identically, so the candidate
stream stays bit-for-bit equal to a cold inline run (locked in by
``tests/core/test_search_equivalence.py``). Warm-start reuse is
observable only in telemetry (``warm_start_probe_hits``,
``cross_task_probe_hits``, ``pool_reused``) and in wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..baselines.ablations import ABLATION_VARIANTS
from ..baselines.nli import NLIBaseline
from ..baselines.squid import SquidPBE
from ..core.duoquest import Duoquest
from ..core.enumerator import EnumeratorConfig
from ..core.search import validate_verification_config
from ..core.tsq import TableSketchQuery
from ..datasets.facts import build_fact_bank
from ..datasets.tasks import Task, TaskSet
from ..datasets.tsqsynth import (
    DETAIL_FULL,
    DETAIL_MINIMAL,
    example_values,
    synthesize_tsq,
)
from ..datasets.usertasks import NLI_TASK_SPECS, PBE_TASK_SPECS
from ..db.database import Database
from ..errors import UnsupportedTaskError
from ..guidance.base import GuidanceModel
from ..guidance.batched import make_guidance_backend
from ..guidance.oracle import AccuracyProfile, CalibratedOracleModel
from ..interaction.simulated_user import (
    TrialRecord,
    UserProfile,
    UserSimulator,
    make_cohort,
)
from ..serve.context import ProbeCacheRegistry, ServiceContext
from ..sqlir.canon import queries_equal, signature
from .metrics import SimTaskRecord


@dataclass
class SimulationConfig:
    """Knobs for the simulation study.

    The paper uses a 60-second per-task timeout; the default here is
    smaller because the calibrated-model enumerator solves or exhausts
    tasks in well under a second — pass ``timeout=60`` for a paper-scale
    run.
    """

    timeout: float = 8.0
    max_candidates: int = 200
    max_expansions: int = 40_000
    seed: int = 0
    profile: AccuracyProfile = field(default_factory=AccuracyProfile)
    #: search engine selection (see repro.core.search): strategy name,
    #: verification workers + backend, and beam width for beam engines
    engine: str = "best-first"
    workers: int = 1
    verify_backend: str = "threads"
    beam_width: int = 16
    #: share one probe cache per database across every enumeration of a
    #: run, so later tasks reuse earlier tasks' probe answers. Probe
    #: answers are facts of the database, so results never change; but
    #: whichever system/variant runs *first* on a database pays the cold
    #: probes, so for strictly-controlled wall-clock comparisons between
    #: systems (fig10-12 timing columns) disable sharing.
    share_probe_cache: bool = True
    #: directory for the disk-backed probe-cache store (the CLI's
    #: ``--cache-dir``). When set, the per-database caches above are
    #: warm-seeded from disk at the start of a run and persisted at the
    #: end, keyed by ``Database.content_hash()`` — so repeated eval runs
    #: on the same corpus warm-start across processes. Requires
    #: ``share_probe_cache`` (persistence piggybacks on the per-database
    #: caches); ``None`` disables persistence.
    cache_dir: Optional[str] = None
    #: wrap the guidance model in a
    #: :class:`~repro.guidance.batched.BatchingGuidanceModel` shared by
    #: every enumeration of the run — the harness runs many systems and
    #: variants over identical decisions, so the distribution cache
    #: amortises across tasks (the ``GuideHits`` column). Results never
    #: change (locked in by the equivalence matrix).
    guidance_batch: bool = False
    #: bound (entries) for the shared guidance distribution cache
    guidance_cache_size: int = 4096
    #: HOST:PORT of an out-of-process guidance scorer (the CLI's
    #: ``--guidance-server``); implies ``guidance_batch``. A failing
    #: server degrades visibly to the local oracle
    #: (``guidance_degraded`` in telemetry), never silently.
    guidance_server: Optional[str] = None
    #: probe-planner mode (the CLI's ``--probe-planner``): "off" keeps
    #: the raw-SQL probe path, "plan" compiles probes into shared
    #: parameterised plans with canonical cache keys, "batch"
    #: additionally fuses each verification round's sibling probes into
    #: multi-probe statements. Results never change (probe answers are
    #: facts of the database); the ``PlanHit`` column of
    #: ``search_report`` measures the reuse.
    probe_planner: str = "off"
    #: cost-aware verification scheduling (the CLI's ``--cost-order``):
    #: "off" keeps the seed-identical candidate stream, "order" verifies
    #: each round cheapest-first (same final answer set, never more
    #: executed probes), "abort" additionally defers costlier siblings
    #: once a cheaper candidate times out — the only mode allowed to
    #: change answers, audited by :func:`run_cost_order_audit`.
    cost_order: str = "off"
    #: per-candidate probe budget in milliseconds (the CLI's
    #: ``--probe-timeout``); ``None`` leaves probes unbounded. Timed-out
    #: probes are inconclusive (the candidate survives the stage) and
    #: surface as ``probe_timeouts`` telemetry.
    probe_timeout_ms: Optional[int] = None
    #: LRU bound on each shared probe cache's entry count (the CLI's
    #: ``--probe-cache-entries``); ``None`` grows without bound (the
    #: seed behaviour). Never changes results — with ``cache_dir`` set,
    #: evicted entries flush to the disk store instead of being lost —
    #: and surfaces as probe_cache_evictions / evicted_flushed
    #: telemetry.
    probe_cache_entries: Optional[int] = None
    #: deterministic fault-injection plan (the CLI's ``--fault-plan``);
    #: ``None`` disables injection entirely (the seed behaviour).
    fault_plan: Optional[str] = None

    def __post_init__(self) -> None:
        # The enumerator's boundary check, at construction: a bad
        # backend fails here, not at the first task of a long run.
        validate_verification_config(self.verify_backend, self.workers)

    def enumerator_config(self) -> EnumeratorConfig:
        return EnumeratorConfig(time_budget=self.timeout,
                                max_candidates=self.max_candidates,
                                max_expansions=self.max_expansions,
                                engine=self.engine,
                                workers=self.workers,
                                verify_backend=self.verify_backend,
                                beam_width=self.beam_width,
                                guidance_batch=self.guidance_batch,
                                guidance_cache_size=self.guidance_cache_size,
                                guidance_server=self.guidance_server,
                                probe_planner=self.probe_planner,
                                cost_order=self.cost_order,
                                probe_timeout_ms=self.probe_timeout_ms,
                                probe_cache_entries=self.probe_cache_entries,
                                fault_plan=self.fault_plan)


def _context_for(config: SimulationConfig) -> ServiceContext:
    """One :class:`ServiceContext` per ``run_*`` call.

    Owns the run's probe-cache registry, pool manager, and guidance
    model, all released by ``ctx.close()`` in the run's ``finally``:
    with ``workers > 1`` each database's verification threads spawn
    once per run and are gone when it returns.
    """
    return ServiceContext(_oracle(config),
                          share_probe_cache=config.share_probe_cache,
                          cache_dir=config.cache_dir,
                          probe_cache_entries=config.probe_cache_entries)


def _oracle(config: SimulationConfig) -> GuidanceModel:
    """The run's guidance model, wrapped per the guidance-backend knobs.

    Wrapping happens here — once per ``run_*`` call — rather than
    inside each enumeration, so the batching wrapper's distribution
    cache is shared by every task, system, and variant of the run;
    that cross-task reuse is where most of the ``GuideHits`` come from
    (Duoquest, the NLI baseline, and the ablations score largely
    identical decisions). Callers must release it with
    :func:`~repro.guidance.batched.close_guidance` (a no-op for plain
    models) so a server-backed run closes its socket.
    """
    model: GuidanceModel = CalibratedOracleModel(profile=config.profile,
                                                 seed=config.seed)
    return make_guidance_backend(model, batch=config.guidance_batch,
                                 cache_size=config.guidance_cache_size,
                                 server=config.guidance_server)


def run_gpqe_task(task: Task, db: Database, system: Duoquest,
                  tsq: Optional[TableSketchQuery],
                  system_name: str,
                  detail: str = DETAIL_FULL) -> SimTaskRecord:
    """Run one task on a GPQE-based system, stopping at the gold query.

    Emission order is non-increasing in confidence, so the gold
    candidate's emission index + 1 is its rank in the returned list and
    early termination (as in Section 5.4.1) loses nothing.
    """
    gold = task.gold

    hit: Dict[str, object] = {}

    def stop_when(candidate) -> bool:
        if queries_equal(candidate.query, gold):
            hit["rank"] = candidate.index + 1
            hit["time"] = candidate.elapsed
            return True
        return False

    result = system.synthesize(task.nlq, tsq, gold=gold,
                               task_id=task.task_id, stop_when=stop_when)
    return SimTaskRecord(task_id=task.task_id,
                         difficulty=task.difficulty.value,
                         system=system_name, detail=detail,
                         rank=hit.get("rank"),
                         time_to_gold=hit.get("time"),
                         num_candidates=len(result.candidates),
                         elapsed=result.elapsed,
                         expansions=result.expansions,
                         telemetry=(result.telemetry.as_dict()
                                    if result.telemetry is not None
                                    else None))


def run_pbe_task(task: Task, db: Database, pbe: SquidPBE,
                 tsq: TableSketchQuery) -> SimTaskRecord:
    """Run one task on the PBE baseline (supported / correct judgment)."""
    record = SimTaskRecord(task_id=task.task_id,
                           difficulty=task.difficulty.value, system="PBE")
    supported, _ = pbe.supports_task(task.gold)
    if not supported:
        record.supported = False
        record.correct = False
        return record
    examples = example_values(tsq)
    ok, _ = pbe.supports_examples(examples)
    if not ok:
        record.supported = False
        record.correct = False
        return record
    try:
        outcome = pbe.run(examples)
    except UnsupportedTaskError:
        record.supported = False
        record.correct = False
        return record
    record.elapsed = outcome.runtime
    record.correct = pbe.judge(outcome, task.gold)
    return record


def run_simulation(tasks: TaskSet,
                   systems: Sequence[str] = ("Duoquest", "NLI", "PBE"),
                   config: Optional[SimulationConfig] = None,
                   detail: str = DETAIL_FULL) -> List[SimTaskRecord]:
    """The Figure 10/11 experiment over one task set.

    Returns one :class:`~repro.eval.metrics.SimTaskRecord` per (task,
    system) pair, ready for :func:`repro.eval.reports.fig10_report` /
    ``fig11_report`` / ``search_report``. Probe caches are shared per
    database (and persisted when ``config.cache_dir`` is set — even if a
    task raises, answered probes are saved for the next run), and GPQE
    enumerations lease warm verification workers from the shared pool
    manager when the configuration allows.
    """
    config = config or SimulationConfig()
    ctx = _context_for(config)
    model = ctx.guidance
    records: List[SimTaskRecord] = []
    pbe_by_db: Dict[str, SquidPBE] = {}
    caches = ctx.caches
    pools = ctx.pool_manager
    try:
        for task in tasks:
            db = tasks.database_for(task)
            tsq = synthesize_tsq(task, db, detail=detail, seed=config.seed)
            if "Duoquest" in systems:
                system = Duoquest(db, model=model,
                                  config=config.enumerator_config(),
                                  probe_cache=caches.cache_for(db),
                                  pool_manager=pools)
                records.append(run_gpqe_task(task, db, system, tsq,
                                             "Duoquest", detail))
            if "NLI" in systems:
                system = Duoquest(db, model=model,
                                  config=config.enumerator_config(),
                                  probe_cache=caches.cache_for(db),
                                  pool_manager=pools)
                records.append(run_gpqe_task(task, db, system, None, "NLI"))
            if "PBE" in systems:
                if db.schema.name not in pbe_by_db:
                    pbe_by_db[db.schema.name] = SquidPBE(db)
                records.append(run_pbe_task(task, db,
                                            pbe_by_db[db.schema.name], tsq))
    finally:
        ctx.close()
    return records


def run_detail_sweep(tasks: TaskSet,
                     details: Sequence[str],
                     config: Optional[SimulationConfig] = None
                     ) -> List[SimTaskRecord]:
    """The Table 6 experiment: vary TSQ specification detail.

    Each task runs once per detail level; records carry the level in
    ``detail`` for :func:`repro.eval.reports.table6_report`. Cache
    sharing/persistence and pool leasing work as in
    :func:`run_simulation`.
    """
    config = config or SimulationConfig()
    ctx = _context_for(config)
    model = ctx.guidance
    records: List[SimTaskRecord] = []
    caches = ctx.caches
    pools = ctx.pool_manager
    try:
        for task in tasks:
            db = tasks.database_for(task)
            for detail in details:
                tsq = synthesize_tsq(task, db, detail=detail,
                                     seed=config.seed)
                system = Duoquest(db, model=model,
                                  config=config.enumerator_config(),
                                  probe_cache=caches.cache_for(db),
                                  pool_manager=pools)
                records.append(run_gpqe_task(task, db, system, tsq,
                                             "Duoquest", detail))
    finally:
        ctx.close()
    return records


def run_ablations(tasks: TaskSet,
                  variants: Sequence[str] = ("Duoquest", "NoPQ", "NoGuide"),
                  config: Optional[SimulationConfig] = None
                  ) -> List[SimTaskRecord]:
    """The Figure 12 experiment: time-to-solution per GPQE variant.

    Every task runs once per ablation variant (see
    ``repro.baselines.ablations.ABLATION_VARIANTS``). Cache
    sharing/persistence and pool leasing work as in
    :func:`run_simulation` — with sharing on, the second and third
    variants of each task hit the first one's probes.
    """
    config = config or SimulationConfig()
    ctx = _context_for(config)
    model = ctx.guidance
    records: List[SimTaskRecord] = []
    caches = ctx.caches
    pools = ctx.pool_manager
    try:
        for task in tasks:
            db = tasks.database_for(task)
            tsq = synthesize_tsq(task, db, detail=DETAIL_FULL,
                                 seed=config.seed)
            for variant in variants:
                factory = ABLATION_VARIANTS[variant]
                system = factory(db, model, config.enumerator_config(),
                                 probe_cache=caches.cache_for(db),
                                 pool_manager=pools)
                records.append(run_gpqe_task(task, db, system, tsq, variant))
    finally:
        ctx.close()
    return records


def run_cost_order_audit(tasks: TaskSet,
                         config: Optional[SimulationConfig] = None,
                         mode: str = "order") -> Dict[str, object]:
    """Audit a cost-order mode against the ``off`` baseline.

    Runs every task twice — once with ``cost_order="off"`` and once with
    ``cost_order=mode`` — under otherwise-identical configuration, each
    sweep with its own guidance model and probe-cache registry so
    neither contaminates the other. The audit backs the cost-order
    stream contract:

    * ``mode="order"`` must keep the **final answer set** of every task
      identical (compared by canonical query signature, rank-blind) and
      must never execute more probes — the returned ``answers_match``
      and ``probes_off``/``probes_cost`` expose both halves.
    * ``mode="abort"`` may change answers; the returned
      ``accuracy_delta`` (top-10 gold hits under the cost mode minus
      under ``off``) quantifies exactly how much.

    Returns a flat dict ready for CLI printing: ``mode``, ``tasks``,
    ``answers_match``, ``answer_mismatches`` (task ids), ``probes_off``,
    ``probes_cost``, ``cost_ordered``, ``probe_timeouts``,
    ``cost_aborts``, ``top10_off``, ``top10_cost``, ``accuracy_delta``.
    """
    config = config or SimulationConfig()
    # A wall-clock cutoff makes the emitted answer set nondeterministic
    # (a task at 90% of budget lands on either side from run to run),
    # which would fail the contract for reasons that have nothing to do
    # with cost ordering. Lift it far enough that the *deterministic*
    # budgets — max_candidates / max_expansions — bound every task, so
    # both sweeps terminate at exactly the same point. (probe_timeout_ms
    # is intentionally kept: per-probe timeouts are what the abort
    # cascade reacts to, and the audit must measure that behaviour.)
    audit_timeout = max(60.0, config.timeout * 10.0)

    def sweep(cost_order: str):
        cfg = replace(config, cost_order=cost_order,
                      timeout=audit_timeout)
        ctx = _context_for(cfg)
        model = ctx.guidance
        caches = ctx.caches
        pools = ctx.pool_manager
        answers: Dict[str, frozenset] = {}
        probes = 0
        top10 = 0
        counters = {"cost_ordered": 0, "probe_timeouts": 0,
                    "cost_aborts": 0}
        try:
            for task in tasks:
                db = tasks.database_for(task)
                tsq = synthesize_tsq(task, db, detail=DETAIL_FULL,
                                     seed=cfg.seed)
                system = Duoquest(db, model=model,
                                  config=cfg.enumerator_config(),
                                  probe_cache=caches.cache_for(db),
                                  pool_manager=pools)
                # No stop_when: the contract is about the *full* emitted
                # answer set, not the prefix up to the gold query.
                result = system.synthesize(task.nlq, tsq, gold=task.gold,
                                           task_id=task.task_id)
                answers[task.task_id] = frozenset(
                    signature(c.query) for c in result.candidates)
                if any(queries_equal(c.query, task.gold)
                       for c in result.top(10)):
                    top10 += 1
                if result.telemetry is not None:
                    stats = result.telemetry.as_dict()
                    probes += stats.get("probe_misses", 0)
                    for key in counters:
                        counters[key] += stats.get(key, 0)
        finally:
            ctx.close()
        return answers, probes, top10, counters

    answers_off, probes_off, top10_off, _ = sweep("off")
    answers_cost, probes_cost, top10_cost, counters = sweep(mode)
    mismatches = sorted(task_id for task_id in answers_off
                        if answers_off[task_id]
                        != answers_cost.get(task_id, frozenset()))
    return {
        "mode": mode,
        "tasks": len(answers_off),
        "answers_match": not mismatches,
        "answer_mismatches": mismatches,
        "probes_off": probes_off,
        "probes_cost": probes_cost,
        "cost_ordered": counters["cost_ordered"],
        "probe_timeouts": counters["probe_timeouts"],
        "cost_aborts": counters["cost_aborts"],
        "top10_off": top10_off,
        "top10_cost": top10_cost,
        "accuracy_delta": top10_cost - top10_off,
    }


# ----------------------------------------------------------------------
# User studies (Figures 5-9)
# ----------------------------------------------------------------------
@dataclass
class UserStudyConfig:
    seed: int = 0
    cohort_size: int = 16
    novices: int = 6
    fact_bank_size: int = 10
    system_budget: float = 12.0
    max_candidates: int = 50
    #: The user studies run on MAS, far outside the Spider training
    #: domain; SyntaxSQLNet's per-decision accuracy degrades accordingly
    #: (the paper's NLI completed only 23.4% of trials). The scaled
    #: profile models that domain shift.
    profile: AccuracyProfile = field(
        default_factory=lambda: AccuracyProfile().scaled(0.82))


def _simulator(db: Database, config: UserStudyConfig,
               with_pbe: bool) -> UserSimulator:
    def factory(task: Task, variant: int) -> Duoquest:
        # One model draw per (study seed, user): each participant phrases
        # the NLQ in their own words, so the guidance model's mistakes
        # vary across users for the same task.
        model = CalibratedOracleModel(profile=config.profile,
                                      seed=config.seed * 1000 + variant)
        return Duoquest(db, model=model, config=EnumeratorConfig())

    pbe = SquidPBE(db) if with_pbe else None
    return UserSimulator(db, duoquest_factory=factory, pbe=pbe,
                         seed=config.seed,
                         system_budget=config.system_budget,
                         max_candidates=config.max_candidates)


def run_nli_user_study(db: Database, tasks: TaskSet,
                       config: Optional[UserStudyConfig] = None
                       ) -> List[TrialRecord]:
    """The 128-trial study vs. the NLI baseline (Section 5.2).

    Counterbalanced within subjects: half the cohort performs set A on
    Duoquest and set B on the NLI, the other half the reverse, so every
    task is attempted by 8 users on each system.
    """
    config = config or UserStudyConfig()
    cohort = make_cohort(config.cohort_size, config.novices, config.seed)
    simulator = _simulator(db, config, with_pbe=False)
    facts = {task.task_id: build_fact_bank(task, db,
                                           size=config.fact_bank_size,
                                           seed=config.seed)
             for task in tasks}
    set_a = {spec.task_id for spec in NLI_TASK_SPECS
             if spec.task_id.startswith("A")}
    trials: List[TrialRecord] = []
    for idx, user in enumerate(cohort):
        duoquest_first_half = idx < len(cohort) // 2
        for task in tasks:
            in_set_a = task.task_id in set_a
            use_duoquest = in_set_a == duoquest_first_half
            trials.append(simulator.run_ranked_list_trial(
                user, task, facts[task.task_id], use_tsq=use_duoquest))
    return trials


def run_pbe_user_study(db: Database, tasks: TaskSet,
                       config: Optional[UserStudyConfig] = None
                       ) -> List[TrialRecord]:
    """The 96-trial study vs. the PBE system (Section 5.3)."""
    config = config or UserStudyConfig()
    cohort = make_cohort(config.cohort_size, config.novices, config.seed)
    simulator = _simulator(db, config, with_pbe=True)
    facts = {task.task_id: build_fact_bank(task, db,
                                           size=config.fact_bank_size,
                                           seed=config.seed)
             for task in tasks}
    set_c = {spec.task_id for spec in PBE_TASK_SPECS
             if spec.task_id.startswith("C")}
    trials: List[TrialRecord] = []
    for idx, user in enumerate(cohort):
        duoquest_first_half = idx < len(cohort) // 2
        for task in tasks:
            in_set_c = task.task_id in set_c
            use_duoquest = in_set_c == duoquest_first_half
            if use_duoquest:
                trials.append(simulator.run_ranked_list_trial(
                    user, task, facts[task.task_id], use_tsq=True))
            else:
                trials.append(simulator.run_pbe_trial(
                    user, task, facts[task.task_id]))
    return trials
