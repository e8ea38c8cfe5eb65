"""Pluggable search-engine subsystem: frontier, scheduler, verification
pools, persistence, and telemetry.

See ``README.md`` in this directory for the architecture. The public
surface, grouped by stage (only names in ``__all__`` are supported API;
everything else in the submodules is an implementation detail):

**Engine** (``engine.py``)
    :class:`SearchEngine` runs the generalised Algorithm 1 round loop
    over a :class:`SearchProblem`; :class:`Candidate` is what it emits,
    :class:`SearchState` what it expands (with the reified decision
    memoised under :data:`UNRESOLVED_DECISION` semantics), and
    :data:`NO_JOIN_PATH` the sentinel for join-infeasible prunes.

**Frontiers** (``frontier.py``)
    :class:`BestFirstFrontier` (exact, seed-equivalent),
    :class:`BeamFrontier`, :class:`DiverseBeamFrontier`; build by name
    via :func:`make_frontier` (:data:`ENGINES` lists the names);
    :func:`structural_key` is the diverse-beam grouping key.

**Guidance batching** (``scheduler.py``)
    :class:`DecisionScheduler` collects a round's pending decisions into
    one ``GuidanceModel.score_batch()`` call.

**Verification pools** (``parallel.py``)
    :class:`PoolManager` leases every enumeration its pool: inline
    verification on the caller's thread for one worker, otherwise a
    :class:`PoolLease` over the database's warm :class:`WorkerPool`
    (worker threads over per-thread SQLite connection forks), so
    threads spawn and snapshots rehydrate once per database instead of
    once per task. :data:`VERIFY_BACKENDS` (inline / threads) is
    validated by :func:`validate_verification_config`.

**Probe-cache persistence** (``cachestore.py``)
    :class:`PersistentProbeCache` saves/loads shared probe caches to a
    SQLite store keyed by ``Database.content_hash()``, so repeated runs
    on the same corpus warm-start across processes.

**Telemetry** (``telemetry.py``)
    :class:`SearchTelemetry` accompanies every run: per-stage prunes,
    probe-cache hit/cross-task/warm-start counters, pool reuse and
    degrade flags, guidance batching ratio, wall time.
"""

from .cachestore import PersistentProbeCache
from .costmodel import (
    COST_ORDER_MODES,
    CostModel,
    validate_cost_order,
)
from .engine import (
    COST_ABORT,
    CancelToken,
    Candidate,
    NO_JOIN_PATH,
    SearchEngine,
    SearchProblem,
    SearchState,
    UNRESOLVED_DECISION,
)
from .frontier import (
    BeamFrontier,
    BestFirstFrontier,
    DiverseBeamFrontier,
    ENGINES,
    Frontier,
    make_frontier,
    structural_key,
)
from .parallel import (
    BaseVerificationPool,
    PoolLease,
    PoolManager,
    VERIFY_BACKENDS,
    WorkerPool,
    validate_verification_config,
)
from .planner import (
    PROBE_PLANNER_MODES,
    PlannerCounters,
    ProbePlan,
    ProbePlanner,
    validate_probe_planner,
)
from .scheduler import DecisionScheduler
from .telemetry import SearchTelemetry

__all__ = [
    "BaseVerificationPool",
    "BeamFrontier",
    "BestFirstFrontier",
    "COST_ABORT",
    "COST_ORDER_MODES",
    "CancelToken",
    "Candidate",
    "CostModel",
    "DecisionScheduler",
    "DiverseBeamFrontier",
    "ENGINES",
    "Frontier",
    "NO_JOIN_PATH",
    "PROBE_PLANNER_MODES",
    "PersistentProbeCache",
    "PlannerCounters",
    "PoolLease",
    "PoolManager",
    "ProbePlan",
    "ProbePlanner",
    "SearchEngine",
    "SearchProblem",
    "SearchState",
    "SearchTelemetry",
    "UNRESOLVED_DECISION",
    "VERIFY_BACKENDS",
    "WorkerPool",
    "make_frontier",
    "structural_key",
    "validate_cost_order",
    "validate_probe_planner",
    "validate_verification_config",
]
