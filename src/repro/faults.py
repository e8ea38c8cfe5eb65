"""Deterministic fault injection for every production seam.

Duoquest accreted half a dozen independent degrade paths (snapshot →
inline, guidance → local model, worker crash → respawn, corrupt cache →
cold start, retired session → protocol error).  Each was tested by one
bespoke monkeypatch; none could be exercised together, under load, from
the CLI.  This module gives them a single switchboard:

* A :class:`FaultPlan` is parsed from a compact spec string —
  env-friendly, and carried by ``VerifierConfig``::

      seed=7;db.execute:locked:rate=0.05;guidance.connect:refused:times=1

  Rules are ``point:mode[:key=value[,key=value]*]`` joined by ``;`` with
  an optional ``seed=N`` item.  Keys: ``rate`` (probability a call at
  the point fires, default 1.0), ``times`` (max injections for the
  rule), and ``after`` (calls at the point to skip first).

* A :class:`FaultInjector` draws faults **deterministically**: each
  point gets its own :class:`random.Random` seeded from
  ``(seed << 16) ^ crc32(point)`` so two runs with the same plan inject
  the same faults at the same call indices, in any process (``hash()``
  is salted per process and must not be used here).

* Every injection is *receipted*: the injector counts ``injected``,
  ``absorbed`` (the seam recovered — a retry, a fallback, a recreate)
  and ``surfaced`` (the fault propagated to a visible degrade counter or
  a clean protocol error) per point.  The chaos soak asserts
  ``injected == absorbed + surfaced`` exactly — no silent ``except``
  path survives.

The module-global injector (:data:`ACTIVE`) is ``None`` unless a plan is
installed; every seam guards with ``if faults.ACTIVE is not None`` so a
disabled build runs the exact PR-9 instruction stream (bit-for-bit
equivalence is an acceptance criterion, enforced by the golden matrix).

:class:`RetryPolicy` lives here too — the shared bounded, jittered
exponential backoff adopted by ``Database.execute`` transient retries,
``ServerGuidanceModel`` reconnects and cachestore busy-retries.
"""

from __future__ import annotations

import random
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

from .counters import Counters
from .errors import ExecutionError

__all__ = [
    "FAULT_POINTS",
    "FaultPlan",
    "FaultRule",
    "FaultInjector",
    "InjectedFault",
    "RetryPolicy",
    "is_transient",
    "install",
    "uninstall",
    "ensure_installed",
    "injected_total",
    "book",
    "counters",
]

# Every named seam and the failure modes it understands.  The
# degrade-ladder audit iterates this table: a point that maps to no
# visible counter is a silent failure path and fails the build.
FAULT_POINTS: Dict[str, Tuple[str, ...]] = {
    "db.execute": ("error", "locked", "timeout"),
    "cachestore.load": ("busy", "torn", "corrupt"),
    "cachestore.save": ("busy", "torn", "corrupt"),
    "pool.worker": ("crash",),
    "guidance.connect": ("refused",),
    "guidance.transport": ("disconnect", "garbage"),
    "daemon.connection": ("vanish", "oversized"),
}

# Marker stamped into every injected failure message, so a failure that
# escapes its seam can still be attributed to its fault point.
_MARKER = "[injected:{point}]"


class InjectedFault(ExecutionError):
    """A deterministic, injector-raised execution failure.

    ``transient`` marks it safe to retry and — critically — forbids the
    probe cache from memoising any outcome derived from it.
    """

    transient = True

    def __init__(self, point: str, mode: str, detail: str) -> None:
        super().__init__(
            f"{_MARKER.format(point=point)} {detail}")
        self.point = point
        self.mode = mode


def is_transient(exc: BaseException) -> bool:
    """True for failures that a bounded retry may cure.

    Covers injector-raised faults (``transient`` attribute) and the real
    SQLite contention errors they imitate.
    """
    if getattr(exc, "transient", False):
        return True
    text = str(exc)
    return "database is locked" in text or "database is busy" in text


def injected_point(exc: BaseException) -> Optional[str]:
    """The fault point an exception was injected at, or ``None``."""
    explicit = getattr(exc, "point", None)
    if isinstance(explicit, str) and explicit in FAULT_POINTS:
        return explicit
    text = str(exc)
    for point in FAULT_POINTS:
        if _MARKER.format(point=point) in text:
            return point
    return None


# ----------------------------------------------------------------------
# Plan grammar
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultRule:
    """One ``point:mode[:key=value,...]`` item of a plan."""

    point: str
    mode: str
    rate: float = 1.0
    times: Optional[int] = None
    after: int = 0

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r} "
                f"(known: {', '.join(sorted(FAULT_POINTS))})")
        if self.mode not in FAULT_POINTS[self.point]:
            raise ValueError(
                f"fault point {self.point!r} has no mode {self.mode!r} "
                f"(known: {', '.join(FAULT_POINTS[self.point])})")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")


@dataclass(frozen=True)
class FaultPlan:
    """A parsed ``--fault-plan`` / ``REPRO_FAULTS`` spec."""

    seed: int
    rules: Tuple[FaultRule, ...]
    spec: str

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        if not isinstance(spec, str) or not spec.strip():
            raise ValueError("fault plan spec must be a non-empty string")
        seed = 0
        rules = []
        for item in spec.split(";"):
            item = item.strip()
            if not item:
                continue
            if item.startswith("seed="):
                try:
                    seed = int(item[len("seed="):])
                except ValueError:
                    raise ValueError(
                        f"bad seed in fault plan: {item!r}") from None
                continue
            parts = item.split(":")
            if len(parts) < 2 or len(parts) > 3:
                raise ValueError(
                    f"bad fault rule {item!r}: expected "
                    "'point:mode[:key=value,...]'")
            point, mode = parts[0].strip(), parts[1].strip()
            options: Dict[str, object] = {}
            if len(parts) == 3:
                for pair in parts[2].split(","):
                    pair = pair.strip()
                    if not pair:
                        continue
                    if "=" not in pair:
                        raise ValueError(
                            f"bad option {pair!r} in fault rule {item!r}")
                    key, _, raw = pair.partition("=")
                    key = key.strip()
                    try:
                        if key == "rate":
                            options["rate"] = float(raw)
                        elif key == "times":
                            options["times"] = int(raw)
                        elif key == "after":
                            options["after"] = int(raw)
                        else:
                            raise ValueError(
                                f"unknown option {key!r} in fault rule "
                                f"{item!r} (known: rate, times, after)")
                    except ValueError as exc:
                        if "unknown option" in str(exc):
                            raise
                        raise ValueError(
                            f"bad value for {key!r} in fault rule "
                            f"{item!r}: {raw!r}") from None
            try:
                rules.append(FaultRule(point=point, mode=mode, **options))
            except TypeError as exc:
                raise ValueError(
                    f"bad fault rule {item!r}: {exc}") from None
        if not rules:
            raise ValueError(
                f"fault plan {spec!r} contains no rules")
        return cls(seed=seed, rules=tuple(rules), spec=spec)


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------

@dataclass
class FaultBook(Counters):
    """Per-point receipts: every injection, and how each one ended."""

    injected: Dict[str, int] = field(default_factory=dict)
    absorbed: Dict[str, int] = field(default_factory=dict)
    surfaced: Dict[str, int] = field(default_factory=dict)


class FaultInjector:
    """Deterministic, thread-safe fault source for one plan.

    ``draw(point)`` advances the point's call counter and returns the
    rule to apply (counting the injection) or ``None``.  The seam that
    applied a fault then records its disposition with
    :meth:`note_absorbed` or :meth:`note_surfaced`; the chaos soak
    reconciles ``injected == absorbed + surfaced`` per point.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._fired: Dict[int, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        self.book = FaultBook()

    def _rng_for(self, point: str) -> random.Random:
        rng = self._rngs.get(point)
        if rng is None:
            # crc32, not hash(): hash() is salt-randomised per process
            # and would break cross-process determinism.
            rng = random.Random(
                (self.plan.seed << 16) ^ zlib.crc32(point.encode("utf-8")))
            self._rngs[point] = rng
        return rng

    def draw(self, point: str) -> Optional[FaultRule]:
        """The fault to inject for this call at ``point``, if any."""
        with self._lock:
            call = self._calls.get(point, 0)
            self._calls[point] = call + 1
            rng = self._rng_for(point)
            for index, rule in enumerate(self.plan.rules):
                if rule.point != point:
                    continue
                if call < rule.after:
                    continue
                fired = self._fired.get(index, 0)
                if rule.times is not None and fired >= rule.times:
                    continue
                # One deterministic draw per (point call, rule): the
                # stream of rng.random() values depends only on the
                # plan seed and the sequence of calls at this point.
                if rule.rate < 1.0 and rng.random() >= rule.rate:
                    continue
                self._fired[index] = fired + 1
                self._tally(self.book.injected, point, 1)
                return rule
        return None

    @staticmethod
    def _tally(counts: Dict[str, int], point: str, count: int) -> None:
        counts[point] = counts.get(point, 0) + count

    def note_absorbed(self, point: str, count: int = 1) -> None:
        with self._lock:
            self._tally(self.book.absorbed, point, count)

    def note_surfaced(self, point: str, count: int = 1) -> None:
        with self._lock:
            self._tally(self.book.surfaced, point, count)

    def snapshot(self) -> FaultBook:
        with self._lock:
            return self.book.snapshot()


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, jittered exponential backoff.

    ``attempts`` counts *total* tries (one initial plus
    ``attempts - 1`` retries).  Delays are deterministic for a given
    ``seed`` — chaos runs replay identically.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def delay_for(self, attempt: int) -> float:
        """The backoff before retry number ``attempt`` (0-based)."""
        raw = self.base_delay * (self.multiplier ** attempt)
        rng = random.Random((self.seed << 8) ^ (attempt + 1) ^ 0x5EED)
        jittered = raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))
        return max(0.0, min(jittered, self.max_delay))

    def delays(self) -> Iterator[float]:
        for attempt in range(max(0, self.attempts - 1)):
            yield self.delay_for(attempt)

    def call(self, fn: Callable[[], object], *,
             retryable: Tuple[type, ...] = (Exception,),
             should_retry: Optional[Callable[[BaseException], bool]] = None,
             sleep: Callable[[float], None] = None,
             on_retry: Optional[Callable[[BaseException, float], None]]
             = None):
        """Run ``fn``, retrying ``retryable`` failures with backoff.

        ``should_retry`` vetoes individual exceptions; the final failure
        always propagates.
        """
        if sleep is None:
            import time
            sleep = time.sleep
        delays = self.delays()
        while True:
            try:
                return fn()
            except retryable as exc:
                if should_retry is not None and not should_retry(exc):
                    raise
                delay = next(delays, None)
                if delay is None:
                    raise
                if on_retry is not None:
                    on_retry(exc, delay)
                sleep(delay)


# ----------------------------------------------------------------------
# Module-global installation (one injector per process)
# ----------------------------------------------------------------------

ACTIVE: Optional[FaultInjector] = None
_LOCK = threading.Lock()


def install(plan_or_spec) -> FaultInjector:
    """Install (replacing any active) injector for the plan."""
    global ACTIVE
    plan = (plan_or_spec if isinstance(plan_or_spec, FaultPlan)
            else FaultPlan.parse(plan_or_spec))
    with _LOCK:
        ACTIVE = FaultInjector(plan)
        return ACTIVE


def uninstall() -> None:
    global ACTIVE
    with _LOCK:
        ACTIVE = None


def ensure_installed(spec: Optional[str]) -> bool:
    """Idempotently install an injector for ``spec``.

    Called from ``Verifier.__init__``, so a ``VerifierConfig`` carrying
    a plan arms it.  Returns True when this call installed it (an
    already-active injector for the same spec is left untouched, its
    counters intact).
    """
    global ACTIVE
    if not spec:
        return False
    with _LOCK:
        if ACTIVE is not None and ACTIVE.plan.spec == spec:
            return False
        ACTIVE = FaultInjector(FaultPlan.parse(spec))
        return True


def book() -> FaultBook:
    """A snapshot of the active injector's receipts (empty when none)."""
    local = ACTIVE
    return local.snapshot() if local is not None else FaultBook()


def injected_total() -> int:
    """Injections seen by the active injector (0 when none)."""
    return sum(book().injected.values())


def counters() -> Dict[str, Dict[str, int]]:
    """Per-point receipts of the active injector (for stats surfaces)."""
    return book().as_dict()


def note_absorbed_failure(exc: BaseException) -> None:
    """Book an injected failure as absorbed (a retry is about to cure
    it). No-op for organic exceptions."""
    point = injected_point(exc)
    if point is not None and ACTIVE is not None:
        ACTIVE.note_absorbed(point)


def note_surfaced_failure(exc: BaseException) -> None:
    """Book an injected failure as surfaced (it caused a visible
    degrade, warning, or protocol error). No-op for organic
    exceptions."""
    point = injected_point(exc)
    if point is not None and ACTIVE is not None:
        ACTIVE.note_surfaced(point)


# ----------------------------------------------------------------------
# Seam helpers (imported by the instrumented modules)
# ----------------------------------------------------------------------

def fire_cachestore(injector: FaultInjector, point: str) -> None:
    """Raise the drawn cachestore IO fault, if any.

    ``busy`` imitates a concurrent writer holding the file lock past
    the busy timeout (retried under the store's policy); ``torn`` and
    ``corrupt`` imitate an unreadable file (the store's recreate /
    cold-start path handles them).
    """
    rule = injector.draw(point)
    if rule is None:
        return
    import sqlite3
    if rule.mode == "busy":
        raise sqlite3.OperationalError(
            f"{_MARKER.format(point=point)} database is locked")
    raise sqlite3.DatabaseError(
        f"{_MARKER.format(point=point)} file is not a database "
        f"({rule.mode} store header)")


def fire_guidance_connect(injector: FaultInjector) -> None:
    """Raise the drawn ``guidance.connect`` fault, if any.

    Booked surfaced immediately: a refused connection always lands in
    the visible degrade/reconnect ladder (``guidance_degraded`` /
    ``guidance_reconnects``).
    """
    rule = injector.draw("guidance.connect")
    if rule is None:
        return
    injector.note_surfaced("guidance.connect")
    raise OSError(
        f"{_MARKER.format(point='guidance.connect')} connection refused")


def fire_guidance_transport(injector: FaultInjector) -> None:
    """Raise the drawn ``guidance.transport`` fault, if any.

    ``disconnect`` imitates the server dying mid-batch (OSError);
    ``garbage`` imitates an unparseable reply (ValueError — the same
    type bad JSON surfaces as). Both land in the score_batch degrade
    ladder, so they are booked surfaced immediately.
    """
    rule = injector.draw("guidance.transport")
    if rule is None:
        return
    injector.note_surfaced("guidance.transport")
    if rule.mode == "disconnect":
        raise OSError(
            f"{_MARKER.format(point='guidance.transport')} server "
            "disconnected mid-batch")
    raise ValueError(
        f"{_MARKER.format(point='guidance.transport')} garbage reply "
        "(unparseable scores line)")


def fire_pool_worker(injector: FaultInjector) -> None:
    """Raise the drawn ``pool.worker`` fault, if any.

    ``crash`` kills the verification job on a worker thread. Booked
    surfaced immediately: any failed job fails its batch, which retires
    the worker pool and reruns the batch inline — the visible degrade
    (``snapshot_degraded``, ``pool_retires``).
    """
    rule = injector.draw("pool.worker")
    if rule is None:
        return
    injector.note_surfaced("pool.worker")
    raise RuntimeError(
        f"{_MARKER.format(point='pool.worker')} worker crashed mid-batch")


def fire_db_execute(injector: FaultInjector, *, armed: bool) -> None:
    """Raise the drawn ``db.execute`` fault, if any.

    ``timeout`` mode only makes sense under an armed interrupt guard
    (the guard converts "interrupted" errors to ``ExecutionTimeout`` at
    scope exit); unarmed it degenerates to a plain transient error.
    """
    rule = injector.draw("db.execute")
    if rule is None:
        return
    if rule.mode == "timeout" and armed:
        # Never retried (the execute retry loop exempts "interrupted"),
        # surfaces as ExecutionTimeout via the interrupt guard.
        raise InjectedFault("db.execute", "timeout",
                            "probe interrupted by injected timeout")
    if rule.mode == "locked":
        raise InjectedFault("db.execute", "locked",
                            "database is locked")
    raise InjectedFault("db.execute", rule.mode,
                        "transient execution fault")
