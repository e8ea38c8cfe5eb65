"""Synthesis-as-a-service: the asyncio session daemon.

``duoquest serve HOST:PORT`` runs one of these. The daemon owns the
process-wide amortisation state — a :class:`ServiceContext` bundling
the per-database probe caches (disk-persistable via ``--cache-dir``),
one :class:`~repro.core.search.PoolManager` with warm thread pools, and
one shared batching guidance model — and serves concurrent synthesis /
TSQ-refinement sessions over many databases on top of it, speaking the
NDJSON protocol of :mod:`repro.serve.protocol` (lines coded by
:mod:`repro.wire`).

Concurrency model:

* Each connection is an asyncio task; enumerations (synchronous engine
  runs) execute on a bounded thread pool via ``run_in_executor``.
* **Admission control**: a global semaphore bounds concurrent
  enumerations at ``max_concurrent``; excess requests queue.
* **Fairness**: one FIFO ``asyncio.Lock`` per database serialises
  enumerations on that database (SQLite connections are single-stream),
  which round-robins contending sessions in arrival order. Sessions on
  *different* databases genuinely overlap.
* **Cancellation** is cooperative: ``cancel`` fires the session's
  :class:`~repro.core.search.CancelToken`; the engine stops at its next
  checkpoint, releases its pool lease, and the round response reports
  ``state: "cancelled"`` with ``cancelled`` telemetry.

Results are bit-for-bit: a session's candidate stream is identical to
what an equivalent ``duoquest demo`` run emits, because sharing probe
caches, warm pools, and the batching guidance wrapper never changes
streams (locked in by ``tests/core/test_search_equivalence.py`` and
``tests/serve/``). Sharing shows up only in the ``stats`` verb — pool
reuse, warm-start / cross-task / **cross-session** probe hits — and in
latency.

Degrades are visible, never silent: when a round's telemetry reports a
pool or guidance degrade, the server ``epoch`` bumps; clients see the
epoch in the handshake, every round response, and ``stats``.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

from .. import faults
from ..core.duoquest import Duoquest, SynthesisResult
from ..core.enumerator import EnumeratorConfig
from ..core.tsq import TableSketchQuery
from ..db.database import Database
from ..errors import ExecutionError
from ..guidance.base import GuidanceModel
from ..guidance.batched import make_guidance_backend
from ..guidance.lexical import LexicalGuidanceModel
from ..interaction.session import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_ENUMERATING,
    STATE_FAILED,
    SessionCore,
)
from ..nlq.literals import NLQuery
from ..sqlir.render import to_sql
from .. import wire
from . import protocol
from .context import ServiceContext


def _tsq_from_wire(payload: Dict[str, object]) -> TableSketchQuery:
    """Build a TSQ from its wire form (build-style plain-value rows)."""
    return TableSketchQuery.build(
        types=payload.get("types"),
        rows=payload.get("rows", ()),
        sorted=bool(payload.get("sorted", False)),
        limit=int(payload.get("limit", 0) or 0),
        negative_rows=payload.get("negative_rows", ()),
        tolerance=int(payload.get("tolerance", 0) or 0))


class _Session:
    """Registry entry: one refinement loop bound to one database."""

    def __init__(self, session_id: str, database: str,
                 core: SessionCore):
        self.id = session_id
        self.database = database
        self.core = core


class SynthesisDaemon:
    """The session daemon (see module docstring).

    ``databases`` maps serving names to live databases; the daemon
    forks each one (snapshot + rehydrate) so the served connections are
    thread-hoppable — construct the daemon in the thread that built the
    databases. ``config`` applies to every session; the default
    verifies inline. Every session shares one batching guidance
    wrapper, so its distribution cache amortises across sessions.
    Worker threads are opt-in (a config with
    ``workers > 1``): verification's CPU-bound stages serialise on the
    GIL, and on the hosts measured so far (one and two CPUs) each
    round's hand-off to the threads cost more than it overlapped.
    """

    #: Default LRU bound on live per-database probe caches, mirroring
    #: ``PoolManager.max_pools`` — a daemon pointed at more databases
    #: than this retires (persisting first, with a ``--cache-dir``) the
    #: least-recently-used idle cache instead of growing forever.
    MAX_CACHED_DATABASES = 8

    #: Default LRU bound on finished/cancelled sessions kept addressable
    #: by the ``status`` verb before being retired from the table.
    MAX_TERMINAL_SESSIONS = 64

    #: Hard cap on one NDJSON request line. Without it a client (or a
    #: fault) streaming bytes with no newline grows the read buffer
    #: without bound; with it the read fails fast and the connection is
    #: closed with a clean protocol error.
    MAX_LINE_BYTES = 1 << 20

    def __init__(self, databases: Dict[str, Database], *,
                 config: Optional[EnumeratorConfig] = None,
                 model: Optional[GuidanceModel] = None,
                 cache_dir: Optional[str] = None,
                 max_concurrent: int = 4,
                 session_max_candidates: Optional[int] = None,
                 session_max_probes: Optional[int] = None,
                 max_terminal_sessions: Optional[int] = None,
                 max_cached_databases: Optional[int] = None):
        if not databases:
            raise ValueError("the daemon needs at least one database")
        self.config = config or EnumeratorConfig(max_candidates=200,
                                                 time_budget=30.0,
                                                 workers=1)
        guidance = make_guidance_backend(
            model or LexicalGuidanceModel(),
            cache_size=self.config.guidance_cache_size,
            server=self.config.guidance_server)
        self.context = ServiceContext(
            guidance, cache_dir=cache_dir,
            probe_cache_entries=self.config.probe_cache_entries,
            max_databases=(max_cached_databases
                           if max_cached_databases is not None
                           else self.MAX_CACHED_DATABASES))
        self.databases: Dict[str, Database] = {}
        for name, db in databases.items():
            try:
                self.databases[name] = db.fork()
            except ExecutionError:
                # No snapshot support: serve the primary connection
                # (single-thread use only; enumerations stay serialised
                # per database, so this degrades capacity, not safety).
                self.databases[name] = db
        self.max_concurrent = max(1, int(max_concurrent))
        self.session_max_candidates = session_max_candidates
        self.session_max_probes = session_max_probes
        self.max_terminal_sessions = max(
            1, int(max_terminal_sessions
                   if max_terminal_sessions is not None
                   else self.MAX_TERMINAL_SESSIONS))

        self._sessions: Dict[str, _Session] = {}
        #: retired session id -> final state, LRU-bounded; lets the
        #: status verb answer "that session is gone" cleanly instead of
        #: conflating retirement with a never-existed id
        self._retired: "OrderedDict[str, str]" = OrderedDict()
        self.sessions_retired = 0
        self._session_seq = itertools.count(1)
        self._lock = threading.Lock()
        #: bumps on every visible degrade (pool snapshot / guidance)
        self.epoch = 0
        self.degrade_reason = ""
        self.sessions_created = 0
        self.rounds_served = 0
        self.pool_reused_rounds = 0
        #: probe-cache hits a session's *first* round took on entries
        #: written before it existed — reuse across sessions by
        #: construction (the session has no earlier generations of its
        #: own to hit).
        self.cross_session_probe_hits = 0
        #: failure-semantics counters (the [faults] stats section):
        #: sessions that reached the terminal ``failed`` state, clean
        #: protocol errors sent, oversized lines rejected, connections
        #: dropped mid-verb
        self.sessions_failed = 0
        self.protocol_errors = 0
        self.oversized_lines = 0
        self.connections_dropped = 0
        #: True when *this daemon* installed the process-global fault
        #: injector (uninstalled again at shutdown, so an in-process
        #: daemon leaves no injector behind for its host process)
        self._installed_faults = faults.ensure_installed(
            self.config.fault_plan)
        self.address: Optional[tuple] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    async def serve(self, host: str = "127.0.0.1", port: int = 0, *,
                    ready: Optional[threading.Event] = None) -> None:
        """Listen until :meth:`request_stop` (or SIGTERM/SIGINT) fires,
        then drain in-flight sessions and release every owned resource."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._admission = asyncio.Semaphore(self.max_concurrent)
        self._db_locks = {name: asyncio.Lock() for name in self.databases}
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_concurrent,
            thread_name_prefix="repro-serve")
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                # Not the main thread (the in-process test helper) or an
                # event loop without signal support; stop() still works.
                break
        server = await asyncio.start_server(self._handle_connection,
                                            host, port,
                                            limit=self.MAX_LINE_BYTES)
        self.address = server.sockets[0].getsockname()[:2]
        if ready is not None:
            ready.set()
        print(f"[serve] listening on {self.address[0]}:{self.address[1]} "
              f"({len(self.databases)} databases: "
              f"{', '.join(sorted(self.databases))})", flush=True)
        try:
            async with server:
                await self._stop.wait()
        finally:
            await self._shutdown()

    def request_stop(self) -> None:
        """Thread-safe shutdown trigger (the in-process equivalent of
        SIGTERM)."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)

    async def _shutdown(self) -> None:
        """Graceful drain: cancel sessions, wait for in-flight
        enumerations, then release every owned resource.

        Every step is exception-guarded: one session (or database) that
        fails to close must not abandon the rest, and in particular must
        not skip ``context.close()`` — that call flushes the bounded
        probe caches' eviction sinks and persists every cache to the
        ``--cache-dir`` store, which is the shutdown contract.
        """
        print("[serve] shutting down: cancelling sessions", flush=True)
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            try:
                session.core.cancel("server shutting down")
            except Exception as exc:  # pragma: no cover - defensive
                print(f"[serve] cancel of session {session.id} failed: "
                      f"{exc}", flush=True)
        # In-flight enumerations observe the cancel at their next engine
        # checkpoint; wait for them off-loop so the loop stays live.
        await self._loop.run_in_executor(None, self._executor.shutdown)
        print(f"[serve] drained {len(sessions)} sessions", flush=True)
        for session in sessions:
            try:
                session.core.system.close()
            except Exception as exc:  # pragma: no cover - defensive
                print(f"[serve] close of session {session.id} failed: "
                      f"{exc}", flush=True)
        try:
            # Flushes eviction sinks and persists probe caches.
            self.context.close()
        except Exception as exc:  # pragma: no cover - defensive
            print(f"[serve] service context close failed: {exc}",
                  flush=True)
        for db in self.databases.values():
            try:
                db.close()
            except Exception:  # pragma: no cover - defensive
                pass
        if self._installed_faults:
            faults.uninstall()
        print("[serve] shutdown complete: pools closed, "
              "cache store flushed", flush=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _reject_oversized(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """Answer an over-limit request line with a clean protocol
        error; the caller then closes the connection."""
        self.oversized_lines += 1
        self.protocol_errors += 1
        writer.write(wire.encode(protocol.error_response(
            None, f"request line exceeds {self.MAX_LINE_BYTES} bytes; "
            "closing connection")))
        try:
            await writer.drain()
            # Drain the rest of the offending line (bounded) so the
            # close is a FIN, not an RST that could discard the error
            # reply from the client's receive buffer mid-flight.
            for _ in range(64):
                chunk = await asyncio.wait_for(
                    reader.read(1 << 20), timeout=1.0)
                if not chunk or b"\n" in chunk:
                    break
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass

    def _maybe_inject_connection_fault(self) -> Optional[str]:
        """The drawn ``daemon.connection`` fault mode, if any.

        Booked surfaced immediately — both modes end in a counted,
        client-visible outcome (a protocol error or a dropped
        connection).
        """
        injector = faults.ACTIVE
        if injector is None:
            return None
        rule = injector.draw("daemon.connection")
        if rule is None:
            return None
        injector.note_surfaced("daemon.connection")
        return rule.mode

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                line = await reader.readline()
            except ValueError:
                # StreamReader found no newline within the buffer limit.
                await self._reject_oversized(reader, writer)
                return
            if not line:
                return
            request_id: object = None
            try:
                payload = wire.decode(line.strip())
                request_id = payload.get("id")
                protocol.check_hello(payload)
            except wire.ProtocolError as exc:
                self.protocol_errors += 1
                writer.write(wire.encode(
                    protocol.error_response(request_id, str(exc))))
                await writer.drain()
                return
            writer.write(wire.encode(
                protocol.hello_response(request_id, self.epoch)))
            await writer.drain()
            while self._stop is not None and not self._stop.is_set():
                try:
                    line = await reader.readline()
                except ValueError:
                    await self._reject_oversized(reader, writer)
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                mode = self._maybe_inject_connection_fault()
                if mode == "oversized":
                    await self._reject_oversized(reader, writer)
                    break
                if mode == "vanish":
                    self.connections_dropped += 1
                    raise ConnectionResetError(
                        "[injected:daemon.connection] client vanished "
                        "mid-verb")
                request_id = None
                try:
                    payload = wire.decode(line)
                    request_id = payload.get("id")
                    verb = protocol.validate_verb(payload)
                    response = await self._dispatch(verb, payload)
                except wire.ProtocolError as exc:
                    self.protocol_errors += 1
                    response = protocol.error_response(request_id,
                                                       str(exc))
                except Exception as exc:
                    # Surface failures on the wire — a broken request
                    # must never take the connection (or daemon) down.
                    response = protocol.error_response(
                        request_id, f"{type(exc).__name__}: {exc}")
                response["id"] = request_id
                writer.write(wire.encode(response))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, verb: str,
                        payload: Dict[str, object]) -> Dict[str, object]:
        if verb == "stats":
            return {"stats": self.stats()}
        if verb == "create":
            return await self._create(payload)
        if verb == "refine":
            return await self._refine(payload)
        if verb == "status":
            return self._status(payload)
        return self._cancel(payload)

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def _session_for(self, payload: Dict[str, object]) -> _Session:
        session_id = str(protocol.require(payload, "session"))
        with self._lock:
            session = self._sessions.get(session_id)
            retired_state = self._retired.get(session_id)
        if session is None:
            if retired_state is not None:
                raise wire.ProtocolError(
                    f"session {session_id!r} was retired "
                    f"(final state {retired_state!r})")
            raise wire.ProtocolError(
                f"unknown session {session_id!r}")
        return session

    def _retire_terminal_locked(self) -> List[_Session]:
        """Pop finished/cancelled sessions past the retention bound.

        Terminal sessions stay addressable (status on a cancelled id
        keeps working) up to ``max_terminal_sessions``; beyond that the
        oldest are retired in arrival order. Returns the retired
        sessions for the caller to tear down *outside* the lock (their
        teardown hooks touch the probe-cache registry).
        """
        terminal = [s for s in self._sessions.values()
                    if s.core.state in (STATE_DONE, STATE_CANCELLED,
                                        STATE_FAILED)]
        retired: List[_Session] = []
        for session in terminal[:max(
                0, len(terminal) - self.max_terminal_sessions)]:
            del self._sessions[session.id]
            self._retired[session.id] = session.core.state
            self.sessions_retired += 1
            retired.append(session)
        # The tombstone table is itself bounded — it exists to turn
        # "retired" into a clean protocol error, not to remember every
        # session forever.
        while len(self._retired) > 4 * self.max_terminal_sessions:
            self._retired.popitem(last=False)
        return retired

    def _teardown_retired(self, retired: List[_Session]) -> None:
        for session in retired:
            # close() settles state (a cancelled session stays
            # cancelled) and fires the core's release hook, dropping
            # the session's probe-cache lease.
            session.core.close()
            session.core.system.close()

    async def _create(self, payload: Dict[str, object]
                      ) -> Dict[str, object]:
        name = str(protocol.require(payload, "database", "create"))
        if name not in self.databases:
            raise wire.ProtocolError(
                f"unknown database {name!r}; serving "
                f"{sorted(self.databases)}")
        nlq_text = str(protocol.require(payload, "nlq", "create"))
        nlq = NLQuery.from_text(nlq_text,
                                literals=payload.get("literals"))
        tsq = (_tsq_from_wire(payload["tsq"])
               if payload.get("tsq") else None)
        db = self.databases[name]
        system = Duoquest(db, model=self.context.guidance,
                          config=self.config,
                          probe_cache=self.context.probe_cache_for(db),
                          pool_manager=self.context.pool_manager)
        max_candidates = payload.get("max_candidates",
                                     self.session_max_candidates)
        max_probes = payload.get("max_probes", self.session_max_probes)
        caches = self.context.caches
        with self._lock:
            # A client-chosen id lets a *different* connection address
            # the session (status/cancel) while its first enumeration
            # is still running.
            session_id = str(payload.get("session")
                             or f"s{next(self._session_seq)}")
            if session_id in self._sessions:
                raise wire.ProtocolError(
                    f"session {session_id!r} already exists")
            session = _Session(session_id, name,
                               SessionCore(system, session_id=session_id,
                                           max_candidates=max_candidates,
                                           max_probes=max_probes,
                                           on_release=lambda:
                                           caches.release(db)))
            self._sessions[session_id] = session
            self.sessions_created += 1
        # Lease the database's probe cache for this session's lifetime;
        # the core's release hook (fired once, on its terminal state)
        # pairs with this, so the registry's LRU bound never evicts a
        # cache a live session is using.
        caches.acquire(db)
        result = await self._enumerate(
            session, lambda: session.core.submit(nlq, tsq))
        return self._round_response(session, result)

    async def _refine(self, payload: Dict[str, object]
                      ) -> Dict[str, object]:
        session = self._session_for(payload)
        if payload.get("nlq") is not None:
            call: Callable[[], SynthesisResult] = \
                lambda: session.core.rephrase(
                    str(payload["nlq"]),
                    literals=payload.get("literals"))
        else:
            call = lambda: session.core.refine_tsq(
                extra_rows=payload.get("extra_rows", ()),
                sorted=payload.get("sorted"),
                limit=payload.get("limit"),
                negative_rows=payload.get("negative_rows", ()),
                tolerance=payload.get("tolerance"))
        result = await self._enumerate(session, call)
        return self._round_response(session, result)

    def _status(self, payload: Dict[str, object]) -> Dict[str, object]:
        session = self._session_for(payload)
        status = {"session": session.id, "database": session.database,
                  "state": session.core.state,
                  "rounds": len(session.core.rounds),
                  "budgets": session.core.budgets(),
                  "epoch": self.epoch}
        if session.core.state == STATE_FAILED:
            status["reason"] = session.core.fail_reason
        return status

    def _cancel(self, payload: Dict[str, object]) -> Dict[str, object]:
        session = self._session_for(payload)
        session.core.cancel(
            str(payload.get("reason") or "cancelled by client"))
        with self._lock:
            retired = self._retire_terminal_locked()
        self._teardown_retired(retired)
        return {"session": session.id, "state": session.core.state,
                "epoch": self.epoch}

    # ------------------------------------------------------------------
    # Enumeration plumbing
    # ------------------------------------------------------------------
    async def _enumerate(self, session: _Session,
                         call: Callable[[], SynthesisResult]
                         ) -> SynthesisResult:
        first_round = not session.core.rounds
        try:
            async with self._admission:
                async with self._db_locks[session.database]:
                    if self._stop.is_set():
                        raise wire.ProtocolError(
                            "server shutting down")
                    result = await self._loop.run_in_executor(
                        self._executor, call)
        except Exception:
            # Crash containment: an engine failure settles *this*
            # session to its terminal failed state (done in
            # SessionCore.submit) and surfaces on the wire as an error
            # response; siblings and the daemon are untouched. Budget
            # or bad-state rejections leave the session alive, so the
            # state check distinguishes them from real crashes.
            with self._lock:
                if session.core.state == STATE_FAILED:
                    self.sessions_failed += 1
                retired = self._retire_terminal_locked()
            self._teardown_retired(retired)
            raise
        telemetry = result.telemetry
        with self._lock:
            self.rounds_served += 1
            if telemetry is not None:
                if telemetry.pool_reused:
                    self.pool_reused_rounds += 1
                if first_round:
                    self.cross_session_probe_hits += \
                        telemetry.cross_task_probe_hits
                if telemetry.snapshot_degraded \
                        or telemetry.guidance_degraded:
                    self.epoch += 1
                    self.degrade_reason = (
                        "verification pool degraded"
                        if telemetry.snapshot_degraded
                        else "guidance degraded to the local model")
            retired = self._retire_terminal_locked()
        self._teardown_retired(retired)
        return result

    def _round_response(self, session: _Session,
                        result: SynthesisResult) -> Dict[str, object]:
        return {
            "session": session.id,
            "state": session.core.state,
            "epoch": self.epoch,
            "round": len(session.core.rounds),
            "elapsed": result.elapsed,
            "timed_out": result.timed_out,
            # Emission order, not ranked: the bit-for-bit contract is on
            # the candidate *stream*.
            "candidates": [{"index": c.index,
                            "confidence": c.confidence,
                            "sql": to_sql(c.query)}
                           for c in result.candidates],
            "telemetry": (result.telemetry.as_dict()
                          if result.telemetry is not None else None),
        }

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The live service snapshot behind the ``stats`` verb."""
        with self._lock:
            by_state: Dict[str, int] = {}
            for session in self._sessions.values():
                state = session.core.state
                by_state[state] = by_state.get(state, 0) + 1
            snapshot: Dict[str, object] = {
                "server": protocol.SERVER_NAME,
                "v": wire.PROTOCOL_VERSION,
                "epoch": self.epoch,
                "degrade_reason": self.degrade_reason,
                "databases": sorted(self.databases),
                "sessions": {
                    "created": self.sessions_created,
                    "open": len(self._sessions),
                    "active": by_state.get(STATE_ENUMERATING, 0),
                    "by_state": by_state,
                    "retired": self.sessions_retired,
                    "failed": self.sessions_failed,
                    "max_terminal": self.max_terminal_sessions,
                },
                "rounds_served": self.rounds_served,
                "pool_reused_rounds": self.pool_reused_rounds,
                "cross_session_probe_hits": self.cross_session_probe_hits,
            }
            active_plan = faults.ACTIVE
            snapshot["faults"] = {
                "plan": (active_plan.plan.spec
                         if active_plan is not None else None),
                "counters": faults.counters(),
                "total_injected": faults.injected_total(),
                "protocol_errors": self.protocol_errors,
                "oversized_lines": self.oversized_lines,
                "connections_dropped": self.connections_dropped,
                "sessions_failed": self.sessions_failed,
            }
        snapshot["pool"] = dict(self.context.pool_manager.stats)
        snapshot["probe_cache"] = self.context.caches.counters()
        snapshot["probe_cache_sizes"] = self.context.caches.sizes()
        guidance = self.context.guidance
        cache = getattr(guidance, "cache", None)
        if cache is not None:
            snapshot["guidance_cache"] = {"entries": len(cache),
                                          "hits": cache.hits,
                                          "misses": cache.misses}
        return snapshot


# ----------------------------------------------------------------------
# In-process helper (tests, embedding)
# ----------------------------------------------------------------------
class DaemonHandle:
    """A daemon serving on a background thread."""

    def __init__(self, daemon: SynthesisDaemon,
                 thread: threading.Thread):
        self.daemon = daemon
        self.thread = thread

    @property
    def host(self) -> str:
        return self.daemon.address[0]

    @property
    def port(self) -> int:
        return self.daemon.address[1]

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown; joins the serving thread."""
        self.daemon.request_stop()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("daemon did not shut down in time")


def spawn_daemon(daemon: SynthesisDaemon, host: str = "127.0.0.1",
                 port: int = 0) -> DaemonHandle:
    """Serve ``daemon`` on a background thread; returns once bound.

    ``port=0`` picks a free port (read it back from ``handle.port``).
    Call from the thread that constructed the daemon's databases — the
    forks happen in :class:`SynthesisDaemon`'s constructor, so by the
    time this spawns, connections are already thread-hoppable.
    """
    ready = threading.Event()
    failure: List[BaseException] = []

    def run() -> None:
        try:
            asyncio.run(daemon.serve(host, port, ready=ready))
        except BaseException as exc:
            failure.append(exc)
            ready.set()

    thread = threading.Thread(target=run, daemon=True,
                              name="repro-serve-daemon")
    thread.start()
    if not ready.wait(timeout=30.0):
        raise RuntimeError("daemon did not start in time")
    if failure:
        raise RuntimeError(f"daemon failed to start: {failure[0]}")
    return DaemonHandle(daemon, thread)
