"""Daemon behaviour: bit-identical streams, sharing, cancel, shutdown.

The service contract under test (see ``repro.serve.daemon``): serving a
session through the daemon — warm pools, shared probe caches, shared
batching guidance, concurrency — yields exactly the candidate stream an
equivalent direct run emits; the sharing is visible only in ``stats``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.enumerator import EnumeratorConfig
from repro.guidance import LexicalGuidanceModel
from repro.serve import SynthesisClient, SynthesisDaemon
from repro.serve.client import ServeRequestError

from tests.conftest import build_movie_db
from tests.serve.conftest import (
    NLQ,
    LITERALS,
    TSQ_ROWS,
    reference_stream,
    serve_config,
    wire_stream,
)


class TestGoldenEquivalence:
    def test_daemon_round_matches_direct_run(self, daemon_factory,
                                             client_for):
        """A single daemon session's candidate stream is bit-for-bit
        the stream the equivalent CLI-style direct run emits."""
        db = build_movie_db()
        handle = daemon_factory({"movies": db})
        client = client_for(handle)
        response = client.create("movies", NLQ, literals=list(LITERALS),
                                 tsq_rows=[list(r) for r in TSQ_ROWS])
        expected = reference_stream(build_movie_db())
        assert expected, "reference run must emit candidates"
        assert wire_stream(response) == expected

    def test_refinement_round_matches_direct_session(self, daemon_factory,
                                                     client_for):
        """Round 2 after a TSQ refinement matches a direct
        DuoquestSession performing the same refinement."""
        from repro.core import Duoquest
        from repro.interaction import DuoquestSession
        from repro.nlq import NLQuery
        from repro.sqlir import to_sql

        handle = daemon_factory({"movies": build_movie_db()})
        client = client_for(handle)
        round1 = client.create("movies", NLQ, literals=list(LITERALS),
                               tsq_rows=[list(r) for r in TSQ_ROWS])
        round2 = client.refine(round1["session"],
                               extra_rows=[["Movie 05"]])

        direct_db = build_movie_db()
        direct = DuoquestSession.open(
            direct_db, Duoquest(direct_db, model=LexicalGuidanceModel(),
                                config=serve_config()))
        from repro.core import TableSketchQuery
        direct.submit(NLQuery.from_text(NLQ, literals=list(LITERALS)),
                      TableSketchQuery.build(
                          rows=[list(r) for r in TSQ_ROWS]))
        result = direct.refine_tsq(extra_rows=[["Movie 05"]])
        expected = [(c.index, c.confidence, to_sql(c.query))
                    for c in result.candidates]
        assert wire_stream(round2) == expected


class TestDefaultConfig:
    def test_default_config_verifies_inline(self, daemon_factory,
                                            client_for):
        """Without a config the daemon verifies inline: no worker
        thread spawns, nothing degrades, and the stream is a direct
        single-worker run's."""
        import dataclasses

        handle = daemon_factory({"movies": build_movie_db()}, config=None)
        daemon = handle.daemon
        assert daemon.config.workers == 1
        daemon.config = dataclasses.replace(
            daemon.config, max_candidates=24, time_budget=10.0)
        client = client_for(handle)
        response = client.create("movies", NLQ, literals=list(LITERALS),
                                 tsq_rows=[list(r) for r in TSQ_ROWS])
        expected = reference_stream(build_movie_db(),
                                    config=serve_config(workers=1))
        assert expected and wire_stream(response) == expected
        assert response["telemetry"]["workers"] == 1
        assert not response["telemetry"]["snapshot_degraded"]

        stats = client.stats()
        assert stats["pool"]["worker_spawns"] == 0
        assert stats["pool"]["fallback_leases"] == 1
        assert stats["epoch"] == 0 and stats["degrade_reason"] == ""


class TestConcurrentSessions:
    def test_concurrent_sessions_bit_identical_and_shared(
            self, daemon_factory, two_dbs):
        """Four concurrent sessions across two databases each emit the
        stream a sequential direct run emits — and the later session on
        each database hits the earlier one's probes (cross-session
        reuse) and warm pool."""
        handle = daemon_factory(two_dbs)
        streams = {}
        errors = []

        def run_session(slot, database):
            try:
                with SynthesisClient.connect(handle.host,
                                             handle.port) as client:
                    response = client.create(
                        database, NLQ, literals=list(LITERALS),
                        tsq_rows=[list(r) for r in TSQ_ROWS])
                    streams[slot] = (database, wire_stream(response))
            except BaseException as exc:  # surface in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=run_session,
                                    args=(i, name))
                   for i, name in enumerate(
                       ["movies_a", "movies_b", "movies_a", "movies_b"])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not errors, errors
        assert len(streams) == 4

        expected = reference_stream(build_movie_db())
        assert expected
        for slot, (database, stream) in streams.items():
            assert stream == expected, \
                f"session {slot} on {database} diverged"

        stats = handle.daemon.stats()
        assert stats["sessions"]["created"] == 4
        # The second session on each database re-ran the same probes
        # against the shared per-database cache: its first round's
        # cross-generation hits are cross-session by construction.
        assert stats["cross_session_probe_hits"] > 0
        # ... and leased each database's already-warm thread pool.
        assert stats["pool_reused_rounds"] >= 2
        assert stats["pool"]["persistent_leases"] >= 4

    def test_sessions_on_one_database_are_serialised(self, daemon_factory,
                                                     client_for):
        """The per-database lock is FIFO: concurrent creates on one
        database both finish, both match the reference."""
        handle = daemon_factory({"movies": build_movie_db()})
        results = {}

        def run(slot):
            with SynthesisClient.connect(handle.host,
                                         handle.port) as client:
                response = client.create(
                    "movies", NLQ, literals=list(LITERALS),
                    tsq_rows=[list(r) for r in TSQ_ROWS])
                results[slot] = wire_stream(response)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        expected = reference_stream(build_movie_db())
        assert results[0] == expected and results[1] == expected


class _SlowLexical(LexicalGuidanceModel):
    """Deterministic but slow: stretches enumerations so a cancel can
    land mid-run."""

    def column(self, ctx, slot, candidates):
        time.sleep(0.005)
        return super().column(ctx, slot, candidates)


class TestCancellation:
    def test_cancel_mid_enumeration_releases_the_pool(
            self, daemon_factory, client_for):
        """Cancelling a running enumeration stops it cooperatively
        (cancelled state + telemetry), and the session's pool lease is
        released — the next session leases the same warm pool."""
        handle = daemon_factory(
            {"movies": build_movie_db()},
            config=serve_config(time_budget=30.0, max_candidates=None),
            model=_SlowLexical())
        controller = client_for(handle)
        outcome = {}

        def run_create():
            with SynthesisClient.connect(handle.host,
                                         handle.port) as client:
                outcome["response"] = client.create(
                    "movies", NLQ, literals=list(LITERALS),
                    tsq_rows=[list(r) for r in TSQ_ROWS],
                    session="victim")

        worker = threading.Thread(target=run_create)
        worker.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                if controller.status("victim")["state"] == "enumerating":
                    break
            except ServeRequestError:
                pass  # create still registering
            time.sleep(0.01)
        else:
            pytest.fail("session never started enumerating")
        cancelled = controller.cancel("victim", reason="test cancel")
        assert cancelled["state"] == "cancelled"
        worker.join(60)
        assert not worker.is_alive()

        response = outcome["response"]
        assert response["state"] == "cancelled"
        telemetry = response["telemetry"]
        assert telemetry["cancelled"]
        assert telemetry["cancel_reason"] == "test cancel"

        # The lease went back: a fresh session leases the same warm
        # pool (reused, no new worker spawn) and completes normally.
        # (Bound the round — the slow model would otherwise stretch an
        # uncapped enumeration past the socket timeout.)
        follow_up = controller.create("movies", NLQ,
                                      literals=list(LITERALS),
                                      tsq_rows=[list(r) for r in TSQ_ROWS],
                                      max_candidates=3)
        assert follow_up["state"] == "awaiting-refinement"
        assert follow_up["telemetry"]["pool_reused"]
        assert follow_up["candidates"]

        refused = controller.status("victim")
        assert refused["state"] == "cancelled"


class TestBudgets:
    def test_candidate_budget_is_cumulative(self, daemon_factory,
                                            client_for):
        handle = daemon_factory({"movies": build_movie_db()})
        client = client_for(handle)
        round1 = client.create("movies", NLQ, literals=list(LITERALS),
                               tsq_rows=[list(r) for r in TSQ_ROWS],
                               max_candidates=5)
        assert len(round1["candidates"]) == 5
        budgets = client.status(round1["session"])["budgets"]
        assert budgets["max_candidates"] == 5
        assert budgets["candidates_emitted"] == 5
        assert budgets["max_probes"] is None
        with pytest.raises(ServeRequestError, match="candidate budget"):
            client.refine(round1["session"], extra_rows=[["Movie 05"]])

    def test_probe_budget_tracks_executed_probes(self, daemon_factory,
                                                 client_for):
        handle = daemon_factory({"movies": build_movie_db()})
        client = client_for(handle)
        round1 = client.create("movies", NLQ, literals=list(LITERALS),
                               tsq_rows=[list(r) for r in TSQ_ROWS],
                               max_probes=1)
        budgets = client.status(round1["session"])["budgets"]
        assert budgets["probes_executed"] >= 1
        with pytest.raises(ServeRequestError, match="probe budget"):
            client.refine(round1["session"], extra_rows=[["Movie 05"]])


class TestShutdown:
    def test_graceful_shutdown_closes_pools_and_flushes_caches(
            self, client_for, tmp_path):
        from repro.serve import spawn_daemon

        db = build_movie_db()
        daemon = SynthesisDaemon({"movies": db}, config=serve_config(),
                                 cache_dir=str(tmp_path))
        handle = spawn_daemon(daemon)
        client = client_for(handle)
        response = client.create("movies", NLQ, literals=list(LITERALS),
                                 tsq_rows=[list(r) for r in TSQ_ROWS])
        assert response["telemetry"]["probe_misses"] > 0
        handle.stop()
        assert daemon.context.closed
        assert daemon.context.pool_manager.closed
        saved = list(tmp_path.iterdir())
        assert saved, "probe-cache store was not flushed on shutdown"

    def test_stop_with_no_sessions(self, daemon_factory):
        handle = daemon_factory({"movies": build_movie_db()})
        handle.stop()
        assert handle.daemon.context.closed


class TestStateMachineOverTheWire:
    def test_refine_after_cancel_is_an_error(self, daemon_factory,
                                             client_for):
        handle = daemon_factory({"movies": build_movie_db()})
        client = client_for(handle)
        round1 = client.create("movies", NLQ, literals=list(LITERALS),
                               tsq_rows=[list(r) for r in TSQ_ROWS])
        client.cancel(round1["session"])
        with pytest.raises(ServeRequestError, match="cannot submit"):
            client.refine(round1["session"], extra_rows=[["Movie 05"]])

    def test_duplicate_session_id_is_an_error(self, daemon_factory,
                                              client_for):
        handle = daemon_factory({"movies": build_movie_db()})
        client = client_for(handle)
        client.create("movies", NLQ, literals=list(LITERALS),
                      session="dup")
        with pytest.raises(ServeRequestError, match="already exists"):
            client.create("movies", NLQ, literals=list(LITERALS),
                          session="dup")
