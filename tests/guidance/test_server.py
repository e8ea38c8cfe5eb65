"""Server guidance backend: wire protocol, live scoring, degrade rules.

Spins the stub server from ``examples/guidance_server.py`` up on an
ephemeral port and drives ``ServerGuidanceModel`` against it; the
failure-mode tests stand up misbehaving servers instead. The contract:
a healthy server answers whole batches in one round trip with
distributions over the caller's own candidate objects; any failure
(dead address, timeout, wrong arity, garbage) logs a warning, flips
``degraded``, and routes everything to the local fallback model — the
stream switches scorer visibly, exactly once, and never crashes.
"""

from __future__ import annotations

import importlib.util
import json
import logging
import socketserver
import threading
from pathlib import Path

import pytest

from repro.guidance.base import GuidanceRequest, SLOT_SELECT, SLOT_WHERE
from repro.guidance.batched import ServerGuidanceModel
from repro.guidance.oracle import CalibratedOracleModel

from tests.guidance.test_batched import col_request, kw_request, make_ctx

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" \
    / "guidance_server.py"


def load_example():
    spec = importlib.util.spec_from_file_location("guidance_server_example",
                                                  EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def stub():
    module = load_example()
    server = module.make_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield module, f"{host}:{port}"
    server.shutdown()
    server.server_close()


def serve_lines(reply_fn):
    """A one-shot TCP server answering each request line via reply_fn."""
    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            for line in self.rfile:
                reply = reply_fn(line)
                if reply is None:
                    return
                self.wfile.write(reply.encode("utf-8"))
                self.wfile.flush()

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    return server, f"{host}:{port}"


def handshake_reply(line, version=1):
    """The well-formed handshake response for a client ``hello`` line,
    or None when the line is not a handshake."""
    payload = json.loads(line)
    if payload.get("hello"):
        return json.dumps({"id": payload.get("id"), "v": version}) + "\n"
    return None


def serve_scripted(score_replies, version=1):
    """A server that handshakes properly, then plays ``score_replies``
    (a list of reply factories taking the parsed request) for score
    lines, and hangs up when the script runs out."""
    script = list(score_replies)

    def reply(line):
        shake = handshake_reply(line, version=version)
        if shake is not None:
            return shake
        if not script:
            return None
        factory = script.pop(0)
        return factory(json.loads(line))

    return serve_lines(reply)


class TestStubScorer:
    def test_scores_align_with_candidates_and_are_deterministic(self):
        module = load_example()
        request = {"method": "column", "nlq": "movies before 1995",
                   "candidates": ["title", "year", "revenue"]}
        first = module.score_request(request)
        assert len(first) == 3
        assert first == module.score_request(request)

    def test_batch_reply_echoes_the_request_id(self):
        module = load_example()
        reply = module.score_batch({"id": 42, "requests": [
            {"method": "logic", "nlq": "x", "candidates": ["AND", "OR"]}]})
        assert reply["id"] == 42
        assert len(reply["scores"]) == 1 and len(reply["scores"][0]) == 2


class TestLiveServer:
    def test_batch_round_trip_returns_normalised_distributions(self, stub):
        _, address = stub
        model = ServerGuidanceModel(address,
                                    fallback=CalibratedOracleModel(seed=0))
        try:
            requests = [kw_request(), col_request(),
                        GuidanceRequest("logic", make_ctx())]
            distributions = model.score_batch(requests)
            assert not model.degraded
            assert len(distributions) == 3
            for request, dist in zip(requests, distributions):
                from repro.guidance.batched import request_candidates

                assert {c for c, _ in dist} == set(request_candidates(request))
                assert abs(sum(p for _, p in dist) - 1.0) < 1e-6
        finally:
            model.close()

    def test_identical_requests_score_identically(self, stub):
        _, address = stub
        model = ServerGuidanceModel(address,
                                    fallback=CalibratedOracleModel(seed=0))
        try:
            first = model.score_batch([col_request()])
            second = model.score_batch([col_request()])
            assert first == second
        finally:
            model.close()

    def test_per_call_method_routes_through_the_server(self, stub):
        _, address = stub
        model = ServerGuidanceModel(address,
                                    fallback=CalibratedOracleModel(seed=0))
        try:
            dist = model.clause_presence(make_ctx(), SLOT_WHERE)
            assert {choice for choice, _ in dist} == {True, False}
            assert not model.degraded
        finally:
            model.close()

    def test_serialize_carries_the_scorer_inputs(self):
        request = col_request()
        payload = ServerGuidanceModel.serialize(
            request, list(request.args[-1]))
        assert payload["method"] == "column"
        assert payload["nlq"] == "movies before 1995"
        assert payload["schema"] == "movies"
        assert payload["task"] == "t1"
        assert len(payload["candidates"]) == 2
        json.dumps(payload)  # must be wire-safe as-is


class TestDegrade:
    def fallback_model(self):
        return CalibratedOracleModel(seed=0)

    def test_dead_address_degrades_to_fallback(self, caplog):
        fallback = self.fallback_model()
        model = ServerGuidanceModel("127.0.0.1:1", fallback=fallback,
                                    timeout=0.5)
        request = kw_request()
        with caplog.at_level(logging.WARNING, "repro.guidance.batched"):
            result = model.score_batch([request])
        assert model.degraded
        assert "degrading to the local" in caplog.text
        assert result == [request.invoke(self.fallback_model())]

    def test_exhausted_budget_degrades_permanently(self, caplog):
        """Reconnects are bounded: once the budget is spent the model
        never opens another socket — the pre-reconnect contract."""
        model = ServerGuidanceModel("127.0.0.1:1",
                                    fallback=self.fallback_model(),
                                    timeout=0.5, max_reconnects=2)
        with caplog.at_level(logging.WARNING, "repro.guidance.batched"):
            for _ in range(5):
                model.score_batch([kw_request()])
        assert model.degraded
        assert model.reconnects == 0
        assert "giving up on reconnects" in caplog.text
        connects = []
        original = ServerGuidanceModel._ensure_connection

        def counting(self):
            connects.append(1)
            return original(self)

        ServerGuidanceModel._ensure_connection = counting
        try:
            model.score_batch([col_request()])
        finally:
            ServerGuidanceModel._ensure_connection = original
        assert not connects, "a permanently degraded model reconnected"

    def test_reconnect_heals_after_a_server_restart(self, stub, caplog):
        """The ROADMAP item: a scorer restart mid-run must not cost the
        rest of the run. First batch dies on a hung-up server; the next
        one reconnects (to the healthy stub) and is server-scored."""
        module, address = stub
        # A server that handshakes, then hangs up before scoring.
        dying, dying_address = serve_scripted([])
        try:
            fallback = self.fallback_model()
            model = ServerGuidanceModel(dying_address, fallback=fallback,
                                        timeout=2.0, max_reconnects=2)
            request = kw_request()
            with caplog.at_level(logging.WARNING,
                                 "repro.guidance.batched"):
                first = model.score_batch([request])
            assert model.degraded
            assert first == [request.invoke(self.fallback_model())]
            epoch_after_degrade = model.scorer_epoch
            # "Restart" the scorer: point the model at the healthy stub.
            model.host, model.port = address.rsplit(":", 1)[0], \
                int(address.rsplit(":", 1)[1])
            second = model.score_batch([request])
            assert not model.degraded
            assert model.reconnects == 1
            assert model.scorer_epoch == epoch_after_degrade + 1
            assert "reconnected" in caplog.text
            # Server-scored again: differs from the fallback's answer.
            assert second != [request.invoke(self.fallback_model())]
        finally:
            dying.shutdown()
            dying.server_close()


class TestHandshake:
    def fallback_model(self):
        return CalibratedOracleModel(seed=0)

    def test_handshake_runs_on_connect(self, stub):
        _, address = stub
        model = ServerGuidanceModel(address,
                                    fallback=self.fallback_model())
        try:
            model.score_batch([kw_request()])
            assert not model.degraded  # handshake + scoring both fine
        finally:
            model.close()

    def test_version_mismatch_degrades_permanently(self, caplog):
        """A peer speaking another protocol version is rejected at the
        handshake — permanently, with the whole reconnect budget
        forfeited (reconnecting cannot fix an incompatibility)."""
        server, address = serve_scripted([], version=99)
        try:
            model = ServerGuidanceModel(address,
                                        fallback=self.fallback_model(),
                                        timeout=2.0, max_reconnects=5)
            request = kw_request()
            with caplog.at_level(logging.WARNING,
                                 "repro.guidance.batched"):
                result = model.score_batch([request])
            assert model.degraded
            assert "protocol" in caplog.text
            assert result == [request.invoke(self.fallback_model())]
            # The budget is forfeit: no further connection attempts.
            connects = []
            original = ServerGuidanceModel._ensure_connection

            def counting(inner_self):
                connects.append(1)
                return original(inner_self)

            ServerGuidanceModel._ensure_connection = counting
            try:
                model.score_batch([kw_request()])
            finally:
                ServerGuidanceModel._ensure_connection = original
            assert not connects
        finally:
            server.shutdown()
            server.server_close()

    def test_stub_server_answers_the_handshake(self):
        module = load_example()
        reply = module.score_batch({"id": 3, "hello": True})
        assert reply == {"id": 3, "v": 1}

    @pytest.mark.parametrize("reply", [
        "not json\n",                                      # garbage
        json.dumps({"id": 0, "scores": []}) + "\n",        # wrong arity
        json.dumps({"id": 999, "scores": [[1.0, 1.0]]}) + "\n",  # bad id
        json.dumps({"id": 0, "scores": [[1.0]]}) + "\n",   # short scores
        None,                                              # hangup
    ])
    def test_protocol_violations_degrade(self, caplog, reply):
        server, address = serve_lines(lambda line: reply)
        try:
            fallback = self.fallback_model()
            model = ServerGuidanceModel(address, fallback=fallback,
                                        timeout=2.0)
            request = kw_request()
            with caplog.at_level(logging.WARNING, "repro.guidance.batched"):
                result = model.score_batch([request])
            assert model.degraded
            assert result == [request.invoke(self.fallback_model())]
        finally:
            server.shutdown()
            server.server_close()

    def test_bad_address_format_rejected_upfront(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            ServerGuidanceModel("nonsense", fallback=self.fallback_model())

    def test_degrade_flushes_cached_server_distributions(self, caplog):
        """Once the server fails, the batching layer must not keep
        serving its pre-degrade distributions from cache — from the
        switch on, *every* answer is the fallback's."""
        from repro.guidance.batched import BatchingGuidanceModel

        # Handshakes, scores exactly one batch, then hangs up for good.
        server, address = serve_scripted([
            lambda payload: json.dumps(
                {"id": payload["id"], "scores": [[5.0, 1.0]]}) + "\n",
        ])
        try:
            model = BatchingGuidanceModel(ServerGuidanceModel(
                address, fallback=self.fallback_model(), timeout=2.0,
                max_reconnects=0))
            request = kw_request()
            with caplog.at_level(logging.WARNING, "repro.guidance.batched"):
                server_scored = model.score_batch([request])[0]
                # A second, different request hits the hung-up server
                # and triggers the degrade.
                model.score_batch([col_request()])
                assert model.degraded
                after = model.score_batch([request])[0]
            fallback_answer = request.invoke(self.fallback_model())
            assert server_scored != fallback_answer  # scorers do differ
            assert after == fallback_answer, \
                "a cached server distribution survived the degrade"
        finally:
            server.shutdown()
            server.server_close()

    def test_reconnect_flushes_cached_fallback_distributions(self, stub):
        """The symmetric flush: distributions cached while degraded are
        the fallback's; after a successful reconnect every answer must
        come from the server again."""
        from repro.guidance.batched import BatchingGuidanceModel

        _, address = stub
        dying, dying_address = serve_scripted([])
        try:
            inner = ServerGuidanceModel(dying_address,
                                        fallback=self.fallback_model(),
                                        timeout=2.0, max_reconnects=2)
            model = BatchingGuidanceModel(inner)
            request = kw_request()
            degraded_answer = model.score_batch([request])[0]
            assert inner.degraded
            assert degraded_answer == request.invoke(self.fallback_model())
            # Heal onto the healthy stub. A *fresh* request has to
            # reach the inner model to trigger the reconnect (repeats
            # of cached requests are answered by the wrapper without
            # touching the server — by design); after the switch, the
            # cached fallback answer must be gone.
            inner.host, inner.port = address.rsplit(":", 1)[0], \
                int(address.rsplit(":", 1)[1])
            model.score_batch([col_request()])
            assert not inner.degraded
            healed_answer = model.score_batch([request])[0]
            assert healed_answer != degraded_answer, \
                "a cached fallback distribution survived the reconnect"
        finally:
            dying.shutdown()
            dying.server_close()

    def test_empty_candidate_request_yields_empty_distribution(self, stub):
        _, address = stub
        model = ServerGuidanceModel(address,
                                    fallback=self.fallback_model())
        try:
            dist = model.limit_value(make_ctx(), [])
            assert len(dist) == 0
        finally:
            model.close()


class TestReconnectBackoff:
    """PR 10: reconnect attempts back off under RECONNECT_POLICY
    instead of redialling back-to-back, without changing the bounded
    reconnect budget or the ``reconnects`` telemetry semantics."""

    def fallback_model(self):
        return CalibratedOracleModel(seed=0)

    def test_failed_reconnects_back_off_deterministically(self, caplog):
        model = ServerGuidanceModel("127.0.0.1:1",
                                    fallback=self.fallback_model(),
                                    timeout=0.5, max_reconnects=3)
        slept = []
        model._sleep = slept.append
        policy = ServerGuidanceModel.RECONNECT_POLICY
        with caplog.at_level(logging.WARNING, "repro.guidance.batched"):
            # First batch degrades (the initial connect is not a
            # reconnect and must not sleep); the next three each burn
            # one reconnect attempt, backing off before redialling.
            for _ in range(5):
                model.score_batch([kw_request()])
        assert slept == [policy.delay_for(0), policy.delay_for(1),
                         policy.delay_for(2)]
        assert slept == sorted(slept), "backoff must not shrink"
        assert model.degraded
        assert model.reconnects == 0
        assert "giving up on reconnects" in caplog.text

    def test_successful_reconnect_still_counts_once(self, stub, caplog):
        """The healing path from the PR 7 contract, now with one
        backoff sleep in front of the redial."""
        module, address = stub
        dying, dying_address = serve_scripted([])
        try:
            model = ServerGuidanceModel(dying_address,
                                        fallback=self.fallback_model(),
                                        timeout=2.0, max_reconnects=2)
            slept = []
            model._sleep = slept.append
            with caplog.at_level(logging.WARNING,
                                 "repro.guidance.batched"):
                model.score_batch([kw_request()])
            assert model.degraded
            model.host, model.port = address.rsplit(":", 1)[0], \
                int(address.rsplit(":", 1)[1])
            model.score_batch([kw_request()])
            assert not model.degraded
            assert model.reconnects == 1
            assert slept == \
                [ServerGuidanceModel.RECONNECT_POLICY.delay_for(0)]
        finally:
            dying.shutdown()
            dying.server_close()
