"""Wire-protocol tests: handshake, version mismatch, bad verbs.

The daemon must answer every failure on the wire — a malformed line, an
unknown verb, an unknown session — without taking the connection (or
itself) down, and must reject a version-incompatible peer at the
handshake, mirroring the guidance-server idiom.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro import wire
from repro.serve import protocol
from repro.serve.client import SynthesisClient
from repro.serve.protocol import tsq_payload
from repro.wire import (
    PROTOCOL_VERSION,
    ProtocolError,
    ProtocolMismatch,
    parse_address,
)

from tests.conftest import build_movie_db


@pytest.fixture
def handle(daemon_factory):
    return daemon_factory({"movies": build_movie_db()})


def raw_exchange(handle, lines):
    """Send raw NDJSON lines; returns one decoded reply per line."""
    replies = []
    with socket.create_connection((handle.host, handle.port),
                                  timeout=30.0) as sock:
        stream = sock.makefile("rwb")
        for line in lines:
            stream.write((json.dumps(line) + "\n").encode("utf-8"))
            stream.flush()
            reply = stream.readline()
            if not reply:
                replies.append(None)
                break
            replies.append(json.loads(reply))
    return replies


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:8765") == ("127.0.0.1", 8765)

    @pytest.mark.parametrize("bad", ["8765", ":8765", "host:", "host:x",
                                     "host:70000"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


class TestTsqPayload:
    def test_only_specified_fields_travel(self):
        assert tsq_payload(rows=[["a", 1]]) == {"rows": [["a", 1]]}
        full = tsq_payload(rows=[["a"]], types=["text"], sorted=True,
                           limit=3, negative_rows=[["b"]], tolerance=1)
        assert full == {"rows": [["a"]], "types": ["text"],
                        "sorted": True, "limit": 3,
                        "negative_rows": [["b"]], "tolerance": 1}


class TestHandshake:
    def test_hello_reply_carries_version_and_epoch(self, handle):
        (reply,) = raw_exchange(handle, [wire.hello_request()])
        assert reply["v"] == PROTOCOL_VERSION
        assert reply["server"] == protocol.SERVER_NAME
        assert reply["epoch"] == 0

    def test_version_mismatch_is_rejected(self, handle):
        (reply,) = raw_exchange(
            handle, [{"v": 99, "id": 0, "hello": True}])
        assert "version mismatch" in reply["error"]
        with pytest.raises(ProtocolMismatch):
            wire.check_hello_reply(reply)

    def test_first_line_must_be_hello(self, handle):
        (reply,) = raw_exchange(
            handle, [{"v": PROTOCOL_VERSION, "id": 0, "verb": "stats"}])
        assert "hello" in reply["error"]

    def test_check_hello_validates_version(self):
        with pytest.raises(ProtocolMismatch):
            protocol.check_hello({"hello": True, "v": 2})
        with pytest.raises(ProtocolError):
            protocol.check_hello({"v": PROTOCOL_VERSION})


class TestBadRequests:
    def test_unknown_verb_answered_and_connection_survives(self, handle):
        replies = raw_exchange(handle, [
            wire.hello_request(),
            {"v": PROTOCOL_VERSION, "id": 1, "verb": "frobnicate"},
            {"v": PROTOCOL_VERSION, "id": 2, "verb": "stats"},
        ])
        assert "unknown verb" in replies[1]["error"]
        assert replies[1]["id"] == 1
        assert replies[2]["stats"]["sessions"]["created"] == 0

    def test_malformed_json_line_is_answered(self, handle):
        with socket.create_connection((handle.host, handle.port),
                                      timeout=30.0) as sock:
            stream = sock.makefile("rwb")
            stream.write(json.dumps(wire.hello_request())
                         .encode("utf-8") + b"\n")
            stream.flush()
            assert json.loads(stream.readline())["v"] == PROTOCOL_VERSION
            stream.write(b"{not json\n")
            stream.flush()
            reply = json.loads(stream.readline())
        assert "malformed" in reply["error"]

    def test_unknown_session_is_an_error(self, handle, client_for):
        client = client_for(handle)
        from repro.serve.client import ServeRequestError
        with pytest.raises(ServeRequestError, match="unknown session"):
            client.status("nope")

    def test_unknown_database_is_an_error(self, handle, client_for):
        client = client_for(handle)
        from repro.serve.client import ServeRequestError
        with pytest.raises(ServeRequestError, match="unknown database"):
            client.create("nope", "titles")

    def test_missing_required_field_is_an_error(self, handle):
        replies = raw_exchange(handle, [
            wire.hello_request(),
            {"v": PROTOCOL_VERSION, "id": 1, "verb": "create"},
        ])
        assert "missing required field" in replies[1]["error"]


class TestClientHandshake:
    def test_client_connects_and_reads_epoch(self, handle):
        with SynthesisClient.connect(handle.host, handle.port) as client:
            assert client.server_epoch == 0
