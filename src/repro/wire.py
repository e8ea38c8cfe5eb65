"""The NDJSON wire codec shared by both socket protocols.

Two protocols in this package speak newline-delimited JSON over TCP,
one JSON object per line in either direction: the synthesis daemon's
(:mod:`repro.serve.protocol`, spoken by
:class:`~repro.serve.client.SynthesisClient`) and the guidance
scorer's (:class:`~repro.guidance.batched.ServerGuidanceModel`). Both
open every connection with the same ``hello`` handshake, so a
version-incompatible peer is rejected up front instead of mis-parsed::

    -> {"v": 1, "id": 0, "hello": true}
    <- {"id": 0, "v": 1, ...}

This module holds what the two share: the line codec, the client side
of that handshake, the protocol errors, and the ``HOST:PORT`` parser.
It depends on nothing outside the standard library. What is specific to
one side — the daemon's verbs and its server-side hello, the guidance
request format and its degrade semantics — stays with that side.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A malformed or unanswerable line."""


class ProtocolMismatch(ProtocolError):
    """The peer speaks a different protocol version. Reconnecting
    cannot fix an incompatibility."""


def encode(payload: Dict[str, object]) -> bytes:
    """One NDJSON line, ready to write."""
    return (json.dumps(payload) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, object]:
    """Parse one NDJSON line; raises :class:`ProtocolError` on garbage."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed line: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"a line must be a JSON object, got {type(payload).__name__}")
    return payload


def hello_request(request_id: int = 0) -> Dict[str, object]:
    """The first line a client sends on every connection."""
    return {"v": PROTOCOL_VERSION, "id": request_id, "hello": True}


def check_hello_reply(payload: Dict[str, object],
                      request_id: int = 0) -> None:
    """Validate the peer's answer to :func:`hello_request` (client side).

    An error line or another version raises :class:`ProtocolMismatch`;
    a reply to some other request raises :class:`ProtocolError`.
    """
    if "error" in payload:
        raise ProtocolMismatch(str(payload["error"]))
    if payload.get("id") != request_id:
        raise ProtocolError(
            f"handshake reply id {payload.get('id')!r} does not match "
            f"request id {request_id}")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolMismatch(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}")


def parse_address(address: str) -> Tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)``; raises ``ValueError``."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT, got {address!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"port must be an integer, got "
                         f"{port_text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range: {port}")
    return host, port
