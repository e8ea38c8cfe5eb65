"""The synthesis daemon's protocol: verbs over the shared NDJSON codec.

Lines are encoded, decoded and handshaken by :mod:`repro.wire`, the
codec the guidance scorer's protocol uses too. The first line of every
connection is the ``hello`` handshake; the daemon's reply also carries
its name and its degrade ``epoch``::

    -> {"v": 1, "id": 0, "hello": true}
    <- {"id": 0, "v": 1, "server": "duoquest-serve", "epoch": 0}

After the handshake, each request line carries a verb::

    -> {"v": 1, "id": 1, "verb": "create", "database": "mas",
        "nlq": "papers after 2005", "tsq": {"rows": [[null, 2007]]}}
    <- {"id": 1, "session": "s1", "state": "awaiting-refinement",
        "epoch": 0, "candidates": [{"index": 0, "confidence": 0.93,
        "sql": "SELECT ..."}, ...], "telemetry": {...}}

Verbs: ``create`` (open a session on a named database and run its first
enumeration), ``refine`` (add TSQ information or rephrase the NLQ in an
existing session and re-enumerate), ``status`` (session state, round
count, budgets), ``cancel`` (cooperative mid-enumeration cancel), and
``stats`` (a live service snapshot: sessions, pool reuse, warm /
cross-task / cross-session probe-cache hits).

Failures are answered, never silently dropped: a bad verb, an unknown
session, or a malformed payload produces ``{"id": n, "error": "..."}``
on the same connection. Degrades are visible the same way the guidance
server's are — the server's ``epoch`` counter (in the handshake, every
round response, and ``stats``) bumps whenever a session's enumeration
degraded (pool snapshot failure, guidance fallback), so clients can
detect that the service switched execution mode mid-stream.

This module holds what only the daemon speaks: the verbs, the
server-side hello, and the TSQ payload helper. It depends on nothing
outside the standard library and :mod:`repro.wire`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..wire import PROTOCOL_VERSION, ProtocolError, ProtocolMismatch

SERVER_NAME = "duoquest-serve"

#: The request verbs the daemon understands.
VERBS = ("create", "refine", "status", "cancel", "stats")


# ----------------------------------------------------------------------
# Handshake (server side; the client side is repro.wire's)
# ----------------------------------------------------------------------
def hello_response(request_id: object, epoch: int) -> Dict[str, object]:
    return {"id": request_id, "v": PROTOCOL_VERSION,
            "server": SERVER_NAME, "epoch": epoch}


def check_hello(payload: Dict[str, object]) -> None:
    """Validate a client's handshake line (server side)."""
    if not payload.get("hello"):
        raise ProtocolError(
            "expected a hello handshake as the first request line")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolMismatch(
            f"protocol version mismatch: client speaks {version!r}, "
            f"server speaks {PROTOCOL_VERSION}")


def error_response(request_id: object, message: str) -> Dict[str, object]:
    return {"id": request_id, "error": message}


# ----------------------------------------------------------------------
# TSQ wire form (build-style plain values; see TableSketchQuery.build)
# ----------------------------------------------------------------------
def tsq_payload(rows=(), types=None, sorted=None, limit=None,
                negative_rows=(), tolerance=None) -> Dict[str, object]:
    """The ``tsq`` object of a ``create`` request (client-side helper).

    Cells are plain JSON values with ``null`` as the empty cell, exactly
    the convention of :meth:`TableSketchQuery.build`; only the fields
    actually specified travel.
    """
    payload: Dict[str, object] = {}
    if rows:
        payload["rows"] = [list(row) for row in rows]
    if types is not None:
        payload["types"] = list(types)
    if sorted is not None:
        payload["sorted"] = bool(sorted)
    if limit is not None:
        payload["limit"] = int(limit)
    if negative_rows:
        payload["negative_rows"] = [list(row) for row in negative_rows]
    if tolerance is not None:
        payload["tolerance"] = int(tolerance)
    return payload


def validate_verb(payload: Dict[str, object]) -> str:
    verb = payload.get("verb")
    if verb not in VERBS:
        raise ProtocolError(
            f"unknown verb {verb!r}; expected one of {list(VERBS)}")
    return str(verb)


def require(payload: Dict[str, object], field: str,
            verb: Optional[str] = None) -> object:
    value = payload.get(field)
    if value is None:
        where = f" for verb {verb!r}" if verb else ""
        raise ProtocolError(f"missing required field {field!r}{where}")
    return value
