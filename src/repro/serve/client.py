"""Stdlib-only client for the synthesis daemon.

Speaks the NDJSON protocol of :mod:`repro.serve.protocol` (lines coded
by :mod:`repro.wire`) over a plain ``socket`` — both modules are
stdlib-only, so the three can be vendored into a notebook or an
application that only wants to *talk* to a ``duoquest serve`` daemon::

    from repro.serve.client import SynthesisClient

    with SynthesisClient.connect("127.0.0.1", 8765) as client:
        round1 = client.create("mas", "papers after 2005",
                               tsq_rows=[[None, 2007]])
        round2 = client.refine(round1["session"],
                               extra_rows=[["Query synthesis", 2019]])
        print(client.stats()["sessions"])

Every method performs one request/response exchange; the connection
handshakes (and verifies the protocol version) at construction, raising
:class:`~repro.wire.ProtocolMismatch` against an incompatible
server. Server-side failures surface as :class:`ServeRequestError` with
the server's message — the connection stays usable.
"""

from __future__ import annotations

import socket
from typing import Dict, Optional, Sequence

from .. import wire
from . import protocol


class ServeRequestError(RuntimeError):
    """The server answered a request with an error line."""


class SynthesisClient:
    """One connection to a synthesis daemon (see module docstring)."""

    def __init__(self, sock: socket.socket, timeout: Optional[float] = None):
        self._sock = sock
        if timeout is not None:
            sock.settimeout(timeout)
        self._file = sock.makefile("rwb")
        self._request_seq = 0
        self.server_epoch = self._handshake()

    @classmethod
    def connect(cls, host: str, port: int,
                timeout: Optional[float] = 60.0) -> "SynthesisClient":
        return cls(socket.create_connection((host, port), timeout=timeout),
                   timeout=timeout)

    # ------------------------------------------------------------------
    def _exchange(self, payload: Dict[str, object]) -> Dict[str, object]:
        self._request_seq += 1
        payload = dict(payload, v=wire.PROTOCOL_VERSION,
                       id=self._request_seq)
        self._file.write(wire.encode(payload))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = wire.decode(line)
        if "error" in response:
            raise ServeRequestError(str(response["error"]))
        return response

    def _handshake(self) -> int:
        self._file.write(wire.encode(wire.hello_request()))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError(
                "server closed the connection during the handshake")
        reply = wire.decode(line)
        wire.check_hello_reply(reply)
        return int(reply.get("epoch", 0))

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def create(self, database: str, nlq: str, *,
               literals: Optional[Sequence[object]] = None,
               tsq_rows: Sequence[Sequence[object]] = (),
               tsq: Optional[Dict[str, object]] = None,
               max_candidates: Optional[int] = None,
               max_probes: Optional[int] = None,
               session: Optional[str] = None) -> Dict[str, object]:
        """Open a session and run its first enumeration round.

        ``tsq_rows`` is the common case (positive example tuples, plain
        values, ``None`` for the empty cell); pass a full ``tsq`` object
        (see :func:`repro.serve.protocol.tsq_payload`) for sorted /
        limit / negative-row sketches. A caller-chosen ``session`` id
        lets another connection ``status``/``cancel`` this session while
        its first round is still enumerating.
        """
        payload: Dict[str, object] = {"verb": "create",
                                      "database": database, "nlq": nlq}
        if session is not None:
            payload["session"] = session
        if literals is not None:
            payload["literals"] = list(literals)
        if tsq is None and tsq_rows:
            tsq = protocol.tsq_payload(rows=tsq_rows)
        if tsq:
            payload["tsq"] = tsq
        if max_candidates is not None:
            payload["max_candidates"] = max_candidates
        if max_probes is not None:
            payload["max_probes"] = max_probes
        return self._exchange(payload)

    def refine(self, session: str, *,
               extra_rows: Sequence[Sequence[object]] = (),
               sorted: Optional[bool] = None,
               limit: Optional[int] = None,
               negative_rows: Sequence[Sequence[object]] = (),
               tolerance: Optional[int] = None,
               nlq: Optional[str] = None,
               literals: Optional[Sequence[object]] = None
               ) -> Dict[str, object]:
        """Refine the session's TSQ (or rephrase its NLQ) and
        re-enumerate."""
        payload: Dict[str, object] = {"verb": "refine",
                                      "session": session}
        if nlq is not None:
            payload["nlq"] = nlq
            if literals is not None:
                payload["literals"] = list(literals)
        else:
            if extra_rows:
                payload["extra_rows"] = [list(row) for row in extra_rows]
            if sorted is not None:
                payload["sorted"] = bool(sorted)
            if limit is not None:
                payload["limit"] = int(limit)
            if negative_rows:
                payload["negative_rows"] = [list(row)
                                            for row in negative_rows]
            if tolerance is not None:
                payload["tolerance"] = int(tolerance)
        return self._exchange(payload)

    def status(self, session: str) -> Dict[str, object]:
        return self._exchange({"verb": "status", "session": session})

    def cancel(self, session: str,
               reason: str = "cancelled by client") -> Dict[str, object]:
        return self._exchange({"verb": "cancel", "session": session,
                               "reason": reason})

    def stats(self) -> Dict[str, object]:
        return self._exchange({"verb": "stats"})["stats"]

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "SynthesisClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
