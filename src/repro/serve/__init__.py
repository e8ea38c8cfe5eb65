"""Synthesis-as-a-service: daemon, client, and shared service state.

* :mod:`repro.serve.context` — :class:`ServiceContext`, the bundle of
  probe-cache registry, verification pool manager, and shared guidance
  model that the eval harness and the daemon both lease from.
* :mod:`repro.serve.daemon` — the asyncio NDJSON/TCP session daemon
  behind ``duoquest serve``.
* :mod:`repro.serve.client` — a stdlib-only client.
* :mod:`repro.serve.protocol` — the wire protocol both sides share.
"""

from .client import ServeRequestError, SynthesisClient
from .context import ProbeCacheRegistry, ServiceContext
from .daemon import DaemonHandle, SynthesisDaemon, spawn_daemon
from .protocol import (
    PROTOCOL_VERSION,
    SERVER_NAME,
    VERBS,
    ProtocolError,
    ProtocolMismatch,
)

__all__ = [
    "DaemonHandle",
    "PROTOCOL_VERSION",
    "ProbeCacheRegistry",
    "ProtocolError",
    "ProtocolMismatch",
    "SERVER_NAME",
    "ServeRequestError",
    "ServiceContext",
    "SynthesisClient",
    "SynthesisDaemon",
    "VERBS",
    "spawn_daemon",
]
