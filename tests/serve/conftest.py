"""Fixtures for the synthesis-daemon tests.

Every daemon here serves small in-memory movie databases (fast, fully
deterministic with :class:`LexicalGuidanceModel`), spawned in-process on
a background thread via :func:`repro.serve.spawn_daemon`.
"""

from __future__ import annotations

import pytest

from repro.core import Duoquest, TableSketchQuery
from repro.core.enumerator import EnumeratorConfig
from repro.guidance import LexicalGuidanceModel
from repro.nlq import NLQuery
from repro.serve import SynthesisClient, SynthesisDaemon, spawn_daemon
from repro.sqlir import to_sql

from tests.conftest import build_movie_db

NLQ = "titles before 1994"
LITERALS = (1994,)
TSQ_ROWS = (("Forrest Gump",),)


def serve_config(**overrides) -> EnumeratorConfig:
    settings = dict(time_budget=10.0, max_candidates=24, workers=2,
                    verify_backend="threads")
    settings.update(overrides)
    return EnumeratorConfig(**settings)


def reference_stream(db, nlq_text=NLQ, literals=LITERALS,
                     tsq_rows=TSQ_ROWS, config=None, model=None):
    """The candidate stream an equivalent direct (CLI-style) run emits."""
    system = Duoquest(db, model=model or LexicalGuidanceModel(),
                      config=config or serve_config())
    tsq = TableSketchQuery.build(rows=tsq_rows) if tsq_rows else None
    try:
        result = system.synthesize(
            NLQuery.from_text(nlq_text, literals=literals), tsq)
    finally:
        system.close()
    return [(c.index, c.confidence, to_sql(c.query))
            for c in result.candidates]


def wire_stream(response):
    """A daemon round response's candidates, reference-comparable."""
    return [(c["index"], c["confidence"], c["sql"])
            for c in response["candidates"]]


@pytest.fixture
def two_dbs():
    return {"movies_a": build_movie_db(), "movies_b": build_movie_db()}


@pytest.fixture
def daemon_factory():
    handles = []

    def spawn(databases, **kwargs):
        kwargs.setdefault("config", serve_config())
        daemon = SynthesisDaemon(databases, **kwargs)
        handle = spawn_daemon(daemon)
        handles.append(handle)
        return handle

    yield spawn
    for handle in handles:
        if handle.thread.is_alive():
            handle.stop()


@pytest.fixture
def client_for():
    clients = []

    def connect(handle):
        client = SynthesisClient.connect(handle.host, handle.port)
        clients.append(client)
        return client

    yield connect
    for client in clients:
        try:
            client.close()
        except OSError:
            pass
