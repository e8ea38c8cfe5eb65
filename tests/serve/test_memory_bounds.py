"""Leak regressions: every amortisation layer must be memory-bounded.

The daemon amortises across sessions by *keeping* things — probe
caches, warm pools, session records — which is exactly how long-lived
services leak. This suite soaks the daemon (many sessions × several
databases) and asserts the bounds hold: per-cache entry counts stay
under ``--probe-cache-entries``, the registry retires LRU databases
past ``max_cached_databases`` (persisting first, so warm starts
survive eviction), and the session table retires terminal sessions.
A tracemalloc check pins the registry lifecycle down to "no growth".
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest

from repro.serve.client import ServeRequestError
from repro.serve.context import ProbeCacheRegistry

from tests.conftest import build_movie_db
from tests.serve.conftest import (
    NLQ,
    LITERALS,
    TSQ_ROWS,
    reference_stream,
    serve_config,
    wire_stream,
)

ENTRY_BOUND = 16          # per-cache probe/minmax entries
DATABASE_BOUND = 2        # live per-database caches in the registry
TERMINAL_BOUND = 2        # finished/cancelled sessions kept addressable

#: nightly deep profile: more cycles through the same bounds, so slow
#: leaks (growing per cycle, invisible over two) have room to surface
SOAK_CYCLES = 6 if os.environ.get("REPRO_SOAK_DEEP") else 2


def build_variant_db(tag: int):
    """A movie database whose contents (hence content hash) depend on
    ``tag`` — the soak needs genuinely distinct databases."""
    db = build_movie_db()
    db.insert_rows("movie", [(900 + tag, f"Variant {tag:02d}",
                              1980 + tag, 50)])
    return db


class TestDaemonSoak:
    def test_soak_holds_every_bound_and_still_warm_starts(
            self, daemon_factory, client_for, tmp_path):
        """Two cycles over three databases through one bounded daemon:
        entry counts stay under the bound, the registry stays under its
        database bound, terminal sessions retire — and the streams stay
        bit-identical to unbounded direct runs while eviction-flushed
        entries come back as warm-start hits."""
        databases = {f"movies_{tag}": build_variant_db(tag)
                     for tag in range(3)}
        expected = {name: reference_stream(build_variant_db(tag))
                    for tag, name in enumerate(sorted(databases))}
        handle = daemon_factory(
            databases,
            config=serve_config(probe_cache_entries=ENTRY_BOUND),
            cache_dir=str(tmp_path),
            max_terminal_sessions=TERMINAL_BOUND,
            max_cached_databases=DATABASE_BOUND)
        client = client_for(handle)

        session_ids = []
        for _cycle in range(SOAK_CYCLES):
            for name in sorted(databases):
                response = client.create(
                    name, NLQ, literals=list(LITERALS),
                    tsq_rows=[list(r) for r in TSQ_ROWS])
                # Eviction may cost re-probes, never answers: every
                # bounded round emits the unbounded reference stream.
                assert wire_stream(response) == expected[name]
                session_ids.append(response["session"])
                client.cancel(response["session"])

        stats = client.stats()

        # (a) every live cache respects the entry bound
        sizes = stats["probe_cache_sizes"]
        assert sizes, "at least one cache should be live"
        assert all(size <= ENTRY_BOUND for size in sizes.values()), sizes
        assert len(sizes) <= DATABASE_BOUND

        probe_cache = stats["probe_cache"]
        assert probe_cache["probe_cache_entries"] <= \
            ENTRY_BOUND * DATABASE_BOUND
        assert probe_cache["probe_cache_bytes"] > 0

        # (b) the bound actually engaged, and eviction persisted
        assert probe_cache["probe_cache_evictions"] > 0
        assert probe_cache["evicted_flushed"] > 0
        assert probe_cache["caches_retired"] > 0  # database LRU engaged

        # (c) eviction did not cost the warm start: cycle 2 re-seeded
        # retired caches from disk and hit the seeded entries
        assert probe_cache["warm_entries_loaded"] > 0
        assert probe_cache["warm_start_probe_hits"] > 0

        # (d) the session table is bounded too
        sessions = stats["sessions"]
        assert sessions["created"] == len(session_ids) == SOAK_CYCLES * 3
        assert sessions["open"] <= TERMINAL_BOUND
        assert sessions["retired"] >= len(session_ids) - TERMINAL_BOUND

        # (e) and the store files exist for the next daemon's warm start
        assert list(tmp_path.glob("probes-*.sqlite"))


class TestTerminalSessionRetirement:
    def test_retired_session_status_is_a_clean_error(
            self, daemon_factory, client_for):
        handle = daemon_factory({"movies": build_movie_db()},
                                max_terminal_sessions=1)
        client = client_for(handle)
        ids = []
        for _ in range(3):
            response = client.create(
                "movies", NLQ, literals=list(LITERALS),
                tsq_rows=[list(r) for r in TSQ_ROWS])
            ids.append(response["session"])
            client.cancel(response["session"])

        # the newest terminal session stays addressable ...
        assert client.status(ids[-1])["state"] == "cancelled"
        # ... retired ones answer with a protocol error naming the
        # final state, not a KeyError-shaped crash
        with pytest.raises(ServeRequestError, match="retired") as excinfo:
            client.status(ids[0])
        assert "cancelled" in str(excinfo.value)
        # unknown ids keep their distinct (non-"retired") error
        with pytest.raises(ServeRequestError) as excinfo:
            client.status("never-created")
        assert "retired" not in str(excinfo.value)

        sessions = client.stats()["sessions"]
        assert sessions["open"] <= 1
        assert sessions["retired"] >= 2
        assert sessions["max_terminal"] == 1

    def test_refine_on_a_retired_session_is_a_clean_error(
            self, daemon_factory, client_for):
        handle = daemon_factory({"movies": build_movie_db()},
                                max_terminal_sessions=1)
        client = client_for(handle)
        first = client.create("movies", NLQ, literals=list(LITERALS),
                              tsq_rows=[list(r) for r in TSQ_ROWS])
        client.cancel(first["session"])
        second = client.create("movies", NLQ, literals=list(LITERALS),
                               tsq_rows=[list(r) for r in TSQ_ROWS])
        client.cancel(second["session"])
        with pytest.raises(ServeRequestError, match="retired"):
            client.refine(first["session"], extra_rows=[["Movie 05"]])


class TestRegistryLifecycle:
    def test_acquire_release_cycle_does_not_grow(self):
        """The registry must not be what keeps dead databases (or their
        caches) alive: churn acquire/release with databases going out
        of scope and assert the registry- and cache-owned allocations
        do not grow once warm."""
        registry = ProbeCacheRegistry(max_entries=32,
                                      max_databases=DATABASE_BOUND)

        def churn(rounds: int) -> None:
            for i in range(rounds):
                db = build_movie_db()
                cache = registry.acquire(db)
                for j in range(64):
                    cache.record_probe(f"probe-{i}-{j}", True)
                registry.release(db)
                del db, cache
            gc.collect()

        churn(5)  # reach steady state before measuring
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            churn(20)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()

        filters = [tracemalloc.Filter(True, "*/repro/serve/context.py"),
                   tracemalloc.Filter(True, "*/repro/core/verifier.py")]
        growth = sum(stat.size_diff for stat in
                     after.filter_traces(filters).compare_to(
                         before.filter_traces(filters), "filename"))
        # 20 leaked caches of 64 probes would be hundreds of KiB; the
        # healthy steady state is allocator noise.
        assert growth < 64 * 1024, f"registry grew by {growth} bytes"
        assert len(registry._caches) <= DATABASE_BOUND
        assert registry.caches_retired >= 20

    def test_weakref_retirement_persists_to_the_store(self, tmp_path):
        """A database that simply goes out of scope still gets its
        probe answers saved (save-on-retire), because the registry
        captured the store identity while it was alive."""
        registry = ProbeCacheRegistry(cache_dir=str(tmp_path))
        db = build_movie_db()
        cache = registry.cache_for(db)
        cache.record_probe("late-probe", True)
        del db, cache
        gc.collect()
        registry._reap()
        assert registry.caches_retired == 1
        assert not registry._caches

        fresh = ProbeCacheRegistry(cache_dir=str(tmp_path))
        warmed = fresh.cache_for(build_movie_db())
        assert warmed.peek("late-probe") is True
        assert fresh.warm_entries_loaded > 0

    def test_id_reuse_collision_persists_the_displaced_cache(
            self, tmp_path):
        """Regression: ``cache_for`` used to silently drop the previous
        cache when ``id(db)`` was reused by a different database. The
        displaced cache must be persisted before being replaced."""
        registry = ProbeCacheRegistry(cache_dir=str(tmp_path))
        db1 = build_movie_db()
        db2 = build_movie_db()  # same contents -> same store file
        cache1 = registry.cache_for(db1)
        cache1.record_probe("displaced-probe", True)

        # Force the collision: rebind db1's entry under db2's key, as
        # if db1 had died and db2's allocation reused its id before
        # any registry call could reap the weakref.
        with registry._lock:
            entry = registry._caches.pop(id(db1))
            registry._caches[id(db2)] = entry
        retired_before = registry.caches_retired

        cache2 = registry.cache_for(db2)
        assert cache2 is not cache1
        assert registry.caches_retired == retired_before + 1

        # the displaced cache reached the store, not the void
        fresh = ProbeCacheRegistry(cache_dir=str(tmp_path))
        warmed = fresh.cache_for(build_movie_db())
        assert warmed.peek("displaced-probe") is True

    def test_database_lru_bound_never_evicts_a_leased_cache(self):
        registry = ProbeCacheRegistry(max_databases=1)
        db1, db2 = build_movie_db(), build_movie_db()
        cache1 = registry.acquire(db1)
        cache2 = registry.acquire(db2)  # over bound, but db1 is leased
        assert len(registry._caches) == 2  # bound yields to leases
        registry.release(db1)
        registry.release(db2)  # now the LRU (db1) can go
        assert len(registry._caches) == 1
        assert registry.cache_for(db2) is cache2
        assert registry.cache_for(db1) is not cache1  # was retired

    def test_close_is_idempotent_and_drops_everything(self, tmp_path):
        registry = ProbeCacheRegistry(cache_dir=str(tmp_path))
        db = build_movie_db()
        registry.cache_for(db).record_probe("closing-probe", False)
        assert registry.close() == 1  # one store file written
        assert not registry._caches
        assert registry.close() == 0  # idempotent
