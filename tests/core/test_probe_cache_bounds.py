"""Bounded-mode unit contract for :class:`SharedProbeCache`.

The bound must hold through *every* insert path (direct records, seed,
worker-delta merges), eviction must be LRU over actual access order,
warm (disk-seeded) entries must drop silently while non-warm evictions
flush to the attached sink — and the unbounded default must stay the
untouched seed behaviour.
"""

from __future__ import annotations

import pytest

from repro.core.verifier import SharedProbeCache
from repro.sqlir import ColumnRef


def fill(cache, count, prefix="probe"):
    for i in range(count):
        cache.record_probe(f"{prefix}-{i:03d}", i % 2 == 0)


class StubDb:
    """Just enough database for ``probe_keyed`` to execute against."""

    interrupt_armed = False

    def __init__(self):
        self.calls = []

    def exists(self, sql, params=()):
        self.calls.append(sql)
        return True


class TestBoundHolds:
    def test_inserts_never_exceed_the_bound(self):
        cache = SharedProbeCache(max_entries=5)
        fill(cache, 20)
        assert len(cache) == 5
        assert cache.counters.probe_cache_evictions == 15

    def test_bound_counts_probes_and_minmax_together(self):
        cache = SharedProbeCache(max_entries=4)
        fill(cache, 3)
        for i in range(3):
            cache.record_minmax(ColumnRef(table="t", column=f"c{i}"),
                                (0, i))
        assert len(cache) == 4
        assert cache.counters.probe_cache_evictions == 2

    def test_seed_respects_the_bound_keeping_the_most_recent(self):
        cache = SharedProbeCache(max_entries=3)
        cache.seed({f"probe-{i:03d}": True for i in range(10)}, {})
        assert len(cache) == 3
        # dict order is the recency channel: the *last* entries survive
        assert cache.peek("probe-009") is True
        assert cache.peek("probe-000") is None

    def test_invalid_bound_is_rejected(self):
        with pytest.raises(ValueError):
            SharedProbeCache(max_entries=0)
        with pytest.raises(ValueError):
            SharedProbeCache(max_entries=-3)

    def test_unbounded_default_never_evicts(self):
        cache = SharedProbeCache()
        fill(cache, 500)
        assert len(cache) == 500
        assert cache.counters.probe_cache_evictions == 0
        assert not cache._lru  # no LRU bookkeeping off the bounded path


class TestLruOrder:
    def test_a_hit_refreshes_recency(self):
        cache = SharedProbeCache(max_entries=3)
        fill(cache, 3)  # probe-000 .. probe-002
        # touch the oldest, making probe-001 the eviction candidate
        assert cache.peek("probe-000") is True  # peek does not touch...
        cache.probe_keyed(StubDb(), "probe-000", "probe-000")  # a hit does
        cache.record_probe("probe-003", True)
        assert cache.peek("probe-000") is True
        assert cache.peek("probe-001") is None  # evicted as LRU
        assert cache.peek("probe-003") is True

    def test_export_emits_lru_order_when_bounded(self):
        cache = SharedProbeCache(max_entries=4)
        fill(cache, 4)
        cache.probe_keyed(StubDb(), "probe-000",
                          "probe-000")  # hit: now most recent
        probes, _ = cache.export()
        assert list(probes) == ["probe-001", "probe-002",
                                "probe-003", "probe-000"]

    def test_bounded_export_reseed_keeps_the_hot_entries(self):
        cache = SharedProbeCache(max_entries=4)
        fill(cache, 4)
        cache.probe_keyed(StubDb(), "probe-000", "probe-000")
        probes, minmax = cache.export()
        reborn = SharedProbeCache(max_entries=2)
        reborn.seed(probes, minmax, warm=True)
        # the two most recently *used* survive the tighter bound
        assert reborn.peek("probe-000") is True
        assert reborn.peek("probe-003") is False  # fill's odd entries
        assert reborn.peek("probe-001") is None


class TestEvictionPersistence:
    def test_warm_entries_drop_silently(self):
        """Disk-seeded entries are already on disk: evicting one must
        not queue it for a redundant flush."""
        sink_batches = []
        cache = SharedProbeCache(max_entries=2)
        cache.set_eviction_sink(
            lambda probes, minmax: sink_batches.append((probes, minmax))
            or (len(probes) + len(minmax)))
        cache.seed({f"warm-{i}": True for i in range(2)}, {}, warm=True)
        fill(cache, 2)  # evicts both warm entries
        assert cache.counters.probe_cache_evictions == 2
        flushed = cache.flush_evicted()
        assert flushed == 0
        assert not sink_batches

    def test_non_warm_evictions_reach_the_sink(self):
        sink_batches = []
        cache = SharedProbeCache(max_entries=2)
        cache.set_eviction_sink(
            lambda probes, minmax: sink_batches.append((probes, minmax))
            or (len(probes) + len(minmax)))
        fill(cache, 6)  # 4 non-warm evictions, buffered
        assert cache.counters.probe_cache_evictions == 4
        # below FLUSH_BATCH: buffered
        assert cache.counters.evicted_flushed == 0
        assert cache.flush_evicted() == 4
        assert cache.counters.evicted_flushed == 4
        (probes, minmax), = sink_batches
        assert set(probes) == {f"probe-{i:03d}" for i in range(4)}
        assert not minmax

    def test_flush_batches_at_the_threshold(self):
        sink_batches = []
        cache = SharedProbeCache(max_entries=2)
        cache.set_eviction_sink(
            lambda probes, minmax: sink_batches.append((probes, minmax))
            or (len(probes) + len(minmax)))
        fill(cache, cache.FLUSH_BATCH + 2)
        # crossing FLUSH_BATCH buffered evictions triggered a flush
        # without anyone calling flush_evicted()
        assert sink_batches
        assert cache.counters.evicted_flushed >= cache.FLUSH_BATCH

    def test_failed_sink_counts_nothing_flushed(self):
        cache = SharedProbeCache(max_entries=2)
        cache.set_eviction_sink(lambda probes, minmax: 0)  # store down
        fill(cache, 6)
        assert cache.flush_evicted() == 0
        assert cache.counters.evicted_flushed == 0
        # the evictions still happened
        assert cache.counters.probe_cache_evictions == 4

    def test_eviction_without_a_sink_buffers_nothing(self):
        cache = SharedProbeCache(max_entries=2)
        fill(cache, 10)
        assert cache.counters.probe_cache_evictions == 8
        assert not cache._evicted_probes
        assert cache.flush_evicted() == 0


class TestAccounting:
    def test_approx_bytes_tracks_the_bound(self):
        unbounded = SharedProbeCache()
        fill(unbounded, 100)
        bounded = SharedProbeCache(max_entries=10)
        fill(bounded, 100)
        assert unbounded.approx_bytes() > bounded.approx_bytes() > 0

    def test_empty_cache_reports_zero_bytes(self):
        assert SharedProbeCache().approx_bytes() == 0

    def test_evicted_entry_is_a_miss_again(self):
        db = StubDb()
        cache = SharedProbeCache(max_entries=1)
        cache.probe_keyed(db, "alpha", "alpha")
        cache.probe_keyed(db, "beta", "beta")    # evicts alpha
        cache.probe_keyed(db, "alpha", "alpha")  # re-probes, no crash
        assert db.calls == ["alpha", "beta", "alpha"]
        assert cache.counters.probe_misses == 3
        assert cache.counters.probe_hits == 0
