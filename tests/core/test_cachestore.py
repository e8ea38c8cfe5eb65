"""Disk-backed probe-cache store: keying, failure modes, concurrency.

The contract under test (see ``repro.core.search.cachestore``): a store
entry is only ever reused for byte-identical database contents (stale
hashes invalidate), a broken store file degrades to a cold start with a
logged warning (never a crash, never a poisoned cache), concurrent
writers merge instead of clobbering each other, and — new with the
SQLite backing — saves are incremental upserts instead of whole-file
rewrites.
"""

from __future__ import annotations

import logging
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search.cachestore import PersistentProbeCache
from repro.core.verifier import SharedProbeCache, Verifier
from repro.core.tsq import TableSketchQuery
from repro.db.database import Database
from repro.sqlir.ast import ColumnRef

from tests.conftest import build_movie_db, build_movie_schema


def populated_cache(db) -> SharedProbeCache:
    """A cache with real probe traffic from a small verification run."""
    cache = SharedProbeCache()
    tsq = TableSketchQuery.build(types=["text"], rows=[["Forrest Gump"]])
    verifier = Verifier(db, tsq=tsq, probe_cache=cache)
    from repro.sqlir.parser import parse_sql

    verifier.verify(parse_sql(
        "SELECT title FROM movie WHERE year < 1995", db.schema))
    assert len(cache) > 0
    return cache


class TestContentHash:
    def test_stable_within_a_connection(self, movie_db):
        assert movie_db.content_hash() == movie_db.content_hash()

    def test_identical_contents_hash_identically(self, movie_db):
        assert build_movie_db().content_hash() == movie_db.content_hash()

    def test_snapshot_roundtrip_preserves_hash(self, movie_db):
        if not Database.supports_snapshots():
            pytest.skip("sqlite build cannot snapshot databases")
        clone = Database.from_snapshot(movie_db.schema, movie_db.snapshot())
        assert clone.content_hash() == movie_db.content_hash()

    def test_insert_invalidates_hash(self):
        db = build_movie_db()
        before = db.content_hash()
        db.insert_rows("movie", [(999, "New Movie", 2024, 1)])
        assert db.content_hash() != before

    def test_mutating_execute_invalidates_hash(self):
        """The hash keys persisted probe caches, so any write path —
        even UPDATE/DELETE routed through execute() — must drop the
        memo, or a stale store would pass validation."""
        db = build_movie_db()
        before = db.content_hash()
        db.execute("UPDATE movie SET year = 1900 WHERE mid = 1")
        assert db.content_hash() != before
        after = db.content_hash()
        db.execute("SELECT * FROM movie")  # reads keep the memo
        assert db.content_hash() == after

    def test_row_order_does_not_matter(self):
        a = Database.create(build_movie_db().schema)
        b = Database.create(build_movie_db().schema)
        rows = [(1, "Tom Hanks", "male", 1956),
                (2, "Sandra Bullock", "female", 1964)]
        a.insert_rows("actor", rows)
        b.insert_rows("actor", list(reversed(rows)))
        assert a.content_hash() == b.content_hash()

    def test_hashing_does_not_touch_stats(self):
        db = build_movie_db()
        before = db.stats.snapshot()
        db.content_hash()
        delta = db.stats.delta_since(before)
        assert delta.statements == 0


#: Arbitrary small ``movie`` row payloads (pk assigned positionally, so
#: every generated table is valid and every row distinct).
_ROW_PAYLOADS = st.lists(
    st.tuples(st.text(alphabet="abcXYZ '%_", max_size=8),
              st.integers(min_value=1900, max_value=2030),
              st.integers(min_value=0, max_value=999)),
    min_size=1, max_size=6)


def _movie_rows(payloads):
    return [(index + 1, title, year, revenue)
            for index, (title, year, revenue) in enumerate(payloads)]


def _db_with(rows):
    db = Database.create(build_movie_schema())
    db.insert_rows("movie", rows)
    return db


class TestContentHashProperties:
    """Property-style contract: the hash keys persisted probe caches,
    so it must see exactly the row *set* — any insertion-order
    permutation hashes identically, any single-cell change differently.
    """

    @settings(max_examples=25, deadline=None)
    @given(payloads=_ROW_PAYLOADS,
           rnd=st.randoms(use_true_random=False))
    def test_any_insert_order_permutation_hashes_identically(self,
                                                             payloads,
                                                             rnd):
        rows = _movie_rows(payloads)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert _db_with(rows).content_hash() == \
            _db_with(shuffled).content_hash()

    @settings(max_examples=25, deadline=None)
    @given(payloads=_ROW_PAYLOADS, data=st.data())
    def test_batch_boundaries_do_not_matter(self, payloads, data):
        """The same rows inserted in one call or split across several
        insert_rows calls are the same contents."""
        rows = _movie_rows(payloads)
        split = data.draw(st.integers(min_value=0,
                                      max_value=len(rows)))
        chunked = Database.create(build_movie_schema())
        chunked.insert_rows("movie", rows[:split])
        chunked.insert_rows("movie", rows[split:])
        assert chunked.content_hash() == _db_with(rows).content_hash()

    @settings(max_examples=25, deadline=None)
    @given(payloads=_ROW_PAYLOADS, data=st.data())
    def test_any_single_cell_mutation_changes_the_hash(self, payloads,
                                                       data):
        rows = _movie_rows(payloads)
        row_index = data.draw(st.integers(min_value=0,
                                          max_value=len(rows) - 1))
        column_index = data.draw(st.integers(min_value=0, max_value=3))
        mutated_row = list(rows[row_index])
        if column_index == 0:
            mutated_row[0] = len(rows) + 1       # a fresh, unused pk
        elif column_index == 1:
            mutated_row[1] = mutated_row[1] + "x"
        else:
            mutated_row[column_index] = mutated_row[column_index] + 1
        mutated = list(rows)
        mutated[row_index] = tuple(mutated_row)
        assert _db_with(rows).content_hash() != \
            _db_with(mutated).content_hash()


class TestRoundTrip:
    def test_save_then_load(self, tmp_path, movie_db):
        from repro.sqlir.canon import canonicalize_probe, probe_plan_key

        store = PersistentProbeCache(tmp_path)
        cache = populated_cache(movie_db)
        path = store.save(movie_db, cache)
        assert path is not None and path.exists()
        probes, minmax = cache.export()
        loaded = store.load(movie_db)
        assert loaded is not None
        # The store is dual-keyed: every cached entry round-trips, and
        # raw-SQL keys additionally persist under their canonical twin
        # (same outcome), so a planner-mode run warm-starts from an
        # off-mode store.
        for key, outcome in probes.items():
            assert loaded[0][key] == outcome
        extras = set(loaded[0]) - set(probes)
        assert extras == {probe_plan_key(*canonicalize_probe(key))
                          for key in probes if "\x1f\x1f" not in key}
        for key in extras:
            raw = [k for k in probes if "\x1f\x1f" not in k
                   and probe_plan_key(*canonicalize_probe(k)) == key]
            assert {probes[k] for k in raw} == {loaded[0][key]}
        assert loaded[1] == minmax

    def test_warm_cache_counts_warm_hits(self, tmp_path, movie_db):
        store = PersistentProbeCache(tmp_path)
        store.save(movie_db, populated_cache(movie_db))
        warm, loaded = store.warm_cache(movie_db)
        assert loaded == len(warm) > 0
        # Re-running the same verification is served from warm entries.
        tsq = TableSketchQuery.build(types=["text"],
                                     rows=[["Forrest Gump"]])
        verifier = Verifier(movie_db, tsq=tsq, probe_cache=warm)
        from repro.sqlir.parser import parse_sql

        verifier.verify(parse_sql(
            "SELECT title FROM movie WHERE year < 1995", movie_db.schema))
        assert warm.warm_start_hits > 0
        assert warm.misses == 0

    def test_missing_store_is_silent_cold_start(self, tmp_path, movie_db,
                                                caplog):
        store = PersistentProbeCache(tmp_path / "never-written")
        with caplog.at_level(logging.WARNING):
            cache, loaded = store.warm_cache(movie_db)
        assert loaded == 0 and len(cache) == 0
        assert not caplog.records  # absence is normal, not a warning

    def test_minmax_values_round_trip_typed(self, tmp_path, movie_db):
        """Bounds keep their Python types (int/float/str/None) across
        the store — they are JSON-encoded inside the SQLite rows."""
        store = PersistentProbeCache(tmp_path)
        cache = SharedProbeCache()
        ref = ColumnRef(table="movie", column="year")
        text_ref = ColumnRef(table="movie", column="title")
        empty_ref = ColumnRef(table="actor", column="gender")
        cache.seed({}, {ref: (1970, 2020.5),
                        text_ref: ("Alpha", "Zulu"),
                        empty_ref: (None, None)})
        store.save(movie_db, cache)
        loaded = store.load(movie_db)
        assert loaded is not None
        assert loaded[1][ref] == (1970, 2020.5)
        assert loaded[1][text_ref] == ("Alpha", "Zulu")
        assert loaded[1][empty_ref] == (None, None)

    def test_canonical_planner_keys_round_trip(self, tmp_path, movie_db):
        """The store composes with the probe planner: canonical
        ``(signature, params)`` keys (which embed control-character
        separators) persist and warm-start byte-identically."""
        from repro.sqlir.canon import canonicalize_probe, probe_plan_key

        key = probe_plan_key(*canonicalize_probe(
            "SELECT 1 FROM movie WHERE year = 1994 LIMIT 1"))
        store = PersistentProbeCache(tmp_path)
        cache = SharedProbeCache()
        cache.seed({key: True}, {})
        store.save(movie_db, cache)
        loaded = store.load(movie_db)
        assert loaded is not None
        assert loaded[0] == {key: True}


class TestStaleHashInvalidation:
    def test_changed_contents_miss_the_store(self, tmp_path):
        db = build_movie_db()
        store = PersistentProbeCache(tmp_path)
        store.save(db, populated_cache(db))
        db.insert_rows("movie", [(998, "Late Arrival", 2025, 3)])
        # New contents → new hash → the old file is simply not found.
        assert store.load(db) is None

    def test_tampered_recorded_hash_invalidates(self, tmp_path, movie_db,
                                                caplog):
        """Even if a file lands under the right name (copied, renamed),
        a mismatched recorded hash is rejected with a warning."""
        store = PersistentProbeCache(tmp_path)
        path = store.save(movie_db, populated_cache(movie_db))
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'content_hash'",
                ("0" * 64,))
        with caplog.at_level(logging.WARNING):
            assert store.load(movie_db) is None
        assert "stale hash" in caplog.text


class TestCorruptionSafety:
    @pytest.mark.parametrize("content", [
        "",                       # empty file (no SQLite header)
        "not a database at all",  # garbage bytes
        "SQLite format 3\x00",    # truncated header only
    ])
    def test_bad_store_falls_back_cold_with_warning(self, tmp_path,
                                                    movie_db, caplog,
                                                    content):
        store = PersistentProbeCache(tmp_path)
        store.cache_dir.mkdir(parents=True, exist_ok=True)
        store.path_for(movie_db).write_text(content)
        with caplog.at_level(logging.WARNING):
            cache, loaded = store.warm_cache(movie_db)  # must not raise
        assert loaded == 0 and len(cache) == 0
        assert caplog.records, "corruption must be visible, not silent"

    def test_valid_sqlite_with_missing_tables_is_cold(self, tmp_path,
                                                      movie_db, caplog):
        store = PersistentProbeCache(tmp_path)
        store.cache_dir.mkdir(parents=True, exist_ok=True)
        with sqlite3.connect(store.path_for(movie_db)) as connection:
            connection.execute("CREATE TABLE unrelated (x)")
        with caplog.at_level(logging.WARNING):
            assert store.load(movie_db) is None
        assert "malformed" in caplog.text

    def test_future_format_is_cold(self, tmp_path, movie_db, caplog):
        store = PersistentProbeCache(tmp_path)
        path = store.save(movie_db, populated_cache(movie_db))
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE meta SET value = '99' WHERE key = 'format'")
        with caplog.at_level(logging.WARNING):
            assert store.load(movie_db) is None
        assert "format" in caplog.text

    def test_corrupt_store_is_overwritten_by_next_save(self, tmp_path,
                                                       movie_db):
        store = PersistentProbeCache(tmp_path)
        store.cache_dir.mkdir(parents=True, exist_ok=True)
        store.path_for(movie_db).write_text("garbage")
        assert store.save(movie_db, populated_cache(movie_db)) is not None
        assert store.load(movie_db) is not None

    def test_unwritable_directory_warns_not_crashes(self, tmp_path,
                                                    movie_db, caplog):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache dir should be")
        store = PersistentProbeCache(blocker)
        with caplog.at_level(logging.WARNING):
            assert store.save(movie_db, populated_cache(movie_db)) is None
        assert "could not persist" in caplog.text


class TestConcurrentWriters:
    def test_second_writer_merges_first_writers_entries(self, tmp_path,
                                                        movie_db):
        """Two runs saving different entry sets end with the union on
        disk — neither clobbers the other."""
        store = PersistentProbeCache(tmp_path)
        first = SharedProbeCache()
        first.seed({"SELECT 1 FROM movie WHERE year = 1994 LIMIT 1": True},
                   {})
        second = SharedProbeCache()
        second.seed({"SELECT 1 FROM movie WHERE year = 2013 LIMIT 1": True},
                    {ColumnRef(table="movie", column="year"): (1970, 2020)})
        store.save(movie_db, first)
        store.save(movie_db, second)
        loaded = store.load(movie_db)
        assert loaded is not None
        probes, minmax = loaded
        # Each writer's raw key plus its canonical twin (dual-keying).
        assert len(probes) == 4
        assert "SELECT 1 FROM movie WHERE year = 1994 LIMIT 1" in probes
        assert "SELECT 1 FROM movie WHERE year = 2013 LIMIT 1" in probes
        assert len(minmax) == 1

    def test_interleaved_writers_keep_a_valid_store(self, tmp_path,
                                                    movie_db):
        """Saves are transactional: whatever interleaving happens, the
        file on disk is always a complete, readable store."""
        store = PersistentProbeCache(tmp_path)
        for i in range(8):
            cache = SharedProbeCache()
            cache.seed({f"SELECT 1 FROM movie WHERE mid = {i} LIMIT 1":
                        bool(i % 2)}, {})
            store.save(movie_db, cache)
            assert store.load(movie_db) is not None
        probes, _ = store.load(movie_db)
        # 8 raw keys, each with its canonical twin (dual-keying).
        assert len(probes) == 16
        assert all(f"SELECT 1 FROM movie WHERE mid = {i} LIMIT 1" in probes
                   for i in range(8))


class TestIncrementalUpsert:
    def test_saves_write_only_the_delta(self, tmp_path, movie_db):
        """The ROADMAP item the SQLite backing closes: a save must not
        rewrite the whole store. Re-saving a superset cache leaves the
        existing rows untouched and inserts exactly the new ones."""
        store = PersistentProbeCache(tmp_path)
        first = SharedProbeCache()
        first.seed({"probe-a": True, "probe-b": False}, {})
        store.save(movie_db, first)
        second = SharedProbeCache()
        # Same keys with *contradictory* outcomes plus one new entry:
        # existing facts win (INSERT OR IGNORE), the new row lands.
        second.seed({"probe-a": False, "probe-b": True, "probe-c": True},
                    {})
        store.save(movie_db, second)
        probes, _ = store.load(movie_db)
        # Raw keys keep the first writer's facts; the literal-free keys'
        # canonical twins (``<sql>\x1f\x1f``, dual-keying) follow suit.
        assert probes == {"probe-a": True, "probe-b": False,
                          "probe-c": True,
                          "probe-a\x1f\x1f": True,
                          "probe-b\x1f\x1f": False,
                          "probe-c\x1f\x1f": True}

    def test_locked_store_fails_the_save_without_deleting_it(
            self, tmp_path, movie_db, caplog, monkeypatch):
        """A lock timeout is not corruption: a save that cannot get the
        write lock must warn and give up — never unlink the (healthy)
        store a concurrent writer is mid-transaction on."""
        store = PersistentProbeCache(tmp_path)
        path = store.save(movie_db, populated_cache(movie_db))
        before = store.load(movie_db)
        assert before is not None and before[0]
        monkeypatch.setattr(PersistentProbeCache, "BUSY_TIMEOUT_MS", 50)
        holder = sqlite3.connect(path)
        try:
            holder.execute("BEGIN EXCLUSIVE")
            fresh = SharedProbeCache()
            fresh.seed({"probe-locked": True}, {})
            with caplog.at_level(logging.WARNING):
                assert store.save(movie_db, fresh) is None
            assert "could not persist" in caplog.text
            assert "recreating" not in caplog.text
        finally:
            holder.rollback()
            holder.close()
        assert path.exists()
        assert store.load(movie_db) == before  # nothing was lost

    def test_corrupt_file_is_recreated_on_save(self, tmp_path, movie_db,
                                               caplog):
        store = PersistentProbeCache(tmp_path)
        store.cache_dir.mkdir(parents=True, exist_ok=True)
        store.path_for(movie_db).write_text("garbage")
        with caplog.at_level(logging.WARNING):
            assert store.save(movie_db,
                              populated_cache(movie_db)) is not None
        assert "recreating" in caplog.text
        assert store.load(movie_db) is not None
