"""Tests for the SQLite wrapper."""

import pytest

from repro.db import Database
from repro.errors import ExecutionError, ExecutionTimeout
from repro.sqlir.ast import ColumnRef
from repro.sqlir.parser import parse_sql
from tests.conftest import build_movie_db


class TestExecution:
    def test_execute_select(self, movie_db):
        rows = movie_db.execute("SELECT COUNT(*) FROM movie")
        assert rows == [(40,)]

    def test_execute_query_ast(self, movie_db):
        query = parse_sql("SELECT title FROM movie WHERE year < 1995",
                          movie_db.schema)
        rows = movie_db.execute_query(query)
        assert all(isinstance(row[0], str) for row in rows)

    def test_max_rows(self, movie_db):
        rows = movie_db.execute("SELECT * FROM movie", max_rows=5)
        assert len(rows) == 5

    def test_bad_sql_raises(self, movie_db):
        with pytest.raises(ExecutionError):
            movie_db.execute("SELECT FROM nothing WHERE")

    def test_exists(self, movie_db):
        assert movie_db.exists(
            "SELECT 1 FROM movie WHERE title = 'Forrest Gump' LIMIT 1")
        assert not movie_db.exists(
            "SELECT 1 FROM movie WHERE title = 'No Such Movie' LIMIT 1")

    def test_stats_counted(self):
        db = build_movie_db()
        before = db.stats.statements
        db.execute("SELECT 1 FROM movie LIMIT 1", kind="probe")
        assert db.stats.statements == before + 1
        assert db.stats.per_kind.get("probe", 0) >= 1

    def test_stats_snapshot_is_independent(self, movie_db):
        snap = movie_db.stats.snapshot()
        movie_db.execute("SELECT 1 FROM movie LIMIT 1")
        assert movie_db.stats.statements > snap.statements


class TestIntrospection:
    def test_row_count(self, movie_db):
        assert movie_db.row_count("actor") == 30

    def test_distinct_values(self, movie_db):
        genders = movie_db.distinct_values(ColumnRef("actor", "gender"))
        assert set(genders) <= {"male", "female"}

    def test_distinct_values_limit(self, movie_db):
        titles = movie_db.distinct_values(ColumnRef("movie", "title"),
                                          limit=3)
        assert len(titles) == 3

    def test_column_min_max(self, movie_db):
        low, high = movie_db.column_min_max(ColumnRef("movie", "year"))
        assert low <= high
        assert low >= 1970

    def test_value_exists(self, movie_db):
        assert movie_db.value_exists(ColumnRef("actor", "name"),
                                     "Tom Hanks")
        assert not movie_db.value_exists(ColumnRef("actor", "name"),
                                         "Nobody")


class TestInsert:
    def test_fk_violation_raises(self):
        db = build_movie_db()
        with pytest.raises(ExecutionError):
            db.insert_rows("starring", [(999, 999)])

    def test_insert_returns_count(self):
        db = build_movie_db()
        count = db.insert_rows("actor",
                               [(100, "New Actor", "male", 1980)])
        assert count == 1
        assert db.row_count("actor") == 31


class TestInterruptible:
    def test_fast_statement_unaffected(self, movie_db):
        with movie_db.interruptible(1000):
            rows = movie_db.execute("SELECT COUNT(*) FROM movie")
        assert rows[0][0] == 40

    def test_runaway_statement_interrupted(self):
        db = build_movie_db()
        # A large cross product that cannot finish within the budget.
        slow = ("SELECT COUNT(*) FROM movie a, movie b, movie c, movie d, "
                "movie e")
        with pytest.raises((ExecutionTimeout, ExecutionError)):
            with db.interruptible(10):
                db.execute(slow)

    def test_budget_counts_work_not_wall_time(self, movie_db,
                                              monkeypatch):
        """A contended CPU must not change a verdict: with every clock
        read jumping a second, a statement costing a few dozen progress
        ticks still completes under a budget far above that cost."""
        import itertools
        import time

        seconds = itertools.count(start=1000)
        monkeypatch.setattr(time, "monotonic", lambda: next(seconds))
        medium = "SELECT COUNT(*) FROM movie a, movie b, movie c"
        with movie_db.interruptible(250):
            rows = movie_db.execute(medium)
        assert rows[0][0] == 40 ** 3


class TestSnapshotRoundTrip:
    """Snapshot/rehydrate round-trips, as used by the worker pool's
    per-thread forks: data, secondary indexes, and stats accounting."""

    pytestmark = pytest.mark.skipif(
        not Database.supports_snapshots(),
        reason="sqlite build cannot serialize databases")

    def _indexes(self, db):
        rows = db.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index' "
            "AND name LIKE 'idx_%' ORDER BY name", kind="meta")
        return [row[0] for row in rows]

    def test_round_trip_preserves_rows(self, movie_db):
        clone = Database.from_snapshot(movie_db.schema,
                                       movie_db.snapshot())
        for table in ("actor", "movie", "starring"):
            assert clone.row_count(table) == movie_db.row_count(table)
        original = movie_db.execute(
            "SELECT title FROM movie ORDER BY mid")
        assert clone.execute(
            "SELECT title FROM movie ORDER BY mid") == original
        clone.close()

    def test_round_trip_preserves_indexes(self, movie_db):
        """schema.ddl() creates secondary indexes on FK/text columns;
        they must survive serialization so rehydrated probe workers run
        at the same speed as the primary connection."""
        expected = self._indexes(movie_db)
        assert expected, "fixture schema should declare indexes"
        clone = Database.from_snapshot(movie_db.schema,
                                       movie_db.snapshot())
        assert self._indexes(clone) == expected
        clone.close()

    def test_rehydrated_stats_start_fresh_and_merge_back(self):
        db = build_movie_db()
        db.execute("SELECT 1 FROM movie LIMIT 1", kind="probe")
        clone = Database.from_snapshot(db.schema, db.snapshot())
        # Fresh counters: the snapshot carries data, not accounting.
        assert clone.stats.statements == 0
        clone.execute("SELECT 1 FROM actor LIMIT 1", kind="probe")
        clone.execute("SELECT COUNT(*) FROM movie", kind="meta")
        before = db.stats.snapshot()
        db.merge_stats(clone.stats)
        assert db.stats.statements == before.statements + 2
        assert db.stats.per_kind["probe"] == \
            before.per_kind.get("probe", 0) + 1
        clone.close()

    def test_stats_delta_since(self):
        db = build_movie_db()
        db.execute("SELECT 1 FROM movie LIMIT 1", kind="probe")
        mark = db.stats.snapshot()
        db.execute("SELECT 1 FROM movie LIMIT 1", kind="probe")
        db.execute("SELECT COUNT(*) FROM actor", kind="meta")
        delta = db.stats.delta_since(mark)
        assert delta.statements == 2
        assert delta.per_kind == {"probe": 1, "meta": 1}

    def test_fork_is_independent(self, movie_db):
        fork = movie_db.fork()
        fork.insert_rows("actor", [(200, "Fork Only", "male", 1970)])
        assert fork.row_count("actor") == movie_db.row_count("actor") + 1
        assert not movie_db.value_exists(ColumnRef("actor", "name"),
                                         "Fork Only")
        fork.close()
