"""SQLite-backed database wrapper.

The verifier issues many small probe queries (``SELECT 1 ... LIMIT 1``,
Section 3.4), so this wrapper keeps a single connection per database,
counts executed statements (used to measure verification cost in the
ablation benchmarks), and supports per-statement execution budgets via
SQLite progress handlers.
"""

from __future__ import annotations

import hashlib
import itertools
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import faults
from ..errors import ExecutionError, ExecutionTimeout
from ..faults import RetryPolicy
from ..sqlir.ast import ColumnRef, Query
from ..sqlir.render import quote_ident, to_sql
from ..sqlir.types import Value
from .schema import Schema

#: Rows returned by query execution.
Row = Tuple[object, ...]


@dataclass
class ExecutionStats:
    """Counters describing database work done so far."""

    statements: int = 0
    rows_fetched: int = 0
    timeouts: int = 0
    retries: int = 0
    per_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, rows: int) -> None:
        self.statements += 1
        self.rows_fetched += rows
        self.per_kind[kind] = self.per_kind.get(kind, 0) + 1

    def snapshot(self) -> "ExecutionStats":
        return ExecutionStats(statements=self.statements,
                              rows_fetched=self.rows_fetched,
                              timeouts=self.timeouts,
                              retries=self.retries,
                              per_kind=dict(self.per_kind))

    def delta_since(self, before: "ExecutionStats") -> "ExecutionStats":
        """Counters accrued since ``before`` (a prior :meth:`snapshot`)."""
        per_kind = {}
        for kind, count in self.per_kind.items():
            delta = count - before.per_kind.get(kind, 0)
            if delta:
                per_kind[kind] = delta
        return ExecutionStats(statements=self.statements - before.statements,
                              rows_fetched=self.rows_fetched
                              - before.rows_fetched,
                              timeouts=self.timeouts - before.timeouts,
                              retries=self.retries - before.retries,
                              per_kind=per_kind)


class Database:
    """A SQLite database together with its declared :class:`Schema`."""

    #: Progress-handler granularity (VM instructions between checks):
    #: one *tick* of an :meth:`interruptible` budget.
    _PROGRESS_STEP = 10_000

    #: Ticks one millisecond of an :meth:`interruptible` budget buys:
    #: the rate of the fastest statements measured serially on a 2-core
    #: host (cross products over the movie fixture, 8-12 ticks/ms with
    #: the host's load). Most statements run far slower (MAS full
    #: checks about 1 tick/ms), so for them a budget is several times
    #: looser than the wall-clock deadline of the same number of ms.
    TICKS_PER_MS = 8

    #: Per-connection prepared-statement cache size. The probe planner
    #: collapses probe families onto shared parameterised SQL strings,
    #: which the sqlite3 module maps to cached prepared statements —
    #: sized well above the distinct probe structures of a task so plans
    #: survive interleaved probe/meta traffic (the stdlib default of 128
    #: thrashes on wide schemas).
    _STATEMENT_CACHE = 512

    def __init__(self, schema: Schema,
                 connection: Optional[sqlite3.Connection] = None):
        self.schema = schema
        self._conn = connection or sqlite3.connect(
            ":memory:", cached_statements=self._STATEMENT_CACHE)
        self._conn.execute("PRAGMA foreign_keys = ON")
        self.stats = ExecutionStats()
        self._content_hash: Optional[str] = None
        #: True while an :meth:`interruptible` guard is installed on this
        #: connection — lets probe-level error handling distinguish a
        #: budget interrupt (must propagate, nothing may be cached) from
        #: a genuinely failing statement (draws no conclusion, sound to
        #: treat as satisfied).
        self.interrupt_armed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, schema: Schema) -> "Database":
        """Create an empty in-memory database from a schema."""
        db = cls(schema)
        for statement in schema.ddl():
            db._conn.execute(statement)
        db._conn.commit()
        return db

    # ------------------------------------------------------------------
    # Forking (per-thread connections for the parallel verifier stage)
    # ------------------------------------------------------------------
    @staticmethod
    def supports_snapshots() -> bool:
        """Whether this sqlite3 build can serialize in-memory databases."""
        return hasattr(sqlite3.Connection, "serialize")

    def snapshot(self) -> bytes:
        """Serialize the database contents to bytes.

        Must be called from the thread that owns this connection; the
        returned payload can be rehydrated from any thread with
        :meth:`from_snapshot`.
        """
        try:
            return self._conn.serialize()
        except (AttributeError, sqlite3.Error) as exc:
            raise ExecutionError(f"cannot snapshot database: {exc}") from exc

    @classmethod
    def from_snapshot(cls, schema: Schema, payload: bytes) -> "Database":
        """Rehydrate a snapshot into a fresh in-memory connection.

        SQLite connections are bound to their creating thread, so worker
        threads call this themselves to get an independent read view of
        the same data — no locks, and probe statements run truly
        concurrently because SQLite releases the GIL while stepping.
        """
        # check_same_thread=False lets the pool close forked connections
        # after shutdown; each fork is still used by only one thread.
        connection = sqlite3.connect(":memory:", check_same_thread=False,
                                     cached_statements=cls._STATEMENT_CACHE)
        connection.deserialize(payload)
        return cls(schema, connection=connection)

    def fork(self) -> "Database":
        """An independent same-thread copy (snapshot + rehydrate)."""
        return Database.from_snapshot(self.schema, self.snapshot())

    def content_hash(self) -> str:
        """A stable hex digest of the schema DDL plus every table's rows.

        Two databases with the same schema and the same row *sets* hash
        identically regardless of insertion order, so the digest can key
        persisted artifacts (the disk-backed probe cache) across
        processes: probe answers are facts of the database contents, and
        the hash changing is exactly the signal that they went stale.

        The digest is memoised and invalidated by :meth:`insert_rows`;
        statements issued here bypass :attr:`stats` so hashing a database
        never perturbs execution counters.
        """
        if self._content_hash is None:
            digest = hashlib.sha256()
            for statement in self.schema.ddl():
                digest.update(statement.encode("utf-8"))
                digest.update(b"\x00")
            for table in self.schema.tables:
                digest.update(table.name.encode("utf-8"))
                digest.update(b"\x1e")
                cursor = self._conn.execute(
                    f"SELECT * FROM {quote_ident(table.name)}")
                for row in sorted(repr(r) for r in cursor.fetchall()):
                    digest.update(row.encode("utf-8"))
                    digest.update(b"\x1f")
            self._content_hash = digest.hexdigest()
        return self._content_hash

    def merge_stats(self, other: "ExecutionStats") -> None:
        """Fold a forked connection's counters into this one's stats."""
        self.stats.statements += other.statements
        self.stats.rows_fetched += other.rows_fetched
        self.stats.timeouts += other.timeouts
        self.stats.retries += other.retries
        for kind, count in other.per_kind.items():
            self.stats.per_kind[kind] = \
                self.stats.per_kind.get(kind, 0) + count

    def insert_rows(self, table: str, rows: Iterable[Sequence[Value]]) -> int:
        """Bulk-insert rows into ``table``; returns the number inserted."""
        table_obj = self.schema.table(table)
        columns = ", ".join(quote_ident(c.name) for c in table_obj.columns)
        holes = ", ".join("?" for _ in table_obj.columns)
        sql = f"INSERT INTO {quote_ident(table)} ({columns}) VALUES ({holes})"
        rows = list(rows)
        try:
            self._conn.executemany(sql, rows)
        except sqlite3.Error as exc:
            raise ExecutionError(f"insert into {table!r} failed: {exc}") from exc
        self._conn.commit()
        self._content_hash = None  # contents changed: digest is stale
        return len(rows)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    #: Bounded backoff for transient failures (lock contention and
    #: injected faults). Short delays: probes are sub-millisecond, and a
    #: locked in-memory database clears as soon as the writer commits.
    RETRY_POLICY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.25)

    def execute(self, sql: str, params: Sequence[Value] = (),
                max_rows: Optional[int] = None,
                kind: str = "query") -> List[Row]:
        """Execute a SELECT statement and fetch (up to ``max_rows``) rows.

        Transient failures ("database is locked"/busy, and injected
        faults marked ``transient``) are retried under
        :attr:`RETRY_POLICY`; an exhausted budget propagates the
        transient error so callers never mistake it for a query-shape
        failure (in particular the probe cache must not memoise it).
        Budget interrupts ("interrupted") always propagate immediately —
        the ``interruptible()`` guard turns them into
        :class:`ExecutionTimeout` at scope exit.
        """
        # The memoised content hash keys persisted probe caches, so it
        # must notice *any* mutation — including UPDATE/DELETE routed
        # through here despite the SELECT contract. total_changes is a
        # cheap connection-level write counter.
        changes_before = self._conn.total_changes
        delays = None
        try:
            while True:
                injector = faults.ACTIVE
                try:
                    if injector is not None:
                        faults.fire_db_execute(
                            injector, armed=self.interrupt_armed)
                    cursor = self._conn.execute(sql, tuple(params))
                    if max_rows is None:
                        rows = cursor.fetchall()
                    else:
                        rows = cursor.fetchmany(max_rows)
                    break
                except (sqlite3.Error, faults.InjectedFault) as exc:
                    if isinstance(exc, faults.InjectedFault):
                        error = exc
                    else:
                        error = ExecutionError(
                            f"failed to execute {sql!r}: {exc}")
                    if (faults.is_transient(error)
                            and "interrupted" not in str(error)):
                        if delays is None:
                            delays = self.RETRY_POLICY.delays()
                        delay = next(delays, None)
                        if delay is not None:
                            self.stats.retries += 1
                            if (injector is not None
                                    and isinstance(exc,
                                                   faults.InjectedFault)):
                                injector.note_absorbed(exc.point)
                            time.sleep(delay)
                            continue
                    if (injector is not None
                            and isinstance(exc, faults.InjectedFault)):
                        injector.note_surfaced(exc.point)
                        raise
                    raise error from exc
        finally:
            if self._conn.total_changes != changes_before:
                self._content_hash = None
        self.stats.record(kind, len(rows))
        return rows

    def execute_query(self, query: Query,
                      max_rows: Optional[int] = None) -> List[Row]:
        """Render and execute a complete query AST."""
        return self.execute(to_sql(query), max_rows=max_rows, kind="full")

    def exists(self, sql: str, params: Sequence[Value] = ()) -> bool:
        """Run a ``SELECT 1 ... LIMIT 1`` style probe; True if non-empty."""
        return bool(self.execute(sql, params, max_rows=1, kind="probe"))

    def interruptible(self, budget_ms: int):
        """Context manager interrupting statements over budget.

        Usage::

            with db.interruptible(200):
                rows = db.execute(sql)

        The budget counts SQLite work, not wall time: ``budget_ms``
        buys ``budget_ms * TICKS_PER_MS`` progress ticks of
        ``_PROGRESS_STEP`` VM instructions each, shared by every
        statement in the scope. A statement therefore gets the same
        verdict however contended the CPU is — a wall-clock deadline
        would reject, under thread contention, candidates that a serial
        run accepts. Raises :class:`ExecutionTimeout` when the budget
        is exceeded.
        """
        return _InterruptGuard(self, budget_ms)

    # ------------------------------------------------------------------
    # Introspection helpers used by the PBE baseline and autocomplete
    # ------------------------------------------------------------------
    def row_count(self, table: str) -> int:
        rows = self.execute(
            f"SELECT COUNT(*) FROM {quote_ident(table)}", kind="meta")
        return int(rows[0][0])

    def distinct_values(self, ref: ColumnRef,
                        limit: Optional[int] = None) -> List[Value]:
        """Distinct non-null values of a column, optionally limited."""
        sql = (f"SELECT DISTINCT {quote_ident(ref.column)} "
               f"FROM {quote_ident(ref.table)} "
               f"WHERE {quote_ident(ref.column)} IS NOT NULL")
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [row[0] for row in self.execute(sql, kind="meta")]

    def column_min_max(self, ref: ColumnRef) -> Tuple[Optional[Value],
                                                      Optional[Value]]:
        """The (min, max) of a column; used for AVG range verification."""
        sql = (f"SELECT MIN({quote_ident(ref.column)}), "
               f"MAX({quote_ident(ref.column)}) "
               f"FROM {quote_ident(ref.table)}")
        rows = self.execute(sql, kind="meta")
        return (rows[0][0], rows[0][1]) if rows else (None, None)

    def value_exists(self, ref: ColumnRef, value: Value) -> bool:
        """True when ``value`` appears in the given column."""
        sql = (f"SELECT 1 FROM {quote_ident(ref.table)} "
               f"WHERE {quote_ident(ref.column)} = ? LIMIT 1")
        return self.exists(sql, (value,))

    def close(self) -> None:
        self._conn.close()

    def __repr__(self) -> str:
        return f"<Database {self.schema.name}>"


class _InterruptGuard:
    """Installs a progress handler that interrupts long statements once
    they have spent the scope's budget of progress ticks."""

    def __init__(self, db: Database, budget_ms: int):
        self._db = db
        self._ticks = max(1, int(budget_ms * Database.TICKS_PER_MS))

    def __enter__(self) -> Database:
        ticks = itertools.count(1)
        limit = self._ticks

        def handler() -> int:
            return 1 if next(ticks) > limit else 0

        self._db._conn.set_progress_handler(handler, Database._PROGRESS_STEP)
        self._db.interrupt_armed = True
        return self._db

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._db._conn.set_progress_handler(None, 0)
        self._db.interrupt_armed = False
        if (exc_type is not None
                and issubclass(exc_type, ExecutionError)
                and not issubclass(exc_type, ExecutionTimeout)
                and "interrupted" in str(exc)):
            self._db.stats.timeouts += 1
            raise ExecutionTimeout(str(exc)) from exc
        return False
