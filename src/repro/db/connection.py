"""DB-API-style connections and cursors.

The paper's code examples use the MySQLdb idiom::

    cursor = getconn().cursor()
    cursor.execute("SELECT title, heading FROM page WHERE pageid=%s", pageid)
    title, heading = cursor.fetchone()

This module reproduces that surface: ``%s`` placeholders, ``fetchone``/
``fetchall``/iteration, ``cursor.close()``.  A :class:`Connection` is
the *scarce resource* of the whole study — it is handed out by the
bounded :class:`~repro.db.pool.ConnectionPool` and, in the baseline
server, pinned to a worker thread for the entire request lifetime.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.db.engine import Database
from repro.db.errors import ProgrammingError
from repro.db.sql.executor import ResultSet


class Cursor:
    """Executes statements and buffers their results."""

    def __init__(self, connection: "Connection"):
        self._connection = connection
        self._result: Optional[ResultSet] = None
        self._fetch_index = 0
        self._closed = False

    # -- DB-API surface --------------------------------------------------
    def execute(self, sql: str, params: Any = None) -> "Cursor":
        """Run one statement.  ``params`` may be a single value or a
        sequence, matching MySQLdb's forgiving behaviour."""
        self._check_open()
        if params is None:
            bound: Sequence[Any] = ()
        elif isinstance(params, (list, tuple)):
            bound = params
        else:
            bound = (params,)
        self._result = self._connection._execute(sql, bound)
        self._fetch_index = 0
        return self

    def fetchone(self) -> Optional[Tuple]:
        self._check_has_result()
        if self._fetch_index >= len(self._result.rows):
            return None
        row = self._result.rows[self._fetch_index]
        self._fetch_index += 1
        return row

    def fetchall(self) -> List[Tuple]:
        self._check_has_result()
        rows = self._result.rows[self._fetch_index:]
        self._fetch_index = len(self._result.rows)
        return rows

    def fetchmany(self, size: int = 1) -> List[Tuple]:
        self._check_has_result()
        end = self._fetch_index + size
        rows = self._result.rows[self._fetch_index:end]
        self._fetch_index = min(end, len(self._result.rows))
        return rows

    def __iter__(self) -> Iterator[Tuple]:
        self._check_has_result()
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    @property
    def rowcount(self) -> int:
        return self._result.rowcount if self._result is not None else -1

    @property
    def lastrowid(self) -> Optional[int]:
        return self._result.lastrowid if self._result is not None else None

    @property
    def description(self) -> Optional[List[Tuple]]:
        """DB-API description: 7-tuples with just the name populated."""
        if self._result is None or not self._result.columns:
            return None
        return [
            (name, None, None, None, None, None, None)
            for name in self._result.columns
        ]

    def close(self) -> None:
        self._closed = True
        self._result = None

    # -- internals ---------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ProgrammingError("cursor is closed")
        self._connection._check_open()

    def _check_has_result(self) -> None:
        self._check_open()
        if self._result is None:
            raise ProgrammingError("no statement has been executed")


class Connection:
    """One logical database connection.

    Serialises its own statements (one in flight at a time), like a real
    wire connection.  Tracks usage statistics so experiments can report
    connection utilisation — the quantity the paper's scheme improves.
    """

    _next_id = 1
    _id_lock = threading.Lock()

    def __init__(self, database: Database, on_close=None,
                 clock: Callable[[], float] = time.monotonic):
        with Connection._id_lock:
            self.connection_id = Connection._next_id
            Connection._next_id += 1
        self._database = database
        self._closed = False
        self._busy = threading.Lock()
        self._on_close = on_close
        self._clock = clock
        self.statements_executed = 0
        #: Wall-clock seconds spent actually executing statements — the
        #: numerator of the utilisation the paper's scheme improves
        #: (the denominator being how long the connection is held).
        self.busy_seconds = 0.0

    def cursor(self) -> Cursor:
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str, params: Any = None) -> Cursor:
        """Convenience: open a cursor and execute in one call."""
        cursor = self.cursor()
        cursor.execute(sql, params)
        return cursor

    def begin(self) -> None:
        """Open a transaction (equivalent to executing BEGIN)."""
        self.execute("BEGIN")

    def commit(self) -> None:
        """Commit the open transaction."""
        self.execute("COMMIT")

    def rollback(self) -> int:
        """Roll back the open transaction; returns undone operations."""
        return self.execute("ROLLBACK").rowcount

    def transaction(self) -> "_TransactionScope":
        """``with conn.transaction():`` — commit on success, roll back
        on exception (the buy-confirm safety wrapper)."""
        return _TransactionScope(self)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._on_close is not None:
            self._on_close(self)

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- internals ---------------------------------------------------------
    def _execute(self, sql: str, params: Sequence[Any]) -> ResultSet:
        self._check_open()
        with self._busy:
            self.statements_executed += 1
            statement = self._database.prepare(sql)
            started = self._clock()
            try:
                return self._database.execute_statement(
                    statement, params, connection_id=self.connection_id
                )
            finally:
                self.busy_seconds += self._clock() - started

    def _check_open(self) -> None:
        if self._closed:
            raise ProgrammingError("connection is closed")


class _TransactionScope:
    """Context manager: BEGIN on enter, COMMIT/ROLLBACK on exit."""

    def __init__(self, connection: Connection):
        self._connection = connection

    def __enter__(self) -> Connection:
        self._connection.begin()
        return self._connection

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._connection.commit()
        else:
            self._connection.rollback()
