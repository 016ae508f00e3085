"""Connection pool, connection, and cursor tests."""

import threading
import time

import pytest

from repro.db.connection import Connection
from repro.db.cost import CostModel, SleepingCostModel
from repro.db.engine import Database, split_statements
from repro.db.errors import (
    PoolClosedError,
    PoolReleaseError,
    PoolTimeoutError,
    ProgrammingError,
)
from repro.db.pool import UNSTAGED, ConnectionPool
from repro.util.clock import ManualClock


@pytest.fixture()
def db():
    database = Database()
    database.executescript(
        "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)"
    )
    database.execute("INSERT INTO t (v) VALUES (1), (2), (3)")
    return database


class TestCursor:
    def test_fetchone_iterates(self, db):
        cursor = Connection(db).cursor()
        cursor.execute("SELECT v FROM t ORDER BY v")
        assert cursor.fetchone() == (1,)
        assert cursor.fetchone() == (2,)
        assert cursor.fetchone() == (3,)
        assert cursor.fetchone() is None

    def test_fetchall_after_fetchone(self, db):
        cursor = Connection(db).cursor()
        cursor.execute("SELECT v FROM t ORDER BY v")
        cursor.fetchone()
        assert cursor.fetchall() == [(2,), (3,)]

    def test_fetchmany(self, db):
        cursor = Connection(db).cursor()
        cursor.execute("SELECT v FROM t ORDER BY v")
        assert cursor.fetchmany(2) == [(1,), (2,)]
        assert cursor.fetchmany(2) == [(3,)]

    def test_iteration_like_paper_example(self, db):
        # "for row in cursor:" — Figure 1's idiom.
        cursor = Connection(db).cursor()
        cursor.execute("SELECT v FROM t ORDER BY v")
        assert [row[0] for row in cursor] == [1, 2, 3]

    def test_single_scalar_param(self, db):
        # MySQLdb-style: cursor.execute(sql, pageid) with a bare value.
        cursor = Connection(db).cursor()
        cursor.execute("SELECT v FROM t WHERE id = %s", 2)
        assert cursor.fetchone() == (2,)

    def test_rowcount_and_lastrowid(self, db):
        cursor = Connection(db).cursor()
        cursor.execute("INSERT INTO t (v) VALUES (9)")
        assert cursor.rowcount == 1
        assert cursor.lastrowid == 4

    def test_description(self, db):
        cursor = Connection(db).cursor()
        cursor.execute("SELECT id, v FROM t")
        assert [d[0] for d in cursor.description] == ["id", "v"]

    def test_fetch_before_execute_raises(self, db):
        with pytest.raises(ProgrammingError):
            Connection(db).cursor().fetchone()

    def test_closed_cursor_rejects_execute(self, db):
        cursor = Connection(db).cursor()
        cursor.close()
        with pytest.raises(ProgrammingError):
            cursor.execute("SELECT 1")


class TestConnection:
    def test_closed_connection_rejects_cursor(self, db):
        connection = Connection(db)
        connection.close()
        with pytest.raises(ProgrammingError):
            connection.cursor()

    def test_context_manager_closes(self, db):
        with Connection(db) as connection:
            pass
        assert connection.closed

    def test_statements_counted(self, db):
        connection = Connection(db)
        connection.execute("SELECT 1")
        connection.execute("SELECT 2")
        assert connection.statements_executed == 2

    def test_ids_unique(self, db):
        a, b = Connection(db), Connection(db)
        assert a.connection_id != b.connection_id

    def test_double_close_is_noop(self, db):
        connection = Connection(db)
        connection.close()
        connection.close()


class TestConnectionPool:
    def test_lazy_creation_up_to_size(self, db):
        pool = ConnectionPool(db, size=2)
        a = pool.acquire()
        b = pool.acquire()
        assert a is not b
        assert pool.in_use == 2

    def test_release_recycles(self, db):
        pool = ConnectionPool(db, size=1)
        a = pool.acquire()
        pool.release(a)
        assert pool.acquire() is a

    def test_blocks_when_exhausted(self, db):
        pool = ConnectionPool(db, size=1)
        held = pool.acquire()
        got = threading.Event()

        def waiter():
            connection = pool.acquire(timeout=5)
            got.set()
            pool.release(connection)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not got.is_set()  # the paper's "precious" resource
        pool.release(held)
        assert got.wait(timeout=5)
        thread.join(timeout=5)

    def test_timeout(self, db):
        pool = ConnectionPool(db, size=1)
        pool.acquire()
        with pytest.raises(PoolTimeoutError):
            pool.acquire(timeout=0.05)

    def test_lease_scope(self, db):
        pool = ConnectionPool(db, size=1)
        with pool.lease() as connection:
            assert connection.execute("SELECT 1").fetchone() == (1,)
        assert pool.idle == 1

    def test_closed_connection_replaced(self, db):
        pool = ConnectionPool(db, size=1)
        connection = pool.acquire()
        connection.close()
        pool.release(connection)
        replacement = pool.acquire(timeout=1)
        assert replacement is not connection

    def test_close_rejects_acquire(self, db):
        pool = ConnectionPool(db, size=1)
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.acquire()

    def test_close_wakes_waiters(self, db):
        pool = ConnectionPool(db, size=1)
        pool.acquire()
        failed = threading.Event()

        def waiter():
            try:
                pool.acquire(timeout=10)
            except PoolClosedError:
                failed.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        pool.close()
        assert failed.wait(timeout=5)
        thread.join(timeout=5)

    def test_statistics(self, db):
        pool = ConnectionPool(db, size=2)
        a = pool.acquire()
        b = pool.acquire()
        pool.release(a)
        pool.release(b)
        assert pool.total_acquires == 2
        assert pool.peak_in_use == 2
        assert pool.utilization_report()["acquire_wait"]["mean"] >= 0.0

    def test_checkouts_are_labelled_by_stage(self, db):
        pool = ConnectionPool(db, size=2)
        a = pool.acquire(stage="general")
        a.execute("SELECT v FROM t")
        pool.release(a)
        pool.release(pool.acquire())
        stages = pool.stage_report()
        assert set(stages) == {"general", UNSTAGED}
        assert stages["general"]["leases"] == 1
        assert stages["general"]["busy_seconds"] > 0.0
        assert stages[UNSTAGED]["busy_seconds"] == 0.0
        assert stages[UNSTAGED]["acquire_wait"]["count"] == 1

    def test_in_flight_checkout_counts_its_lease_not_its_hold(self, db):
        clock = ManualClock()
        pool = ConnectionPool(db, size=1, clock=clock.now)
        connection = pool.acquire(stage="general")
        clock.advance(0.5)
        entry = pool.stage_report()["general"]
        assert entry["leases"] == 1
        assert entry["held_seconds"] == 0.0
        assert pool.utilization_report()["in_use"] == 1
        pool.release(connection)
        assert pool.stage_report()["general"]["held_seconds"] \
            == pytest.approx(0.5)
        assert pool.utilization_report()["in_use"] == 0

    def test_invalid_size(self, db):
        with pytest.raises(ValueError):
            ConnectionPool(db, size=0)


class TestReleaseHardening:
    """Regression: a doubled or foreign release used to silently
    corrupt the idle deque and the in-use count; now it raises."""

    def test_double_release_raises(self, db):
        pool = ConnectionPool(db, size=2)
        connection = pool.acquire()
        pool.release(connection)
        with pytest.raises(PoolReleaseError):
            pool.release(connection)

    def test_double_release_does_not_corrupt_counts(self, db):
        pool = ConnectionPool(db, size=1)
        connection = pool.acquire()
        pool.release(connection)
        with pytest.raises(PoolReleaseError):
            pool.release(connection)
        assert pool.in_use == 0
        assert pool.idle == 1
        # The pool still works and never exceeds its size.
        again = pool.acquire(timeout=1)
        assert again is connection
        pool.release(again)

    def test_foreign_connection_rejected(self, db):
        pool = ConnectionPool(db, size=1)
        other = Connection(db)
        with pytest.raises(PoolReleaseError):
            pool.release(other)
        assert pool.in_use == 0 and pool.idle == 0

    def test_connection_from_another_pool_rejected(self, db):
        pool_a = ConnectionPool(db, size=1)
        pool_b = ConnectionPool(db, size=1)
        connection = pool_a.acquire()
        with pytest.raises(PoolReleaseError):
            pool_b.release(connection)
        pool_a.release(connection)  # the rightful owner still can

    def test_closed_but_issued_connection_still_releasable(self, db):
        # A handler closing its connection outright is legal exactly
        # once; the hardening keys on checkout membership, not state.
        pool = ConnectionPool(db, size=1)
        connection = pool.acquire()
        connection.close()
        pool.release(connection)
        with pytest.raises(PoolReleaseError):
            pool.release(connection)


class TestUtilizationReport:
    def test_held_vs_busy_accounting(self, db):
        clock = ManualClock()
        pool = ConnectionPool(db, size=1, clock=clock.now)
        connection = pool.acquire()
        clock.advance(1.0)  # held but idle
        connection.execute("SELECT v FROM t")  # zero manual-clock cost
        clock.advance(1.0)
        pool.release(connection)
        report = pool.utilization_report()
        assert report["held_seconds"] == pytest.approx(2.0)
        assert report["busy_seconds"] == pytest.approx(0.0)
        assert report["completed_checkouts"] == 1
        assert report["acquires"] == 1
        assert report["in_use"] == 0
        assert report["size"] == 1

    def test_busy_fraction_counts_query_time_only(self, db):
        class TickingDatabase(Database):
            """Every statement costs 0.25 manual-clock seconds."""

            def __init__(self, manual):
                super().__init__()
                self._manual = manual

            def execute_statement(self, statement, params=(),
                                  connection_id=None):
                self._manual.advance(0.25)
                return super().execute_statement(
                    statement, params, connection_id=connection_id
                )

        clock = ManualClock()
        database = TickingDatabase(clock)
        database.executescript("CREATE TABLE u (id INT PRIMARY KEY)")
        pool = ConnectionPool(database, size=1, clock=clock.now)
        connection = pool.acquire()
        clock.advance(0.5)
        connection.execute("SELECT id FROM u")
        clock.advance(0.25)
        pool.release(connection)
        report = pool.utilization_report()
        assert report["held_seconds"] == pytest.approx(1.0)
        assert report["busy_seconds"] == pytest.approx(0.25)
        assert report["busy_fraction"] == pytest.approx(0.25)

    def test_in_flight_checkouts_not_counted(self, db):
        clock = ManualClock()
        pool = ConnectionPool(db, size=2, clock=clock.now)
        held = pool.acquire()
        clock.advance(5.0)
        report = pool.utilization_report()
        assert report["in_use"] == 1
        assert report["held_seconds"] == 0.0
        assert report["completed_checkouts"] == 0
        pool.release(held)
        assert pool.utilization_report()["held_seconds"] == pytest.approx(5.0)

    def test_acquire_wait_summary_shape(self, db):
        pool = ConnectionPool(db, size=1)
        pool.release(pool.acquire())
        wait = pool.utilization_report()["acquire_wait"]
        assert wait["count"] == 1
        assert set(wait) == {"count", "mean", "p50", "p95", "p99", "max"}

    def test_empty_pool_report(self, db):
        report = ConnectionPool(db, size=3).utilization_report()
        assert report["busy_fraction"] == 0.0
        assert report["acquire_wait"] == {"count": 0}


class TestCostModels:
    def test_charges_accumulate(self):
        cost = CostModel()
        cost.charge("row_scan", 10)
        assert cost.counts()["row_scan"] == 10
        assert cost.total_seconds == pytest.approx(10 * 20e-6)

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError):
            CostModel().charge("warp_drive")

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError):
            CostModel(costs={"warp_drive": 1.0})

    def test_override_costs(self):
        cost = CostModel(costs={"row_scan": 1.0})
        cost.charge("row_scan", 2)
        assert cost.total_seconds == pytest.approx(2.0)

    def test_reset(self):
        cost = CostModel()
        cost.charge("row_scan", 5)
        cost.reset()
        assert cost.total_seconds == 0.0
        assert cost.counts()["row_scan"] == 0

    def test_sleeping_model_sleeps_scaled(self):
        slept = []
        cost = SleepingCostModel(scale=2.0, sleep=slept.append)
        cost.charge("statement")
        cost.settle(0.25)
        assert slept == [0.5]

    def test_sleeping_model_scale_zero_never_sleeps(self):
        slept = []
        cost = SleepingCostModel(scale=0.0, sleep=slept.append)
        cost.settle(1.0)
        assert slept == []

    def test_statement_counter(self, db):
        before = db.cost_model.statements
        db.execute("SELECT 1")
        assert db.cost_model.statements == before + 1


class TestSplitStatements:
    def test_basic_split(self):
        assert split_statements("A; B ;C") == ["A", "B", "C"]

    def test_semicolon_inside_string_kept(self):
        assert split_statements("INSERT INTO t VALUES ('a;b'); SELECT 1") == [
            "INSERT INTO t VALUES ('a;b')", "SELECT 1",
        ]

    def test_trailing_semicolon(self):
        assert split_statements("A;") == ["A"]

    def test_empty_script(self):
        assert split_statements("  \n ") == []


class TestConnectionUtilization:
    def test_busy_seconds_accumulate(self, db):
        connection = Connection(db)
        assert connection.busy_seconds == 0.0
        connection.execute("SELECT v FROM t")
        assert connection.busy_seconds > 0.0

    def test_pool_tracks_all_connections(self, db):
        pool = ConnectionPool(db, size=2)
        a = pool.acquire()
        b = pool.acquire()
        a.execute("SELECT 1")
        assert len(pool.connections()) == 2
        assert pool.total_busy_seconds() > 0.0
        pool.release(a)
        pool.release(b)
        # Recycled acquires do not duplicate entries.
        pool.release(pool.acquire())
        assert len(pool.connections()) == 2
