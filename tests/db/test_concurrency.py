"""Database concurrency tests: MyISAM-style locking semantics under
real threads, including the paper's admin-response scenario."""

import sys
import threading
import time

import pytest

from repro.db.connection import Connection
from repro.db.cost import CostModel, SleepingCostModel
from repro.db.engine import Database


def make_db(cost_model=None):
    database = Database(cost_model=cost_model)
    database.executescript("""
        CREATE TABLE item (i_id INT PRIMARY KEY AUTO_INCREMENT, v INT);
        CREATE TABLE log (l_id INT PRIMARY KEY AUTO_INCREMENT, note TEXT);
    """)
    for i in range(50):
        database.execute("INSERT INTO item (v) VALUES (%s)", (i,))
    return database


class TestConcurrentReads:
    def test_parallel_scans_consistent(self):
        database = make_db()
        errors = []

        def scanner():
            try:
                for _ in range(50):
                    result = database.execute("SELECT COUNT(*) FROM item")
                    assert result.rows[0][0] == 50
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=scanner) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors


class TestConcurrentInsertsWithReaders:
    def test_myisam_concurrent_insert(self):
        """Inserts (shared lock + append latch) proceed while readers
        scan; final count is exact."""
        database = make_db()
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    database.execute("SELECT SUM(v) FROM item")
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        def inserter(offset):
            try:
                for i in range(100):
                    database.execute(
                        "INSERT INTO log (note) VALUES (%s)",
                        (f"row-{offset}-{i}",),
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        inserters = [
            threading.Thread(target=inserter, args=(n,)) for n in range(3)
        ]
        for t in readers + inserters:
            t.start()
        for t in inserters:
            t.join(timeout=30)
        stop.set()
        for t in readers:
            t.join(timeout=30)
        assert not errors
        assert database.execute("SELECT COUNT(*) FROM log").rows == [(300,)]

    def test_concurrent_inserts_unique_ids(self):
        database = make_db()
        ids = []
        lock = threading.Lock()

        def inserter():
            for _ in range(100):
                result = database.execute("INSERT INTO log (note) VALUES ('x')")
                with lock:
                    ids.append(result.lastrowid)

        threads = [threading.Thread(target=inserter) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(ids) == 400
        assert len(set(ids)) == 400


class TestWriteLockBehaviour:
    def test_update_waits_for_slow_reader(self):
        """The admin-response mechanism: an UPDATE on item must wait
        for a reader holding the shared lock (here made slow with a
        sleeping cost model)."""
        database = make_db(
            SleepingCostModel(costs={"row_scan": 2e-3}, scale=1.0)
        )
        timeline = []

        def slow_reader():
            timeline.append(("read-start", time.monotonic()))
            database.execute("SELECT SUM(v) FROM item")  # 50 rows * 2ms
            timeline.append(("read-end", time.monotonic()))

        def writer():
            time.sleep(0.02)  # let the reader take its lock first
            timeline.append(("write-start", time.monotonic()))
            database.execute("UPDATE item SET v = 0 WHERE i_id = 1")
            timeline.append(("write-end", time.monotonic()))

        threads = [threading.Thread(target=slow_reader),
                   threading.Thread(target=writer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        events = dict(timeline)
        assert events["write-end"] >= events["read-end"]

    def test_updates_serialise(self):
        database = make_db()

        def bump():
            for _ in range(100):
                database.execute(
                    "UPDATE item SET v = v + 1 WHERE i_id = 1"
                )

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        result = database.execute("SELECT v FROM item WHERE i_id = 1")
        assert result.rows == [(400,)]

    def test_delete_then_scan_consistent(self):
        database = make_db()
        database.execute("DELETE FROM item WHERE v < 25")
        assert database.execute("SELECT COUNT(*) FROM item").rows == [(25,)]


class TestStatementCacheThreadSafety:
    def test_concurrent_identical_statements(self):
        database = make_db()
        errors = []

        def worker():
            try:
                for i in range(200):
                    database.execute(
                        "SELECT v FROM item WHERE i_id = %s", (1 + i % 50,)
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors


# ----------------------------------------------------------------------
# Scripted interleavings: statement B runs entirely inside statement A.
# ----------------------------------------------------------------------

_SCRIPT_TIMEOUT = 10.0


class PausingCostModel(CostModel):
    """Parks the thread named ``"A"`` inside its first ``charge`` of
    ``pause_on`` until :meth:`resume` — mid-statement, after the
    statement has started — and records every ``settle`` as
    ``(thread name, cost)``."""

    def __init__(self, pause_on: str):
        super().__init__()
        self.pause_on = pause_on
        self.paused = threading.Event()
        self._resumed = threading.Event()
        self.settled = []

    def charge(self, operation, count=1):
        if (operation == self.pause_on
                and threading.current_thread().name == "A"
                and not self.paused.is_set()):
            self.paused.set()
            assert self._resumed.wait(_SCRIPT_TIMEOUT)
        return super().charge(operation, count)

    def settle(self, statement_cost):
        super().settle(statement_cost)
        self.settled.append((threading.current_thread().name, statement_cost))

    def resume(self):
        self._resumed.set()


def run_b_inside_a(model, statement_a, statement_b):
    """Start ``statement_a`` in thread A, run ``statement_b`` to
    completion here while A is parked, then let A finish.  Returns
    (A's result, B's result)."""
    outcome = {}

    def run_a():
        try:
            outcome["a"] = statement_a()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=run_a, name="A")
    thread.start()
    assert model.paused.wait(_SCRIPT_TIMEOUT), "A never reached its pause"
    result_b = statement_b()
    model.resume()
    thread.join(_SCRIPT_TIMEOUT)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["a"], result_b


def scripted_db(model):
    database = Database(cost_model=model)
    database.executescript("""
        CREATE TABLE a (id INT PRIMARY KEY, v INT);
        CREATE TABLE b (id INT PRIMARY KEY, v INT);
        CREATE TABLE t (id INT PRIMARY KEY, label TEXT);
        CREATE TABLE s (id INT, g INT);
    """)
    for i in range(1, 7):
        database.execute("INSERT INTO a (id, v) VALUES (%s, %s)", (i, i))
        database.execute("INSERT INTO b (id, v) VALUES (%s, %s)", (i, 10 * i))
        database.execute("INSERT INTO t (id, label) VALUES (%s, %s)",
                         (i, f"t{i}"))
        database.execute("INSERT INTO s (id, g) VALUES (%s, %s)", (i, i % 2))
    return database


class TestSharedExecutorState:
    """Regression tests for per-statement state that once lived on the
    one executor every connection shares.  Each interleaving is scripted
    with a blocking cost model, so the outcome does not depend on the
    scheduler."""

    def test_rollback_restores_rows_while_another_connection_reads(self):
        model = PausingCostModel(pause_on="index_probe")
        database = scripted_db(model)
        writer, reader = Connection(database), Connection(database)
        writer.begin()
        run_b_inside_a(
            model,
            lambda: writer.execute("UPDATE a SET v = 99 WHERE id = 1"),
            lambda: reader.execute("SELECT SUM(v) FROM b").fetchall(),
        )
        writer.rollback()
        assert database.execute(
            "SELECT v FROM a WHERE id = 1"
        ).rows == [(1,)]

    def test_in_subquery_sets_are_private_to_their_statement(self):
        sql = ("SELECT id FROM t WHERE id IN "
               "(SELECT id FROM s WHERE g = %s) ORDER BY id")
        model = PausingCostModel(pause_on="row_scan")
        database = scripted_db(model)
        serial = {g: database.execute(sql, (g,)).rows for g in (0, 1)}
        assert serial[0] != serial[1]
        rows_a, rows_b = run_b_inside_a(
            model,
            lambda: database.execute(sql, (0,)).rows,
            lambda: database.execute(sql, (1,)).rows,
        )
        assert rows_a == serial[0]
        assert rows_b == serial[1]

    def test_settle_receives_its_own_statements_cost(self):
        """Each statement's ``settle`` gets exactly its serial cost, so
        a sleeping cost model sleeps for the right statement.  Here A
        would otherwise reuse B's materialised subquery and settle
        without ever paying for its own."""
        sql = ("SELECT COUNT(*) FROM t WHERE id IN "
               "(SELECT id FROM s WHERE g = %s AND id > %s)")
        params_a, params_b = (0, 0), (1, 2)
        model = PausingCostModel(pause_on="row_scan")
        database = scripted_db(model)
        serial = {}
        for name, params in (("A", params_a), ("MainThread", params_b)):
            del model.settled[:]
            database.execute(sql, params)
            [(_, serial[name])] = model.settled
        assert serial["A"] != serial["MainThread"]
        del model.settled[:]
        run_b_inside_a(
            model,
            lambda: database.execute(sql, params_a),
            lambda: database.execute(sql, params_b),
        )
        assert sorted(model.settled) == [
            ("A", pytest.approx(serial["A"])),
            ("MainThread", pytest.approx(serial["MainThread"])),
        ]


class TestConcurrentMatchesSerial:
    """Threads sharing every cached plan get exactly the serial rows."""

    STATEMENTS = [
        ("SELECT id FROM t WHERE id IN (SELECT id FROM s WHERE g = %s) "
         "ORDER BY id", lambda i: (i % 2,)),
        ("SELECT g, COUNT(*), SUM(id) FROM s WHERE id >= %s GROUP BY g "
         "ORDER BY g", lambda i: (i % 5,)),
        ("SELECT t.label, b.v FROM t JOIN b ON t.id = b.id WHERE b.v > %s "
         "ORDER BY b.v DESC", lambda i: (10 * (i % 6),)),
        ("SELECT v FROM a WHERE id = %s", lambda i: (1 + i % 6,)),
    ]

    def test_threads_agree_with_serial_oracle(self):
        database = scripted_db(CostModel())
        cases = [(sql, params(i)) for i in range(12)
                 for sql, params in self.STATEMENTS]
        serial = {case: database.execute(*case).rows for case in cases}
        mismatches = []
        errors = []

        def worker(offset):
            try:
                for n in range(len(cases)):
                    case = cases[(n + offset) % len(cases)]
                    rows = database.execute(*case).rows
                    if rows != serial[case]:
                        mismatches.append(case)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(7 * k,))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-statement often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert not mismatches
