"""The lease layer: strategies, hook composition, concurrency safety."""

import random
import threading

import pytest

from repro.db.engine import Database
from repro.db.errors import IntegrityError, ProgrammingError
from repro.db.pool import ConnectionPool
from repro.server.app import Application
from repro.server.resources import (
    DatabaseResource,
    LeaseManager,
    LeaseStrategy,
    PerQueryConnection,
)


@pytest.fixture()
def db():
    database = Database()
    database.executescript(
        "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)"
    )
    database.execute("INSERT INTO t (v) VALUES (1), (2), (3)")
    return database


def make_manager(db, size=2):
    pool = ConnectionPool(db, size=size)
    app = Application()
    return LeaseManager(pool, binder=app), pool, app


class TestAcquireRelease:
    def test_acquire_grants_and_meters(self, db):
        manager, pool, _ = make_manager(db)
        lease = manager.acquire("general")
        assert manager.outstanding == 1
        assert pool.in_use == 1
        lease.connection.execute("SELECT v FROM t")
        manager.release(lease)
        assert manager.outstanding == 0
        assert pool.in_use == 0
        utilization = pool.stage_report()
        assert utilization["general"]["leases"] == 1
        assert utilization["general"]["busy_seconds"] > 0.0

    def test_double_release_raises(self, db):
        manager, _, _ = make_manager(db)
        lease = manager.acquire("general")
        manager.release(lease)
        with pytest.raises(ProgrammingError):
            manager.release(lease)
        assert manager.outstanding == 0


class TestPinnedHooks:
    def test_init_binds_cleanup_releases(self, db):
        manager, pool, app = make_manager(db)
        init, cleanup = manager.worker_hooks("general", DatabaseResource())
        init()
        assert app.getconn().execute("SELECT 1").fetchone() == (1,)
        assert pool.in_use == 1
        cleanup()
        assert pool.in_use == 0
        assert manager.outstanding == 0
        with pytest.raises(RuntimeError):
            app.getconn()

    def test_user_hooks_run_inside_lease(self, db):
        manager, _, app = make_manager(db)
        seen = []

        def user_init():
            seen.append(("init", app.getconn() is not None))

        def user_cleanup():
            seen.append(("cleanup", app.getconn() is not None))

        init, cleanup = manager.worker_hooks(
            "general", DatabaseResource(), user_init, user_cleanup
        )
        init()
        cleanup()
        # The lease is the first thing a worker gets and the last thing
        # it gives back: both user hooks saw a bound connection.
        assert seen == [("init", True), ("cleanup", True)]

    def test_failing_user_init_releases_lease(self, db):
        manager, pool, app = make_manager(db)

        def exploding_init():
            raise RuntimeError("boom")

        init, _ = manager.worker_hooks(
            "general", DatabaseResource(), exploding_init
        )
        with pytest.raises(RuntimeError):
            init()
        # ThreadPool does not run cleanup when init fails, so the init
        # hook itself must not leak the connection.
        assert pool.in_use == 0
        assert manager.outstanding == 0
        with pytest.raises(RuntimeError):
            app.getconn()

    def test_failing_user_cleanup_still_releases(self, db):
        manager, pool, _ = make_manager(db)

        def exploding_cleanup():
            raise RuntimeError("boom")

        init, cleanup = manager.worker_hooks(
            "general", DatabaseResource(), None, exploding_cleanup
        )
        init()
        with pytest.raises(RuntimeError):
            cleanup()
        assert pool.in_use == 0
        assert manager.outstanding == 0


class TestPerRequestScope:
    def test_scope_leases_around_request(self, db):
        manager, pool, app = make_manager(db)
        resource = DatabaseResource(strategy=LeaseStrategy.LEASED_PER_REQUEST)
        init, cleanup = manager.worker_hooks("worker", resource)
        assert init is None and cleanup is None  # nothing per worker
        scope = manager.request_scope("worker", resource)
        assert scope is not None
        with scope:
            assert app.getconn().execute("SELECT 1").fetchone() == (1,)
            assert pool.in_use == 1
        assert pool.in_use == 0
        with pytest.raises(RuntimeError):
            app.getconn()
        assert pool.stage_report()["worker"]["leases"] == 1

    def test_scope_releases_on_handler_error(self, db):
        manager, pool, _ = make_manager(db)
        resource = DatabaseResource(strategy=LeaseStrategy.LEASED_PER_REQUEST)
        with pytest.raises(ValueError):
            with manager.request_scope("worker", resource):
                raise ValueError("handler bug")
        assert pool.in_use == 0
        assert manager.outstanding == 0

    def test_other_strategies_have_no_request_scope(self, db):
        manager, _, _ = make_manager(db)
        assert manager.request_scope("s", DatabaseResource()) is None
        assert manager.request_scope(
            "s", DatabaseResource(strategy=LeaseStrategy.LEASED_PER_QUERY)
        ) is None


class TestPerQueryStrategy:
    def _bound_connection(self, db, size=2):
        manager, pool, app = make_manager(db, size=size)
        init, cleanup = manager.worker_hooks(
            "worker", DatabaseResource(strategy=LeaseStrategy.LEASED_PER_QUERY)
        )
        init()
        return manager, pool, app, cleanup

    def test_each_statement_leases_and_returns(self, db):
        manager, pool, app, cleanup = self._bound_connection(db)
        connection = app.getconn()
        assert isinstance(connection, PerQueryConnection)
        cursor = connection.cursor()
        cursor.execute("SELECT v FROM t ORDER BY v")
        # The lease is already back; the buffered result still reads.
        assert pool.in_use == 0
        assert cursor.fetchall() == [(1,), (2,), (3,)]
        connection.execute("SELECT 1")
        assert pool.total_acquires == 2  # one checkout per statement
        assert pool.stage_report()["worker"]["leases"] == 2
        cleanup()
        assert manager.outstanding == 0

    def test_transaction_holds_one_sticky_lease(self, db):
        manager, pool, app, cleanup = self._bound_connection(db)
        connection = app.getconn()
        with connection.transaction():
            assert pool.in_use == 1
            cursor = connection.cursor()
            cursor.execute("INSERT INTO t (v) VALUES (9)")
            inserted = cursor.lastrowid
            connection.execute("SELECT v FROM t WHERE id = %s", inserted)
            assert pool.in_use == 1  # still the same single checkout
        assert pool.in_use == 0
        # BEGIN + INSERT + SELECT + COMMIT rode one checkout.
        assert pool.total_acquires == 1
        assert db.execute("SELECT v FROM t WHERE id = %s",
                          (inserted,)).rows == [(9,)]
        cleanup()

    def test_transaction_rolls_back_on_error(self, db):
        manager, pool, app, cleanup = self._bound_connection(db)
        connection = app.getconn()
        before = db.execute("SELECT COUNT(*) FROM t").rows[0][0]
        with pytest.raises(IntegrityError):
            with connection.transaction():
                connection.execute("INSERT INTO t (v) VALUES (10)")
                # Duplicate primary key: the engine raises mid-txn.
                connection.execute("INSERT INTO t (id, v) VALUES (1, 1)")
        after = db.execute("SELECT COUNT(*) FROM t").rows[0][0]
        assert after == before  # rolled back
        assert pool.in_use == 0
        assert manager.outstanding == 0
        cleanup()

    def test_cursor_metadata_proxies(self, db):
        manager, pool, app, cleanup = self._bound_connection(db)
        connection = app.getconn()
        cursor = connection.execute("SELECT id, v FROM t")
        assert [d[0] for d in cursor.description] == ["id", "v"]
        assert cursor.rowcount == 3
        assert [row[1] for row in cursor] == [1, 2, 3]
        cleanup()

    def test_misuse_raises(self, db):
        manager, pool, app, cleanup = self._bound_connection(db)
        connection = app.getconn()
        with pytest.raises(ProgrammingError):
            connection.commit()  # no transaction open
        connection.begin()
        with pytest.raises(ProgrammingError):
            connection.begin()  # already open
        connection.rollback()
        cursor = connection.cursor()
        with pytest.raises(ProgrammingError):
            cursor.fetchone()  # nothing executed yet
        cursor.close()
        with pytest.raises(ProgrammingError):
            cursor.execute("SELECT 1")
        cleanup()
        assert manager.outstanding == 0


class TestLeaseHammer:
    """Racing acquire/release across all three strategies must never
    leak, double-free, or over-subscribe the pool."""

    THREADS = 8
    ITERATIONS = 40
    POOL_SIZE = 3

    def test_concurrent_strategies_conserve_the_pool(self, db):
        manager, pool, app = make_manager(db, size=self.POOL_SIZE)
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def pinned_style(rng):
            lease = manager.acquire("pinned-stage", timeout=10.0)
            try:
                if rng.random() < 0.5:
                    lease.connection.execute("SELECT v FROM t")
            finally:
                manager.release(lease)

        def per_request_style(rng):
            resource = DatabaseResource(
                strategy=LeaseStrategy.LEASED_PER_REQUEST,
                acquire_timeout=10.0,
            )
            with manager.request_scope("request-stage", resource):
                app.getconn().execute("SELECT v FROM t")
                app.getconn()  # re-entrant getconn under the lease

        def per_query_style(rng):
            binding = PerQueryConnection(manager, "query-stage", timeout=10.0)
            binding.execute("SELECT v FROM t").fetchall()
            if rng.random() < 0.3:
                with binding.transaction():
                    binding.execute("SELECT 1")

        styles = [pinned_style, per_request_style, per_query_style]

        def worker(seed):
            rng = random.Random(seed)
            barrier.wait()
            try:
                for _ in range(self.ITERATIONS):
                    rng.choice(styles)(rng)
                    assert pool.in_use <= self.POOL_SIZE
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert manager.outstanding == 0
        assert pool.in_use == 0
        assert pool.idle <= self.POOL_SIZE
        # Every lease that was granted was also returned and recorded.
        utilization = pool.stage_report()
        recorded = sum(entry["leases"] for entry in utilization.values())
        assert recorded == pool.completed_checkouts == pool.total_acquires
        assert pool.peak_in_use <= self.POOL_SIZE
