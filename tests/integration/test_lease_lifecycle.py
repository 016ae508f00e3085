"""Lease lifecycle on live servers: whatever the strategy, whatever the
outcome of the request, every connection lease is returned by shutdown,
and the pool's one checkout ledger accounts for it under its stage."""

import threading

import pytest

from repro.core.policy import PolicyConfig, SchedulingPolicy
from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.harness.export import stage_utilization
from repro.http.client import http_request
from repro.server.app import Application
from repro.server.baseline import BaselineServer
from repro.server.resources import LeaseStrategy
from repro.server.staged import StagedServer
from repro.sim.workload import run_tpcw_simulation
from repro.templates.engine import TemplateEngine
from repro.util.clock import ManualClock

from tests.sim.test_workload_server import fast_profiles, tiny_config

STRATEGIES = [
    LeaseStrategy.PINNED,
    LeaseStrategy.LEASED_PER_REQUEST,
    LeaseStrategy.LEASED_PER_QUERY,
]


def build_app():
    database = Database()
    database.executescript(
        "CREATE TABLE page (pageid INT PRIMARY KEY, title VARCHAR(40))"
    )
    database.execute("INSERT INTO page (pageid, title) VALUES (1, 'One')")
    engine = TemplateEngine(sources={
        "page.html": "<title>{{ title }}</title>",
    })
    app = Application(templates=engine)

    @app.expose("/page")
    def page(pageid="1"):
        cursor = app.getconn().cursor()
        cursor.execute("SELECT title FROM page WHERE pageid=%s", int(pageid))
        row = cursor.fetchone()
        return ("page.html", {"title": row[0] if row else "?"})

    @app.expose("/txn")
    def txn():
        connection = app.getconn()
        with connection.transaction():
            connection.execute(
                "UPDATE page SET title = 'One' WHERE pageid = %s", 1
            )
        return ("page.html", {"title": "txn"})

    @app.expose("/boom")
    def boom():
        app.getconn().execute("SELECT 1")  # lease in play when we die
        raise RuntimeError("handler exploded")

    return app, database


def small_policy():
    return SchedulingPolicy(PolicyConfig(
        general_pool_size=4, lengthy_pool_size=1, minimum_reserve=1,
        header_pool_size=2, static_pool_size=2, render_pool_size=2,
    ))


def make_server(kind, strategy, clock=None):
    app, database = build_app()
    if kind == "baseline":
        return BaselineServer(
            app, ConnectionPool(database, 4), workers=4,
            queue_sample_interval=0.05, lease_strategy=strategy, clock=clock,
        )
    return StagedServer(
        app, ConnectionPool(database, 8), policy=small_policy(),
        queue_sample_interval=0.05, lease_strategy=strategy, clock=clock,
    )


@pytest.fixture(params=["baseline", "staged"])
def kind(request):
    return request.param


class TestNoLeaseOutlivesTheServer:
    @pytest.mark.parametrize(
        "strategy", STRATEGIES, ids=[s.value for s in STRATEGIES]
    )
    def test_clean_and_error_paths_leak_nothing(self, kind, strategy):
        server = make_server(kind, strategy)
        server.start()
        try:
            host, port = server.address
            errors = []

            def client(path, count):
                try:
                    for _ in range(count):
                        response = http_request(host, port, path)
                        assert response.status in (200, 500), response.status
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(path, 6))
                for path in ("/page?pageid=1", "/txn", "/boom")
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert errors == []
            # The erroring handler produced 500s, not hangs.
            assert http_request(host, port, "/boom").status == 500
            assert http_request(host, port, "/page?pageid=1").status == 200
        finally:
            server.stop()
        # Shutdown returned every lease, clean paths and error paths alike.
        assert server.leases.outstanding == 0
        assert server.connection_pool.in_use == 0
        utilization = stage_utilization(server)
        assert utilization, "dynamic stages recorded no leases"
        for entry in utilization.values():
            assert entry["strategy"] == strategy.value
            assert entry["leases"] >= 1
            assert entry["held_seconds"] >= entry["busy_seconds"] >= 0.0

    def test_pinned_leases_span_worker_lifetimes(self, kind):
        server = make_server(kind, LeaseStrategy.PINNED)
        server.start()
        try:
            host, port = server.address
            assert http_request(host, port, "/page?pageid=1").status == 200
            # Workers hold their pinned connections while serving.
            assert server.leases.outstanding > 0
        finally:
            server.stop()
        assert server.leases.outstanding == 0
        assert server.connection_pool.in_use == 0
        # One lease per dynamic worker, returned only at shutdown.
        utilization = stage_utilization(server)
        expected = {"baseline": 4, "staged": 5}[kind]  # general 4 + lengthy 1
        assert sum(e["leases"] for e in utilization.values()) == expected


def assert_stages_sum_to_pool(pool):
    """Per-stage checkout entries add up to the pool-wide report."""
    stages = pool.stage_report()
    report = pool.utilization_report()
    assert stages
    assert sum(e["leases"] for e in stages.values()) == report["acquires"]
    assert sum(e["held_seconds"] for e in stages.values()) == \
        pytest.approx(report["held_seconds"])
    assert sum(e["busy_seconds"] for e in stages.values()) == \
        pytest.approx(report["busy_seconds"])
    for entry in stages.values():
        assert entry["acquire_wait"]["count"] == entry["leases"]
        assert entry["held_seconds"] >= entry["busy_seconds"]
    return stages


class TestOneCheckoutLedger:
    def test_live_stages_sum_to_the_pool_on_a_manual_clock(self):
        """The server's clock does not meter checkouts: held and busy
        time both come from the pool's clock, so a stage's busy
        fraction stays within [0, 1] and is not zero while it queried."""
        server = make_server("staged", LeaseStrategy.LEASED_PER_REQUEST,
                             clock=ManualClock())
        server.start()
        try:
            host, port = server.address
            for _ in range(3):
                assert http_request(host, port,
                                    "/page?pageid=1").status == 200
        finally:
            server.stop()
        stages = assert_stages_sum_to_pool(server.connection_pool)
        assert stages["general"]["leases"] == 3
        assert 0.0 < stages["general"]["busy_fraction"] <= 1.0

    def test_simulated_stages_sum_to_the_pool(self):
        server = run_tpcw_simulation("staged", tiny_config(),
                                     profiles=fast_profiles())
        stages = assert_stages_sum_to_pool(server.connection_pool)
        assert set(stages) <= {"general", "lengthy"}
