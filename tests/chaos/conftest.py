"""Shared chaos-test fixtures: live servers under a scripted FaultPlan.

Every scenario here is deterministic by construction: the server, the
fault plan, the breaker, and the retry backoff all run on one
``ManualClock``, and the plan's ``sleeper`` is ``clock.advance`` — an
injected delay (or a backoff wait) moves the test clock instead of
wall time.  ``tools/check_sites.py sleep`` lints this directory in CI:
no ``time.sleep`` anywhere.
"""

from __future__ import annotations

import pytest

from repro.core.policy import PolicyConfig, SchedulingPolicy
from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.faults.plan import FaultPlan
from repro.server.app import Application
from repro.server.baseline import BaselineServer
from repro.server.resources import LeaseStrategy
from repro.server.staged import StagedServer
from repro.templates.engine import TemplateEngine
from repro.util.clock import ManualClock

TOPOLOGIES = ("baseline", "staged")
STRATEGIES = (
    LeaseStrategy.PINNED,
    LeaseStrategy.LEASED_PER_REQUEST,
    LeaseStrategy.LEASED_PER_QUERY,
)


def build_chaos_app(fragment_cache: bool = False):
    """A tiny app with one DB-backed page and one DB-free page."""
    database = Database()
    database.executescript(
        "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)"
    )
    database.execute("INSERT INTO t (v) VALUES (41)")
    engine = TemplateEngine(sources={"page.html": "value={{ v }}"})
    if fragment_cache:
        engine.enable_fragment_cache()
    app = Application(templates=engine)
    app.add_static("/s.gif", b"GIF89a")

    @app.expose("/ok")
    def ok():
        cursor = app.getconn().cursor()
        cursor.execute("SELECT v FROM t WHERE id = 1")
        return ("page.html", {"v": cursor.fetchone()[0]})

    @app.expose("/nodb")
    def nodb():
        return ("page.html", {"v": -1})

    return app, database


def small_policy() -> SchedulingPolicy:
    return SchedulingPolicy(PolicyConfig(
        general_pool_size=3, lengthy_pool_size=1, minimum_reserve=1,
        header_pool_size=2, static_pool_size=1, render_pool_size=2,
    ))


@pytest.fixture()
def make_server():
    """Factory: a started live server with a FaultPlan on a ManualClock.

    Returns ``(server, plan, clock)``; every server is stopped at
    teardown.  The plan's sleeper is ``clock.advance``, so injected
    DELAY/HANG faults and retry backoff advance the shared manual
    clock — deadlines and breaker timeouts see the injected latency
    without any wall-clock waiting.
    """
    servers = []

    def _make(topology, strategy, rules, *, resilience=None, seed=0,
              fragment_cache=False):
        clock = ManualClock()
        plan = FaultPlan(rules, seed=seed, clock=clock,
                         sleeper=clock.advance)
        app, database = build_chaos_app(fragment_cache=fragment_cache)
        if topology == "baseline":
            server = BaselineServer(
                app, ConnectionPool(database, 3),
                lease_strategy=strategy, clock=clock,
                faults=plan, resilience=resilience,
            )
        else:
            server = StagedServer(
                app, ConnectionPool(database, 6), policy=small_policy(),
                lease_strategy=strategy, clock=clock,
                faults=plan, resilience=resilience,
            )
        server.start()
        servers.append(server)
        return server, plan, clock

    yield _make
    for server in servers:
        server.stop()
