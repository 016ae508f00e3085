"""Sim/live fault parity: one scripted FaultPlan, two worlds.

The same rules with the same seed are interpreted by a live server
(real sockets, real threads, ManualClock) and by the :class:`SimServer`
walking the same stage table (generator processes on the
discrete-event clock), on both topologies: the staged server and the
thread-per-request baseline.  Both worlds must produce the identical
``fault_report()`` — same rules, same per-rule injection counts — and
the identical resilience document (policy outcomes, injections, breaker),
and a second live run with the same seed must reproduce the first bit
for bit.
"""

import pytest

from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.faults.plan import (
    SITE_DB_QUERY,
    SITE_POOL_ACQUIRE,
    SITE_RENDER,
    SITE_SOCKET_WRITE,
    SITE_WORKER,
    FaultAction,
    FaultPlan,
    FaultRule,
)
from repro.faults.policies import ResilienceConfig, RetryPolicy
from repro.harness.export import resilience_document
from repro.http.client import http_request
from repro.http.errors import BadRequestError
from repro.server.app import Application
from repro.server.baseline import BaselineServer
from repro.server.resources import LeaseStrategy
from repro.server.staged import StagedServer
from repro.sim.faults import sim_fault_plan
from repro.sim.kernel import Simulation
from repro.sim.server import SimServer
from repro.sim.workload import PageProfile, WorkloadConfig
from repro.templates.engine import TemplateEngine
from repro.util.clock import ManualClock

from tests.chaos.conftest import small_policy

pytestmark = pytest.mark.chaos

PARITY_SEED = 1304

#: The scripted plan: a transient DB wobble on /alpha (retried to
#: success), a slow render on /beta, one pool exhaustion on /gamma.
#: All probability 1.0 — parity is about injection *sites*, the
#: probability streams are covered by tests/chaos/test_fault_plan.py.
PARITY_RULES = (
    FaultRule(site=SITE_DB_QUERY, action=FaultAction.TRANSIENT,
              page_key="/alpha", max_times=2),
    FaultRule(site=SITE_RENDER, action=FaultAction.DELAY,
              page_key="/beta", delay=0.01, max_times=1),
    FaultRule(site=SITE_POOL_ACQUIRE, action=FaultAction.EXHAUST,
              page_key="/gamma", max_times=1),
)

PARITY_RESILIENCE = ResilienceConfig(
    retry=RetryPolicy(max_attempts=3, base_delay=0.02, multiplier=2.0,
                      max_delay=0.5, jitter=0.1),
    seed=PARITY_SEED,
)

#: Two requests per page, in this order, on both worlds.
SCRIPT = ("/alpha", "/alpha", "/beta", "/beta", "/gamma", "/gamma")

#: /alpha's transients are retried to success; /gamma's first acquire
#: hits the injected exhaustion (500), its second succeeds.
EXPECTED_STATUSES = (200, 200, 200, 200, 500, 200)

EXPECTED_INJECTED = {
    "db.pool.acquire:exhaust": 1,
    "db.query:transient": 2,
    "render:delay": 1,
}

#: The stage that holds the connection, where the retries land.
DB_STAGE = {"staged": "general", "baseline": "worker"}

#: A worker crash filtered by page: the live job carries no page key
#: at its entry stage, so the rule can only match downstream of it —
#: on the staged general stage, and never on the one-stage baseline.
WORKER_RULES = (
    FaultRule(site=SITE_WORKER, action=FaultAction.CRASH,
              page_key="/beta", max_times=1),
)

WORKER_CRASH_STAGES = {"staged": {"general": 1}, "baseline": {}}

#: A dropped response filtered by page: the live write happens after
#: the handler's hop, so it must still be matched against the job's
#: page and owning stage, as the sim's write gate is.
WRITE_RULES = (
    FaultRule(site=SITE_SOCKET_WRITE, action=FaultAction.DROP,
              page_key="/beta", max_times=1),
)

#: Dropped *error* responses: /alpha's query always fails hard, and
#: each 500 goes out through the same page-filtered socket write as a
#: 200 would — the write rule can only fire on an error response.
ERROR_WRITE_RULES = (
    FaultRule(site=SITE_DB_QUERY, action=FaultAction.FAIL,
              page_key="/alpha"),
    FaultRule(site=SITE_SOCKET_WRITE, action=FaultAction.DROP,
              page_key="/alpha"),
)

topologies = pytest.mark.parametrize("topology", ["staged", "baseline"])


def build_parity_app():
    database = Database()
    database.executescript(
        "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)"
    )
    database.execute("INSERT INTO t (v) VALUES (7)")
    engine = TemplateEngine(sources={"page.html": "value={{ v }}"})
    app = Application(templates=engine)

    def db_page():
        cursor = app.getconn().cursor()
        cursor.execute("SELECT v FROM t WHERE id = 1")
        return ("page.html", {"v": cursor.fetchone()[0]})

    app.expose("/alpha")(db_page)
    app.expose("/gamma")(db_page)

    @app.expose("/beta")
    def beta():
        return ("page.html", {"v": 0})

    return app, database


def live_status(host, port, path):
    """The response status, or ``None`` when the response was dropped."""
    try:
        return http_request(host, port, path).status
    except (BadRequestError, ConnectionResetError):
        return None


def run_live(topology, rules=PARITY_RULES):
    """The script against a real live server; returns the reports."""
    clock = ManualClock()
    plan = FaultPlan(rules, seed=PARITY_SEED, clock=clock,
                     sleeper=clock.advance)
    app, database = build_parity_app()
    common = dict(lease_strategy=LeaseStrategy.LEASED_PER_QUERY,
                  clock=clock, faults=plan, resilience=PARITY_RESILIENCE)
    if topology == "staged":
        server = StagedServer(app, ConnectionPool(database, 4),
                              policy=small_policy(), **common)
    else:
        server = BaselineServer(app, ConnectionPool(database, 4), workers=2,
                                **common)
    server.start()
    try:
        host, port = server.address
        statuses = tuple(live_status(host, port, path) for path in SCRIPT)
    finally:
        server.stop()
    return statuses, plan.fault_report(), resilience_document(server)


#: Sim twins of the parity pages: tiny demands, no table locks — the
#: parity contract is about *which gates fire*, not service times.
SIM_PROFILES = {
    "/alpha": PageProfile("/alpha", db_demand=0.001, render_demand=0.001,
                          read_tables=()),
    "/beta": PageProfile("/beta", db_demand=0.0, render_demand=0.001,
                         read_tables=()),
    "/gamma": PageProfile("/gamma", db_demand=0.001, render_demand=0.001,
                          read_tables=()),
}


def run_sim(topology, rules=PARITY_RULES):
    """The same script through the SimServer on the same stage table."""
    sim = Simulation()
    config = WorkloadConfig.quick(seed=PARITY_SEED)
    server = SimServer.for_kind(topology, sim, config)
    policies = server.configure_faults(
        sim_fault_plan(sim, rules, seed=PARITY_SEED),
        PARITY_RESILIENCE,
    )

    def driver():
        # Sequential, like the live client: each request completes (or
        # is abandoned by an injected fault) before the next is sent.
        for path in SCRIPT:
            yield server.submit_page(SIM_PROFILES[path], jitter=1.0)

    sim.spawn(driver())
    sim.run()
    return policies.plan.fault_report(), resilience_document(server)


def worker_crashes(resilience):
    return {stage: entry["worker_crashes"]
            for stage, entry in resilience["stages"].items()
            if entry["worker_crashes"]}


@topologies
class TestFaultParity:
    def test_live_matches_expectations(self, topology):
        statuses, fault_report, resilience = run_live(topology)
        assert statuses == EXPECTED_STATUSES
        assert fault_report["seed"] == PARITY_SEED
        assert fault_report["total_injected"] == 4
        assert fault_report["injected"] == EXPECTED_INJECTED
        # Both transients hit the same SELECT and were retried on the
        # connection-holding stage.
        assert resilience["stages"][DB_STAGE[topology]]["retries"] == 2

    def test_sim_mirrors_live_key_for_key(self, topology):
        _statuses, live_faults, live_resilience = run_live(topology)
        sim_faults, sim_resilience = run_sim(topology)
        assert sim_faults == live_faults
        assert sim_resilience == live_resilience

    def test_page_filtered_worker_crash_matches_live_stage(self, topology):
        _statuses, live_faults, live_resilience = run_live(topology,
                                                           WORKER_RULES)
        sim_faults, sim_resilience = run_sim(topology, WORKER_RULES)
        assert worker_crashes(live_resilience) == \
            WORKER_CRASH_STAGES[topology]
        assert sim_faults == live_faults
        assert sim_resilience == live_resilience

    def test_page_filtered_socket_write_drop_matches_live(self, topology):
        statuses, live_faults, live_resilience = run_live(topology,
                                                          WRITE_RULES)
        sim_faults, sim_resilience = run_sim(topology, WRITE_RULES)
        assert statuses == (200, 200, None, 200, 200, 200)
        assert live_faults["injected"] == {"socket.write:drop": 1}
        assert sim_faults == live_faults
        assert sim_resilience == live_resilience

    def test_dropped_error_response_matches_live(self, topology):
        statuses, live_faults, live_resilience = run_live(topology,
                                                          ERROR_WRITE_RULES)
        sim_faults, sim_resilience = run_sim(topology, ERROR_WRITE_RULES)
        assert statuses == (None, None, 200, 200, 200, 200)
        assert live_faults["injected"] == {"db.query:fail": 2,
                                           "socket.write:drop": 2}
        assert sim_faults == live_faults
        assert sim_resilience == live_resilience

    def test_two_consecutive_live_runs_are_identical(self, topology):
        first = run_live(topology)
        second = run_live(topology)
        assert first == second
