"""The scenario matrix: every injection point exercised against live
servers across both topologies and all three lease strategies, with
the resilience policies (deadline 504s, retry, breaker, degraded
serving) asserted where they apply.

All timing is scripted: the server, the fault plan, the breaker, and
the retry backoff share one ManualClock, and injected delays advance
it via the plan's sleeper — zero wall-clock sleeps.
"""

import socket

import pytest

from repro.faults.plan import (
    SITE_DB_QUERY,
    SITE_POOL_ACQUIRE,
    SITE_RENDER,
    SITE_SOCKET_READ,
    SITE_SOCKET_WRITE,
    SITE_WORKER,
    FaultAction,
    FaultPlan,
    FaultRule,
)
from repro.faults.policies import (
    BreakerConfig,
    ResilienceConfig,
    RetryPolicy,
)
from repro.harness.export import resilience_document
from repro.http.client import http_request
from repro.http.errors import RequestTimeoutError
from repro.server.netbase import ClientConnection
from repro.server.resources import LeaseStrategy
from repro.util.clock import ManualClock
from repro.util.rng import RandomStream

from tests.chaos.conftest import STRATEGIES, TOPOLOGIES

pytestmark = pytest.mark.chaos


def stage_totals(server, counter):
    stages = server.stats.policy_outcomes()
    return sum(entry[counter] for entry in stages.values())


def raw_exchange(host, port, payload=b"GET /ok HTTP/1.1\r\n"
                 b"Host: x\r\nConnection: close\r\n\r\n"):
    """Send a raw request and drain the socket to EOF."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                # An injected drop may close with our bytes unread,
                # which surfaces as RST instead of a clean EOF.
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize("strategy", STRATEGIES,
                         ids=[s.value for s in STRATEGIES])
@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestInjectionMatrix:
    """Each cell: one injection point under one topology × strategy."""

    def test_db_query_hard_failure_is_500_once(self, make_server,
                                               topology, strategy):
        server, plan, _clock = make_server(topology, strategy, [
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.FAIL,
                      max_times=1),
        ])
        host, port = server.address
        assert http_request(host, port, "/ok").status == 500
        assert http_request(host, port, "/ok").status == 200
        assert plan.injected_total() == 1
        report = resilience_document(server)
        assert report["faults_injected"] == {"db.query:fail": 1}

    def test_transient_db_fault_retried_only_per_query(self, make_server,
                                                       topology, strategy):
        """The retry policy applies exactly where documented: per-query
        leases replay the idempotent SELECT after backoff; pinned and
        per-request strategies surface the transient as a 500."""
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=3, base_delay=0.01), seed=5,
        )
        server, plan, clock = make_server(topology, strategy, [
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.TRANSIENT,
                      max_times=1),
        ], resilience=resilience)
        host, port = server.address
        response = http_request(host, port, "/ok")
        if strategy is LeaseStrategy.LEASED_PER_QUERY:
            assert response.status == 200
            assert stage_totals(server, "retries") == 1
            # The backoff spent its wait on the manual clock.
            assert clock.now() >= 0.01
        else:
            assert response.status == 500
            assert stage_totals(server, "retries") == 0
        assert plan.injected_total() == 1
        assert http_request(host, port, "/ok").status == 200

    def test_pool_exhaustion_hits_only_leasing_strategies(self, make_server,
                                                          topology, strategy):
        """An acquire-time exhaust window cannot touch pinned workers —
        they acquired at startup — while both leasing strategies fail
        the request that acquires inside the window."""
        server, plan, clock = make_server(topology, strategy, [
            FaultRule(site=SITE_POOL_ACQUIRE, action=FaultAction.EXHAUST,
                      after=10.0, max_times=1),
        ])
        host, port = server.address
        assert http_request(host, port, "/ok").status == 200  # pre-window
        clock.advance(20.0)
        response = http_request(host, port, "/ok")
        if strategy is LeaseStrategy.PINNED:
            assert response.status == 200
            assert plan.injected_total() == 0
        else:
            assert response.status == 500
            assert plan.injected_total() == 1
            assert http_request(host, port, "/ok").status == 200
            # The failed acquire leaked no lease.
            assert server.leases.outstanding == 0

    def test_worker_crash_is_contained_500(self, make_server,
                                           topology, strategy):
        server, plan, _clock = make_server(topology, strategy, [
            FaultRule(site=SITE_WORKER, action=FaultAction.CRASH,
                      max_times=1),
        ])
        host, port = server.address
        response = http_request(host, port, "/ok")
        assert response.status == 500
        assert b"worker crashed" in response.body
        assert stage_totals(server, "worker_crashes") == 1
        # The pool survives its injected crash.
        assert http_request(host, port, "/ok").status == 200

    def test_worker_hang_expires_request_deadline_504(self, make_server,
                                                      topology, strategy):
        resilience = ResilienceConfig(request_deadline=5.0)
        server, plan, clock = make_server(topology, strategy, [
            FaultRule(site=SITE_WORKER, action=FaultAction.HANG,
                      delay=10.0, max_times=1),
        ], resilience=resilience)
        host, port = server.address
        response = http_request(host, port, "/ok")
        assert response.status == 504
        assert stage_totals(server, "deadline_expired") == 1
        assert clock.now() == pytest.approx(10.0)  # the hang, on-clock
        assert http_request(host, port, "/ok").status == 200

    def test_render_failure_is_500_once(self, make_server,
                                        topology, strategy):
        server, plan, _clock = make_server(topology, strategy, [
            FaultRule(site=SITE_RENDER, action=FaultAction.FAIL,
                      max_times=1),
        ])
        host, port = server.address
        assert http_request(host, port, "/ok").status == 500
        assert http_request(host, port, "/ok").status == 200
        assert plan.injected_total() == 1

    def test_socket_read_drop_closes_without_response(self, make_server,
                                                      topology, strategy):
        server, plan, _clock = make_server(topology, strategy, [
            FaultRule(site=SITE_SOCKET_READ, action=FaultAction.DROP,
                      max_times=1),
        ])
        host, port = server.address
        assert raw_exchange(host, port) == b""
        assert server.stats.total_completions() == 0
        assert http_request(host, port, "/ok").status == 200
        assert plan.injected_total() == 1

    def test_socket_write_drop_records_no_completion(self, make_server,
                                                     topology, strategy):
        server, plan, _clock = make_server(topology, strategy, [
            FaultRule(site=SITE_SOCKET_WRITE, action=FaultAction.DROP,
                      max_times=1),
        ])
        host, port = server.address
        assert raw_exchange(host, port) == b""
        # The request was served, but a vanished peer is not throughput.
        assert server.stats.total_completions() == 0
        assert http_request(host, port, "/ok").status == 200
        assert server.stats.total_completions() == 1

    def test_socket_short_write_truncates_and_drops(self, make_server,
                                                    topology, strategy):
        server, plan, _clock = make_server(topology, strategy, [
            FaultRule(site=SITE_SOCKET_WRITE, action=FaultAction.SHORT_WRITE,
                      max_times=1),
        ])
        host, port = server.address
        truncated = raw_exchange(host, port)
        assert truncated.startswith(b"HTTP/1.1")
        assert server.stats.total_completions() == 0
        complete = raw_exchange(host, port)
        assert len(complete) > len(truncated)
        assert server.stats.total_completions() == 1


@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestBreakerPolicies:
    """Breaker scenarios run per topology under per-request leasing —
    the strategy whose one-acquire-per-request makes the failure
    counting exact."""

    def test_breaker_opens_fast_fails_then_recovers(self, make_server,
                                                    topology):
        resilience = ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=3, recovery_timeout=5.0),
        )
        server, plan, clock = make_server(
            topology, LeaseStrategy.LEASED_PER_REQUEST, [
                FaultRule(site=SITE_POOL_ACQUIRE, action=FaultAction.EXHAUST,
                          max_times=3),
            ], resilience=resilience)
        host, port = server.address
        for _ in range(3):  # each acquire fails; third opens the breaker
            assert http_request(host, port, "/ok").status == 500
        shed = http_request(host, port, "/ok")
        assert shed.status == 503
        assert shed.headers.get("retry-after") == "5"
        assert stage_totals(server, "breaker_fast_fail") == 1
        # The fast-fail consumed no injection budget and no acquire.
        assert plan.injected_total() == 3
        clock.advance(6.0)  # past recovery_timeout: half-open probe
        assert http_request(host, port, "/ok").status == 200
        breaker = server.policies.breaker.report()
        assert breaker["state"] == "closed"
        assert breaker["transitions"] == {
            "open": 1, "half_open": 1, "closed": 1,
        }

    def test_degraded_serving_from_stale_fragment_cache(self, make_server,
                                                        topology):
        """While the breaker is open, the staged server serves the
        stale fragment-cache copy; the baseline *cannot* — its single
        stage leases before parsing, so when the breaker trips it does
        not yet know which page to fall back to.  The asymmetry is the
        point: staging is what makes degraded serving possible."""
        resilience = ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=1, recovery_timeout=60.0),
            degraded_serving=True,
        )
        server, plan, clock = make_server(
            topology, LeaseStrategy.LEASED_PER_REQUEST, [
                FaultRule(site=SITE_POOL_ACQUIRE, action=FaultAction.EXHAUST,
                          after=10.0),
            ], resilience=resilience, fragment_cache=True)
        host, port = server.address
        fresh = http_request(host, port, "/ok")
        assert fresh.status == 200  # stores the last-known-good copy
        clock.advance(20.0)  # enter the outage window
        assert http_request(host, port, "/ok").status == 500  # opens breaker
        degraded = http_request(host, port, "/ok")
        if topology == "staged":
            assert degraded.status == 200
            assert degraded.headers.get("x-degraded") == "stale-cache"
            assert degraded.body == fresh.body
            assert stage_totals(server, "degraded_served") == 1
        else:
            assert degraded.status == 503
            assert stage_totals(server, "degraded_served") == 0

    def test_degraded_serving_without_stale_copy_is_503(self, make_server,
                                                        topology):
        """A page never served before the outage has no stale copy:
        degraded serving falls through to the fast-fail 503."""
        resilience = ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=1, recovery_timeout=60.0),
            degraded_serving=True,
        )
        server, _plan, clock = make_server(
            topology, LeaseStrategy.LEASED_PER_REQUEST, [
                FaultRule(site=SITE_POOL_ACQUIRE, action=FaultAction.EXHAUST,
                          after=10.0),
            ], resilience=resilience, fragment_cache=True)
        host, port = server.address
        # Pin the plan's epoch (first decision) before entering the
        # outage window; /nodb leaves no stale copy under /ok's key.
        assert http_request(host, port, "/nodb").status == 200
        clock.advance(20.0)
        assert http_request(host, port, "/ok").status == 500
        shed = http_request(host, port, "/ok")
        assert shed.status == 503
        assert "retry-after" in shed.headers


@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestRetrySchedule:
    def test_clean_selects_draw_no_backoff_schedule(self, make_server,
                                                    topology):
        """A statement draws its backoff schedule at its first transient
        failure, so two clean SELECTs leave the stream untouched and the
        third statement's backoff is the stream's first delay."""
        retry = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.5)
        server, _plan, clock = make_server(
            topology, LeaseStrategy.LEASED_PER_QUERY, [
                FaultRule(site=SITE_DB_QUERY, action=FaultAction.TRANSIENT,
                          after=1.0, max_times=1),
            ], resilience=ResilienceConfig(retry=retry, seed=7))
        host, port = server.address
        for _ in range(2):
            assert http_request(host, port, "/ok").status == 200
        clock.advance(1.0)
        before = clock.now()
        assert http_request(host, port, "/ok").status == 200
        assert stage_totals(server, "retries") == 1
        first = retry.delays(RandomStream(7, "retry-jitter"))[0]
        assert clock.now() - before == pytest.approx(first, rel=1e-9)


class TestStageDeadlines:
    def test_db_delay_expires_downstream_render_deadline(self, make_server):
        """A slow general-stage query burns the render stage's budget:
        the render pickup fails 504 before rendering — and the lease
        was already released, so the stall wasted no connection."""
        resilience = ResilienceConfig(stage_deadlines={"render": 5.0})
        server, plan, clock = make_server(
            "staged", LeaseStrategy.LEASED_PER_REQUEST, [
                FaultRule(site=SITE_DB_QUERY, action=FaultAction.DELAY,
                          delay=10.0, max_times=1),
            ], resilience=resilience)
        host, port = server.address
        response = http_request(host, port, "/ok")
        assert response.status == 504
        stages = server.stats.policy_outcomes()
        assert stages["render"]["deadline_expired"] == 1
        assert clock.now() == pytest.approx(10.0)
        assert server.leases.outstanding == 0
        assert http_request(host, port, "/ok").status == 200

    def test_stage_deadline_overrides_request_deadline(self, make_server):
        """A generous stage override keeps a request alive that the
        request-wide default would have expired."""
        resilience = ResilienceConfig(
            request_deadline=5.0, stage_deadlines={"render": 60.0},
        )
        server, _plan, _clock = make_server(
            "staged", LeaseStrategy.LEASED_PER_REQUEST, [
                FaultRule(site=SITE_DB_QUERY, action=FaultAction.DELAY,
                          delay=10.0, max_times=1),
            ], resilience=resilience)
        host, port = server.address
        assert http_request(host, port, "/ok").status == 200


class TestSocketFaultContracts:
    """ClientConnection-level checks for the read-fault semantics that
    depend on how much of the request had arrived."""

    def make_pair(self, rules):
        left, right = socket.socketpair()
        plan = FaultPlan(rules, clock=ManualClock())
        connection = ClientConnection(right, 5.0, faults=plan)
        return left, connection, plan

    def test_stall_mid_request_raises_408(self):
        # First read proceeds (the DELAY rule fires as a no-op and
        # burns the first decision); the stall then lands mid-request.
        left, connection, _plan = self.make_pair([
            FaultRule(site=SITE_SOCKET_READ, action=FaultAction.DELAY,
                      max_times=1),
            FaultRule(site=SITE_SOCKET_READ, action=FaultAction.STALL),
        ])
        try:
            left.sendall(b"GET /ok HTT")  # partial request line
            with pytest.raises(RequestTimeoutError):
                connection.read_request()
        finally:
            left.close()
            connection.close()

    def test_stall_between_requests_is_clean_close(self):
        left, connection, _plan = self.make_pair([
            FaultRule(site=SITE_SOCKET_READ, action=FaultAction.STALL),
        ])
        try:
            assert connection.read_request() is None
        finally:
            left.close()
            connection.close()


class TestDeterministicReports:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_same_seed_same_fault_report_twice(self, make_server, topology):
        def run():
            server, plan, clock = make_server(
                topology, LeaseStrategy.LEASED_PER_REQUEST, [
                    FaultRule(site=SITE_DB_QUERY,
                              action=FaultAction.TRANSIENT,
                              probability=0.5),
                    FaultRule(site=SITE_RENDER, action=FaultAction.DELAY,
                              delay=0.01, probability=0.5),
                ], seed=99)
            host, port = server.address
            statuses = [http_request(host, port, "/ok").status
                        for _ in range(12)]
            return statuses, plan.fault_report()

        first_statuses, first_report = run()
        second_statuses, second_report = run()
        assert first_statuses == second_statuses
        assert first_report == second_report
        assert first_report["total_injected"] > 0  # not vacuous
