"""Fault plans on every simulated server kind.

All four kinds walk one hop loop, so a fault plan is honoured the same
way on each: injections land in ``fault_report`` and the server's
resilience counters, and failed requests record no completion.
"""

import pytest

from repro.faults.plan import SITE_RENDER, SITE_WORKER, FaultAction, FaultRule
from repro.server.stats import ServerStats
from repro.sim.workload import WorkloadConfig, run_tpcw_simulation

KINDS = ["baseline", "staged", "staged-render-inline", "sjf"]

#: Every render fails; one in twenty worker pickups crashes.
RULES = (
    FaultRule(site=SITE_RENDER, action=FaultAction.FAIL, probability=1.0),
    FaultRule(site=SITE_WORKER, action=FaultAction.CRASH, probability=0.05),
)


def run(kind, rules=RULES):
    config = WorkloadConfig.quick(clients=10, ramp_up=5, measure=60,
                                  cool_down=5)
    return run_tpcw_simulation(kind, config, fault_rules=rules, fault_seed=3)


@pytest.mark.parametrize("kind", KINDS)
def test_fault_plan_injects_and_counts(kind):
    server = run(kind)
    injected = server.policies.plan.fault_report()["injected"]
    assert injected["render:fail"] > 0
    assert injected["worker:crash"] > 0
    crashes = sum(entry["worker_crashes"]
                  for entry in server.stats.policy_outcomes().values())
    assert crashes == injected["worker:crash"]


@pytest.mark.parametrize("kind", KINDS)
def test_failed_renders_complete_no_dynamic_request(kind):
    """Every page renders, so with every render failing only static
    requests complete."""
    server = run(kind, RULES[:1])
    assert server.policies.plan.fault_report()["injected"]["render:fail"] > 0
    stats = server.stats
    assert len(stats.throughput_series(request_class="dynamic")) == 0
    assert sum(stats.throughput_series(request_class="static").values) > 0


def test_chaos_run_has_one_metrics_sink(monkeypatch):
    """The resilience policies record into the server's own stats: a
    chaos run builds exactly one ``ServerStats``."""
    built = []
    original = ServerStats.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ServerStats, "__init__", counting_init)
    server = run("staged")
    assert built == [server.stats]
    assert server.policies.stats is server.stats
