"""Fault plans on every simulated server kind.

All four kinds walk one hop loop, so a fault plan is honoured the same
way on each: injections land in ``fault_report`` and the resilience
counters, and failed requests record no completion.
"""

import pytest

from repro.faults.plan import SITE_RENDER, SITE_WORKER, FaultAction, FaultRule
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
    results = run(kind)
    injected = results.fault_report["injected"]
    assert injected["render:fail"] > 0
    assert injected["worker:crash"] > 0
    resilience = results.resilience_report
    assert resilience["faults_injected"] == injected
    crashes = sum(entry["worker_crashes"]
                  for entry in resilience["stages"].values())
    assert crashes == injected["worker:crash"]


@pytest.mark.parametrize("kind", KINDS)
def test_failed_renders_complete_no_dynamic_request(kind):
    """Every page renders, so with every render failing only static
    requests complete."""
    results = run(kind, RULES[:1])
    assert results.fault_report["injected"]["render:fail"] > 0
    assert "dynamic" not in results.class_events
    assert len(results.class_events["static"]) > 0
