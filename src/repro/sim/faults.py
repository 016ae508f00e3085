"""Fault plans on simulated time.

The simulator runs the live fault effects and resilience policies
themselves (:meth:`repro.faults.plan.FaultPlan.inject`,
:class:`repro.faults.policies.Resilience`); this adapter only points
their clock at the simulation, so schedule windows, breaker timeouts,
and stats timestamps read simulated time.
"""

from __future__ import annotations

from typing import Iterable

from repro.faults.plan import FaultPlan, FaultRule
from repro.sim.kernel import Simulation
from repro.util.clock import Clock


class SimClockAdapter(Clock):
    """Expose ``sim.now`` through the live code's Clock interface."""

    def __init__(self, sim: Simulation):
        self._sim = sim

    def now(self) -> float:
        return self._sim.now


def sim_fault_plan(sim: Simulation, rules: Iterable[FaultRule],
                   seed: int = 0) -> FaultPlan:
    """A FaultPlan whose schedule windows run on simulated time."""
    return FaultPlan(rules, seed=seed, clock=SimClockAdapter(sim))
