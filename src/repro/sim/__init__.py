"""Discrete-event simulation of both servers at the paper's scale.

The paper's evaluation ran 400 emulated browsers against a three-host
testbed for an hour per configuration.  Re-running that in real time is
not reproducible on a laptop, so this package executes the same closed
queueing system in simulated time:

- :mod:`repro.sim.kernel` — a generator-based discrete-event kernel
  (event heap, processes, one-shot events).
- :mod:`repro.sim.resources` — simulated thread pools (token resources
  whose waiter queues are the plotted queue lengths), a
  processor-sharing server for the database host, and reader-preference
  table locks with writer grace periods (DESIGN.md §6 says why they
  differ from :mod:`repro.db.locks`).
- :mod:`repro.sim.server` — :class:`SimServer`, one hop loop that
  walks the live servers' stage table
  (:mod:`repro.core.topology`): thread-per-request, the five-pool
  staged design, its no-render-pool ablation, and shortest-job-first
  are table choices (``SimServer.for_kind``).  The staged tables embed
  the *real* :class:`repro.core.SchedulingPolicy` — classification,
  Table 1 dispatch, and the treserve controller are the production
  code, not a re-implementation.
- :mod:`repro.sim.faults` — the clock adapter that runs the live fault
  plan and resilience policies on simulated time.
- :mod:`repro.sim.workload` — per-page service-demand profiles
  (derived from profiling the real TPC-W implementation, see
  :mod:`repro.tpcw.profile`) and the closed-loop emulated browsers.

Metrics have one sink in both worlds.  :func:`run_tpcw_simulation`
returns its :class:`SimServer`, read as a live server is:
``server.stats`` is the live :class:`repro.server.stats.ServerStats`
on simulated time, with the paper's measurement window (ramp-up and
cool-down excluded) applied where the simulator records;
``server.connection_pool.utilization_report()`` and
``server.policies`` report connections and chaos runs.
"""

from repro.sim.kernel import Simulation, SimEvent
from repro.sim.resources import (
    PSServer,
    SimConnectionPool,
    SimLease,
    SimLockTable,
    SimThreadPool,
)
from repro.sim.server import SimServer
from repro.sim.workload import (
    DEFAULT_PROFILES,
    PageProfile,
    WorkloadConfig,
    run_tpcw_simulation,
)

__all__ = [
    "Simulation",
    "SimEvent",
    "PSServer",
    "SimConnectionPool",
    "SimLease",
    "SimLockTable",
    "SimThreadPool",
    "SimServer",
    "DEFAULT_PROFILES",
    "PageProfile",
    "WorkloadConfig",
    "run_tpcw_simulation",
]
