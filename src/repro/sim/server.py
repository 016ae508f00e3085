"""Simulated server models: thread-per-request vs. the staged design.

Both models share the same substrate — a processor-sharing database
host, a processor-sharing web host, FIFO table locks — and differ only
in thread-pool topology, exactly as in the real implementations.  The
staged model embeds the *real* :class:`repro.core.SchedulingPolicy`:
dispatch decisions, the service-time tracker, and the treserve
controller run the production code against simulated time.
"""

from __future__ import annotations

from typing import Optional

from repro.core.dispatch import Dispatcher, DynamicPoolChoice
from repro.core.policy import PolicyConfig, SchedulingPolicy
from repro.faults.plan import FaultPlan
from repro.faults.policies import ResilienceConfig
from repro.sim.faults import SimFaultHarness, SimRequestFailed
from repro.sim.kernel import SimEvent, Simulation
from repro.sim.resources import (
    PrioritySimThreadPool,
    PSServer,
    SimConnectionPool,
    SimLockTable,
    SimThreadPool,
)
from repro.sim.results import SimResults
from repro.sim.workload import PageProfile, WorkloadConfig, _report_class


class _SimServerBase:
    """Shared plumbing: hosts, lock table, connection pool, DB phases."""

    def __init__(self, sim: Simulation, config: WorkloadConfig,
                 results: SimResults, connection_count: int):
        self.sim = sim
        self.config = config
        self.results = results
        self.db = PSServer(sim, "database", cores=config.db_cores)
        self.web = PSServer(sim, "webserver", cores=config.web_cores)
        self.locks = SimLockTable(sim)
        #: Simulated twin of the live bounded connection pool: leases
        #: meter held vs. query-busy time so the sim reports the same
        #: connection busy fraction the live servers export.
        self.connections = SimConnectionPool(sim, connection_count)
        #: Fault-injection mirror; installed by :meth:`configure_faults`.
        self.fault_harness: Optional[SimFaultHarness] = None

    def configure_faults(self, plan: FaultPlan,
                         resilience: Optional[ResilienceConfig] = None
                         ) -> SimFaultHarness:
        """Mirror a live server's fault plan + policies on sim time.

        The plan should be built with :func:`repro.sim.faults.
        sim_fault_plan` so its schedule windows read the sim clock.
        """
        self.fault_harness = SimFaultHarness(self.sim, plan, resilience)
        return self.fault_harness

    # ------------------------------------------------------------------
    def _db_phase(self, profile: PageProfile, jitter: float, lease=None,
                  stage: str = ""):
        """The data-generation phase: read holds, query, optional write
        grace period.  The calling thread (and its held database
        connection) is occupied for the entire phase; time actually
        spent serving queries accrues onto ``lease`` as busy time."""
        harness = self.fault_harness
        read_tables = sorted(profile.read_tables)
        tokens = [(table, self.locks.acquire_read(table))
                  for table in read_tables]
        try:
            if profile.db_demand > 0:
                # Mirror of the live engine's per-statement injection
                # point (delay, transient-with-retry, hard failure).
                if harness is not None:
                    yield from harness.db_query(stage, profile.path)
                query_started = self.sim.now
                yield self.db.serve(profile.db_demand * jitter)
                if lease is not None:
                    lease.note_busy(self.sim.now - query_started)
        finally:
            for table, token in reversed(tokens):
                self.locks.release_read(table, token)
        if profile.write_table is not None:
            yield self.locks.acquire_write(profile.write_table)
            try:
                if harness is not None:
                    yield from harness.db_query(stage, profile.path)
                query_started = self.sim.now
                yield self.db.serve(profile.write_demand * jitter)
                if lease is not None:
                    lease.note_busy(self.sim.now - query_started)
            finally:
                self.locks.release_write(profile.write_table)

    def submit_page(self, profile: PageProfile, jitter: float) -> SimEvent:
        return self.sim.spawn(self._page_process(profile, jitter))

    def submit_static(self, demand: float) -> SimEvent:
        return self.sim.spawn(self._static_process(demand))

    def _page_process(self, profile: PageProfile, jitter: float):
        raise NotImplementedError

    def _static_process(self, demand: float):
        raise NotImplementedError

    def sample(self, results: SimResults) -> None:
        raise NotImplementedError


class SimBaselineServer(_SimServerBase):
    """Thread-per-request (paper Figure 4): one pool does everything;
    every worker pins a database connection for its lifetime."""

    def __init__(self, sim: Simulation, config: WorkloadConfig,
                 results: SimResults):
        # One pinned connection per worker (§1): pool size = workers.
        super().__init__(sim, config, results,
                         connection_count=config.baseline_workers)
        self.workers = SimThreadPool(sim, "worker", config.baseline_workers)

    def _page_process(self, profile: PageProfile, jitter: float):
        harness = self.fault_harness
        arrival = self.sim.now
        page = profile.path
        try:
            yield self.workers.acquire(tag="dynamic")
            # The same thread parses, queries, and renders; its pinned
            # connection is held (and mostly idle) for the whole request.
            try:
                if harness is not None:
                    # Same consultation order as the live request path:
                    # worker hook, deadline, socket read, pool acquire.
                    yield from harness.worker_start("worker", page)
                    harness.check_deadline("worker", arrival)
                    harness.on_client_read(page, "worker")
                    yield from harness.lease_gate("worker", page)
                lease = self.connections.lease(tag="dynamic")
                yield lease.granted
                try:
                    yield self.web.serve(profile.parse_demand)
                    generation_start = self.sim.now
                    yield from self._db_phase(profile, jitter, lease,
                                              stage="worker")
                    self.results.record_generation(
                        self.sim.now, profile.path,
                        self.sim.now - generation_start
                    )
                    if profile.render_demand > 0:
                        if harness is not None:
                            yield from harness.render_gate(page, "worker")
                        yield self.web.serve(profile.render_demand * jitter)
                finally:
                    lease.release()
            finally:
                self.workers.release()
        except SimRequestFailed:
            # The live side sent an error response (or nothing, for a
            # dropped client); either way no completion is recorded.
            return
        if harness is not None and not harness.on_client_write(page, "worker"):
            return
        self.results.record_request(self.sim.now, "dynamic")
        self.results.record_request(self.sim.now, _report_class(profile.path))

    def _static_process(self, demand: float):
        harness = self.fault_harness
        arrival = self.sim.now
        try:
            yield self.workers.acquire(tag="static")
            try:
                if harness is not None:
                    yield from harness.worker_start("worker", "")
                    harness.check_deadline("worker", arrival)
                    harness.on_client_read("", "worker")
                # Even static serving occupies the worker's pinned
                # connection — the paper's complaint about the
                # thread-per-request trend.
                lease = self.connections.lease(tag="static")
                yield lease.granted
                try:
                    yield self.web.serve(demand)
                finally:
                    lease.release()
            finally:
                self.workers.release()
        except SimRequestFailed:
            return
        if harness is not None and not harness.on_client_write("", "worker"):
            return
        self.results.record_request(self.sim.now, "static")

    def sample(self, results: SimResults) -> None:
        now = self.sim.now
        # Figure 7 plots queued *dynamic* requests on the single queue.
        results.sample_queue(now, "dynamic", self.workers.queued_with_tag("dynamic"))
        results.sample_queue(now, "all", self.workers.queue_length)
        results.sample_db(now, self.db.active_jobs)


class SimStagedServer(_SimServerBase):
    """The paper's five-pool staged server (Figure 5), driven by the
    real :class:`SchedulingPolicy`."""

    def __init__(self, sim: Simulation, config: WorkloadConfig,
                 results: SimResults,
                 dispatcher: Optional[Dispatcher] = None,
                 render_inline: bool = False):
        # Connections are assigned only to dynamic-request threads
        # (§1): the pool is sized to the two dynamic stages.
        super().__init__(sim, config, results,
                         connection_count=(config.general_pool
                                           + config.lengthy_pool))
        #: Ablation A5: render on the connection-holding dynamic thread
        #: (as the baseline does) instead of the render pool.
        self.render_inline = render_inline
        self.policy = SchedulingPolicy(
            PolicyConfig(
                lengthy_cutoff=config.lengthy_cutoff,
                minimum_reserve=config.minimum_reserve,
                maximum_reserve=config.maximum_reserve,
                general_pool_size=config.general_pool,
                lengthy_pool_size=config.lengthy_pool,
                header_pool_size=config.header_pool,
                static_pool_size=config.static_pool,
                render_pool_size=config.render_pool,
            ),
            dispatcher=dispatcher,
        )
        if config.warm_start:
            from repro.sim.workload import DEFAULT_PROFILES

            for path, profile in DEFAULT_PROFILES.items():
                if profile.db_demand > 0:
                    self.policy.tracker.prime(path, profile.db_demand)
        self.header_pool = SimThreadPool(sim, "header", config.header_pool)
        self.static_pool = SimThreadPool(sim, "static", config.static_pool)
        self.general_pool = SimThreadPool(sim, "general", config.general_pool)
        self.lengthy_pool = SimThreadPool(sim, "lengthy", config.lengthy_pool)
        self.render_pool = SimThreadPool(sim, "render", config.render_pool)
        self._last_tick = 0.0

    def _page_process(self, profile: PageProfile, jitter: float):
        harness = self.fault_harness
        arrival = self.sim.now
        page = profile.path
        try:
            # Stage 1-2: header parsing (full parse for dynamic requests).
            yield self.header_pool.acquire(tag="header")
            try:
                if harness is not None:
                    yield from harness.worker_start("header", page)
                    harness.check_deadline("header", arrival)
                    harness.on_client_read(page, "header")
                yield self.web.serve(profile.parse_demand)
                choice = self.policy.route(
                    profile.path, tspare=self.general_pool.spare
                )
            finally:
                self.header_pool.release()

            # Stage 3: data generation on a connection-holding thread.
            if choice is DynamicPoolChoice.GENERAL:
                pool, tag = self.general_pool, "general"
            else:
                pool, tag = self.lengthy_pool, "lengthy"
            yield pool.acquire(tag=tag)
            try:
                if harness is not None:
                    yield from harness.worker_start(tag, page)
                    harness.check_deadline(tag, arrival)
                    yield from harness.lease_gate(tag, page)
                # The connection is held only while a dynamic thread
                # works — the paper's scheme, and the source of the
                # busy-fraction gap.
                lease = self.connections.lease(tag=tag)
                yield lease.granted
                try:
                    generation_start = self.sim.now
                    yield from self._db_phase(profile, jitter, lease,
                                              stage=tag)
                    generation_seconds = self.sim.now - generation_start
                    # Feed the live classifier, exactly as the real
                    # server does at the moment the unrendered template
                    # is enqueued (§3.3).
                    self.policy.record_generation_time(profile.path,
                                                       generation_seconds)
                    self.results.record_generation(
                        self.sim.now, profile.path, generation_seconds
                    )
                    if self.render_inline and profile.render_demand > 0:
                        # A5: the connection sits idle while this
                        # thread renders.
                        if harness is not None:
                            yield from harness.render_gate(page, tag)
                        yield self.web.serve(profile.render_demand * jitter)
                finally:
                    lease.release()
            finally:
                pool.release()

            render_stage = tag
            if not self.render_inline:
                # Stage 4: template rendering on a connection-free thread.
                render_stage = "render"
                yield self.render_pool.acquire(tag="render")
                try:
                    if harness is not None:
                        yield from harness.worker_start("render", page)
                        harness.check_deadline("render", arrival)
                    if profile.render_demand > 0:
                        if harness is not None:
                            yield from harness.render_gate(page, "render")
                        yield self.web.serve(profile.render_demand * jitter)
                finally:
                    self.render_pool.release()
        except SimRequestFailed:
            # The live side sent an error response (or nothing, for a
            # dropped client); either way no completion is recorded.
            return
        if harness is not None and \
                not harness.on_client_write(page, render_stage):
            return
        self.results.record_request(self.sim.now, "dynamic")
        self.results.record_request(self.sim.now, _report_class(profile.path))

    def _static_process(self, demand: float):
        harness = self.fault_harness
        arrival = self.sim.now
        try:
            # Header pool reads the request line only, then the static
            # pool parses its own headers and serves the file (§3.2).
            yield self.header_pool.acquire(tag="header")
            try:
                if harness is not None:
                    yield from harness.worker_start("header", "")
                    harness.check_deadline("header", arrival)
                    harness.on_client_read("", "header")
                yield self.web.serve(0.0002)
            finally:
                self.header_pool.release()
            yield self.static_pool.acquire(tag="static")
            try:
                if harness is not None:
                    yield from harness.worker_start("static", "")
                    harness.check_deadline("static", arrival)
                yield self.web.serve(demand)
            finally:
                self.static_pool.release()
        except SimRequestFailed:
            return
        if harness is not None and not harness.on_client_write("", "static"):
            return
        self.results.record_request(self.sim.now, "static")

    def sample(self, results: SimResults) -> None:
        now = self.sim.now
        tspare = self.general_pool.spare
        # The once-per-second treserve update (§3.3) rides the sampler,
        # which runs at the same 1 Hz cadence as the real server's timer.
        if now - self._last_tick >= self.policy.config.reserve_update_interval - 1e-9:
            self.policy.tick(tspare)
            self._last_tick = now
        results.sample_reserve(now, tspare, self.policy.treserve)
        results.sample_queue(now, "general", self.general_pool.queue_length)
        results.sample_queue(now, "lengthy", self.lengthy_pool.queue_length)
        results.sample_queue(now, "static", self.static_pool.queue_length)
        results.sample_queue(now, "render", self.render_pool.queue_length)
        results.sample_queue(now, "header", self.header_pool.queue_length)
        results.sample_db(now, self.db.active_jobs)


class SimSJFServer(_SimServerBase):
    """Related-work comparison: Shortest-Job-First over a single pool.

    The paper (§3.3, §5) claims its two-pool scheme "achieves effects
    similar to Shortest Job First scheduling, but without causing the
    starvation of lengthy jobs."  This model tests that claim: one
    worker pool (thread-per-request, pinned connections, renders
    inline — the baseline's structure) whose queue is ordered by each
    page's *tracked mean generation time* (the same
    :class:`ServiceTimeTracker` estimate the staged server uses), so
    short jobs always jump the queue.
    """

    def __init__(self, sim: Simulation, config: WorkloadConfig,
                 results: SimResults):
        # Baseline structure: every worker pins one connection.
        super().__init__(sim, config, results,
                         connection_count=config.baseline_workers)
        self.workers = PrioritySimThreadPool(
            sim, "sjf-worker", config.baseline_workers
        )
        # Reuse the policy's tracker purely as the size estimator.
        self.policy = SchedulingPolicy(
            PolicyConfig(
                lengthy_cutoff=config.lengthy_cutoff,
                minimum_reserve=1,
                general_pool_size=config.baseline_workers,
                lengthy_pool_size=1,
            )
        )

    def _page_process(self, profile: PageProfile, jitter: float):
        estimate = self.policy.tracker.mean_time(profile.path)
        priority = estimate if estimate is not None else 0.0
        yield self.workers.acquire(tag="dynamic", priority=priority)
        lease = self.connections.lease(tag="dynamic")
        yield lease.granted
        try:
            yield self.web.serve(profile.parse_demand)
            generation_start = self.sim.now
            yield from self._db_phase(profile, jitter, lease)
            generation_seconds = self.sim.now - generation_start
            self.policy.record_generation_time(profile.path,
                                               generation_seconds)
            self.results.record_generation(
                self.sim.now, profile.path, generation_seconds
            )
            if profile.render_demand > 0:
                yield self.web.serve(profile.render_demand * jitter)
        finally:
            lease.release()
            self.workers.release()
        self.results.record_request(self.sim.now, "dynamic")
        self.results.record_request(self.sim.now, _report_class(profile.path))

    def _static_process(self, demand: float):
        # Statics are known-small: priority 0 (jump lengthy jobs).
        yield self.workers.acquire(tag="static", priority=0.0)
        lease = self.connections.lease(tag="static")
        yield lease.granted
        try:
            yield self.web.serve(demand)
        finally:
            lease.release()
            self.workers.release()
        self.results.record_request(self.sim.now, "static")

    def sample(self, results: SimResults) -> None:
        now = self.sim.now
        results.sample_queue(now, "dynamic",
                             self.workers.queued_with_tag("dynamic"))
        results.sample_queue(now, "all", self.workers.queue_length)
        results.sample_db(now, self.db.active_jobs)
