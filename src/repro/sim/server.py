"""The simulated server: one hop loop over the live stage table.

Every simulated topology is a :class:`repro.core.topology.Topology`,
the same table the live servers declare their stages from, so pool
names, sizes, and which stages hold a database connection cannot
drift between the two worlds.  All topologies share one substrate — a
processor-sharing database host, a processor-sharing web host,
reader-preference table locks with writer grace periods — and one
request path: :meth:`SimServer._hop` mirrors ``Pipeline._execute`` for
every stage a request visits.  The staged tables embed the *real*
:class:`repro.core.SchedulingPolicy`: dispatch decisions, the
service-time tracker, and the treserve controller run the production
code against simulated time.

Faults run the live code too: each site calls
:meth:`repro.faults.plan.FaultPlan.inject` and yields the seconds the
live code would sleep, the breaker, deadline, and retry schedule are a
:class:`repro.faults.policies.Resilience`, and a request is abandoned
on the exceptions the live server turns into an error response — after
deciding the write of that response, as the live server sends it.
Only the two socket sites decide here, as the live sockets do.

Metrics go to the live owners: ``server.stats`` is a
:class:`repro.server.stats.ServerStats` on the simulated clock, and
``server.connection_pool`` (every checkout, per stage) and
``server.policies`` (injections, breaker) report as a live
:class:`repro.server.pipeline.PipelineServer`'s do.  The simulator's
measurement window (ramp-up and cool-down excluded) is applied where
``ServerStats`` records: interactions, generation times, and stage
timings count only inside the window; samples and the pool's checkout
ledger span the whole run.
"""

from __future__ import annotations

from typing import Optional

from repro.core.dispatch import Dispatcher
from repro.core.latency import ServiceTimeTracker
from repro.core.policy import PolicyConfig, SchedulingPolicy
from repro.core.topology import (
    Topology,
    staged_topology,
    thread_per_request_topology,
)
from repro.db.errors import DatabaseError, TransientDBError
from repro.faults.errors import (
    CircuitOpenError,
    DeadlineExpiredError,
    InjectedFault,
    WorkerCrashError,
)
from repro.faults.plan import (
    SITE_DB_QUERY,
    SITE_POOL_ACQUIRE,
    SITE_RENDER,
    SITE_SOCKET_READ,
    SITE_SOCKET_WRITE,
    SITE_WORKER,
    FaultPlan,
)
from repro.faults.policies import Resilience, ResilienceConfig
from repro.server.pipeline import DONE
from repro.server.resources import LeaseStrategy
from repro.server.stats import ServerStats
from repro.sim.faults import SimClockAdapter
from repro.sim.kernel import SimEvent, Simulation
from repro.sim.resources import (
    PSServer,
    SimConnectionPool,
    SimLockTable,
    SimThreadPool,
)
from repro.sim.workload import (
    DEFAULT_PROFILES,
    PageProfile,
    WorkloadConfig,
    _report_class,
)

#: Web-host demand for a header thread to read a static request's
#: request line and hand it to the static stage (§3.2).
STATIC_ROUTE_DEMAND = 0.0002

#: What the live server answers with an error response (500, 503, 504);
#: the sim abandons the request, recording no completion.
ERROR_RESPONSES = (DatabaseError, InjectedFault, CircuitOpenError,
                   DeadlineExpiredError)


def policy_config(config: WorkloadConfig) -> PolicyConfig:
    """The staged pools and reserve bounds of a simulated workload."""
    return PolicyConfig(
        lengthy_cutoff=config.lengthy_cutoff,
        minimum_reserve=config.minimum_reserve,
        maximum_reserve=config.maximum_reserve,
        general_pool_size=config.general_pool,
        lengthy_pool_size=config.lengthy_pool,
        header_pool_size=config.header_pool,
        static_pool_size=config.static_pool,
        render_pool_size=config.render_pool,
    )


class SimServer:
    """A stage table run on simulated time.

    ``policy`` routes dynamic requests out of a non-leasing entry stage
    (the staged tables need one).  ``shortest_job_first`` orders every
    pool's queue by the tracked mean generation time of the page —
    the related-work comparison the paper's §3.3/§5 claims its
    two-pool scheme approximates without starving lengthy jobs.
    """

    #: The one lease behaviour the simulator models: a leasing stage
    #: checks a connection out for each request it serves.
    lease_strategy = LeaseStrategy.LEASED_PER_REQUEST

    def __init__(self, sim: Simulation, config: WorkloadConfig,
                 topology: Topology,
                 policy: Optional[SchedulingPolicy] = None,
                 shortest_job_first: bool = False):
        self.sim = sim
        self.config = config
        self.stats = ServerStats(SimClockAdapter(sim))
        self.topology = topology
        self.policy = policy
        self.db = PSServer(sim, "database", cores=config.db_cores)
        self.web = PSServer(sim, "webserver", cores=config.web_cores)
        self.locks = SimLockTable(sim)
        self.shortest_job_first = shortest_job_first
        self.pools = {spec.name: SimThreadPool(sim, spec.name, spec.size)
                      for spec in topology.stages}
        #: Simulated twin of the live bounded connection pool, one
        #: connection per lease-holding thread; its ledger meters held
        #: vs. query-busy time per stage, so the sim reports the same
        #: connection busy fraction the live servers export.
        self.connection_pool = SimConnectionPool(sim,
                                                 topology.leased_threads)
        #: Per-page mean generation time: the policy's classifier input,
        #: and the SJF queue key.
        self.tracker = (policy.tracker if policy is not None
                        else ServiceTimeTracker())
        if policy is not None and config.warm_start:
            for path, profile in DEFAULT_PROFILES.items():
                if profile.db_demand > 0:
                    self.tracker.prime(path, profile.db_demand)
        #: Fault plan and policies; installed by :meth:`configure_faults`.
        self.policies: Optional[Resilience] = None
        self._last_tick = 0.0

    @classmethod
    def for_kind(cls, kind: str, sim: Simulation, config: WorkloadConfig,
                 dispatcher: Optional[Dispatcher] = None) -> "SimServer":
        """``baseline``, ``sjf``, ``staged``, or ``staged-render-inline``."""
        if kind in ("baseline", "sjf"):
            return cls(sim, config,
                       thread_per_request_topology(config.baseline_workers),
                       shortest_job_first=(kind == "sjf"))
        if kind in ("staged", "staged-render-inline"):
            staged = policy_config(config)
            topology = staged_topology(staged, render_stage=(kind == "staged"))
            return cls(sim, config, topology,
                       policy=SchedulingPolicy(staged, dispatcher=dispatcher))
        raise ValueError(f"unknown server kind {kind!r}")

    def configure_faults(self, plan: FaultPlan,
                         resilience: Optional[ResilienceConfig] = None
                         ) -> Resilience:
        """Run a live server's fault plan + policies on sim time.

        The plan should be built with :func:`repro.sim.faults.
        sim_fault_plan` so its schedule windows read the sim clock.
        """
        self.policies = Resilience(plan, resilience, self.stats,
                                   self.stats.clock)
        return self.policies

    # ------------------------------------------------------------------
    def submit_page(self, profile: PageProfile, jitter: float) -> SimEvent:
        return self.sim.spawn(self._request(profile, jitter))

    def submit_static(self, demand: float) -> SimEvent:
        return self.sim.spawn(self._request(None, 1.0, demand))

    def _request(self, profile: Optional[PageProfile], jitter: float,
                 static_demand: float = 0.0):
        """One request (a page, or a static file when ``profile`` is
        None) from the entry stage until no stage routes it further."""
        arrival = self.sim.now
        page = profile.path if profile is not None else ""
        stage = self.topology.entry
        try:
            while isinstance(stage, str):
                last_stage = stage
                stage = yield from self._hop(stage, profile, jitter,
                                             static_demand, arrival)
        except ERROR_RESPONSES:
            return
        if stage is DONE:
            return  # the client vanished before sending a request
        policies = self.policies
        if policies is not None and policies.plan.decide(
                SITE_SOCKET_WRITE, page_key=page,
                stage=last_stage) is not None:
            # A dropped or short write: the live pipeline records no
            # completion.
            return
        if profile is None:
            self.stats.record_request("static")
            return
        self.stats.record_request("dynamic")
        self.stats.record_request(_report_class(page))

    def _hop(self, name: str, profile: Optional[PageProfile], jitter: float,
             static_demand: float, arrival: float):
        """One stage visit, in ``Pipeline._execute``'s order: thread,
        worker hook, deadline, (entry) socket read, (leasing stage)
        breaker-guarded pool gate and lease, body, release.  Returns
        the next stage, ``None`` when done, or ``DONE``."""
        spec = self.topology[name]
        entry = name == self.topology.entry
        page = profile.path if profile is not None else ""
        policies = self.policies
        pool = self.pools[name]
        priority = 0.0
        if self.shortest_job_first and page:
            priority = self.tracker.mean_time(page) or 0.0
        requested = self.sim.now
        yield pool.acquire(tag="dynamic" if page else "static",
                           priority=priority)
        started = self.sim.now
        lease = None
        # The page the live job carries: unknown until the entry stage
        # has parsed the request.
        known_page = "" if entry else page
        try:
            if policies is not None:
                try:
                    yield from self._inject(SITE_WORKER, known_page, name)
                except WorkerCrashError:
                    # Live: the crash escapes into the pool's error
                    # handler, which counts it.
                    self.stats.record_worker_crash(name)
                    raise
                policies.check_deadline(name, self.sim.now - arrival)
                if entry and policies.plan.decide(
                        SITE_SOCKET_READ, page_key="",
                        stage=name) is not None:
                    return DONE  # the peer stalled or vanished
                if spec.holds_lease and page:
                    with policies.checkout(name):
                        yield from self._inject(SITE_POOL_ACQUIRE, page,
                                                name)
            if spec.holds_lease:
                lease = self.connection_pool.lease(tag=name)
                yield lease.granted
            known_page = page
            try:
                return (yield from self._body(name, profile, jitter,
                                              static_demand, lease))
            finally:
                if lease is not None:
                    lease.release()
        except ERROR_RESPONSES:
            # Live sends the error response through the same socket
            # write, matched against the job's page and this stage.
            if policies is not None:
                policies.plan.decide(SITE_SOCKET_WRITE, page_key=known_page,
                                     stage=name)
            raise
        finally:
            pool.release()
            if self.config.in_window(self.sim.now):
                self.stats.record_stage_timing(name, started - requested,
                                               self.sim.now - started)

    def _inject(self, site: str, page: str, stage: str):
        """A fault site on sim time: yield what the live code sleeps,
        raise what it raises."""
        delay = self.policies.plan.inject(site, page_key=page, stage=stage)
        if delay is not None:
            yield delay

    def _body(self, name: str, profile: Optional[PageProfile], jitter: float,
              static_demand: float, lease):
        """What the stage's handler does: the entry stage parses (and
        routes), leasing stages generate data, and the render stage —
        or, without one, the generating stage — renders."""
        if profile is None:
            if name == self.topology.entry and "static" in self.topology:
                yield self.web.serve(STATIC_ROUTE_DEMAND)
                return "static"
            yield self.web.serve(static_demand)
            return None
        if name == self.topology.entry:
            yield self.web.serve(profile.parse_demand)
            if lease is None:
                return self.policy.route(
                    profile.path, tspare=self.pools["general"].spare
                ).value
        if lease is not None:
            generation_start = self.sim.now
            yield from self._db_phase(profile, jitter, lease, name)
            generation_seconds = self.sim.now - generation_start
            # Feed the classifier at the moment the unrendered template
            # would be enqueued, exactly as the live server does (§3.3).
            self.tracker.record(profile.path, generation_seconds)
            if self.config.in_window(self.sim.now):
                self.stats.record_generation_time(profile.path,
                                                  generation_seconds)
            if "render" in self.topology:
                return "render"
        if profile.render_demand > 0:
            if self.policies is not None:
                yield from self._inject(SITE_RENDER, profile.path, name)
            yield self.web.serve(profile.render_demand * jitter)
        return None

    def _db_phase(self, profile: PageProfile, jitter: float, lease,
                  stage: str):
        """The data-generation phase: read holds, query, optional write
        grace period.  The calling thread (and its held database
        connection) is occupied for the entire phase; time actually
        spent serving queries accrues onto ``lease`` as busy time."""
        read_tables = sorted(profile.read_tables)
        tokens = [(table, self.locks.acquire_read(table))
                  for table in read_tables]
        try:
            if profile.db_demand > 0:
                yield from self._query(profile.db_demand * jitter, lease,
                                       stage, profile.path)
        finally:
            for table, token in reversed(tokens):
                self.locks.release_read(table, token)
        if profile.write_table is not None:
            yield self.locks.acquire_write(profile.write_table)
            try:
                yield from self._query(profile.write_demand * jitter, lease,
                                       stage, profile.path)
            finally:
                self.locks.release_write(profile.write_table)

    def _query(self, demand: float, lease, stage: str, page: str):
        policies = self.policies
        if policies is not None:
            # The engine's per-statement site under the per-query
            # lease strategy's retry: each retried transient failure
            # backs off and decides again.
            retries = policies.retries(stage)
            while True:
                try:
                    yield from self._inject(SITE_DB_QUERY, page, stage)
                    break
                except TransientDBError:
                    delay = next(retries, None)
                    if delay is None:
                        raise
                yield delay
        query_started = self.sim.now
        yield self.db.serve(demand)
        lease.note_busy(self.sim.now - query_started)

    # ------------------------------------------------------------------
    def sample(self) -> None:
        """The 1 Hz sampler: treserve tick, reserve, queues, and
        database occupancy, recorded as the live sampler does."""
        now = self.sim.now
        stats = self.stats
        if self.policy is not None:
            tspare = self.pools["general"].spare
            # The once-per-second treserve update (§3.3) rides the
            # sampler, which runs at the same 1 Hz cadence as the real
            # server's timer.
            interval = self.policy.config.reserve_update_interval
            if now - self._last_tick >= interval - 1e-9:
                self.policy.tick(tspare)
                self._last_tick = now
            stats.sample_reserve(tspare, self.policy.treserve)
        entry = self.topology.entry
        if self.topology[entry].holds_lease:
            # Figure 7 plots queued *dynamic* requests on the single
            # thread-per-request queue.
            stats.sample_queue("dynamic",
                               self.pools[entry].queued_with_tag("dynamic"))
        for name, pool in self.pools.items():
            stats.sample_queue(name, pool.queue_length)
        stats.sample_queue("db-active", self.db.active_jobs)
