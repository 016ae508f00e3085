"""Stage tables: one declaration for the live servers and the sim."""

import pytest

from repro.core.policy import PolicyConfig, SchedulingPolicy
from repro.core.topology import (
    StageSpec,
    staged_topology,
    thread_per_request_topology,
)
from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.server.app import Application
from repro.server.baseline import BaselineServer
from repro.server.staged import StagedServer
from repro.sim.kernel import Simulation
from repro.sim.server import SimServer
from repro.sim.workload import WorkloadConfig

CONFIG = PolicyConfig(general_pool_size=4, lengthy_pool_size=1,
                      minimum_reserve=1, header_pool_size=2,
                      static_pool_size=3, render_pool_size=2)


class TestTables:
    def test_staged_table_is_figure_5(self):
        topology = staged_topology(CONFIG)
        assert topology.entry == "header"
        assert topology.stages == (
            StageSpec("header", 2),
            StageSpec("static", 3),
            StageSpec("general", 4, holds_lease=True),
            StageSpec("lengthy", 1, holds_lease=True),
            StageSpec("render", 2),
        )
        assert topology.leased_threads == 5

    def test_render_stage_can_be_dropped(self):
        topology = staged_topology(CONFIG, render_stage=False)
        assert "render" not in topology
        assert [spec.name for spec in topology.stages] == [
            "header", "static", "general", "lengthy"]

    def test_thread_per_request_table(self):
        topology = thread_per_request_topology(7)
        assert topology.entry == "worker"
        assert topology["worker"] == StageSpec("worker", 7, holds_lease=True)
        assert topology.leased_threads == 7
        with pytest.raises(KeyError):
            topology["render"]


def live_rows(server):
    """(name, threads, declares a DB resource) per live stage."""
    server.start()
    try:
        return [(stage.name, server.pipeline.pool(stage.name).size,
                 stage.resources is not None)
                for stage in server.pipeline.stages]
    finally:
        server.stop()


def sim_rows(server):
    return [(name, pool.size, server.topology[name].holds_lease)
            for name, pool in server.pools.items()]


@pytest.mark.parametrize("render_stage", [True, False])
def test_live_and_sim_staged_servers_build_the_same_stages(render_stage):
    app = Application()
    live = StagedServer(app, ConnectionPool(Database(), 5),
                        policy=SchedulingPolicy(CONFIG),
                        render_inline=not render_stage)
    sim = SimServer(Simulation(), WorkloadConfig(),
                    staged_topology(CONFIG, render_stage=render_stage),
                    policy=SchedulingPolicy(CONFIG))
    assert live.topology == sim.topology
    assert live_rows(live) == sim_rows(sim)
    assert sim.connection_pool.size == live.topology.leased_threads


def test_live_and_sim_thread_per_request_build_the_same_stages():
    live = BaselineServer(Application(), ConnectionPool(Database(), 3))
    sim = SimServer.for_kind("baseline", Simulation(),
                             WorkloadConfig(baseline_workers=3))
    assert live.topology == sim.topology
    assert live_rows(live) == sim_rows(sim) == [("worker", 3, True)]
