"""Server topologies as data: the stage tables both worlds build from.

A topology is the paper's contribution reduced to its shape: which
thread pools exist, how many threads each has, where a request enters,
and which stages hold a database connection while they work (Figure 5;
§1: "database connections are assigned only to dynamic-request
threads").  The live servers turn a table into
:class:`repro.server.pipeline.Stage` declarations with handlers; the
simulator (:mod:`repro.sim.server`) walks the same table hop by hop.
Changing a size or dropping a stage here changes both.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.core.policy import PolicyConfig


@dataclasses.dataclass(frozen=True)
class StageSpec:
    """One row of a stage table."""

    name: str
    size: int
    #: Whether this stage's threads hold a database connection while
    #: they serve (the live stage declares ``resources=``; the sim takes
    #: a lease around the hop).
    holds_lease: bool = False


@dataclasses.dataclass(frozen=True)
class Topology:
    """A stage table plus the stage fresh requests enter at."""

    stages: Tuple[StageSpec, ...]
    entry: str

    def __getitem__(self, name: str) -> StageSpec:
        for spec in self.stages:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(spec.name == name for spec in self.stages)

    @property
    def leased_threads(self) -> int:
        """Threads that hold a connection: the pinned pool size."""
        return sum(spec.size for spec in self.stages if spec.holds_lease)


def staged_topology(config: PolicyConfig,
                    render_stage: bool = True) -> Topology:
    """The paper's five pools (Figure 5); only the two dynamic stages
    hold connections.  ``render_stage=False`` is the ablation that
    renders on the dynamic threads instead (§3.2)."""
    stages = [
        StageSpec("header", config.header_pool_size),
        StageSpec("static", config.static_pool_size),
        StageSpec("general", config.general_pool_size, holds_lease=True),
        StageSpec("lengthy", config.lengthy_pool_size, holds_lease=True),
    ]
    if render_stage:
        stages.append(StageSpec("render", config.render_pool_size))
    return Topology(tuple(stages), entry="header")


def thread_per_request_topology(workers: int) -> Topology:
    """The baseline (Figure 4): one pool does everything, and every
    worker holds a connection."""
    return Topology((StageSpec("worker", workers, holds_lease=True),),
                    entry="worker")
