"""Sim/live parity for connection busy-fraction accounting.

The simulator's :class:`SimConnectionPool` and the live
:class:`ConnectionPool` both claim to report the same quantity — the
connection busy fraction over completed checkouts.  This test runs the
*same* deterministic scripted workload through both (the live side on
a ManualClock with a database whose every statement costs exactly the
scripted demand; the sim side as a discrete-event process) and asserts
the two ``utilization_report()`` documents agree key by key.
"""

import pytest

from repro.db.engine import Database
from repro.db.pool import UNSTAGED, ConnectionPool
from repro.db.sql.executor import ResultSet
from repro.sim.kernel import Simulation
from repro.sim.resources import SimConnectionPool
from repro.util.clock import ManualClock

# One scripted workload, two executions.  Each checkout is
# (idle seconds before the query, query demand, idle seconds after);
# a zero-demand entry is a checkout that never touches the database
# (the pinned-connection pathology: held, never busy).
SCRIPT = [
    (1.0, 0.25, 0.75),   # held 2.0s, busy 0.25s
    (0.5, 0.0, 0.0),     # held 0.5s, never queried
    (0.0, 0.4, 0.1),     # held 0.5s, busy 0.4s
]

TOTAL_HELD = sum(a + b + c for a, b, c in SCRIPT)
TOTAL_BUSY = sum(b for _, b, _ in SCRIPT)


class ScriptedDatabase(Database):
    """Every statement costs exactly ``demand`` manual-clock seconds."""

    def __init__(self, clock: ManualClock, demand: float):
        super().__init__()
        self._manual = clock
        self.demand = demand

    def prepare(self, sql):
        return sql  # no parsing: the statement text is the statement

    def execute_statement(self, statement, params=(), connection_id=None):
        self._manual.advance(self.demand)
        return ResultSet()


def live_pool(stages=None) -> ConnectionPool:
    """Run SCRIPT on a live pool, checkout ``i`` labelled ``stages[i]``
    (unlabelled when ``stages`` is None)."""
    clock = ManualClock()
    database = ScriptedDatabase(clock, demand=0.0)
    pool = ConnectionPool(database, size=1, clock=clock.now)
    for index, (idle_before, demand, idle_after) in enumerate(SCRIPT):
        connection = (pool.acquire() if stages is None
                      else pool.acquire(stage=stages[index]))
        clock.advance(idle_before)
        if demand > 0:
            database.demand = demand
            connection.execute("SELECT scripted")
        clock.advance(idle_after)
        pool.release(connection)
    return pool


def live_report() -> dict:
    return live_pool().utilization_report()


def sim_pool(stages=None) -> SimConnectionPool:
    """Run SCRIPT on a simulated pool, labelled as in :func:`live_pool`."""
    sim = Simulation()
    pool = SimConnectionPool(sim, size=1)

    def process():
        for index, (idle_before, demand, idle_after) in enumerate(SCRIPT):
            lease = (pool.lease() if stages is None
                     else pool.lease(stages[index]))
            yield lease.granted
            yield idle_before
            if demand > 0:
                started = sim.now
                yield demand  # the simulated query execution
                lease.note_busy(sim.now - started)
            yield idle_after
            lease.release()

    sim.spawn(process())
    sim.run()
    return pool


def sim_report() -> dict:
    return sim_pool().utilization_report()


class TestBusyFractionParity:
    def test_reports_agree_key_by_key(self):
        live = live_report()
        simulated = sim_report()
        assert set(live) == set(simulated)
        for key in ("size", "acquires", "completed_checkouts", "in_use"):
            assert live[key] == simulated[key], key
        for key in ("held_seconds", "busy_seconds", "busy_fraction"):
            assert live[key] == pytest.approx(simulated[key]), key
        live_wait = live["acquire_wait"]
        sim_wait = simulated["acquire_wait"]
        assert live_wait["count"] == sim_wait["count"]
        for key in ("mean", "p50", "p95", "p99", "max"):
            assert live_wait[key] == pytest.approx(sim_wait[key]), key

    def test_absolute_accounting_matches_script(self):
        for report in (live_report(), sim_report()):
            assert report["held_seconds"] == pytest.approx(TOTAL_HELD)
            assert report["busy_seconds"] == pytest.approx(TOTAL_BUSY)
            assert report["busy_fraction"] == pytest.approx(
                TOTAL_BUSY / TOTAL_HELD
            )
            assert report["completed_checkouts"] == len(SCRIPT)
            assert report["in_use"] == 0

    def test_stage_reports_agree_and_sum_to_pool_wide(self):
        """Labelled checkouts: both pools split the same accounting by
        stage, and the per-stage entries add up to the pool-wide one."""
        stages = ["generation", "render", "generation"]
        for pool in (live_pool(stages), sim_pool(stages)):
            report = pool.stage_report()
            overall = pool.utilization_report()
            assert list(report) == ["generation", "render"]
            assert report["generation"]["leases"] == 2
            assert report["render"]["held_seconds"] == pytest.approx(0.5)
            assert report["render"]["busy_seconds"] == 0.0
            assert report["render"]["busy_fraction"] == 0.0
            assert sum(entry["leases"] for entry in report.values()) \
                == overall["acquires"]
            for key in ("held_seconds", "busy_seconds"):
                assert sum(entry[key] for entry in report.values()) \
                    == pytest.approx(overall[key]), key
        live = live_pool(stages).stage_report()
        simulated = sim_pool(stages).stage_report()
        for stage in live:
            for key in ("held_seconds", "busy_seconds", "busy_fraction"):
                assert live[stage][key] == pytest.approx(
                    simulated[stage][key]), (stage, key)
            assert live[stage]["acquire_wait"]["count"] \
                == simulated[stage]["acquire_wait"]["count"]

    def test_unlabelled_checkouts_share_one_stage(self):
        for pool in (live_pool(), sim_pool()):
            report = pool.stage_report()
            assert list(report) == [UNSTAGED]
            assert report[UNSTAGED]["leases"] == len(SCRIPT)
            assert report[UNSTAGED]["held_seconds"] == pytest.approx(
                TOTAL_HELD)

    def test_sim_pool_meters_contention_waits(self):
        """Two processes on a size-1 pool: the second's wait is the
        first's hold time — visible in the acquire-wait summary."""
        sim = Simulation()
        pool = SimConnectionPool(sim, size=1)

        def holder():
            lease = pool.lease()
            yield lease.granted
            yield 2.0
            lease.release()

        def waiter():
            lease = pool.lease()
            yield lease.granted
            yield 0.5
            lease.release()

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        report = pool.utilization_report()
        assert report["acquire_wait"]["max"] == pytest.approx(2.0)
        assert report["held_seconds"] == pytest.approx(2.5)
