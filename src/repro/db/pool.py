"""The bounded database connection pool.

"Connections to such a database are often stored in the web server's
threads ... a limited number of database connections are stored and
shared by the threads" (paper §1, §2.2).  This pool is that limit made
explicit: at most ``size`` connections exist; :meth:`acquire` blocks
when all are out.  The pool also measures what the paper's scheme
optimises: every checkout records how long the connection was *held*
and how much of that time it spent actually *querying*, labelled with
the stage that took it, so :meth:`utilization_report` can state the
connection busy fraction — the quantity decided by *who* holds
connections and for how long — and :meth:`stage_report` can say which
stage holds them.

Raw ``acquire``/``release`` is deliberately low-level (a missed or
doubled release corrupts the scarce resource the whole study is
about); server code goes through :mod:`repro.server.resources`, and
``tools/check_sites.py acquire`` enforces that in CI.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.db.connection import Connection
from repro.db.engine import Database
from repro.db.errors import PoolClosedError, PoolReleaseError, PoolTimeoutError
from repro.faults.plan import SITE_POOL_ACQUIRE
from repro.util.timeseries import SummaryAccumulator


#: The stage label of a checkout taken outside any pipeline stage.
UNSTAGED = "db"


class _StageCheckouts:
    """One stage's share of a :class:`CheckoutLedger`."""

    __slots__ = ("leases", "held_seconds", "busy_seconds", "waits")

    def __init__(self, stage: str):
        self.leases = 0
        self.held_seconds = 0.0
        self.busy_seconds = 0.0
        self.waits = SummaryAccumulator(f"{stage}/acquire-wait")


def _busy_fraction(held: float, busy: float) -> float:
    return (busy / held) if held > 0 else 0.0


class CheckoutLedger:
    """Checkout accounting for one bounded connection pool.

    The live :class:`ConnectionPool` records into one under its lock,
    the simulated pool on simulated time, so both state the connection
    busy fraction the same way.  It is the only checkout meter: each
    checkout is labelled with the stage that took it, so the same
    ledger answers pool-wide (:meth:`utilization_report`) and per
    stage (:meth:`stage_report`).
    """

    def __init__(self, size: int):
        self.size = size
        self.in_use = 0
        self.acquires = 0
        self.peak_in_use = 0
        #: Seconds connections spent checked out (completed checkouts).
        self.held_seconds = 0.0
        #: Seconds of those held seconds spent executing statements.
        self.busy_seconds = 0.0
        self.completed_checkouts = 0
        self._wait_times = SummaryAccumulator("acquire-wait")
        self._stages: Dict[str, _StageCheckouts] = {}

    def _stage(self, stage: str) -> _StageCheckouts:
        entry = self._stages.get(stage)
        if entry is None:
            entry = self._stages[stage] = _StageCheckouts(stage)
        return entry

    def granted(self, wait: float, stage: str = UNSTAGED) -> None:
        """``stage`` was granted a checkout after ``wait`` seconds."""
        self.in_use += 1
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        self.acquires += 1
        self._wait_times.add(wait)
        entry = self._stage(stage)
        entry.leases += 1
        entry.waits.add(wait)

    def returned(self, held: float, busy: float,
                 stage: str = UNSTAGED) -> None:
        """``stage``'s checkout held ``held`` seconds, ``busy`` of them
        querying."""
        self.held_seconds += held
        self.busy_seconds += busy
        self.completed_checkouts += 1
        self.in_use -= 1
        entry = self._stage(stage)
        entry.held_seconds += held
        entry.busy_seconds += busy

    def utilization_report(self) -> Dict:
        """Busy-fraction accounting over completed checkouts.

        ``busy_fraction`` is seconds-spent-querying over seconds-held —
        the paper's headline resource-efficiency metric (connections
        pinned to threads that parse and render sit idle; connections
        held only for data generation stay busy).  In-flight checkouts
        are not included; read the report after they return (e.g. after
        server shutdown, which releases every pinned connection).
        """
        return {
            "size": self.size,
            "acquires": self.acquires,
            "completed_checkouts": self.completed_checkouts,
            "in_use": self.in_use,
            "held_seconds": self.held_seconds,
            "busy_seconds": self.busy_seconds,
            "busy_fraction": _busy_fraction(self.held_seconds,
                                            self.busy_seconds),
            "acquire_wait": self._wait_times.summary(),
        }

    def stage_report(self) -> Dict[str, Dict]:
        """The same accounting per stage that took checkouts.

        ``{stage: {leases, held_seconds, busy_seconds, busy_fraction,
        acquire_wait: {count, mean, p50, p95, p99, max}}}``.  ``leases``
        counts grants, so the entries sum to the pool-wide ``acquires``,
        ``held_seconds`` and ``busy_seconds``; as there, held and busy
        time cover completed checkouts only.
        """
        return {
            stage: {
                "leases": entry.leases,
                "held_seconds": entry.held_seconds,
                "busy_seconds": entry.busy_seconds,
                "busy_fraction": _busy_fraction(entry.held_seconds,
                                                entry.busy_seconds),
                "acquire_wait": entry.waits.summary(),
            }
            for stage, entry in sorted(self._stages.items())
        }


class ConnectionPool:
    """A fixed-size, blocking pool of :class:`Connection` objects.

    Connections are created lazily up to ``size`` and recycled on
    release.  ``acquire`` blocks (optionally with a timeout) when the
    pool is exhausted — the situation the thread-per-request model
    creates whenever more workers want the database than connections
    exist.
    """

    def __init__(self, database: Database, size: int,
                 clock: Callable[[], float] = time.monotonic):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.database = database
        self.size = size
        self._clock = clock
        #: Optional :class:`repro.faults.plan.FaultPlan` consulted at
        #: the top of every :meth:`acquire` (delay or exhaust faults).
        #: Assigned by the owning server; the pool stays ignorant of
        #: the plan's structure.
        self.faults = None
        self._idle: Deque[Connection] = deque()
        self._all: list = []
        self._created = 0
        self._closed = False
        self._mutex = threading.Lock()
        self._available = threading.Condition(self._mutex)
        # Checked-out connections and their checkout snapshot:
        # (checkout time, busy_seconds at checkout, stage).  Membership is
        # also the release guard — a connection absent from this map
        # was either never issued or already returned.
        self._checked_out: Dict[Connection, Tuple[float, float, str]] = {}
        #: Checkout statistics, guarded by the pool's lock.
        self.ledger = CheckoutLedger(size)

    # ------------------------------------------------------------------
    def acquire(self, timeout: Optional[float] = None,
                stage: str = UNSTAGED) -> Connection:
        """Check out a connection for ``stage``, blocking while none
        are free."""
        if self.faults is not None:
            # An injected DELAY sleeps here (outside the condition, so
            # it does not serialise other acquirers); EXHAUST/FAIL
            # raises PoolTimeoutError exactly as a starved wait would.
            self.faults.sleep(self.faults.inject(SITE_POOL_ACQUIRE))
        start = self._clock()
        with self._available:
            if self._closed:
                raise PoolClosedError("connection pool is closed")
            while not self._idle and self._created >= self.size:
                if not self._available.wait(timeout=timeout):
                    raise PoolTimeoutError(
                        f"no connection available within {timeout}s "
                        f"(pool size {self.size})"
                    )
                if self._closed:
                    raise PoolClosedError("connection pool is closed")
            if self._idle:
                connection = self._idle.popleft()
            else:
                connection = Connection(self.database, clock=self._clock)
                self._all.append(connection)
                self._created += 1
            now = self._clock()
            self.ledger.granted(now - start, stage)
            self._checked_out[connection] = (now, connection.busy_seconds,
                                             stage)
            return connection

    def release(self, connection: Connection) -> None:
        """Return a connection to the pool.

        Raises :class:`PoolReleaseError` on a double release or on a
        connection this pool never issued — both used to corrupt the
        idle deque and the in-use count silently.
        """
        with self._available:
            checkout = self._checked_out.pop(connection, None)
            if checkout is None:
                raise PoolReleaseError(
                    f"connection {connection.connection_id} is not checked "
                    f"out of this pool (double release, or a connection the "
                    f"pool never issued)"
                )
            checked_out_at, busy_at_checkout, stage = checkout
            self.ledger.returned(self._clock() - checked_out_at,
                                 connection.busy_seconds - busy_at_checkout,
                                 stage)
            if connection.closed:
                # A handler closed it outright: replace capacity.
                self._created -= 1
            else:
                self._idle.append(connection)
            self._available.notify()

    class _Lease:
        def __init__(self, pool: "ConnectionPool", timeout: Optional[float]):
            self._pool = pool
            self._timeout = timeout
            self.connection: Optional[Connection] = None

        def __enter__(self) -> Connection:
            self.connection = self._pool.acquire(timeout=self._timeout)
            return self.connection

        def __exit__(self, *exc_info) -> None:
            if self.connection is not None:
                self._pool.release(self.connection)
                self.connection = None

    def lease(self, timeout: Optional[float] = None) -> "_Lease":
        """``with pool.lease() as conn:`` acquire/release scope."""
        return self._Lease(self, timeout)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down; waiting acquirers get PoolClosedError."""
        with self._available:
            self._closed = True
            while self._idle:
                self._idle.popleft().close()
            self._available.notify_all()

    @property
    def in_use(self) -> int:
        with self._mutex:
            return self.ledger.in_use

    @property
    def total_acquires(self) -> int:
        with self._mutex:
            return self.ledger.acquires

    @property
    def peak_in_use(self) -> int:
        with self._mutex:
            return self.ledger.peak_in_use

    @property
    def completed_checkouts(self) -> int:
        with self._mutex:
            return self.ledger.completed_checkouts

    @property
    def idle(self) -> int:
        with self._mutex:
            return len(self._idle)

    def connections(self) -> list:
        """Every connection this pool has created (for statistics)."""
        with self._mutex:
            return list(self._all)

    def total_busy_seconds(self) -> float:
        """Total statement-execution time across all connections."""
        return sum(c.busy_seconds for c in self.connections())

    def utilization_report(self) -> Dict:
        """See :meth:`CheckoutLedger.utilization_report`."""
        with self._mutex:
            return self.ledger.utilization_report()

    def stage_report(self) -> Dict[str, Dict]:
        """See :meth:`CheckoutLedger.stage_report`."""
        with self._mutex:
            return self.ledger.stage_report()
