"""Resilience policies: deadlines, retry/backoff, circuit breaker.

These are the mechanisms the fault-injection engine justifies: when
the database can exhaust, stall, or transiently fail, the server needs
policies that bound the damage instead of convoying every stage behind
one stuck resource.

- :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic jitter for *transient* database faults.  Applied only
  under the per-query lease strategy and only to idempotent statements
  (a retried INSERT could double-write; a retried SELECT cannot).
- :class:`CircuitBreaker` — guards the connection pool: after a run of
  acquire failures it opens and fast-fails (503 + ``Retry-After``)
  instead of letting every request queue against an exhausted pool;
  after ``recovery_timeout`` it admits a single half-open probe, and a
  probe success closes it again.
- :class:`ResilienceConfig` — the declarative bundle a server accepts:
  per-stage deadlines (expired requests fail 504 before consuming a
  connection), the retry policy, the breaker, and degraded serving
  (stale fragment-cache fallback while the breaker is open).
- :class:`Resilience` — one server's fault plan and policies wired to
  its stats and clock: the deadline check, the breaker guard around a
  pool checkout, and the retry schedule.  The live servers and the
  simulator each build one and call the same methods.

Everything is clock-injected and seed-driven: backoff schedules come
from a caller-provided :class:`random.Random`, breaker transitions
from the shared server clock — the chaos tests script both.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import random
import threading
from typing import Dict, Iterator, List, Mapping, Optional

from repro.db.errors import PoolTimeoutError
from repro.faults.errors import CircuitOpenError, DeadlineExpiredError
from repro.faults.plan import FaultPlan
from repro.util.clock import Clock, MonotonicClock
from repro.util.rng import RandomStream


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``delays(rng)`` returns the full between-attempt schedule for one
    statement: ``max_attempts - 1`` waits, each the jittered
    exponential clamped to ``max_delay`` and then to the running
    maximum — so the schedule is monotone non-decreasing, bounded by
    ``max_delay * (1 + jitter)``, and bit-reproducible for a given
    RNG state.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.1

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    def delays(self, rng: random.Random) -> List[float]:
        schedule: List[float] = []
        floor = 0.0
        for attempt in range(self.max_attempts - 1):
            base = min(self.base_delay * (self.multiplier ** attempt),
                       self.max_delay)
            jittered = base * (1.0 + self.jitter * rng.random())
            floor = max(floor, jittered)
            schedule.append(floor)
        return schedule


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclasses.dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker tuning knobs."""

    #: Consecutive acquire failures (while closed) that open the breaker.
    failure_threshold: int = 5
    #: Seconds the breaker stays open before admitting a probe.
    recovery_timeout: float = 5.0
    #: Successful half-open probes required to close again.
    half_open_successes: int = 1

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.recovery_timeout < 0:
            raise ValueError("recovery_timeout must be >= 0")
        if self.half_open_successes < 1:
            raise ValueError("half_open_successes must be >= 1")


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN state machine over an injected clock.

    Invariants (property-tested in ``tests/chaos``):

    - ``allow()`` never returns ``False`` while CLOSED;
    - once OPEN, ``allow()`` returns ``False`` until
      ``recovery_timeout`` clock-seconds have elapsed, then admits
      exactly one in-flight probe at a time;
    - ``half_open_successes`` successful probes close the breaker and
      reset its failure count; one failed probe re-opens it.
    """

    def __init__(self, config: BreakerConfig, clock: Optional[Clock] = None):
        self.config = config
        self.clock = clock if clock is not None else MonotonicClock()
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_successes = 0
        self._probe_in_flight = False
        #: Times each state was entered, keyed by state value.
        self._entered: Dict[str, int] = {}

    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May a pool acquire proceed right now?"""
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                elapsed = self.clock.now() - self._opened_at
                if elapsed < self.config.recovery_timeout:
                    return False
                self._transition(BreakerState.HALF_OPEN)
                self._probe_in_flight = True
                self._probe_successes = 0
            elif self._probe_in_flight:
                # One probe at a time: concurrent requests keep
                # fast-failing until the in-flight probe reports.
                return False
            else:
                self._probe_in_flight = True
        return True

    def record_success(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probe_in_flight = False
                self._probe_successes += 1
                if self._probe_successes >= self.config.half_open_successes:
                    self._failures = 0
                    self._transition(BreakerState.CLOSED)
            elif self._state is BreakerState.CLOSED:
                self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probe_in_flight = False
                self._opened_at = self.clock.now()
                self._transition(BreakerState.OPEN)
            elif self._state is BreakerState.CLOSED:
                self._failures += 1
                if self._failures >= self.config.failure_threshold:
                    self._opened_at = self.clock.now()
                    self._transition(BreakerState.OPEN)

    def retry_after(self) -> float:
        """Seconds until the breaker will consider a probe (0 if not open)."""
        with self._lock:
            if self._state is not BreakerState.OPEN:
                return 0.0
            remaining = (self._opened_at + self.config.recovery_timeout
                         - self.clock.now())
            return max(0.0, remaining)

    def report(self) -> Dict:
        """``{"state": ..., "transitions": {state: times entered}}``."""
        with self._lock:
            return {"state": self._state.value,
                    "transitions": dict(sorted(self._entered.items()))}

    # ------------------------------------------------------------------
    def _transition(self, new_state: BreakerState) -> None:
        self._state = new_state
        self._entered[new_state.value] = \
            self._entered.get(new_state.value, 0) + 1


@dataclasses.dataclass(frozen=True)
class ResilienceConfig:
    """The declarative resilience bundle a live/sim server accepts."""

    #: Request-wide deadline (seconds from arrival); a stage that picks
    #: a job up past its deadline fails it 504 without running the
    #: handler or leasing a connection.
    request_deadline: Optional[float] = None
    #: Per-stage overrides; a stage named here uses its own budget.
    stage_deadlines: Mapping[str, float] = \
        dataclasses.field(default_factory=dict)
    #: Transient-DB retry policy (per-query leases, idempotent
    #: statements only).  ``None`` disables retries.
    retry: Optional[RetryPolicy] = None
    #: Connection-pool circuit breaker.  ``None`` disables it.
    breaker: Optional[BreakerConfig] = None
    #: Serve a stale fragment-cache copy when the breaker fast-fails.
    degraded_serving: bool = False
    #: Seeds the retry-jitter stream.
    seed: int = 0

    def deadline_for(self, stage: str) -> Optional[float]:
        specific = self.stage_deadlines.get(stage)
        return specific if specific is not None else self.request_deadline


class Resilience:
    """One server's fault plan and resilience policies, wired together.

    Policy verdicts (retries, expired deadlines, fast fails) land in
    ``stats`` (a :class:`~repro.server.stats.ServerStats`); the plan
    counts its own injections and the breaker its own transitions, so
    a plan shared by two servers reports the same injections to both.
    The breaker reads ``clock``.  The live server and the simulator
    each build one — the sim on a clock that reads simulated time — so
    both run the same guard, deadline check, and retry schedule.
    """

    def __init__(self, plan: Optional[FaultPlan],
                 config: Optional[ResilienceConfig], stats, clock: Clock):
        self.plan = plan
        self.config = config
        self.stats = stats
        self.breaker: Optional[CircuitBreaker] = None
        if config is not None and config.breaker is not None:
            self.breaker = CircuitBreaker(config.breaker, clock=clock)
        self._retry = config.retry if config is not None else None
        self._retry_stream = RandomStream(
            config.seed if config is not None else 0, "retry-jitter"
        )

    def check_deadline(self, stage: str, age: float) -> None:
        """Raise :class:`DeadlineExpiredError` for a job ``age`` seconds
        old that has outlived ``stage``'s deadline; called before the
        stage serves it."""
        if self.config is None:
            return
        deadline = self.config.deadline_for(stage)
        if deadline is not None and age > deadline:
            self.stats.record_deadline_expired(stage)
            raise DeadlineExpiredError()

    @contextlib.contextmanager
    def checkout(self, stage: str) -> Iterator[None]:
        """The breaker around one pool checkout: fast-fail while it is
        open, then feed it the checkout's outcome (a
        :class:`PoolTimeoutError` is a failure)."""
        breaker = self.breaker
        if breaker is None:
            yield
            return
        if not breaker.allow():
            self.stats.record_fast_fail(stage)
            raise CircuitOpenError(retry_after=breaker.retry_after())
        try:
            yield
        except PoolTimeoutError:
            breaker.record_failure()
            raise
        breaker.record_success()

    def retries(self, stage: str) -> Iterator[float]:
        """One statement's backoffs, one per transient failure it may
        retry; each one taken counts as a retry on ``stage``.

        The schedule is drawn from the retry-jitter stream at the first
        failure, so a statement that never fails draws nothing.
        """
        if self._retry is None:
            return
        for delay in self._retry.delays(self._retry_stream):
            self.stats.record_retry(stage)
            yield delay
