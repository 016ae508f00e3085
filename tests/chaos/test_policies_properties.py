"""Property-style tests (seeded loops) for the resilience policies.

Backoff: the schedule is monotone non-decreasing, bounded by
``max_delay * (1 + jitter)``, and bit-deterministic per seed.
Breaker: it never fast-fails while CLOSED, blocks exactly for
``recovery_timeout`` once OPEN, and always returns to CLOSED after the
configured number of successful half-open probes.  Every run is driven
by a seeded ``random.Random`` and a ``ManualClock``.
"""

import random

import pytest

from repro.faults.policies import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    RetryPolicy,
)
from repro.util.clock import ManualClock
from repro.util.rng import RandomStream

pytestmark = pytest.mark.chaos

SEEDS = range(40)


def random_policy(rng: random.Random) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=rng.randint(1, 6),
        base_delay=rng.uniform(0.0, 0.1),
        multiplier=1.0 + rng.random() * 3.0,
        max_delay=rng.uniform(0.05, 0.5),
        jitter=rng.random(),
    )


class TestBackoffProperties:
    def test_schedule_monotone_bounded_right_length(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            policy = random_policy(rng)
            schedule = policy.delays(random.Random(seed))
            assert len(schedule) == policy.max_attempts - 1
            assert all(later >= earlier for earlier, later
                       in zip(schedule, schedule[1:])), (seed, schedule)
            bound = policy.max_delay * (1.0 + policy.jitter)
            assert all(0.0 <= delay <= bound + 1e-12
                       for delay in schedule), (seed, schedule)

    def test_schedule_deterministic_per_seed(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.02,
                             multiplier=2.0, max_delay=0.3, jitter=0.25)
        for seed in SEEDS:
            first = policy.delays(random.Random(seed))
            second = policy.delays(random.Random(seed))
            assert first == second

    def test_live_and_sim_jitter_streams_agree(self):
        """The live LeaseManager and the sim harness both draw from
        ``RandomStream(seed, "retry-jitter")``: equal seeds must yield
        the identical schedule sequence."""
        policy = RetryPolicy(max_attempts=4, base_delay=0.01,
                             multiplier=2.0, max_delay=0.2, jitter=0.5)
        for seed in SEEDS:
            live = RandomStream(seed, "retry-jitter")
            sim = RandomStream(seed, "retry-jitter")
            for _ in range(10):
                assert policy.delays(live) == policy.delays(sim)

    def test_zero_jitter_is_pure_clamped_exponential(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.01,
                             multiplier=2.0, max_delay=0.05, jitter=0.0)
        schedule = policy.delays(random.Random(0))
        assert schedule == [0.01, 0.02, 0.04, 0.05]


def protocol_run(breaker: CircuitBreaker, clock: ManualClock,
                 rng: random.Random, steps: int, failure_rate: float):
    """Drive the breaker like a stream of pool acquires would."""
    for _ in range(steps):
        state_before = breaker.state
        allowed = breaker.allow()
        if state_before is BreakerState.CLOSED:
            assert allowed, "breaker fast-failed while CLOSED"
        if allowed:
            if rng.random() < failure_rate:
                breaker.record_failure()
            else:
                breaker.record_success()
        if rng.random() < 0.3:
            clock.advance(rng.uniform(0.0, breaker.config.recovery_timeout))


class TestBreakerProperties:
    def test_never_fast_fails_while_closed(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            clock = ManualClock()
            breaker = CircuitBreaker(BreakerConfig(
                failure_threshold=rng.randint(1, 6),
                recovery_timeout=rng.uniform(0.5, 10.0),
            ), clock=clock)
            protocol_run(breaker, clock, rng, steps=300,
                         failure_rate=rng.random())

    def test_below_threshold_failures_never_open(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            clock = ManualClock()
            threshold = rng.randint(2, 6)
            breaker = CircuitBreaker(
                BreakerConfig(failure_threshold=threshold), clock=clock)
            for _ in range(50):
                # threshold-1 consecutive failures, then a success that
                # resets the streak: the breaker must stay closed.
                for _ in range(threshold - 1):
                    assert breaker.allow()
                    breaker.record_failure()
                assert breaker.allow()
                breaker.record_success()
                assert breaker.state is BreakerState.CLOSED

    def test_open_blocks_exactly_until_recovery_timeout(self):
        clock = ManualClock()
        breaker = CircuitBreaker(BreakerConfig(
            failure_threshold=2, recovery_timeout=5.0), clock=clock)
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(4.999)
        assert not breaker.allow()
        clock.advance(0.001)
        assert breaker.allow()  # half-open probe admitted
        assert breaker.state is BreakerState.HALF_OPEN

    def test_successful_probe_always_recloses(self):
        """Whatever failure storm opened it: once the window elapses
        and the half-open probes succeed, the breaker is CLOSED and
        admitting traffic again."""
        for seed in SEEDS:
            rng = random.Random(seed)
            clock = ManualClock()
            config = BreakerConfig(
                failure_threshold=rng.randint(1, 5),
                recovery_timeout=rng.uniform(0.5, 10.0),
                half_open_successes=rng.randint(1, 3),
            )
            breaker = CircuitBreaker(config, clock=clock)
            protocol_run(breaker, clock, rng, steps=rng.randint(10, 200),
                         failure_rate=1.0)
            clock.advance(config.recovery_timeout + 0.001)
            for _ in range(config.half_open_successes):
                assert breaker.allow()
                breaker.record_success()
            assert breaker.state is BreakerState.CLOSED
            assert breaker.allow()
            breaker.record_success()

    def test_failed_probe_reopens_for_a_full_window(self):
        clock = ManualClock()
        breaker = CircuitBreaker(BreakerConfig(
            failure_threshold=1, recovery_timeout=3.0), clock=clock)
        assert breaker.allow()
        breaker.record_failure()
        clock.advance(3.5)
        assert breaker.allow()  # probe
        breaker.record_failure()  # probe fails: straight back to OPEN
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(3.0)
        clock.advance(3.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_single_probe_in_flight_at_a_time(self):
        clock = ManualClock()
        breaker = CircuitBreaker(BreakerConfig(
            failure_threshold=1, recovery_timeout=1.0), clock=clock)
        assert breaker.allow()
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # concurrent request: keep shedding
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_report_counts_each_state_entered(self):
        """The report keeps a count per state entered, not a log: a
        failed probe enters OPEN a second time."""
        clock = ManualClock()
        breaker = CircuitBreaker(BreakerConfig(
            failure_threshold=1, recovery_timeout=1.0), clock=clock)
        assert breaker.report() == {"state": "closed", "transitions": {}}
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()  # probe fails: OPEN again
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.report() == {
            "state": "closed",
            "transitions": {"closed": 1, "half_open": 2, "open": 2},
        }
