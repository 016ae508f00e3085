"""Deterministic fault injection and the resilience policies it tests.

See :mod:`repro.faults.plan` for the injection engine (FaultPlan /
FaultRule / FaultAction and the named sites) and
:mod:`repro.faults.policies` for deadlines, retry/backoff, the
circuit breaker, degraded serving, and the :class:`Resilience` wiring
both the live servers and the simulator run them through.
"""

from repro.faults.errors import (
    CircuitOpenError,
    DeadlineExpiredError,
    InjectedFault,
    WorkerCrashError,
)
from repro.faults.plan import (
    ALL_SITES,
    SITE_DB_QUERY,
    SITE_POOL_ACQUIRE,
    SITE_RENDER,
    SITE_SOCKET_READ,
    SITE_SOCKET_WRITE,
    SITE_WORKER,
    FaultAction,
    FaultDecision,
    FaultPlan,
    FaultRule,
)
from repro.faults.policies import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    Resilience,
    ResilienceConfig,
    RetryPolicy,
)

__all__ = [
    "ALL_SITES",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExpiredError",
    "FaultAction",
    "FaultDecision",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "Resilience",
    "ResilienceConfig",
    "RetryPolicy",
    "SITE_DB_QUERY",
    "SITE_POOL_ACQUIRE",
    "SITE_RENDER",
    "SITE_SOCKET_READ",
    "SITE_SOCKET_WRITE",
    "SITE_WORKER",
    "WorkerCrashError",
]
