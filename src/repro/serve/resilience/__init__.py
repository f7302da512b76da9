"""Resilient serving: fault injection, deadlines/retries, circuit breaking.

GENERIC's headline claim is that HDC is *error-resilient*: the paper
over-scales the class-memory voltage, tolerates percent-level bit flips
(Fig. 6) and drops dimensions on demand (Section 4.3.3) with graceful
accuracy loss.  This subpackage demonstrates that resilience where it
matters operationally -- on the serving path -- and adds the classic
service-hardening trio around it:

- :class:`~repro.serve.resilience.chaos.ChaosPolicy` -- a seeded
  fault-injection harness: worker exceptions, artificial latency,
  worker kills, and VOS-style memory bit flips driven by the unified
  :class:`~repro.hardware.faultspec.FaultSpec`;
- :class:`~repro.serve.resilience.breaker.CircuitBreaker` -- a
  per-worker closed/open/half-open state machine keyed on error rate
  and latency, so the pool routes around a failing worker;
- :class:`~repro.serve.resilience.retry.RetryScheduler` /
  :class:`~repro.serve.resilience.retry.RetryPolicy` -- deadline-aware
  retry with exponential backoff for retryable failures,
  shed-on-expiry for the rest;
- :class:`~repro.serve.resilience.degrade.DegradationLadder` -- tiers
  of graceful degradation (packed->reference engine fallback, then
  dimension shedding through the existing
  :class:`~repro.serve.policy.LoadShedPolicy`, then backpressure).

Everything is observable through :mod:`repro.obs`: breaker-state
gauges, retry/shed/fault counters, and a degradation-tier histogram
land in the server's metric registry (``server.metrics``).
"""

from repro.serve.errors import (
    Backpressure,
    DeadlineExceeded,
    InjectedFault,
    RetriesExhausted,
    ServeError,
    WorkerError,
    WorkerKilled,
)
from repro.serve.resilience.breaker import (
    BreakerConfig,
    CircuitBreaker,
    CLOSED,
    HALF_OPEN,
    OPEN,
)
from repro.serve.resilience.chaos import ChaosPolicy
from repro.serve.resilience.degrade import (
    DEGRADATION_TIERS,
    DegradationLadder,
    DegradeConfig,
)
from repro.serve.resilience.retry import RetryPolicy, RetryScheduler

__all__ = [
    "Backpressure",
    "BreakerConfig",
    "ChaosPolicy",
    "CircuitBreaker",
    "CLOSED",
    "DEGRADATION_TIERS",
    "DeadlineExceeded",
    "DegradationLadder",
    "DegradeConfig",
    "HALF_OPEN",
    "InjectedFault",
    "OPEN",
    "RetriesExhausted",
    "RetryPolicy",
    "RetryScheduler",
    "ServeError",
    "WorkerError",
    "WorkerKilled",
]
