"""Micro-batching inference service for trained GENERIC models.

This subpackage turns the repo's single-call ``predict()`` APIs into a
*service*: a bounded request queue, a micro-batcher that coalesces
requests for batched encode + packed Hamming search, a hot-swappable
model registry, and an adaptive load-shedding policy that degrades
gracefully under overload by dropping prediction dimensionality in
128-dim steps -- the paper's Section 4.3.3 on-demand dimension
reduction with exact :class:`~repro.core.norms.SubNormTable` prefix
norms, driven by live load instead of a static spec.

Entry points:

- :class:`Server` -- the serving core (admission, batching, retry/expiry,
  resolution, supervision) over a pluggable executor;
  :class:`InferenceServer` / :class:`ServeConfig` run it on worker
  threads, :class:`ShardedServer` / :class:`ShardedServeConfig` on
  shard processes;
- :class:`ModelRegistry` / :class:`Deployment` -- named model versions;
- :class:`LoadShedPolicy` -- the queue-depth/p95 shed controller;
- :mod:`repro.serve.resilience` -- circuit breakers, deadline/retry
  handling, graceful-degradation tiers and the :class:`ChaosPolicy`
  fault-injection harness;
- :mod:`repro.serve.bench` (``python -m repro.serve.bench``) -- the
  open-loop Poisson traffic harness.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.errors import (
    Backpressure,
    DeadlineExceeded,
    InjectedFault,
    RetriesExhausted,
    ServeError,
    WorkerError,
    WorkerKilled,
)
from repro.serve.policy import LoadShedPolicy, SlidingWindow
from repro.serve.queue import QueueClosed, QueueFull, Request, RequestQueue
from repro.serve.registry import Deployment, ModelRegistry
from repro.serve.resilience import (
    BreakerConfig,
    ChaosPolicy,
    CircuitBreaker,
    DegradationLadder,
    DegradeConfig,
    RetryPolicy,
    RetryScheduler,
)
from repro.serve.server import (
    STATS_OPTIONAL_KEYS,
    STATS_REQUIRED_KEYS,
    Executor,
    InferenceServer,
    Prediction,
    ServeConfig,
    Server,
    ThreadExecutor,
    validate_stats,
)
from repro.serve.sharded import (
    ProcessExecutor,
    ShardedServeConfig,
    ShardedServer,
    ShardRouter,
)

__all__ = [
    "Backpressure",
    "BreakerConfig",
    "ChaosPolicy",
    "CircuitBreaker",
    "DeadlineExceeded",
    "DegradationLadder",
    "DegradeConfig",
    "Deployment",
    "Executor",
    "InferenceServer",
    "InjectedFault",
    "LoadShedPolicy",
    "MicroBatcher",
    "ModelRegistry",
    "Prediction",
    "ProcessExecutor",
    "QueueClosed",
    "QueueFull",
    "Request",
    "RequestQueue",
    "RetriesExhausted",
    "RetryPolicy",
    "RetryScheduler",
    "STATS_OPTIONAL_KEYS",
    "STATS_REQUIRED_KEYS",
    "ServeConfig",
    "ServeError",
    "Server",
    "ShardRouter",
    "ShardedServeConfig",
    "ShardedServer",
    "SlidingWindow",
    "ThreadExecutor",
    "validate_stats",
    "WorkerError",
    "WorkerKilled",
]
