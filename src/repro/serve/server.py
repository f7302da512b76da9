"""The serving core: one :class:`Server` over a pluggable executor.

Every serving backend is the same control plane with a different
executor behind it::

    submit() --> RequestQueue --> MicroBatcher --> Server._take --> executor
                     |                 |           (group by model,     |
                 (bounded:      (sheds expired     expire, queue_wait)  | runs the batch on
                  rejects        requests)                              | one slot against the
                  when full)         ^                                  | stamped model version
                     |               |                                  v
                 RetryScheduler <----+------ Server._fail_or_retry <-- error
                 (backed-off retries re-enter)  Server._resolve    <-- labels --> Future

:class:`Server` owns admission (``submit``/``predict*``/
``predict_encoded``), per-model grouping with deadline expiry, the
chaos hook, the one resolve path (latency histograms, shed policy and
SLO feeds, the ``serve.request`` span, :class:`Prediction`), the one
retry/fail and expiry path, the supervisor (respawn, breaker gauges,
:class:`~repro.serve.resilience.degrade.DegradationLadder`, SLO
evaluation), ``stats()`` and the metrics endpoint.  An executor only
places a batch on a *slot* (a worker thread or a shard process), runs
it, and reports labels or an error back:

- :class:`ThreadExecutor` (:class:`InferenceServer`) -- ``n_workers``
  threads, each pulling batches and running ``dep.encode`` +
  ``dep.search`` inline under ``dep.serving()``;
- :class:`~repro.serve.sharded.server.ProcessExecutor`
  (:class:`~repro.serve.sharded.server.ShardedServer`) -- shard
  processes over one shared-memory model image.

Usage::

    server = InferenceServer(ServeConfig(max_batch=64, n_workers=2))
    server.register("mnist", trained_classifier)
    with server:
        fut = server.submit("mnist", x, deadline=0.05)   # async, 50 ms budget
        pred = fut.result()                   # Prediction(label=..., dim=...)
        label = server.predict("mnist", x)    # sync convenience
    print(server.stats())

At full dimensionality the served predictions are bit-identical to
calling the underlying model directly; under overload the policy sheds
dimensions in 128-dim steps and predictions keep using the exact
:class:`~repro.core.norms.SubNormTable` prefix norms.

Resilience semantics (see :mod:`repro.serve.resilience`): per-request
deadlines propagate through the queue and batcher to the slots;
retryable failures re-enter the queue with exponential backoff while
the deadline budget allows; each slot's circuit breaker opens on
sustained errors/latency and the ladder converts breaker state into the
paper's graceful-degradation knobs (engine fallback, forced dimension
shedding, and finally :class:`~repro.serve.errors.Backpressure`).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs import distributed as obs_distributed
from repro.obs import trace as obs_trace
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import Registry
from repro.obs.slo import SLOEngine, SLObjective
from repro.serve.batcher import MicroBatcher
from repro.serve.errors import (
    Backpressure,
    DeadlineExceeded,
    RetriesExhausted,
    ServeError,
    WorkerError,
    WorkerKilled,
)
from repro.serve.policy import LoadShedPolicy
from repro.serve.queue import QueueClosed, QueueFull, Request, RequestQueue
from repro.serve.registry import Deployment, Model, ModelRegistry
from repro.serve.resilience.breaker import BreakerConfig, CircuitBreaker
from repro.serve.resilience.degrade import DegradationLadder, DegradeConfig
from repro.serve.resilience.retry import RetryPolicy, RetryScheduler

#: seconds between stop-flag checks of idle loops (workers, supervisor)
POLL = 0.05


@dataclass
class ServeConfig:
    """All serving knobs in one place (defaults favor small test rigs).

    Compute settings are not serving knobs: the encode engine is the
    deployed model's encoder's own, and ``encode_jobs`` comes from the
    model's :class:`~repro.core.config.ComputeConfig`.
    """

    max_batch: int = 32          # micro-batch size cap
    max_wait: float = 0.002      # linger (s) after the first request of a batch
    n_workers: int = 2
    queue_size: int = 1024       # admission bound; beyond it -> QueueFull
    # -- load shedding ------------------------------------------------------
    max_shed_level: int = 24     # each level drops 128 dims (clamped per model)
    queue_high: int = 32         # shed when depth reaches this
    queue_low: int = 2           # recover only at/below this (hysteresis)
    p95_target: Optional[float] = None   # optional latency SLO in seconds
    shed_cooldown: float = 0.05  # min seconds between level changes
    latency_window: int = 256    # recent samples for the policy's p95
    # -- deadlines & retries ------------------------------------------------
    default_deadline: Optional[float] = None  # per-request budget (seconds)
    max_retries: int = 2         # retryable-failure re-attempts per request
    retry_backoff: float = 0.002        # first backoff (seconds)
    retry_backoff_factor: float = 2.0   # exponential growth per attempt
    retry_max_backoff: float = 0.25     # backoff ceiling (seconds)
    # -- circuit breaking & degradation -------------------------------------
    breaker: Optional[BreakerConfig] = None   # None -> BreakerConfig()
    degrade: Optional[DegradeConfig] = None   # None -> DegradeConfig()
    # -- observability -------------------------------------------------------
    #: service-level objectives (repro.obs.slo.SLObjective); scored per
    #: request, evaluated by the supervisor, surfaced in stats()["slo"]
    #: and Prometheus, and -- when an objective names a degrade_tier --
    #: driving the degradation ladder pre-emptively on budget burn
    slos: Optional[Sequence[SLObjective]] = None
    #: directory for flight-recorder postmortem bundles; None keeps the
    #: recorder in-memory only (dump() still works with explicit paths)
    postmortem_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.breaker is None:
            self.breaker = BreakerConfig()
        if self.degrade is None:
            self.degrade = DegradeConfig()


@dataclass
class Prediction:
    """What a resolved request future holds."""

    label: object
    model: str
    version: int
    dim: int
    shed_level: int
    latency: float
    #: retries burned before this answer (0 = served first try)
    attempts: int = 0
    #: shard process that served the request (None on the thread server)
    shard: Optional[int] = None
    #: 16-hex trace id when the request was traced (None otherwise) --
    #: the key to find this request's spans in an exported JSONL trace
    trace_id: Optional[str] = None


@dataclass(eq=False)
class Batch:
    """One model's live requests of a micro-batch, on their way to a slot.

    :meth:`Server._take` builds it; the executor fills in where it ran
    (``slot``) and what it ran against (``version``/``dim``/
    ``full_dim``/``shed_level``) before handing it to
    :meth:`Server._resolve`.
    """

    model: str
    requests: List[Request]
    #: when the batch left the queue (queue_wait ends, serve time starts)
    t_start: float
    #: the first traced request's TraceContext: the batch's spans parent
    #: under it (None when no request is traced)
    ctx: Optional[object] = None
    slot: int = 0
    version: int = 0
    dim: int = 0
    full_dim: int = 0
    shed_level: int = 0


#: every backend's ``stats()`` must carry exactly these top-level keys
STATS_REQUIRED_KEYS = frozenset({
    "counters", "gauges", "histograms",          # the metric families
    "queue", "policy", "deployments",            # serving state
    "resilience", "slo", "recorder",             # failure-handling state
})

#: a sharded backend may additionally carry these (and only these)
STATS_OPTIONAL_KEYS = frozenset({"shards", "shard_metrics", "router"})

#: per-entry schema of the nested required dicts
_QUEUE_KEYS = frozenset({"depth", "maxsize"})
_POLICY_KEYS = frozenset({
    "level", "max_level_seen", "shed_events", "recover_events",
    "recent_p95_s",
})
_RESILIENCE_KEYS = frozenset({
    "breakers", "ladder", "retry", "worker_restarts", "chaos",
})
#: every deployment entry carries at least these (executors may add
#: more, e.g. the shard processes' segment/epoch/model_bytes)
_DEPLOYMENT_KEYS = frozenset({
    "kind", "dim", "min_dim", "version", "serving_dim", "degraded",
})


def validate_stats(snap: Dict) -> None:
    """Raise ``ValueError`` unless ``snap`` conforms to the stats schema.

    Checked by the conformance test against both executors, and usable
    by any consumer that wants to fail fast on a foreign snapshot.
    """
    keys = set(snap)
    missing = STATS_REQUIRED_KEYS - keys
    if missing:
        raise ValueError(f"stats() missing required keys: {sorted(missing)}")
    unknown = keys - STATS_REQUIRED_KEYS - STATS_OPTIONAL_KEYS
    if unknown:
        raise ValueError(f"stats() has unknown top-level keys: "
                         f"{sorted(unknown)}")
    for key, want in (("queue", _QUEUE_KEYS), ("policy", _POLICY_KEYS),
                      ("resilience", _RESILIENCE_KEYS)):
        if set(snap[key]) != want:
            raise ValueError(f"stats()[{key!r}] keys {sorted(snap[key])} "
                             f"!= {sorted(want)}")
    for name, dep in snap["deployments"].items():
        short = _DEPLOYMENT_KEYS - set(dep)
        if short:
            raise ValueError(
                f"stats()['deployments'][{name!r}] missing {sorted(short)}")


class Executor:
    """Where batches run: the contract :class:`Server` drives.

    An executor has ``n_slots`` slots (threads or processes) named by
    ``slot_label``.  It pulls batches through :meth:`Server._pump`,
    runs each on a slot against the model version it stamps on the
    :class:`Batch`, and reports back with :meth:`Server._resolve`,
    :meth:`Server._fail` or :meth:`Server._fail_or_retry`.  The
    defaults below are the no-op answers of an executor without
    processes to supervise or extra state to report.
    """

    slot_label = "worker"
    #: whether :attr:`Prediction.shard` names the slot that answered
    reports_shard = False
    n_slots = 1
    #: the server driving this executor (set by :class:`Server`)
    server: "Server"

    def start(self) -> None:
        raise NotImplementedError

    def stop(self, timeout: Optional[float]) -> List[Request]:
        """Join the slots; return requests still in flight (to fail)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources that outlive :meth:`stop` (shared memory)."""

    def respawn_dead(self) -> List[Dict]:
        """Restart dead slots; one event-field dict per restart."""
        return []

    def kill(self, slot: int) -> None:
        """Act out a chaos kill of ``slot`` (its batch is already failed)."""

    def tick(self) -> None:
        """Per-supervisor-round housekeeping."""

    def busy_seconds(self) -> List[float]:
        raise NotImplementedError

    def annotate_stats(self, snap: Dict) -> None:
        """Add executor-specific fields to a ``stats()`` snapshot."""

    def render_prometheus(self) -> str:
        return ""


class Server:
    """Micro-batching, load-shedding, fault-tolerant HDC prediction service.

    Subclasses pick the executor and how a model is deployed
    (:meth:`register` / :meth:`swap`); everything else is here, once.
    ``chaos`` (a :class:`~repro.serve.resilience.chaos.ChaosPolicy`)
    attaches the fault-injection harness; production servers leave it
    ``None`` and pay only a few no-op checks per batch.
    """

    def __init__(self, config: ServeConfig, executor: Executor,
                 chaos=None):
        self.config = c = config
        self.chaos = chaos
        self.executor = executor
        #: the server's own metric registry (concurrent servers in one
        #: process must not mix series); label-less families proxy
        #: ``inc``/``set``/``record`` to their single child
        self.metrics = Registry(namespace="serve")
        self.registry = ModelRegistry()
        self.policy = LoadShedPolicy(
            max_level=c.max_shed_level, queue_high=c.queue_high,
            queue_low=c.queue_low, p95_target=c.p95_target,
            cooldown=c.shed_cooldown, window=c.latency_window,
        )
        self.queue = RequestQueue(maxsize=c.queue_size)
        # the batcher sheds expired requests straight into the
        # DeadlineExceeded path instead of batching them
        self.batcher = MicroBatcher(
            self.queue, max_batch=c.max_batch, max_wait=c.max_wait,
            on_expired=self.expire_request,
        )
        self.ladder = DegradationLadder(
            self.registry, self.policy, metrics=self.metrics,
            config=c.degrade,
        )
        self.retry_policy = RetryPolicy(
            max_retries=c.max_retries, backoff=c.retry_backoff,
            backoff_factor=c.retry_backoff_factor,
            max_backoff=c.retry_max_backoff,
        )
        self.scheduler = RetryScheduler(self.queue)
        self.recorder = FlightRecorder(dir=c.postmortem_dir)
        self.slo = (SLOEngine(c.slos, registry=self.metrics,
                              ladder=self.ladder)
                    if c.slos else None)
        label = executor.slot_label
        self.breakers = [CircuitBreaker(c.breaker, name=f"{label}-{i}")
                         for i in range(executor.n_slots)]
        self._breaker_gauge = self.metrics.gauge(
            "breaker_state", help=f"0=closed 1=half-open 2=open, per {label}",
            labels=(label,),
        )
        # every admitted request ends in exactly one of the last three
        self._submitted, self._served, self._errors, self._expired = (
            self.metrics.counter(name).labels() for name in
            ("submitted", "served", "errors", "deadline_expired"))
        self.worker_restarts = 0
        #: requests answered per slot, counted where ``served`` is, so
        #: the two always reconcile
        self._served_by_slot = [0] * executor.n_slots
        self._slot_lock = threading.Lock()
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._started = False
        self._metrics_endpoint = None
        executor.server = self

    # -- deployments (register/swap: the subclasses) -------------------------

    def _set_version(self, name: str, version: int) -> None:
        self.metrics.gauge(
            "model_version", help="deployed model version", labels=("model",),
        ).labels(model=name).set(version)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Server":
        if self._started:
            raise RuntimeError("server already started")
        self._stop.clear()
        self.executor.start()
        self._started = True
        # the flight recorder rides the trace-sink interface: while
        # tracing is enabled the span ring fills for free; the event
        # ring fills regardless
        obs_trace.add_sink(self.recorder)
        self.scheduler.start()
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-supervisor", daemon=True)
        self._supervisor.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Stop admitting work, drain the executor, fail leftover futures."""
        if self._metrics_endpoint is not None:
            self._metrics_endpoint.close()
            self._metrics_endpoint = None
        if not self._started:
            self.executor.close()
            return
        obs_trace.remove_sink(self.recorder)
        self.queue.close()
        self._stop.set()
        supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            supervisor.join(timeout=timeout)
        in_flight = self.executor.stop(timeout)
        self.scheduler.stop(timeout=timeout)
        err = QueueClosed("server stopped before request was served")
        for req in itertools.chain(in_flight, self.queue.drain()):
            if not req.future.done():
                req.future.set_exception(err)
        self.executor.close()
        self._started = False

    def __enter__(self):
        return self if self._started else self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- admission -----------------------------------------------------------

    def submit(self, model: str, x: np.ndarray,
               deadline: Optional[float] = None) -> "Future[Prediction]":
        """Enqueue one prediction; returns a future of :class:`Prediction`.

        ``deadline`` is a per-request latency budget in seconds
        (defaults to ``config.default_deadline``); once it expires the
        request is shed with :class:`~repro.serve.errors.
        DeadlineExceeded` instead of served.  Raises
        :class:`~repro.serve.queue.QueueFull` when the bounded queue
        rejects the request and its subclass :class:`~repro.serve.
        errors.Backpressure` at the ladder's rejecting tier.
        """
        if not self._started:
            raise RuntimeError(
                f"{type(self).__name__}.submit() before start()")
        if model not in self.registry:
            raise KeyError(
                f"no deployment named {model!r}; registered: "
                f"{self.registry.names()}"
            )
        if self.ladder.rejecting:
            self.metrics.counter("degraded_rejections").inc()
            raise Backpressure(
                "server is at degradation tier "
                f"{self.ladder.tier} ({self.ladder.tier_name}); "
                "request rejected"
            )
        if deadline is None:
            deadline = self.config.default_deadline
        abs_deadline = (None if deadline is None
                        else time.monotonic() + deadline)
        # mint the request's distributed trace identity only while
        # tracing is on: the untraced path stays id-allocation free
        ctx = (obs_distributed.new_trace()
               if obs_trace.tracing_enabled() else None)
        req = Request(x=np.asarray(x, dtype=np.float64), model=model,
                      deadline=abs_deadline, ctx=ctx)
        try:
            self.queue.put(req)
        except QueueFull:
            self.metrics.counter("rejected").inc()
            raise
        self._submitted.inc()
        return req.future

    def asubmit(self, model: str, x: np.ndarray,
                deadline: Optional[float] = None) -> "asyncio.Future":
        """``await``-able submit: the same future, asyncio-wrapped."""
        return asyncio.wrap_future(self.submit(model, x, deadline=deadline))

    async def apredict(self, model: str, x: np.ndarray,
                       deadline: Optional[float] = None) -> object:
        """Async single prediction; returns the label only."""
        return (await self.asubmit(model, x, deadline=deadline)).label

    def predict(self, model: str, x: np.ndarray,
                timeout: Optional[float] = None,
                deadline: Optional[float] = None) -> object:
        """Synchronous single prediction; returns the label only."""
        return self.submit(model, x, deadline=deadline).result(
            timeout=timeout
        ).label

    def predict_many(
        self, model: str, X: Sequence[np.ndarray],
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> List[Prediction]:
        """Submit a whole batch and gather the resolved predictions."""
        futures = [self.submit(model, x, deadline=deadline)
                   for x in np.atleast_2d(np.asarray(X))]
        return [f.result(timeout=timeout) for f in futures]

    def predict_encoded(self, model: str, encodings: np.ndarray,
                        dim: Optional[int] = None) -> np.ndarray:
        """Search pre-encoded queries against the current model version.

        The registry side-door: runs stage-2 associative search
        directly on the caller's thread, bypassing the queue, batcher,
        shedding and retry machinery.  ``encodings`` must be the
        deployment's stage-1 representation (float encodings for a
        classifier deployment, packed query words for a packed one --
        i.e. whatever :meth:`~repro.serve.registry.Deployment.encode`
        produces).  The call is bracketed with
        :meth:`~repro.serve.registry.Deployment.serving`, so drained
        hot swaps still account for it.  Used by the fleet aggregator's
        between-round evaluation and by offline replay tooling; live
        traffic should go through :meth:`submit`.
        """
        dep = self.registry.get(model)
        with dep.serving():
            return dep.search(np.atleast_2d(np.asarray(encodings)), dim=dim)

    # -- the batch path (called from executor threads) -----------------------

    def _pump(self, run, breaker: Optional[CircuitBreaker] = None) -> None:
        """Pull micro-batches until stopped; ``run`` gets each one's groups.

        With a ``breaker`` the caller sits out while it is open, leaving
        the shared queue to the other slots.  After every batch the shed
        policy observes the depth the batch left behind.
        """
        while True:
            if breaker is not None and not breaker.allow():
                if self._stop.is_set() or self.queue.closed:
                    return
                time.sleep(POLL)
                continue
            requests = self.batcher.next_batch(timeout=POLL)
            if not requests:
                if self._stop.is_set() or self.queue.closed:
                    return
                continue
            run(self._take(requests))
            depth = self.queue.depth()
            self.metrics.gauge("shed_level").set(self.policy.observe(depth))
            self.metrics.gauge("queue_depth").set(depth)

    def _take(self, requests: List[Request]) -> List[Batch]:
        """Group a micro-batch by model, shedding requests already expired."""
        self.metrics.histogram("batch_size").record(len(requests))
        by_model: Dict[str, List[Request]] = {}
        for req in requests:
            by_model.setdefault(req.model, []).append(req)
        now = time.monotonic()
        queue_wait = self.metrics.histogram("queue_wait")
        batches = []
        for model, group in by_model.items():
            live = []
            for req in group:
                if req.expired(now):
                    self.expire_request(req)
                    continue
                queue_wait.record(now - req.enqueue_t)
                live.append(req)
            if live:
                ctx = next((r.ctx for r in live if r.ctx is not None), None)
                batches.append(Batch(model, live, now, ctx))
        return batches

    def _chaos(self, batch: Batch) -> bool:
        """Run the chaos hook for a placed batch; False if it failed it."""
        if self.chaos is None:
            return True
        try:
            # may sleep, raise InjectedFault, or raise WorkerKilled
            self.chaos.on_group(batch.slot, batch.model)
            return True
        except ServeError as exc:
            self._fail(batch, exc)
        except WorkerKilled:
            self._kill(batch)
        return False

    def _kill(self, batch: Batch) -> None:
        """A chaos kill of the batch's slot: postmortem, then retry it."""
        label, slot = self.executor.slot_label, batch.slot
        self.metrics.counter("worker_kills").inc()
        affected = None
        if batch.ctx is not None:
            affected = obs_distributed.fmt_id(batch.ctx.trace_id)
            # the affected batch's failed dispatch bracket: puts the
            # trace into the recorder's ring *before* the bundle
            # snapshot, so the postmortem leads with it
            obs_trace.emit_span(
                "serve.dispatch", time.monotonic() - batch.t_start,
                attrs={"model": batch.model, label: slot,
                       "error": "worker_kill"},
                ctx=batch.ctx,
            )
        self.recorder.record_event("worker_kill", model=batch.model,
                                   trace_id=affected, **{label: slot})
        self.recorder.dump(
            "worker_kill", trace_id=affected,
            extra={label: slot, "model": batch.model,
                   "batch": len(batch.requests)},
        )
        self._fail(batch, WorkerError(
            f"{label} {slot} killed by chaos policy",
            model=batch.model, worker=slot, retryable=True,
        ))
        self.executor.kill(slot)

    def _resolve(self, batch: Batch, labels) -> None:
        """Answer every request of a served batch."""
        done = time.monotonic()
        n = len(batch.requests)
        label_key, slot = self.executor.slot_label, batch.slot
        self.metrics.histogram("serve_seconds").record(done - batch.t_start)
        if batch.dim < batch.full_dim:
            self.metrics.counter("shed_predictions").inc(n)
        # count before the futures resolve: a caller that sees its
        # answer also sees it counted
        self._served.inc(n)
        with self._slot_lock:
            self._served_by_slot[slot] += n
        shard = slot if self.executor.reports_shard else None
        total = self.metrics.histogram("total")
        for req, label in zip(batch.requests, labels):
            latency = done - req.enqueue_t
            total.record(latency)
            self.policy.record_latency(latency)
            if self.slo is not None:
                self.slo.record(latency, ok=True)
            trace_id = None
            if req.ctx is not None:
                trace_id = obs_distributed.fmt_id(req.ctx.trace_id)
                # the trace's root span: the whole request, submit to
                # resolve, emitted with the span id minted at submit()
                # so every stage span already parents under it
                obs_trace.emit_span(
                    "serve.request", latency,
                    attrs={"model": batch.model, label_key: slot},
                    ctx=req.ctx, span_id=req.ctx.span_id,
                )
            if not req.future.done():
                req.future.set_result(Prediction(
                    label=label, model=batch.model, version=batch.version,
                    dim=batch.dim, shed_level=batch.shed_level,
                    latency=latency, attempts=req.attempts, shard=shard,
                    trace_id=trace_id,
                ))

    # -- failure disposition -------------------------------------------------

    def _fail(self, batch: Batch, exc: BaseException,
              latency: Optional[float] = None) -> None:
        """The batch failed on its slot: breaker, then retry or fail each."""
        err = self._wrap_error(batch.slot, batch.model, exc)
        self.breakers[batch.slot].record_failure(latency)
        for req in batch.requests:
            if not req.future.done():
                self._fail_or_retry(req, err)

    @staticmethod
    def _wrap_error(slot: int, model: str, exc: BaseException) -> ServeError:
        """Normalize whatever escaped the serve path into a ServeError."""
        if isinstance(exc, ServeError):
            if exc.worker is None:
                exc.worker = slot
            if exc.model is None:
                exc.model = model
            return exc
        # unknown model exceptions are treated as deterministic
        # (re-running the same batch would fail the same way)
        return WorkerError(
            f"{type(exc).__name__} while serving {model!r}: {exc}",
            model=model, worker=slot, retryable=False, cause=exc,
        )

    def _fail_or_retry(self, request: Request, err: ServeError) -> None:
        """Schedule a deadline-aware retry, or resolve the future failed."""
        now = time.monotonic()
        if self.retry_policy.should_retry(request, err, now):
            request.attempts += 1
            delay = self.retry_policy.delay_for(request.attempts)
            try:
                self.scheduler.schedule(request, delay, now)
                self.metrics.counter("retries").inc()
                return
            except QueueClosed:
                pass  # shutting down: fall through to a failed future
        self._errors.inc()
        if self.slo is not None:
            self.slo.record(now - request.enqueue_t, ok=False)
        if request.future.done():
            return
        final: ServeError = err
        if request.attempts > 0 and getattr(err, "retryable", False):
            final = RetriesExhausted(
                f"gave up on {request.model!r} after "
                f"{request.attempts + 1} attempts",
                model=request.model, worker=err.worker,
                attempts=request.attempts + 1, cause=err,
            )
        request.future.set_exception(final)

    def expire_request(self, request: Request) -> None:
        """Shed one expired request (also the batcher's on_expired hook)."""
        self._expired.inc()
        if self.slo is not None:
            self.slo.record(time.monotonic() - request.enqueue_t, ok=False)
        self.recorder.record_event(
            "deadline_expired", model=request.model,
            attempts=request.attempts,
            trace_id=(obs_distributed.fmt_id(request.ctx.trace_id)
                      if request.ctx is not None else None),
        )
        if not request.future.done():
            request.future.set_exception(DeadlineExceeded(
                f"deadline expired before {request.model!r} could serve "
                f"the request (after {request.attempts} retries)",
                model=request.model, attempts=request.attempts,
            ))

    # -- supervision ---------------------------------------------------------

    def _supervise(self) -> None:
        """Respawn dead slots, export breaker gauges, drive the ladder."""
        label = self.executor.slot_label
        prev_codes = [b.state_code for b in self.breakers]
        prev_tier = self.ladder.tier
        while not self._stop.wait(POLL):
            if self.queue.closed:
                return
            for event in self.executor.respawn_dead():
                self.worker_restarts += 1
                self.metrics.counter("worker_restarts").inc()
                self.recorder.record_event("worker_respawn", **event)
            for i, breaker in enumerate(self.breakers):
                code = breaker.state_code
                self._breaker_gauge.labels(**{label: str(i)}).set(code)
                if code != prev_codes[i]:
                    self.recorder.record_event(
                        "breaker_transition", state=breaker.state,
                        code=code, **{label: i},
                    )
                    prev_codes[i] = code
            self.ladder.observe(self.breakers)
            if self.slo is not None:
                self.slo.evaluate()
            tier = self.ladder.tier
            if tier != prev_tier:
                self.recorder.record_event(
                    "ladder_tier", old=prev_tier, new=tier)
                prev_tier = tier
            self.executor.tick()

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict:
        """JSON-serializable snapshot conforming to the stats schema.

        Top-level keys are exactly :data:`STATS_REQUIRED_KEYS` plus
        whatever subset of :data:`STATS_OPTIONAL_KEYS` the executor
        contributes -- checked by :func:`validate_stats` in the
        conformance tests.
        """
        snap = self.metrics.snapshot()
        snap["queue"] = {"depth": self.queue.depth(),
                         "maxsize": self.queue.maxsize}
        snap["policy"] = {
            "level": self.policy.level,
            "max_level_seen": self.policy.max_level_seen,
            "shed_events": self.policy.shed_events,
            "recover_events": self.policy.recover_events,
            "recent_p95_s": self.policy.recent_p95(),
        }
        snap["deployments"] = {}
        for name in self.registry.names():
            dep = self.registry.get(name)
            snap["deployments"][name] = {
                "kind": dep.kind,
                "dim": dep.dim,
                "min_dim": dep.min_dim,
                "version": dep.version,
                "serving_dim": dep.dim_for_level(self.policy.level),
                "degraded": dep.degraded,
            }
        snap["resilience"] = {
            "breakers": [b.stats() for b in self.breakers],
            "ladder": self.ladder.stats(),
            "retry": {
                "scheduled": self.scheduler.scheduled,
                "requeued": self.scheduler.requeued,
                "pending": self.scheduler.pending(),
            },
            "worker_restarts": self.worker_restarts,
            "chaos": self.chaos.stats() if self.chaos is not None else None,
        }
        snap["slo"] = self.slo.snapshot() if self.slo is not None else None
        snap["recorder"] = self.recorder.snapshot()
        self.executor.annotate_stats(snap)
        illegal = set(snap) - STATS_REQUIRED_KEYS - STATS_OPTIONAL_KEYS
        if illegal:
            raise RuntimeError(
                f"{type(self.executor).__name__} added keys outside the "
                f"stats schema: {sorted(illegal)}"
            )
        return snap

    def worker_utilization(self) -> Dict[str, List[float]]:
        """Per-slot busy seconds and requests answered (snapshot).

        ``served`` counts each request once, when it resolves, at the
        slot that answered it, so it sums to the ``served`` counter
        even when batches fail, retry or expire.
        """
        with self._slot_lock:
            served = list(self._served_by_slot)
        return {"busy_seconds": self.executor.busy_seconds(),
                "served": served}

    def render_prometheus(self) -> str:
        """Prometheus text-format exposition of the serving metrics.

        Queue depth, shed level and per-slot breaker state appear as
        the ``queue_depth`` / ``shed_level`` / ``breaker_state`` gauges;
        executors may append their own series (per-shard metrics).
        """
        return (self.metrics.render_prometheus()
                + self.executor.render_prometheus())

    def start_metrics_endpoint(self, host: str = "127.0.0.1",
                               port: int = 0):
        """Expose :meth:`render_prometheus` on an HTTP ``/metrics`` route.

        Returns the live :class:`~repro.obs.export.PrometheusEndpoint`
        (its ``url``/``port`` tell you where it bound; ``port=0`` picks
        a free one).  Closed automatically by :meth:`stop`.
        """
        if self._metrics_endpoint is not None:
            raise RuntimeError("metrics endpoint already started")
        from repro.obs.export import PrometheusEndpoint

        self._metrics_endpoint = PrometheusEndpoint(
            self.metrics, host=host, port=port
        )
        return self._metrics_endpoint

    def wait_idle(self, timeout: float = 10.0, poll: float = 0.005) -> bool:
        """Block until every admitted request was served, failed or expired."""
        deadline = time.monotonic() + timeout
        while True:
            settled = (self._served.value + self._errors.value
                       + self._expired.value)
            if (self.queue.depth() == 0 and self.scheduler.pending() == 0
                    and settled >= self._submitted.value):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(poll)


class ThreadExecutor(Executor):
    """``n_workers`` threads, each pulling batches and serving them inline.

    The encode stage runs on the engine the deployed model's encoder
    was built with: for the GENERIC encoders' default (``"auto"``) that
    is the bit-packed XOR kernel of :mod:`repro.core.kernels`, so the
    threads spend their time in GIL-releasing NumPy word ops.  A chaos kill ends the worker's
    thread the way a crash would; the supervisor respawns it.
    """

    def __init__(self, n_workers: int):
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self.n_slots = n_workers
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._busy = [0.0] * n_workers

    def start(self) -> None:
        with self._lock:
            self._threads = [self._spawn(i) for i in range(self.n_slots)]

    def _spawn(self, slot: int) -> threading.Thread:
        t = threading.Thread(target=self._work, args=(slot,),
                             name=f"serve-worker-{slot}", daemon=True)
        t.start()
        return t

    def stop(self, timeout: Optional[float]) -> List[Request]:
        with self._lock:
            threads, self._threads = self._threads, []
        for t in threads:
            t.join(timeout=timeout)
        return []

    @property
    def running(self) -> bool:
        with self._lock:
            return any(t.is_alive() for t in self._threads)

    def respawn_dead(self) -> List[Dict]:
        with self._lock:
            if self.server.queue.closed:
                return []  # workers exit on close; that is no crash
            dead = [i for i, t in enumerate(self._threads)
                    if not t.is_alive()]
            for i in dead:
                self._threads[i] = self._spawn(i)
        return [{"worker": i} for i in dead]

    def kill(self, slot: int) -> None:
        raise WorkerKilled(slot)

    def busy_seconds(self) -> List[float]:
        with self._lock:
            return list(self._busy)

    def _work(self, slot: int) -> None:
        try:
            self.server._pump(lambda batches: self._run(slot, batches),
                              breaker=self.server.breakers[slot])
        except WorkerKilled:
            pass  # the thread dies; the supervisor respawns a replacement

    def _run(self, slot: int, batches: List[Batch]) -> None:
        t0 = time.monotonic()
        try:
            for i, batch in enumerate(batches):
                batch.slot = slot
                try:
                    self._serve(batch)
                except WorkerKilled as kill:
                    # the rest of the micro-batch never ran: retry it
                    # on the surviving workers, never leave it hung
                    err = WorkerError(f"worker {slot} died mid-batch",
                                      worker=slot, retryable=True,
                                      cause=kill)
                    for rest in batches[i + 1:]:
                        for req in rest.requests:
                            self.server._fail_or_retry(req, err)
                    raise
        finally:
            busy = time.monotonic() - t0
            with self._lock:
                self._busy[slot] += busy

    def _serve(self, batch: Batch) -> None:
        server = self.server
        if not server._chaos(batch):
            return
        requests = batch.requests
        batch_attrs = {}
        if batch.ctx is not None:
            # a micro-batch coalesces many traces; its spans parent
            # under the leader and carry the other trace ids as links
            # so no trace is orphaned entirely
            links = [obs_distributed.fmt_id(r.ctx.trace_id)
                     for r in requests
                     if r.ctx is not None and r.ctx is not batch.ctx][:16]
            if links:
                batch_attrs["links"] = links
        try:
            dep = server.registry.get(batch.model)
            # serving() brackets the batch so ModelRegistry.swap can
            # drain this (possibly outgoing) version precisely
            with dep.serving(), obs_distributed.use_context(batch.ctx):
                level = server.policy.level
                dim = dep.dim_for_level(level)
                X = np.stack(
                    [np.asarray(r.x, dtype=np.float64) for r in requests])
                t0 = time.monotonic()
                with obs_trace.span("serve.encode", model=batch.model,
                                    batch=len(requests), **batch_attrs):
                    encoded = dep.encode(X)
                t1 = time.monotonic()
                fault_draw = (server.chaos.memory_fault(batch.slot)
                              if server.chaos is not None else None)
                with obs_trace.span("serve.search", model=batch.model,
                                    batch=len(requests), dim=dim,
                                    **batch_attrs) as sp:
                    if fault_draw is not None:
                        spec, rng = fault_draw
                        labels = dep.search(encoded, dim=dim, fault=spec,
                                            rng=rng)
                    else:
                        labels = dep.search(encoded, dim=dim)
                    if sp.recording:
                        # similarity against every class over the served
                        # prefix: one MAC per (request, class, dimension)
                        if dep.kind == "packed":
                            n_classes = len(dep.model.class_words)
                        else:
                            n_classes = dep.model.n_classes
                        macs = len(requests) * n_classes * dim
                        sp.add_ops(add_ops=macs, mul_ops=macs,
                                   mem_bytes=n_classes * dim * 8)
                t2 = time.monotonic()
        except Exception as exc:
            # structured failure: record on the breaker, then retry or
            # fail every future -- never leave one unresolved
            server._fail(batch, exc, time.monotonic() - batch.t_start)
            return
        server.breakers[batch.slot].record_success(t2 - batch.t_start)
        server.metrics.histogram("encode").record(t1 - t0)
        server.metrics.histogram("search").record(t2 - t1)
        batch.version, batch.dim, batch.full_dim, batch.shed_level = (
            dep.version, dim, dep.dim, level)
        server._resolve(batch, labels)


class InferenceServer(Server):
    """The serving core over worker threads (:class:`ThreadExecutor`)."""

    def __init__(self, config: Optional[ServeConfig] = None, chaos=None):
        config = config or ServeConfig()
        super().__init__(config, ThreadExecutor(config.n_workers), chaos)

    def register(self, name: str, model: Model,
                 min_dim: Optional[int] = None) -> Deployment:
        """Deploy (or hot-swap) ``model`` under ``name``.

        The deployment serves its own copy of ``model`` (see
        :class:`~repro.serve.registry.Deployment`) with the encode
        engine and ``encode_jobs`` the model was built with.
        """
        dep = self.registry.register(name, model, min_dim=min_dim)
        self._set_version(name, dep.version)
        return dep

    def swap(self, name: str, model: Model,
             dim_order: Optional[np.ndarray] = None,
             drain: bool = True,
             drain_timeout: Optional[float] = None) -> Deployment:
        """Hot-swap deployment ``name`` to a new model version.

        Thin wrapper over :meth:`ModelRegistry.swap` that also bumps
        the ``model_swaps`` counter and the per-model ``model_version``
        gauge.  ``drain=True`` (the default) blocks until batches in
        flight on the *old* version finish (at most ``drain_timeout``,
        5 s by default) -- new batches already pick up the new version
        the moment the registry entry flips.
        """
        dep = self.registry.swap(
            name, model, dim_order=dim_order, drain=drain,
            drain_timeout=5.0 if drain_timeout is None else drain_timeout,
        )
        self.metrics.counter("model_swaps").inc()
        self._set_version(name, dep.version)
        return dep
