"""Process-sharded inference server with zero-copy shared models.

:class:`ShardedServer` keeps the thread server's public surface
(``register`` / ``swap`` / ``submit`` / ``predict`` / ``stats`` /
``start``/``stop`` context manager) but moves the compute out of the
GIL::

    submit() -> RequestQueue -> MicroBatcher -> dispatcher thread
                                                     |  (mp.Queue, FIFO per shard)
                        +---------------+------------+----------+
                        v               v                       v
                   shard proc 0    shard proc 1   ...     shard proc N-1
                   (maps the ONE shared-memory model image read-only)
                        |               |                       |
                        +-------> result queue -> collector thread -> futures

Routing comes in two modes (see
:class:`~repro.serve.sharded.router.ShardRouter`): **replica** sends a
whole batch (encode + search) to one consistent-hash/least-loaded
shard; **partition** encodes on one shard, broadcasts the packed query
words, and exactly merges per-shard top-k scores -- bit-identical to
single-process :meth:`~repro.core.packed.PackedModel.predict_packed`.

Hot swap is epoch-based: ``swap()`` publishes the new model as a fresh
shared segment, enqueues a swap message on every shard's FIFO queue,
and unlinks the old segment only after every shard acks -- FIFO
ordering makes an ack a proof that all pre-swap batches were answered,
so a drained swap drops zero requests by construction.

Resilience is per-shard: each shard process has a circuit breaker
(crashes and errors open it; the router avoids open shards in replica
mode), a supervisor respawns dead processes onto the *same* queues
(undrained messages survive), and the
:class:`~repro.serve.resilience.degrade.DegradationLadder` drives
engine fallback across the process boundary via control messages.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import queue as std_queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.classifier import HDClassifier
from repro.core.packed import PackedModel
from repro.core.shared import SharedImageSpec, SharedModelArena
from repro.obs import distributed as obs_distributed
from repro.obs import trace as obs_trace
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import Registry
from repro.obs.slo import SLOEngine
from repro.serve.batcher import MicroBatcher
from repro.serve.errors import (
    RetriesExhausted,
    ServeError,
    WorkerError,
    WorkerKilled,
)
from repro.serve.metrics import MetricsHub
from repro.serve.policy import LoadShedPolicy
from repro.serve.queue import QueueClosed, Request, RequestQueue
from repro.serve.registry import Deployment, Model, ModelRegistry
from repro.serve.resilience.breaker import OPEN, BreakerConfig, CircuitBreaker
from repro.serve.resilience.degrade import DegradationLadder
from repro.serve.resilience.retry import RetryPolicy, RetryScheduler
from repro.serve.server import ServeConfig
from repro.serve.sharded import proto
from repro.serve.sharded.router import ShardRouter
from repro.serve.sharded.worker import worker_main
from repro.serve.surface import ServingSurfaceBase
from repro.serve.workers import Prediction

__all__ = ["ShardedServeConfig", "ShardedServer"]


@dataclass
class ShardedServeConfig(ServeConfig):
    """The thread server's knobs plus the process-sharding ones."""

    n_shards: int = 2
    #: "replica" (full model per shard) or "partition" (class-row slices)
    mode: str = "replica"
    #: per-shard top-k width in partition mode (1 is enough for argmin)
    topk: int = 1
    #: multiprocessing start method ("spawn" is safe with parent threads)
    start_method: str = "spawn"
    #: seconds to wait for every shard's swap ack before giving up on
    #: unlinking the old segment (it is then reclaimed at stop())
    swap_ack_timeout: float = 10.0
    #: seconds stats() waits for worker snapshots
    stats_timeout: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.mode not in ("replica", "partition"):
            raise ValueError(
                f"mode must be 'replica' or 'partition', got {self.mode!r}"
            )


class ShardedServer(ServingSurfaceBase):
    """Micro-batching HDC service over N worker *processes*.

    The second :class:`~repro.serve.surface.ServingSurface` backend:
    the same call surface as :class:`~repro.serve.server.
    InferenceServer` (request admission, predict conveniences and the
    ``stats()`` schema are literally shared via
    :class:`~repro.serve.surface.ServingSurfaceBase`), so
    :class:`~repro.stream.loop.StreamLoop`, the benches and the fleet
    aggregator drive either interchangeably.  Models are always served
    from their bit-packed form; registering an
    :class:`~repro.core.classifier.HDClassifier` packs it first
    (sharded serving is the binary deployment path).
    """

    def __init__(self, config: Optional[ShardedServeConfig] = None,
                 chaos=None):
        self.config = config or ShardedServeConfig()
        c = self.config
        self.chaos = chaos
        self.metrics = MetricsHub()
        #: parent-side mirror of the deployments (owned model copies);
        #: StreamLoop and the ladder read/drive this exactly as they
        #: would the thread server's registry
        self.registry = ModelRegistry()
        self.policy = LoadShedPolicy(
            max_level=c.max_shed_level, queue_high=c.queue_high,
            queue_low=c.queue_low, p95_target=c.p95_target,
            cooldown=c.shed_cooldown, window=c.latency_window,
        )
        self.queue = RequestQueue(maxsize=c.queue_size)
        self.batcher = MicroBatcher(
            self.queue, max_batch=c.max_batch, max_wait=c.max_wait
        )
        self.batcher.on_expired = self.expire_request
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
        self.slo = (SLOEngine(c.slos, registry=self.metrics.registry,
                              ladder=self.ladder)
                    if c.slos else None)
        self.breakers = [
            CircuitBreaker(c.breaker, name=f"shard-{i}")
            for i in range(c.n_shards)
        ]
        self._breaker_gauge = self.metrics.registry.gauge(
            "breaker_state", help="0=closed 1=half-open 2=open, per shard",
            labels=("shard",),
        )
        self.arena = SharedModelArena(prefix="shardsrv")
        self.router: Optional[ShardRouter] = None
        self._ctx = mp.get_context(c.start_method)
        self._task_queues = [self._ctx.Queue() for _ in range(c.n_shards)]
        self._result_queue = self._ctx.Queue()
        self._procs: List[Optional[mp.process.BaseProcess]] = (
            [None] * c.n_shards
        )
        self._specs: Dict[str, SharedImageSpec] = {}
        self._seq = itertools.count(1)
        self._pending: Dict[int, proto.PendingBatch] = {}
        self._plock = threading.Lock()
        self._acks: Dict[int, Dict] = {}
        self._stats_waiters: Dict[int, Dict] = {}
        self._engine_degraded: Dict[str, bool] = {}
        #: aggregated per-shard observability (absorbed worker registries)
        self.shard_registry = Registry(namespace="shard")
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self.worker_restarts = 0
        #: requests resolved per shard (the shard that answered them;
        #: in partition mode the one that encoded them), counted where
        #: the served counter is, so the two always reconcile
        self._served_by_shard = [0] * self.config.n_shards
        #: tracing state last propagated to the worker fleet; the
        #: supervisor forwards TRACE messages when the parent's flips
        self._trace_sent = False

    # -- deployments ---------------------------------------------------------

    @staticmethod
    def _pack(model: Model) -> PackedModel:
        if isinstance(model, PackedModel):
            return model
        if isinstance(model, HDClassifier):
            return PackedModel.from_classifier(model)
        raise TypeError(
            f"cannot shard-deploy {type(model).__name__}; expected "
            "HDClassifier or PackedModel"
        )

    def register(self, name: str, model: Model,
                 min_dim: Optional[int] = None) -> Deployment:
        """Deploy ``model`` on every shard (packed, one shared image)."""
        packed = self._pack(model)
        dep = self.registry.register(
            name, packed, min_dim=min_dim, config=self.config.config,
        )
        spec = packed.to_shared(self.arena, epoch=dep.version)
        old = self._specs.get(name)
        self._specs[name] = spec
        self._engine_degraded[name] = False
        if self._started:
            for q in self._task_queues:
                q.put((proto.DEPLOY, name, spec))
        if old is not None:
            self.arena.unlink(old.segment)
        self.metrics.registry.gauge(
            "model_version", help="deployed model version", labels=("model",),
        ).labels(model=name).set(dep.version)
        return dep

    def swap(self, name: str, model: Model,
             dim_order: Optional[np.ndarray] = None,
             drain: bool = True,
             drain_timeout: Optional[float] = None) -> Deployment:
        """Epoch-based hot swap: publish, flip every shard, then unlink.

        The new image goes out as a *new* shared segment with a bumped
        epoch.  Each shard's FIFO queue gets a swap message; a shard's
        ack therefore certifies that every batch dispatched before the
        swap has been answered.  With ``drain=True`` the call blocks
        until all live shards ack (bounded by ``drain_timeout`` /
        ``ShardedServeConfig.swap_ack_timeout``) and only then unlinks
        the old segment -- zero dropped requests by construction.  On
        an ack timeout the old segment is kept (reclaimed at
        :meth:`stop`) rather than yanked from under a slow shard.

        ``dim_order`` is unsupported here: packed class words bake the
        dimension layout in (the mirror registry enforces the same).
        """
        if dim_order is not None:
            raise ValueError(
                "sharded serving deploys packed models; dim_order "
                "regeneration needs the thread server's classifier path"
            )
        packed = self._pack(model)
        dep = self.registry.swap(name, packed, drain=False)
        old = self._specs.get(name)
        spec = packed.to_shared(self.arena, epoch=dep.version)
        self._specs[name] = spec
        ack_seq = next(self._seq)
        alive = {i for i, p in enumerate(self._procs)
                 if p is not None and p.is_alive()}
        state = {"remaining": set(alive) or set(range(self.config.n_shards)),
                 "event": threading.Event(), "name": name}
        if self._started:
            with self._plock:
                self._acks[ack_seq] = state
            for q in self._task_queues:
                q.put((proto.SWAP, name, spec, ack_seq))
        else:
            state["event"].set()
        self.metrics.counter("model_swaps").inc()
        self.metrics.registry.gauge(
            "model_version", help="deployed model version", labels=("model",),
        ).labels(model=name).set(dep.version)
        if drain and self._started:
            timeout = (self.config.swap_ack_timeout
                       if drain_timeout is None else drain_timeout)
            acked = state["event"].wait(timeout)
            with self._plock:
                self._acks.pop(ack_seq, None)
            if acked and old is not None:
                self.arena.unlink(old.segment)
            elif not acked:
                self.metrics.counter("swap_ack_timeouts").inc()
        elif old is not None and not self._started:
            self.arena.unlink(old.segment)
        return dep

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ShardedServer":
        if self._started:
            raise RuntimeError("server already started")
        c = self.config
        n_classes = None
        if c.mode == "partition":
            dims = {name: len(self.registry.get(name).model.class_labels)
                    for name in self.registry.names()}
            if not dims:
                raise RuntimeError(
                    "partition mode: register at least one model before "
                    "start() (shards need the class-row layout)"
                )
            if len(set(dims.values())) != 1:
                raise RuntimeError(
                    "partition mode serves models with one shared class "
                    f"count; got {dims}"
                )
            n_classes = next(iter(dims.values()))
        self.router = ShardRouter(
            c.n_shards, mode=c.mode, n_classes=n_classes,
        )
        self._stop.clear()
        self._started = True
        obs_trace.add_sink(self.recorder)
        self._trace_sent = obs_trace.tracing_enabled()
        for i in range(c.n_shards):
            self._procs[i] = self._spawn(i)
        self.scheduler.start()
        for target, tag in ((self._dispatch_loop, "dispatch"),
                            (self._collect_loop, "collect"),
                            (self._supervise_loop, "supervise")):
            t = threading.Thread(target=target,
                                 name=f"sharded-{tag}", daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def _spawn(self, shard: int):
        proc = self._ctx.Process(
            target=worker_main,
            args=(shard, None, self._task_queues[shard],
                  self._result_queue, dict(self._specs),
                  obs_trace.tracing_enabled()),
            name=f"shard-worker-{shard}", daemon=True,
        )
        proc.start()
        return proc

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Stop admitting, drain shards, fail leftovers, free segments."""
        if not self._started:
            self.arena.close_all()
            return
        obs_trace.remove_sink(self.recorder)
        self.queue.close()
        self._stop.set()
        for q in self._task_queues:
            try:
                q.put((proto.STOP,))
            except (ValueError, OSError):
                pass
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads = []
        self.scheduler.stop(timeout=timeout)
        for i, proc in enumerate(self._procs):
            if proc is None:
                continue
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            self._procs[i] = None
        with self._plock:
            pendings = list(self._pending.values())
            self._pending.clear()
        err = QueueClosed("server stopped before request was served")
        for pending in pendings:
            for req in pending.requests:
                if not req.future.done():
                    req.future.set_exception(err)
        for req in self.queue.drain():
            if not req.future.done():
                req.future.set_exception(err)
        for q in self._task_queues + [self._result_queue]:
            q.cancel_join_thread()
        self.arena.close_all()
        self._started = False

    # submit/asubmit/apredict/predict/predict_many/predict_encoded and
    # the context manager come from ServingSurfaceBase.

    # -- dispatcher ----------------------------------------------------------

    def _eligible_shards(self) -> List[int]:
        return [i for i in range(self.config.n_shards)
                if self.breakers[i].state != OPEN
                and self._procs[i] is not None
                and self._procs[i].is_alive()]

    def _dispatch_loop(self) -> None:
        while True:
            batch = self.batcher.next_batch(timeout=0.05)
            if not batch:
                if self._stop.is_set() or self.queue.closed:
                    return
                continue
            self.metrics.histogram("batch_size").record(len(batch))
            by_model: Dict[str, List[Request]] = {}
            for req in batch:
                by_model.setdefault(req.model, []).append(req)
            for model_name, requests in by_model.items():
                self._dispatch_group(model_name, requests)
            level = self.policy.observe(self.queue.depth())
            self.metrics.gauge("shed_level").set(level)
            self.metrics.gauge("queue_depth").set(self.queue.depth())

    def _dispatch_group(self, model_name: str,
                        requests: List[Request]) -> None:
        now = time.monotonic()
        live = []
        for req in requests:
            if req.expired(now):
                self.expire_request(req)
                continue
            self.metrics.histogram("queue_wait").record(now - req.enqueue_t)
            live.append(req)
        if not live:
            return
        seq = next(self._seq)
        shard = self.router.pick((model_name, seq),
                                 eligible=self._eligible_shards())
        if self.chaos is not None:
            try:
                # may sleep, raise InjectedFault, or raise WorkerKilled
                self.chaos.on_group(shard, model_name)
            except WorkerKilled:
                # a *process* kill: terminate the shard like a real
                # crash; the supervisor respawns it and the requests
                # take the retry path
                self.metrics.counter("worker_kills").inc()
                proc = self._procs[shard]
                if proc is not None and proc.is_alive():
                    proc.terminate()
                err = WorkerError(
                    f"shard {shard} killed by chaos policy",
                    model=model_name, worker=shard, retryable=True,
                )
                self.breakers[shard].record_failure()
                leader = next(
                    (r for r in live if r.ctx is not None), None,
                )
                affected = (obs_distributed.fmt_id(leader.ctx.trace_id)
                            if leader is not None else None)
                if leader is not None:
                    # the affected batch's failed dispatch bracket: puts
                    # the trace into the recorder's ring *before* the
                    # bundle snapshot, so the postmortem leads with it
                    obs_trace.emit_span(
                        "serve.dispatch", time.monotonic() - now,
                        attrs={"model": model_name, "shard": shard,
                               "error": "worker_kill"},
                        ctx=leader.ctx,
                    )
                self.recorder.record_event(
                    "worker_kill", shard=shard, model=model_name,
                    trace_id=affected,
                )
                self.recorder.dump(
                    "worker_kill", trace_id=affected,
                    extra={"shard": shard, "model": model_name,
                           "batch": len(live)},
                )
                for req in live:
                    self._fail_or_retry(req, err)
                return
            except ServeError as err:
                self.breakers[shard].record_failure()
                for req in live:
                    self._fail_or_retry(req, err)
                return
        try:
            dep = self.registry.get(model_name)
        except KeyError:
            err = WorkerError(f"model {model_name!r} was unregistered",
                              model=model_name, retryable=False)
            for req in live:
                self._fail_or_retry(req, err)
            return
        level = self.policy.level
        dim = dep.dim_for_level(level)
        wire_dim = None if dim >= dep.dim else dim
        X = np.stack([np.asarray(r.x, dtype=np.float64) for r in live])
        pending = proto.PendingBatch(
            seq=seq, model=model_name, requests=live, dim=dim,
            shed_level=level, version=dep.version, shard=shard,
            t_dispatch=now,
        )
        # the batch's dispatch->resolve bracket gets its own span under
        # the leader request's trace; the worker parents its spans
        # under that span's id, wired with the message
        leader_ctx = next((r.ctx for r in live if r.ctx is not None), None)
        wire_ctx = None
        if leader_ctx is not None:
            pending.ctx = leader_ctx
            pending.dispatch_span_id = obs_distributed.new_span_id()
            wire_ctx = (leader_ctx.trace_id, pending.dispatch_span_id)
        if self.config.mode == "replica":
            fault_draw = None
            if self.chaos is not None:
                draw = self.chaos.memory_fault(shard)
                if draw is not None:
                    spec_f, rng = draw
                    fault_draw = (spec_f, int(rng.integers(0, 2 ** 63)))
            pending.phase = proto.PREDICT
            with self._plock:
                self._pending[seq] = pending
            self.router.dispatched(shard)
            self._task_queues[shard].put(
                (proto.PREDICT, seq, model_name, X, wire_dim, fault_draw,
                 wire_ctx)
            )
        else:
            pending.phase = proto.ENCODE
            with self._plock:
                self._pending[seq] = pending
            self.router.dispatched(shard)
            self._task_queues[shard].put(
                (proto.ENCODE, seq, model_name, X, wire_ctx)
            )

    # -- collector -----------------------------------------------------------

    def _collect_loop(self) -> None:
        while True:
            try:
                msg = self._result_queue.get(timeout=0.05)
            except (std_queue.Empty, OSError, EOFError):
                if self._stop.is_set():
                    return
                continue
            shard_id, kind, seq, payload = msg[:4]
            if kind == proto.ACK:
                self._handle_ack(shard_id, seq)
            elif kind == proto.STATS_R:
                self._handle_stats(shard_id, seq, payload)
            elif kind == proto.ERR:
                self._handle_error(shard_id, seq, payload)
            elif kind == proto.OK:
                # worker span records piggyback on the OK reply (5th
                # element); emit them before resolving the futures so a
                # caller that joins a traced request always finds the
                # complete tree in the sink
                if len(msg) > 4:
                    for record in msg[4]:
                        obs_trace.emit_foreign(record)
                self._handle_ok(shard_id, seq, payload)
            elif kind == proto.SPANS:
                # worker span records, already carrying the request's
                # trace ids: re-emit into the parent's sinks.  The
                # worker registry is absorbed wholesale by shard_stats,
                # so no local aggregation (aggregate=False).
                for record in payload:
                    obs_trace.emit_foreign(record)

    def _take_pending(self, seq: int,
                      pop: bool) -> Optional[proto.PendingBatch]:
        with self._plock:
            pending = self._pending.get(seq)
            if pending is None or pending.dead:
                return None
            if pop:
                del self._pending[seq]
            return pending

    def _handle_ack(self, shard_id: int, ack_seq: int) -> None:
        with self._plock:
            state = self._acks.get(ack_seq)
            if state is None:
                return
            state["remaining"].discard(shard_id)
            if not state["remaining"]:
                state["event"].set()

    def _handle_stats(self, shard_id: int, seq: int, payload: Dict) -> None:
        with self._plock:
            waiter = self._stats_waiters.get(seq)
            if waiter is None:
                return
            waiter["results"][shard_id] = payload
            if len(waiter["results"]) >= waiter["expect"]:
                waiter["event"].set()

    def _handle_error(self, shard_id: int, seq: int, payload: Dict) -> None:
        pending = self._take_pending(seq, pop=True)
        self.breakers[shard_id].record_failure()
        if pending is None:
            return
        self.router.completed(shard_id)
        err = WorkerError(
            f"shard {shard_id} failed serving {pending.model!r}: "
            f"{payload.get('kind')}: {payload.get('message')}",
            model=pending.model, worker=shard_id, retryable=True,
        )
        for req in pending.requests:
            self._fail_or_retry(req, err)

    def _handle_ok(self, shard_id: int, seq: int, payload) -> None:
        pkind, data = payload
        if pkind == proto.PREDICT:
            pending = self._take_pending(seq, pop=True)
            if pending is None:
                return
            self.router.completed(shard_id)
            self.breakers[shard_id].record_success(
                time.monotonic() - pending.t_dispatch
            )
            self._resolve(pending, data, shard_id)
        elif pkind == proto.ENCODE:
            pending = self._take_pending(seq, pop=False)
            if pending is None:
                return
            self.router.completed(shard_id)
            self.breakers[shard_id].record_success(
                time.monotonic() - pending.t_dispatch
            )
            # phase 2: broadcast the packed query words; every live
            # shard answers a top-k over its class-row slice
            pending.phase = proto.SEARCH
            pending.query_words = data
            dep = self.registry.get(pending.model)
            wire_dim = None if pending.dim >= dep.dim else pending.dim
            targets = tuple(range(self.config.n_shards))
            pending.await_shards = targets
            wire_ctx = (
                (pending.ctx.trace_id, pending.dispatch_span_id)
                if pending.ctx is not None else None
            )
            for s in targets:
                rows = self.router.shard_rows(s)
                self.router.dispatched(s)
                self._task_queues[s].put((
                    proto.SEARCH, seq, pending.model, data, wire_dim,
                    self.config.topk, (rows.start, rows.stop), wire_ctx,
                ))
        elif pkind == proto.SEARCH:
            with self._plock:
                pending = self._pending.get(seq)
                if pending is None or pending.dead:
                    return
                pending.partials[shard_id] = data
                complete = (len(pending.partials)
                            >= len(pending.await_shards))
                if complete:
                    del self._pending[seq]
            self.router.completed(shard_id)
            self.breakers[shard_id].record_success(
                time.monotonic() - pending.t_dispatch
            )
            if not complete:
                return
            t_merge = time.monotonic()
            dists, rows = self.router.merge(pending.partials,
                                            k=self.config.topk)
            dep = self.registry.get(pending.model)
            labels = dep.model.class_labels[rows[:, 0]]
            if pending.ctx is not None:
                obs_trace.emit_span(
                    "serve.merge", time.monotonic() - t_merge,
                    attrs={"model": pending.model,
                           "shards": len(pending.partials)},
                    ctx=obs_distributed.TraceContext(
                        pending.ctx.trace_id, pending.dispatch_span_id
                    ),
                )
            self._resolve(pending, labels, pending.shard)

    def _resolve(self, pending: proto.PendingBatch, labels,
                 shard: Optional[int]) -> None:
        dep = self.registry.get(pending.model)
        done = time.monotonic()
        self.metrics.histogram("serve_seconds").record(
            done - pending.t_dispatch
        )
        if pending.dim < dep.dim:
            self.metrics.counter("shed_predictions").inc(
                len(pending.requests)
            )
        if pending.ctx is not None:
            # the dispatch->resolve bracket: parent of every worker
            # span of this batch, child of the leader request's root
            obs_trace.emit_span(
                "serve.dispatch", done - pending.t_dispatch,
                attrs={"model": pending.model, "shard": shard,
                       "mode": self.config.mode,
                       "batch": len(pending.requests)},
                ctx=pending.ctx, span_id=pending.dispatch_span_id,
            )
        for req, label in zip(pending.requests, np.asarray(labels)):
            latency = done - req.enqueue_t
            self.metrics.histogram("total").record(latency)
            self.policy.record_latency(latency)
            if self.slo is not None:
                self.slo.record(latency, ok=True)
            trace_id = None
            if req.ctx is not None:
                trace_id = obs_distributed.fmt_id(req.ctx.trace_id)
                obs_trace.emit_span(
                    "serve.request", latency,
                    attrs={"model": dep.name, "shard": shard},
                    ctx=req.ctx, span_id=req.ctx.span_id,
                )
            if not req.future.cancelled() and not req.future.done():
                req.future.set_result(Prediction(
                    label=label, model=dep.name, version=pending.version,
                    dim=pending.dim, shed_level=pending.shed_level,
                    latency=latency, attempts=req.attempts, shard=shard,
                    trace_id=trace_id,
                ))
        self.metrics.counter("served").inc(len(pending.requests))
        self._served_by_shard[shard] += len(pending.requests)

    # -- supervisor ----------------------------------------------------------

    def _supervise_loop(self) -> None:
        prev_codes = [b.state_code for b in self.breakers]
        prev_tier = self.ladder.tier
        while not self._stop.wait(0.05):
            for i, proc in enumerate(self._procs):
                if proc is None or proc.is_alive():
                    continue
                # a dead shard: open-circuit it, respawn onto the SAME
                # queues (unread messages survive), retry its in-flight
                # batches
                self.worker_restarts += 1
                self.metrics.counter("worker_restarts").inc()
                self.breakers[i].record_failure()
                self.recorder.record_event(
                    "worker_respawn", shard=i,
                    exitcode=proc.exitcode,
                )
                self._fail_shard_pendings(i)
                self._procs[i] = self._spawn(i)
            for i, breaker in enumerate(self.breakers):
                code = breaker.state_code
                self._breaker_gauge.labels(shard=str(i)).set(code)
                if code != prev_codes[i]:
                    self.recorder.record_event(
                        "breaker_transition", shard=i,
                        state=breaker.state, code=code,
                    )
                    prev_codes[i] = code
            self.ladder.observe(self.breakers)
            if self.slo is not None:
                self.slo.evaluate()
            tier = self.ladder.tier
            if tier != prev_tier:
                self.recorder.record_event(
                    "ladder_tier", old=prev_tier, new=tier
                )
                prev_tier = tier
            self._propagate_engine_state()
            # forward the parent's tracing state so workers start/stop
            # producing SPANS in step with enable_tracing()
            enabled = obs_trace.tracing_enabled()
            if enabled != self._trace_sent:
                self._trace_sent = enabled
                for q in self._task_queues:
                    try:
                        q.put((proto.TRACE, enabled))
                    except (ValueError, OSError):
                        pass

    def _fail_shard_pendings(self, shard: int) -> None:
        """Retry/fail every in-flight batch the dead shard owned."""
        with self._plock:
            doomed = [p for p in self._pending.values()
                      if p.shard == shard
                      or (p.phase == proto.SEARCH
                          and shard in p.await_shards
                          and shard not in p.partials)]
            for p in doomed:
                p.dead = True
                self._pending.pop(p.seq, None)
            for state in self._acks.values():
                # a swap ack will still arrive if the message survived
                # in the queue; only give up when the respawn also died
                state.setdefault("crashes", 0)
        err_template = "shard {s} died with the batch in flight"
        for p in doomed:
            self.router.completed(shard)
            err = WorkerError(err_template.format(s=shard),
                              model=p.model, worker=shard, retryable=True)
            for req in p.requests:
                self._fail_or_retry(req, err)

    def _propagate_engine_state(self) -> None:
        """Ship the ladder's tier-1 engine fallback across processes.

        The ladder flips :meth:`Deployment.fallback_engine` on the
        *mirror* deployments; workers hold their own model objects, so
        the transition is forwarded as a control message per shard.
        """
        for name in self.registry.names():
            try:
                dep = self.registry.get(name)
            except KeyError:
                continue
            degraded = dep.degraded
            if degraded == self._engine_degraded.get(name, False):
                continue
            self._engine_degraded[name] = degraded
            engine = (self.config.degrade.fallback_engine
                      if degraded else None)
            for q in self._task_queues:
                q.put((proto.ENGINE, name, engine))

    # -- failure disposition -------------------------------------------------

    def expire_request(self, request: Request) -> None:
        """Shed one expired request (also the batcher's on_expired hook)."""
        from repro.serve.errors import DeadlineExceeded

        self.metrics.counter("deadline_expired").inc()
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

    def _fail_or_retry(self, request: Request, err: ServeError) -> None:
        now = time.monotonic()
        if self.retry_policy.should_retry(request, err, now):
            request.attempts += 1
            delay = self.retry_policy.delay_for(request.attempts)
            try:
                self.scheduler.schedule(request, delay, now)
                self.metrics.counter("retries").inc()
                return
            except QueueClosed:
                pass
        self.metrics.counter("errors").inc()
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

    # -- introspection -------------------------------------------------------

    def shard_stats(self, timeout: Optional[float] = None) -> Dict[int, Dict]:
        """Pull each live shard's snapshot; absorbs worker registries.

        Worker metric series land in :attr:`shard_registry` labeled
        ``{shard=i}`` (replacement semantics -- repeated calls never
        double-count).  Returns ``{shard: worker stats dict}``.
        """
        if not self._started:
            return {}
        timeout = self.config.stats_timeout if timeout is None else timeout
        alive = [i for i, p in enumerate(self._procs)
                 if p is not None and p.is_alive()]
        if not alive:
            return {}
        seq = next(self._seq)
        waiter = {"results": {}, "expect": len(alive),
                  "event": threading.Event()}
        with self._plock:
            self._stats_waiters[seq] = waiter
        for i in alive:
            self._task_queues[i].put((proto.STATS, seq))
        waiter["event"].wait(timeout)
        with self._plock:
            self._stats_waiters.pop(seq, None)
        results = dict(waiter["results"])
        for shard, payload in results.items():
            self.shard_registry.absorb_state(
                payload.pop("registry", {}), {"shard": shard}
            )
        return results

    # stats() itself comes from ServingSurfaceBase; the hooks below add
    # the process-sharding specifics (schema-checked optional keys).

    def _breaker_list(self):
        return self.breakers

    def _restart_count(self) -> int:
        return self.worker_restarts

    def _deployment_extra(self, name: str, dep: Deployment) -> Dict:
        spec = self._specs.get(name)
        return {
            "segment": spec.segment if spec is not None else None,
            "epoch": spec.epoch if spec is not None else None,
            "model_bytes": dep.model.model_bytes(),
        }

    def _extra_stats(self) -> Dict:
        return {
            "shards": self.shard_stats(),
            "shard_metrics": self.shard_registry.snapshot(),
            "router": {
                "mode": self.config.mode,
                "n_shards": self.config.n_shards,
                "loads": self.router.loads() if self.router else None,
            },
        }

    def worker_utilization(self) -> Dict[str, List[float]]:
        """Per-shard busy time (pulled from workers) and served counts.

        ``served`` counts each request once, when the parent resolves
        it, at the shard that answered it (partition mode: the shard
        that encoded it), so it sums to the ``served`` counter even
        when searches fail and requests retry.
        """
        busy = [float(payload.get("busy_seconds", 0.0))
                for _, payload in sorted(self.shard_stats().items())]
        return {"busy_seconds": busy, "served": list(self._served_by_shard)}

    def render_prometheus(self) -> str:
        """Parent metrics plus the absorbed per-shard series."""
        return (self.metrics.render_prometheus()
                + self.shard_registry.render_prometheus())

    def wait_idle(self, timeout: float = 10.0, poll: float = 0.005) -> bool:
        """Block until queue, retry heap and in-flight batches are empty."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._plock:
                inflight = len(self._pending)
            if (self.queue.depth() == 0 and inflight == 0
                    and self.scheduler.pending() == 0):
                return True
            time.sleep(poll)
        with self._plock:
            inflight = len(self._pending)
        return (self.queue.depth() == 0 and inflight == 0
                and self.scheduler.pending() == 0)
