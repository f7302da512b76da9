"""Process-sharded serving: the serving core over shard processes.

:class:`ShardedServer` is :class:`~repro.serve.server.Server` with a
:class:`ProcessExecutor` behind it, so the compute runs outside the
GIL::

    Server._pump -> dispatcher thread
                         |  _send: one duplex Pipe per shard (FIFO)
        +----------------+--------------+----------+
        v                v                         v
   shard proc 0     shard proc 1     ...     shard proc N-1
   (maps the ONE shared-memory model image read-only)
        |                |                         |
        +----------------+-> connection.wait -> collector thread
                                                 -> Server._resolve

Routing comes in two modes (see
:class:`~repro.serve.sharded.router.ShardRouter`): **replica** sends a
whole batch (encode + search) to one shard by shortest-queue routing
(fewest batches in flight); **partition** encodes on one shard picked
the same way, broadcasts the packed query words, and exactly merges
per-shard top-k scores -- bit-identical to single-process
:meth:`~repro.core.packed.PackedModel.predict_packed`.

Hot swap is epoch-based: ``swap()`` publishes the new model as a fresh
shared segment, sends a swap message down every shard's FIFO pipe,
and unlinks the old segment only after every shard acks -- FIFO
ordering makes an ack a proof that all pre-swap batches were answered,
so a drained swap drops zero requests by construction.

Resilience is per-shard: each shard process has a circuit breaker
(crashes and errors open it; the router avoids open shards in replica
mode), the supervisor respawns a dead process on a fresh pipe with the
current models, tracing and engine state (its in-flight batches retry
elsewhere), and the ladder's engine fallback crosses the process
boundary as a control message.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import queue as std_queue
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.classifier import HDClassifier
from repro.core.packed import PackedModel
from repro.core.shared import SharedImageSpec, SharedModelArena
from repro.obs import distributed as obs_distributed
from repro.obs import trace as obs_trace
from repro.obs.registry import Registry
from repro.serve.errors import WorkerError
from repro.serve.queue import Request
from repro.serve.registry import Deployment, Model
from repro.serve.resilience.breaker import OPEN
from repro.serve.server import Batch, Executor, ServeConfig, Server
from repro.serve.sharded import proto
from repro.serve.sharded.router import ShardRouter
from repro.serve.sharded.worker import worker_main

__all__ = ["ProcessExecutor", "ShardedServeConfig", "ShardedServer"]

#: seconds a drained swap waits for every shard's ack by default before
#: keeping the old segment (it is then reclaimed at stop())
SWAP_ACK_TIMEOUT = 10.0
#: seconds stats() waits for worker snapshots by default
STATS_TIMEOUT = 2.0


@dataclass
class ShardedServeConfig(ServeConfig):
    """The thread server's knobs plus the process-sharding ones."""

    n_shards: int = 2
    #: "replica" (full model per shard) or "partition" (class-row slices)
    mode: str = "replica"
    #: per-shard top-k width in partition mode (1 is enough for argmin)
    topk: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.mode not in ("replica", "partition"):
            raise ValueError(
                f"mode must be 'replica' or 'partition', got {self.mode!r}"
            )


class ProcessExecutor(Executor):
    """Shard processes over one :class:`SharedModelArena` per server.

    One dispatcher thread places each batch on a shard (or, in
    partition mode, encodes on one shard and scatters the search), one
    collector thread turns replies into :meth:`Server._resolve` /
    :meth:`Server._fail_or_retry` calls, and the shard processes
    (spawned, so parent threads are safe) map every model zero-copy.
    Each shard talks over one duplex pipe: the parent writes through
    :meth:`_send`, the collector waits on every pipe at once.
    """

    slot_label = "shard"
    reports_shard = True

    def __init__(self, config: ShardedServeConfig):
        self.config = config
        self.n_slots = config.n_shards
        self.arena = SharedModelArena(prefix="shardsrv")
        self.router: Optional[ShardRouter] = None
        self._ctx = mp.get_context("spawn")
        self._procs: List[Optional[mp.process.BaseProcess]] = (
            [None] * self.n_slots)
        #: the parent's end of each live shard's pipe; None once it hit EOF
        self._conns: List[Optional[Connection]] = [None] * self.n_slots
        self._send_locks = [threading.Lock() for _ in range(self.n_slots)]
        #: pipes the collector has yet to add to its wait set
        self._fresh: List[Tuple[Connection, int]] = []
        self.specs: Dict[str, SharedImageSpec] = {}
        self._seq = itertools.count(1)
        self._pending: Dict[int, proto.PendingBatch] = {}
        self._plock = threading.Lock()
        #: swap acks and stats pulls in flight, by seq (see _await)
        self._waiters: Dict[int, Dict] = {}
        self._engine_degraded: Dict[str, bool] = {}
        #: aggregated per-shard observability (absorbed worker registries)
        self.shard_registry = Registry(namespace="shard")
        self._threads: List[threading.Thread] = []
        self._started = False
        #: tracing state last propagated to the worker fleet; the
        #: supervisor forwards TRACE messages when the parent's flips
        self._trace_sent = False

    # -- deployments ---------------------------------------------------------

    def deploy(self, name: str, packed: PackedModel, version: int) -> None:
        """Publish ``packed`` as a new segment and install it everywhere."""
        old = self.specs.get(name)
        self.specs[name] = spec = packed.to_shared(self.arena, epoch=version)
        self._engine_degraded[name] = False
        if self._started:
            self._broadcast((proto.DEPLOY, name, spec))
        if old is not None:
            self.arena.unlink(old.segment)

    def swap(self, name: str, packed: PackedModel, version: int,
             drain: bool, timeout: float) -> bool:
        """Flip every shard to a new segment; unlink the old on full ack.

        Returns False when ``drain`` waited out ``timeout`` without
        every live shard's ack (the old segment then stays until
        :meth:`close`).
        """
        old = self.specs.get(name)
        self.specs[name] = spec = packed.to_shared(self.arena, epoch=version)
        if not self._started:
            if old is not None:
                self.arena.unlink(old.segment)
            return True
        ack_seq = next(self._seq)
        waiter = self._await(ack_seq, (proto.SWAP, name, spec, ack_seq))
        if not drain:
            return True
        acked = waiter["event"].wait(timeout)
        with self._plock:
            self._waiters.pop(ack_seq, None)
        if acked and old is not None:
            self.arena.unlink(old.segment)
        return acked

    def _await(self, seq: int, msg) -> Dict:
        """Send ``msg`` to every shard; returns the waiter on the replies.

        Its event fires once each shard has answered, could not be sent
        to, or died (:meth:`_forget`; a replacement starts from the
        current specs); ``results`` maps a shard to its reply payload.
        """
        waiter = {"remaining": set(range(self.n_slots)), "results": {},
                  "event": threading.Event()}
        with self._plock:
            self._waiters[seq] = waiter
        for i in range(self.n_slots):
            if not self._send(i, msg):
                self._answer(seq, i)
        return waiter

    def _send(self, shard: int, msg) -> bool:
        """Write ``msg`` down ``shard``'s pipe; False if the shard is dead."""
        with self._send_locks[shard]:
            conn = self._conns[shard]
            if conn is None:
                return False
            try:
                conn.send(msg)
            except OSError:  # BrokenPipeError: the shard died
                return False
        return True

    def _broadcast(self, msg) -> None:
        for i in range(self.n_slots):
            self._send(i, msg)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        registry = self.server.registry
        n_classes = None
        if self.config.mode == "partition":
            dims = {name: len(registry.get(name).model.class_labels)
                    for name in registry.names()}
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
        self.router = ShardRouter(self.n_slots, mode=self.config.mode,
                                  n_classes=n_classes)
        self._started = True
        self._trace_sent = obs_trace.tracing_enabled()
        self._fanout = std_queue.SimpleQueue()
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        for i in range(self.n_slots):
            self._procs[i] = self._spawn(i)
        loops = [(self._dispatch_loop, "dispatch"),
                 (self._collect_loop, "collect")]
        if self.config.mode == "partition":
            loops.append((self._fanout_loop, "fanout"))
        for target, tag in loops:
            t = threading.Thread(target=target, name=f"sharded-{tag}",
                                 daemon=True)
            t.start()
            self._threads.append(t)

    def _spawn(self, shard: int):
        """Start ``shard`` on a fresh pipe with the current state."""
        conn, child = self._ctx.Pipe()
        engines = {name: self.config.degrade.fallback_engine
                   for name, degraded in self._engine_degraded.items()
                   if degraded}
        # under the send lock, so a swap's message reaches either the
        # old pipe before the specs snapshot or the new pipe after it
        with self._send_locks[shard]:
            proc = self._ctx.Process(
                target=worker_main,
                args=(shard, child, dict(self.specs),
                      obs_trace.tracing_enabled(), engines),
                name=f"shard-worker-{shard}", daemon=True,
            )
            self._conns[shard] = conn
        proc.start()
        child.close()
        # the collector reads every pipe to its EOF and closes it
        self._fresh.append((conn, shard))
        self._wake_w.send(None)
        return proc

    def stop(self, timeout: Optional[float]) -> List[Request]:
        dispatcher, *others = self._threads
        dispatcher.join(timeout=timeout)
        self._broadcast((proto.STOP,))
        for i, proc in enumerate(self._procs):
            if proc is None:
                continue
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            self._procs[i] = None
        # every pipe is at EOF now: the collector drains it and exits
        self._fanout.put(None)
        self._wake_w.send(None)
        for t in others:
            t.join(timeout=timeout)
        self._threads = []
        self._wake_r.close()
        self._wake_w.close()
        with self._plock:
            pendings = list(self._pending.values())
            self._pending.clear()
        self._started = False
        return [req for p in pendings for req in p.batch.requests]

    def close(self) -> None:
        self.arena.close_all()

    # -- dispatcher ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        self.server._pump(self._dispatch_all)

    def _dispatch_all(self, batches: List[Batch]) -> None:
        for batch in batches:
            self._dispatch(batch)

    def _eligible_shards(self) -> List[int]:
        breakers = self.server.breakers
        return [i for i in range(self.n_slots)
                if breakers[i].state != OPEN
                and self._procs[i] is not None
                and self._procs[i].is_alive()]

    def _dispatch(self, batch: Batch) -> None:
        server = self.server
        seq = next(self._seq)
        batch.slot = shard = self.router.pick(self._eligible_shards())
        if not server._chaos(batch):
            return
        try:
            dep = server.registry.get(batch.model)
        except KeyError:
            err = WorkerError(f"model {batch.model!r} was unregistered",
                              model=batch.model, retryable=False)
            for req in batch.requests:
                server._fail_or_retry(req, err)
            return
        batch.shed_level = level = server.policy.level
        batch.dim = dim = dep.dim_for_level(level)
        batch.full_dim, batch.version = dep.dim, dep.version
        wire_dim = None if dim >= dep.dim else dim
        X = np.stack([np.asarray(r.x, dtype=np.float64)
                      for r in batch.requests])
        pending = proto.PendingBatch(seq=seq, batch=batch)
        # the batch's dispatch->resolve bracket gets its own span under
        # the leader request's trace; the worker parents its spans
        # under that span's id, wired with the message
        wire_ctx = None
        if batch.ctx is not None:
            pending.dispatch_span_id = obs_distributed.new_span_id()
            wire_ctx = (batch.ctx.trace_id, pending.dispatch_span_id)
        if self.config.mode == "replica":
            fault_draw = None
            if server.chaos is not None:
                draw = server.chaos.memory_fault(shard)
                if draw is not None:
                    spec_f, rng = draw
                    fault_draw = (spec_f, int(rng.integers(0, 2 ** 63)))
            msg = (proto.PREDICT, seq, batch.model, X, wire_dim, fault_draw,
                   wire_ctx)
        else:
            pending.phase = proto.ENCODE
            msg = (proto.ENCODE, seq, batch.model, X, wire_ctx)
        with self._plock:
            self._pending[seq] = pending
        self.router.dispatched(shard)
        if not self._send(shard, msg):
            self._unsent(shard, msg)

    def _fanout_loop(self) -> None:
        # partition mode's SEARCH scatter.  A send blocks while the
        # shard's pipe is full, and the shard may itself be blocked
        # sending a reply that only the collector reads; so the
        # collector queues its scatter here and never writes a pipe
        while True:
            item = self._fanout.get()
            if item is None:
                return
            shard, msg = item
            if not self._send(shard, msg):
                self._unsent(shard, msg)

    def _unsent(self, shard: int, msg) -> None:
        """A serving message the dead shard never got: retry its batch."""
        self.router.completed(shard)
        pending = self._take_pending(msg[1], pop=True)
        if pending is not None:
            self._retry(pending.batch, shard,
                        "died before the batch reached it")

    # -- collector -----------------------------------------------------------

    def _collect_loop(self) -> None:
        readers: Dict[Connection, int] = {}
        while True:
            while self._fresh:
                conn, shard = self._fresh.pop()
                readers[conn] = shard
            if not readers and self.server._stop.is_set():
                return
            for conn in wait([self._wake_r, *readers]):
                if conn is self._wake_r:
                    conn.recv()
                    continue
                shard = readers[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # the shard exited: out of the wait set until the
                    # supervisor respawns it on a new pipe
                    del readers[conn]
                    with self._send_locks[shard]:
                        if self._conns[shard] is conn:
                            self._conns[shard] = None
                    conn.close()
                    continue
                if conn is not self._conns[shard]:
                    continue  # a respawned shard's old pipe: all failed over
                kind, seq, payload = msg[:3]
                if kind not in (proto.OK, proto.ERR):  # ACK / STATS_R
                    self._answer(seq, shard, payload)
                    continue
                # every serving reply releases its shard's load, even
                # one for a batch an earlier error already failed
                self.router.completed(shard)
                # worker span records ride the reply; emit them before
                # resolving the futures so a caller that joins a traced
                # request always finds the complete tree in the sink
                for record in msg[3]:
                    obs_trace.emit_foreign(record)
                if kind == proto.OK:
                    self._handle_ok(shard, seq, payload)
                else:
                    self._handle_error(shard, seq, payload)

    def _take_pending(self, seq: int,
                      pop: bool) -> Optional[proto.PendingBatch]:
        with self._plock:
            pending = self._pending.get(seq)
            if pending is None or pending.dead:
                return None
            if pop:
                del self._pending[seq]
            return pending

    def _answer(self, seq: int, shard: int, payload=None) -> None:
        """Count ``shard`` out of waiter ``seq`` (its reply, or its death)."""
        with self._plock:
            waiter = self._waiters.get(seq)
            if waiter is None:
                return
            if payload is not None:
                waiter["results"][shard] = payload
            waiter["remaining"].discard(shard)
            if not waiter["remaining"]:
                del self._waiters[seq]
                waiter["event"].set()

    def _handle_error(self, shard_id: int, seq: int, payload: Dict) -> None:
        self.server.breakers[shard_id].record_failure()
        pending = self._take_pending(seq, pop=True)
        if pending is not None:
            self._retry(pending.batch, shard_id,
                        f"failed serving {pending.batch.model!r}: "
                        f"{payload.get('kind')}: {payload.get('message')}")

    def _retry(self, batch: Batch, shard: int, why: str) -> None:
        err = WorkerError(f"shard {shard} {why}", model=batch.model,
                          worker=shard, retryable=True)
        for req in batch.requests:
            self.server._fail_or_retry(req, err)

    def _handle_ok(self, shard_id: int, seq: int, payload) -> None:
        pkind, data = payload
        if pkind == proto.SEARCH:
            with self._plock:
                pending = self._pending.get(seq)
                if pending is None or pending.dead:
                    return
                pending.partials[shard_id] = data
                complete = (len(pending.partials)
                            >= len(pending.await_shards))
                if complete:
                    del self._pending[seq]
        else:
            pending = self._take_pending(seq, pop=pkind == proto.PREDICT)
            if pending is None:
                return
        batch = pending.batch
        self.server.breakers[shard_id].record_success(
            time.monotonic() - batch.t_start)
        if pkind == proto.PREDICT:
            self._finish(pending, data)
        elif pkind == proto.ENCODE:
            # phase 2: broadcast the packed query words; every shard
            # answers a top-k over its class-row slice
            pending.phase = proto.SEARCH
            pending.await_shards = targets = tuple(range(self.n_slots))
            wire_dim = None if batch.dim >= batch.full_dim else batch.dim
            wire_ctx = ((batch.ctx.trace_id, pending.dispatch_span_id)
                        if batch.ctx is not None else None)
            for s in targets:
                rows = self.router.shard_rows(s)
                self.router.dispatched(s)
                self._fanout.put((s, (
                    proto.SEARCH, seq, batch.model, data, wire_dim,
                    self.config.topk, (rows.start, rows.stop), wire_ctx,
                )))
        elif complete:  # the last SEARCH partial: merge and answer
            t_merge = time.monotonic()
            _, rows = self.router.merge(pending.partials, k=self.config.topk)
            labels = (self.server.registry.get(batch.model)
                      .model.class_labels[rows[:, 0]])
            if batch.ctx is not None:
                obs_trace.emit_span(
                    "serve.merge", time.monotonic() - t_merge,
                    attrs={"model": batch.model,
                           "shards": len(pending.partials)},
                    ctx=obs_distributed.TraceContext(
                        batch.ctx.trace_id, pending.dispatch_span_id),
                )
            self._finish(pending, labels)

    def _finish(self, pending: proto.PendingBatch, labels) -> None:
        batch = pending.batch
        if batch.ctx is not None:
            # the dispatch->resolve bracket: parent of every worker
            # span of this batch, child of the leader request's root
            obs_trace.emit_span(
                "serve.dispatch", time.monotonic() - batch.t_start,
                attrs={"model": batch.model, "shard": batch.slot,
                       "mode": self.config.mode,
                       "batch": len(batch.requests)},
                ctx=batch.ctx, span_id=pending.dispatch_span_id,
            )
        self.server._resolve(batch, np.asarray(labels))

    # -- supervision ---------------------------------------------------------

    def respawn_dead(self) -> List[Dict]:
        events = []
        for i, proc in enumerate(self._procs):
            if proc is None or proc.is_alive():
                continue
            # a dead shard: open-circuit it, fail over what it owed,
            # and start a replacement on a fresh pipe
            self.server.breakers[i].record_failure()
            self._forget(i)
            self._procs[i] = self._spawn(i)
            events.append({"shard": i, "exitcode": proc.exitcode})
        return events

    def _forget(self, shard: int) -> None:
        """Retry the dead shard's batches; stop waiting on its replies."""
        with self._plock:
            doomed = [p for p in self._pending.values()
                      if p.batch.slot == shard
                      or (p.phase == proto.SEARCH
                          and shard in p.await_shards
                          and shard not in p.partials)]
            for p in doomed:
                p.dead = True
                self._pending.pop(p.seq, None)
            waiting = list(self._waiters)
        # every message sent down the dead shard's pipe died with it
        self.router.reset(shard)
        for seq in waiting:
            self._answer(seq, shard)
        for p in doomed:
            self._retry(p.batch, shard, "died with the batch in flight")

    def kill(self, slot: int) -> None:
        # a *process* kill: terminate the shard like a real crash; the
        # supervisor respawns it
        proc = self._procs[slot]
        if proc is not None and proc.is_alive():
            proc.terminate()

    def tick(self) -> None:
        self._propagate_engine_state()
        # forward the parent's tracing state so workers start/stop
        # producing spans in step with enable_tracing()
        enabled = obs_trace.tracing_enabled()
        if enabled != self._trace_sent:
            self._trace_sent = enabled
            self._broadcast((proto.TRACE, enabled))

    def _propagate_engine_state(self) -> None:
        """Ship the ladder's tier-1 engine fallback across processes.

        The ladder flips :meth:`Deployment.fallback_engine` on the
        parent's deployments; workers hold their own model objects, so
        the transition is forwarded as a control message per shard.
        """
        registry = self.server.registry
        for name in registry.names():
            try:
                degraded = registry.get(name).degraded
            except KeyError:
                continue
            if degraded == self._engine_degraded.get(name, False):
                continue
            self._engine_degraded[name] = degraded
            engine = (self.config.degrade.fallback_engine
                      if degraded else None)
            self._broadcast((proto.ENGINE, name, engine))

    # -- introspection -------------------------------------------------------

    def shard_stats(self, timeout: Optional[float] = None) -> Dict[int, Dict]:
        """Pull each live shard's snapshot; absorbs worker registries.

        Worker metric series land in :attr:`shard_registry` labeled
        ``{shard=i}`` (replacement semantics -- repeated calls never
        double-count).  Returns ``{shard: worker stats dict}``.
        """
        if not self._started:
            return {}
        seq = next(self._seq)
        waiter = self._await(seq, (proto.STATS, seq))
        waiter["event"].wait(STATS_TIMEOUT if timeout is None else timeout)
        with self._plock:
            self._waiters.pop(seq, None)
        results = dict(waiter["results"])
        for shard, payload in results.items():
            self.shard_registry.absorb_state(
                payload.pop("registry", {}), {"shard": shard})
        return results

    def busy_seconds(self) -> List[float]:
        return [float(payload.get("busy_seconds", 0.0))
                for _, payload in sorted(self.shard_stats().items())]

    def annotate_stats(self, snap: Dict) -> None:
        for name, entry in snap["deployments"].items():
            spec = self.specs.get(name)
            entry.update({
                "segment": spec.segment if spec is not None else None,
                "epoch": spec.epoch if spec is not None else None,
                "model_bytes": self.server.registry.get(name)
                .model.model_bytes(),
            })
        snap["shards"] = self.shard_stats()
        snap["shard_metrics"] = self.shard_registry.snapshot()
        snap["router"] = {
            "mode": self.config.mode,
            "n_shards": self.n_slots,
            "loads": self.router.loads() if self.router else None,
        }

    def render_prometheus(self) -> str:
        return self.shard_registry.render_prometheus()


class ShardedServer(Server):
    """The serving core over N shard processes (:class:`ProcessExecutor`).

    Models are always served from their bit-packed form; registering an
    :class:`~repro.core.classifier.HDClassifier` packs it first
    (sharded serving is the binary deployment path).
    """

    def __init__(self, config: Optional[ShardedServeConfig] = None,
                 chaos=None):
        config = config or ShardedServeConfig()
        super().__init__(config, ProcessExecutor(config), chaos)

    @property
    def arena(self) -> SharedModelArena:
        return self.executor.arena

    @property
    def router(self) -> Optional[ShardRouter]:
        return self.executor.router

    def shard_stats(self, timeout: Optional[float] = None) -> Dict[int, Dict]:
        return self.executor.shard_stats(timeout)

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
        dep = self.registry.register(name, packed, min_dim=min_dim)
        self.executor.deploy(name, packed, dep.version)
        self._set_version(name, dep.version)
        return dep

    def swap(self, name: str, model: Model,
             dim_order: Optional[np.ndarray] = None,
             drain: bool = True,
             drain_timeout: Optional[float] = None) -> Deployment:
        """Epoch-based hot swap: publish, flip every shard, then unlink.

        The new image goes out as a *new* shared segment with a bumped
        epoch.  Each shard's FIFO pipe gets a swap message; a shard's
        ack therefore certifies that every batch dispatched before the
        swap has been answered.  With ``drain=True`` the call blocks
        until all live shards ack (at most ``drain_timeout``, 10 s by
        default) and only then unlinks the old segment -- zero dropped
        requests by construction.  On an ack timeout the old segment is
        kept (reclaimed at :meth:`stop`) rather than yanked from under a
        slow shard, and ``swap_ack_timeouts`` counts it.

        ``dim_order`` is unsupported here: packed class words bake the
        dimension layout in (the registry enforces the same).
        """
        if dim_order is not None:
            raise ValueError(
                "sharded serving deploys packed models; dim_order "
                "regeneration needs the thread server's classifier path"
            )
        packed = self._pack(model)
        dep = self.registry.swap(name, packed, drain=False)
        acked = self.executor.swap(
            name, packed, dep.version, drain=drain,
            timeout=SWAP_ACK_TIMEOUT if drain_timeout is None
            else drain_timeout,
        )
        self.metrics.counter("model_swaps").inc()
        self._set_version(name, dep.version)
        if not acked:
            self.metrics.counter("swap_ack_timeouts").inc()
        return dep
