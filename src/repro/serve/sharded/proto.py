"""Wire protocol between the sharded server and its worker processes.

Messages are plain tuples (cheap to pickle through a ``Pipe``) whose
first element is one of the kind constants below.  Everything that
crosses the boundary is either a scalar, a NumPy array, or a picklable
spec (:class:`~repro.core.shared.SharedImageSpec`,
:class:`~repro.hardware.faultspec.FaultSpec`) -- never a live model:
models travel as shared-memory image specs and are mapped zero-copy on
the other side.

Each shard has one duplex ``multiprocessing.Pipe`` to the parent, so
the connection names the shard and replies carry no shard id.
Ordering is the protocol's backbone: the pipe is FIFO and a worker
answers strictly in the order it receives.  That is what makes the
epoch swap safe -- by the time a shard acks a :data:`SWAP`, every
batch the parent sent it *before* the swap has already been answered,
so once all shards ack, nothing can still be reading the old segment
and the parent may unlink it.

Parent -> worker::

    (DEPLOY, name, image_spec)                install/replace a model
    (SWAP, name, image_spec, ack_seq)         flip to a new epoch, ack
    (PREDICT, seq, name, X, dim, fault_draw, ctx)  full encode+search
    (ENCODE, seq, name, X, ctx)               encode stage only
    (SEARCH, seq, name, query_words, dim, k, rows, ctx)  shard top-k
    (ENGINE, name, engine_or_None)            degradation tier-1 toggle
    (TRACE, enabled)                          runtime tracing toggle
    (STATS, seq)                              metrics/RSS snapshot
    (STOP,)                                   exit the worker loop

``ctx`` on the serving kinds is a
:meth:`~repro.obs.distributed.TraceContext.to_wire` tuple -- the
submitting request's ``(trace_id, parent span_id)`` -- or ``None``.  A
worker opens its ``serve.encode``/``serve.search`` spans under it, so
the spans it ships back re-parent into the request's trace on the
parent side.

Worker -> parent::

    (OK, seq, payload, records)       payload depends on request kind;
                                      records are the batch's finished
                                      span dicts (empty unless tracing)
    (ERR, seq, {kind, message}, records)  the exception's type name and
                                      text, plus the spans finished
                                      before the failure
    (ACK, ack_seq, name)              swap acknowledged
    (STATS_R, seq, stats)             registry state + process gauges
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

# parent -> worker kinds
DEPLOY = "deploy"
SWAP = "swap"
PREDICT = "predict"
ENCODE = "encode"
SEARCH = "search"
ENGINE = "engine"
TRACE = "trace"
STATS = "stats"
STOP = "stop"

# worker -> parent kinds
OK = "ok"
ERR = "err"
ACK = "ack"
STATS_R = "stats_r"


@dataclass(eq=False)
class PendingBatch:
    """Parent-side state of one dispatched batch.

    ``batch`` is the :class:`~repro.serve.server.Batch` whose futures
    this message resolves, already stamped with the shard, model
    version and served dimensionality it was dispatched with.  For
    partition mode the batch goes through two phases (encode on one
    shard, then a top-k broadcast) and ``await_shards`` / ``partials``
    track the scatter; replica mode resolves in one hop.  ``dead``
    marks a batch that was already failed/retried (e.g. its shard
    crashed) so straggling responses for the same seq are dropped
    instead of double-resolving.
    """

    seq: int
    batch: object
    phase: str = PREDICT                 # PREDICT | ENCODE | SEARCH
    await_shards: Tuple[int, ...] = ()
    partials: Dict[int, object] = field(default_factory=dict)
    dead: bool = False
    #: span id of the parent-side ``serve.dispatch`` span bracketing
    #: this batch -- worker spans parent under it, and the span record
    #: itself is emitted at resolve time with exactly this id
    dispatch_span_id: Optional[int] = None
