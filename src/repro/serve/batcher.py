"""Micro-batching: coalesce queued requests into inference batches.

Batched encode + packed search amortizes per-call overhead (NumPy
dispatch here; kernel launches on the paper's eGPU -- its 20 us sync
latency in :mod:`repro.platforms.egpu` is exactly why HDC serving wants
batches).  The batcher implements the classic two-knob policy:

- ``max_batch``: never return more than this many requests at once;
- ``max_wait``: after the *first* request of a batch arrives, wait at
  most this long for followers before dispatching.

Every batch lingers: after the first request, :meth:`MicroBatcher.
next_batch` waits up to ``max_wait`` for followers even when the queue
is empty and a worker is idle, so under light load a lone request pays
the full ``max_wait`` before it is dispatched.  Under heavy load
batches fill to ``max_batch`` before the linger ends.  Dispatching at
once when nothing else is queued is left to the ROADMAP item "A
light-load workload, then the batcher linger fix", which first adds the
``serve-light`` workload that would measure it.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.serve.queue import Request, RequestQueue


class MicroBatcher:
    """Pulls coalesced batches off a :class:`RequestQueue`.

    With deadlines in play (``ServeConfig.default_deadline`` /
    ``submit(timeout=...)``), requests whose deadline has already passed
    are **shed at dispatch** rather than batched: serving them would
    burn worker time on an answer nobody is waiting for -- the queueing
    pathology deadline propagation exists to stop.  Each expired request
    goes to the ``on_expired`` callback (the server resolves its future
    with :class:`~repro.serve.errors.DeadlineExceeded` and counts it)
    and does not occupy a batch slot.
    """

    def __init__(self, queue: RequestQueue, max_batch: int = 32,
                 max_wait: float = 0.002,
                 on_expired: Optional[Callable[[Request], None]] = None):
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.queue = queue
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.on_expired = on_expired

    def _admit(self, request: Request, batch: List[Request]) -> None:
        """Append to the batch, or shed if the deadline already passed."""
        if request.expired():
            if self.on_expired is not None:
                self.on_expired(request)
            return
        batch.append(request)

    def next_batch(self, timeout: Optional[float] = None) -> List[Request]:
        """Blocking: one batch of 1..max_batch live requests, or ``[]``.

        ``timeout`` bounds the wait for the *first* request (so worker
        loops can poll their stop flag); ``max_wait`` then bounds the
        linger for followers.  Returns ``[]`` on timeout, when the
        queue is closed and drained, or when everything pulled had
        already expired.
        """
        first = self.queue.get(timeout=timeout)
        if first is None:
            return []
        batch: List[Request] = []
        self._admit(first, batch)
        deadline = time.monotonic() + self.max_wait
        while len(batch) < self.max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # linger expired -- grab whatever is already queued, no wait
                nxt = self.queue.get(timeout=0)
                if nxt is None:
                    break
                self._admit(nxt, batch)
                continue
            nxt = self.queue.get(timeout=remaining)
            if nxt is None:
                break
            self._admit(nxt, batch)
        return batch
