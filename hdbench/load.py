"""Load generation: one generator thread keeping a window outstanding.

A fixed window of requests is outstanding; a request is due the moment
an earlier one completes and frees its slot, and is timed from then,
not from the moment the generator got round to sending it.  Its
completion is stamped by a done-callback on the serving thread that
resolves it.  A generator that falls behind (the workers and the
generator share one interpreter lock) therefore shows up as latency
and as generator lag.  Queries are drawn from the pool with the run's
seeded generator.

The done-callback copies the answer into flat lists and drops the
future, so the benchmark keeps no per-request objects alive for the
garbage collector to walk while the server is being timed.
"""

from __future__ import annotations

import math
import queue
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import trace as obs_trace
from repro.serve import QueueFull

DRAIN_TIMEOUT_S = 60.0


@dataclass
class Phase:
    """What one measured stretch of load did, request by request."""

    query: List[int] = field(default_factory=list)
    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    label: list = field(default_factory=list)
    dim: List[int] = field(default_factory=list)
    version: List[int] = field(default_factory=list)
    #: repr of the exception a request failed with, None if answered
    error: List[Optional[str]] = field(default_factory=list)
    rejected: int = 0
    start: float = 0.0
    #: how long the generator was asked to offer load
    seconds: float = 0.0
    end: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.query) + self.rejected

    def add(self, q: int, due: float, sent: float) -> int:
        self.query.append(q)
        self.due.append(due)
        self.sent.append(sent)
        self.done.append(math.nan)
        self.label.append(None)
        self.dim.append(0)
        self.version.append(0)
        self.error.append(None)
        return len(self.query) - 1

    def resolve(self, i: int, future) -> float:
        """Record request ``i``'s outcome; returns its completion time."""
        now = time.perf_counter()
        exc = None if future.cancelled() else future.exception()
        if future.cancelled() or exc is not None:
            self.error[i] = "cancelled" if exc is None else repr(exc)
        else:
            pred = future.result()
            self.label[i], self.dim[i], self.version[i] = (
                pred.label, pred.dim, pred.version)
        self.done[i] = now
        return now

    def drain(self) -> None:
        """Wait for every outstanding request; record when the phase ended."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while self.unresolved and time.perf_counter() < deadline:
            time.sleep(0.01)
        finished = [d for d in self.done if not math.isnan(d)]
        self.end = max(finished) if finished else time.perf_counter()

    @property
    def unresolved(self) -> int:
        return sum(math.isnan(d) for d in self.done)

    @property
    def errored(self) -> int:
        return sum(e is not None for e in self.error)

    def _answered(self) -> np.ndarray:
        return np.array([e is None and not math.isnan(d)
                         for e, d in zip(self.error, self.done)], dtype=bool)

    def answers(self) -> List[Tuple[int, object, int, int]]:
        """``(query, label, dim, version)`` of every answered request."""
        return [(q, lab, d, v) for q, lab, d, v, ok in
                zip(self.query, self.label, self.dim, self.version,
                    self._answered()) if ok]

    def latencies_s(self) -> np.ndarray:
        """Due-to-done seconds of every answered request."""
        ok = self._answered()
        return np.asarray(self.done)[ok] - np.asarray(self.due)[ok]

    def windowed(self, window_s: float) -> Dict[str, object]:
        """Latency percentiles over windows of the run, and throughput.

        Each whole window of ``window_s`` contributes the percentiles of
        the requests due in it, and the run reports the lower quartile
        across windows.  Other tenants of the machine only ever add
        latency, and they do so in bursts of seconds; the lower quartile
        keeps a burst that covers a few windows from moving the run's
        figure, while a change that slows three quarters of the run
        still moves it.  Every window's values and the whole-run
        percentiles are returned as well, for the record.  Throughput is
        answers over the whole phase: answers complete a batch at a
        time, so a per-window count would move in steps.
        """
        due = np.asarray(self.due)[self._answered()] - self.start
        lat_ms = self.latencies_s() * 1e3
        p50, p99 = [], []
        for k in range(max(int(self.seconds // window_s), 1)):
            in_win = lat_ms[(due >= k * window_s) & (due < (k + 1) * window_s)]
            if len(in_win):
                p50.append(float(np.percentile(in_win, 50)))
                p99.append(float(np.percentile(in_win, 99)))
        return {
            "latency_p50_ms": float(np.percentile(p50, 25)),
            "latency_p99_ms": float(np.percentile(p99, 25)),
            "throughput_per_s": len(lat_ms) / (self.end - self.start),
            "window_p50_ms": p50,
            "window_p99_ms": p99,
            "run_p50_ms": float(np.percentile(lat_ms, 50)),
            "run_p99_ms": float(np.percentile(lat_ms, 99)),
        }

    def lags_s(self) -> np.ndarray:
        """How late the generator sent each request."""
        return np.asarray(self.sent) - np.asarray(self.due)


def _submit(server, model, x, phase: Phase, q: int, due: float,
            on_done) -> bool:
    sent = time.perf_counter()
    try:
        with obs_trace.span("bench.submit"):
            fut = server.submit(model, x)
    except QueueFull:
        phase.rejected += 1
        return False
    i = phase.add(q, due, sent)
    fut.add_done_callback(lambda f, i=i: on_done(i, f))
    return True


def closed_loop(server, model: str, pool: np.ndarray, window: int,
                seconds: float, rng: np.random.Generator) -> Phase:
    """``window`` requests outstanding at all times for ``seconds``."""
    freed: "queue.SimpleQueue[float]" = queue.SimpleQueue()
    phase = Phase(seconds=seconds)

    def on_done(i: int, future) -> None:
        freed.put(phase.resolve(i, future))

    phase.start = time.perf_counter()
    end = phase.start + seconds
    for _ in range(window):
        freed.put(phase.start)
    queries = rng.integers(0, len(pool), size=4096)
    k = 0
    while time.perf_counter() < end:
        try:
            due = freed.get(timeout=DRAIN_TIMEOUT_S)
        except queue.Empty:
            break  # every slot is stuck: the drain below reports it
        q = int(queries[k % len(queries)])
        k += 1
        if not _submit(server, model, pool[q], phase, q, due, on_done):
            freed.put(time.perf_counter())
    phase.drain()
    return phase
