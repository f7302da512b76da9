"""Adaptive load shedding via on-demand dimension reduction.

Section 4.3.3 of the paper makes dimensionality a *runtime* knob: the
engine can score queries on a 128-multiple prefix of the dimensions,
with exact per-prefix norms kept in the sub-norm memory so accuracy
degrades gracefully instead of collapsing.  The paper drives that knob
from a static application spec; here it is driven by live load.

:class:`LoadShedPolicy` maintains one integer **shed level** (0 = full
dimensionality; each level drops 128 dims).  Workers feed it per-request
total latencies; after each batch it observes queue depth and the
recent-window p95 and moves the level:

- **shed** (level + 1) when the queue is deeper than ``queue_high`` or
  the recent p95 exceeds ``p95_target``;
- **recover** (level - 1) when the queue is at or below ``queue_low``
  *and* the p95 is comfortably under target (hysteresis -- the recover
  threshold is a fraction of the shed threshold so the level does not
  oscillate);
- changes are rate-limited by a ``cooldown`` so one burst moves the
  level one step, not all the way to the floor.

The policy is model-agnostic: it speaks levels, and each
:class:`~repro.serve.registry.Deployment` maps a level to its own
(clamped) 128-multiple dimensionality.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, List, Optional


class SlidingWindow:
    """Last-``N`` raw samples with exact percentile queries.

    The policy's *recent* p95 comes from here rather than from a
    whole-run histogram, which would react far too slowly to a load
    spike.  Thread-safe: workers record from several threads.
    """

    def __init__(self, size: int = 256) -> None:
        if size <= 0:
            raise ValueError(f"window size must be positive, got {size}")
        self._lock = threading.Lock()
        self._samples: deque = deque(maxlen=size)

    def record(self, value: float) -> None:
        with self._lock:
            self._samples.append(float(value))

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def percentile(self, p: float) -> Optional[float]:
        """Exact percentile of the window, ``None`` while empty."""
        with self._lock:
            if not self._samples:
                return None
            ordered: List[float] = sorted(self._samples)
        idx = min(len(ordered) - 1, int(math.ceil(p / 100.0 * len(ordered))) - 1)
        return ordered[max(0, idx)]


class LoadShedPolicy:
    """Queue-depth + latency driven shed-level controller."""

    def __init__(
        self,
        max_level: int = 24,
        queue_high: int = 32,
        queue_low: int = 2,
        p95_target: Optional[float] = None,
        recover_fraction: float = 0.5,
        cooldown: float = 0.05,
        window: int = 256,
        time_fn: Callable[[], float] = time.monotonic,
    ):
        if max_level < 0:
            raise ValueError(f"max_level must be >= 0, got {max_level}")
        if queue_low > queue_high:
            raise ValueError(
                f"queue_low={queue_low} must not exceed queue_high={queue_high}"
            )
        if not 0 < recover_fraction <= 1:
            raise ValueError(
                f"recover_fraction must be in (0, 1], got {recover_fraction}"
            )
        self.max_level = max_level
        self.queue_high = queue_high
        self.queue_low = queue_low
        self.p95_target = p95_target
        self.recover_fraction = recover_fraction
        self.cooldown = cooldown
        self._time = time_fn
        self._window = SlidingWindow(window)
        self._lock = threading.Lock()
        self._level = 0
        self._last_change = -float("inf")
        self.shed_events = 0
        self.recover_events = 0
        self.max_level_seen = 0

    # -- inputs -------------------------------------------------------------

    def record_latency(self, seconds: float) -> None:
        """Feed one completed request's total latency into the window."""
        self._window.record(seconds)

    def recent_p95(self) -> Optional[float]:
        return self._window.percentile(95)

    # -- state --------------------------------------------------------------

    @property
    def level(self) -> int:
        with self._lock:
            return self._level

    def observe(self, queue_depth: int) -> int:
        """Update the shed level from current load; returns the new level."""
        p95 = self.recent_p95()
        with self._lock:
            now = self._time()
            if now - self._last_change < self.cooldown:
                return self._level

            overloaded = queue_depth >= self.queue_high
            if self.p95_target is not None and p95 is not None:
                overloaded = overloaded or p95 > self.p95_target

            calm = queue_depth <= self.queue_low
            if self.p95_target is not None and p95 is not None:
                calm = calm and p95 < self.p95_target * self.recover_fraction

            if overloaded and self._level < self.max_level:
                self._level += 1
                self.shed_events += 1
                self.max_level_seen = max(self.max_level_seen, self._level)
                self._last_change = now
            elif calm and self._level > 0:
                self._level -= 1
                self.recover_events += 1
                self._last_change = now
            return self._level

    def force_level(self, level: int) -> None:
        """Pin the shed level (tests, manual degradation drills)."""
        if not 0 <= level <= self.max_level:
            raise ValueError(
                f"level {level} out of range [0, {self.max_level}]"
            )
        with self._lock:
            self._level = level
            self.max_level_seen = max(self.max_level_seen, level)
            self._last_change = self._time()
