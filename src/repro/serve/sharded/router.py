"""Shard routing: shortest-queue placement of batches on replica shards.

Every shard holds the full model (one shared-memory image, mapped by
all of them); the router sends each batch to the eligible shard (closed
breaker, live process) with the fewest batches in flight, rotating ties
round-robin.  No processes live in this module, so the routing rule is
unit-testable in isolation.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence

__all__ = ["ShardRouter"]


class ShardRouter:
    """Routes batches to shards by shortest queue.

    :meth:`pick` is shortest-queue routing: the eligible shard with the
    fewest in-flight batches wins, ties rotating round-robin.  Every
    replica maps the same shared-memory model, so no batch prefers a
    shard and the least-loaded one keeps every replica busy.  Load is
    tracked by :meth:`dispatched`/:meth:`completed`.
    """

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self._lock = threading.Lock()
        self._loads = [0] * n_shards
        self._next = 0  # where the round-robin tie-break starts

    # -- load tracking -------------------------------------------------------

    def dispatched(self, shard: int) -> None:
        with self._lock:
            self._loads[shard] += 1

    def completed(self, shard: int) -> None:
        with self._lock:
            self._loads[shard] = max(0, self._loads[shard] - 1)

    def reset(self, shard: int) -> None:
        """Zero a respawned shard's load: its old pipe's messages are gone."""
        with self._lock:
            self._loads[shard] = 0

    def loads(self) -> List[int]:
        with self._lock:
            return list(self._loads)

    # -- routing -------------------------------------------------------------

    def pick(self, eligible: Optional[Sequence[int]] = None) -> int:
        """The eligible shard with the fewest in-flight batches.

        ``eligible`` restricts the candidates (shards whose breaker is
        closed and whose process is alive).  Ties go to the first tied
        shard at or after the rotating start, so equal loads alternate.
        With no eligible shard at all, every shard is a candidate -- the
        caller's breaker/error path owns that failure.
        """
        n = self.n_shards
        candidates = eligible or range(n)
        with self._lock:
            start = self._next
            choice = min(candidates,
                         key=lambda s: (self._loads[s], (s - start) % n))
            self._next = (choice + 1) % n
        return choice
