"""Shard routing: shortest-queue routing, class partitions, exact top-k merge.

Two sharding shapes, both pure functions of the model structure (no
processes in this module, so the exactness property is unit-testable in
isolation):

- **replica** -- every shard holds the full model; the router sends
  each batch to the eligible shard (closed breaker, live process) with
  the fewest batches in flight, rotating ties round-robin.
- **partition** -- shard ``s`` owns a contiguous slice of class rows;
  each shard answers a top-k over *its* rows with **global** row
  indices, and :func:`merge_topk` recombines the per-shard lists by the
  lexicographic ``(distance, row)`` key.  Because a stable sort over
  the full distance matrix orders ties exactly the way ``np.argmin``
  breaks them (first occurrence), the merged argmin is bit-identical to
  single-process :meth:`~repro.core.packed.PackedModel.predict_packed`
  -- HDC's associative search is additive over class rows, so sharding
  it loses nothing (the same structure SHEARer exploits across
  dimension folds).
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["partition_classes", "merge_topk", "ShardRouter"]


def partition_classes(n_classes: int, n_shards: int) -> List[slice]:
    """Contiguous class-row slices, sizes differing by at most one.

    Shards beyond ``n_classes`` get empty slices (they simply answer
    empty top-k lists); row coverage is exact and disjoint.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    base, extra = divmod(n_classes, n_shards)
    slices, lo = [], 0
    for s in range(n_shards):
        hi = lo + base + (1 if s < extra else 0)
        slices.append(slice(lo, hi))
        lo = hi
    return slices


def merge_topk(
    dists: Sequence[np.ndarray], rows: Sequence[np.ndarray], k: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Exactly merge per-shard top-k lists into a global top-k.

    ``dists[s]`` / ``rows[s]`` are one shard's ``(N, k_s)`` best
    distances and *global* row indices (as returned by
    :meth:`PackedModel.topk_to_classes`).  The merge key is the
    lexicographic ``(distance, row)`` pair -- ``np.lexsort``'s last key
    is primary -- which reproduces ``np.argmin``'s first-occurrence
    tie-breaking, so ``merged_rows[:, 0]`` equals the single-process
    argmin row for every query, bit for bit.
    """
    live = [(d, r) for d, r in zip(dists, rows) if d.shape[1] > 0]
    if not live:
        raise ValueError("merge_topk: every shard returned an empty top-k")
    D = np.concatenate([d for d, _ in live], axis=1)
    R = np.concatenate([r for _, r in live], axis=1)
    order = np.lexsort((R, D))[:, : max(1, int(k))]
    return (np.take_along_axis(D, order, axis=1),
            np.take_along_axis(R, order, axis=1))


class ShardRouter:
    """Routes batches to shards; merges partitioned search results.

    :meth:`pick` is shortest-queue routing: the eligible shard with the
    fewest in-flight batches wins, ties rotating round-robin.  Every
    replica maps the same shared-memory model, so no batch prefers a
    shard and the least-loaded one keeps every replica busy.  Load is
    tracked by :meth:`dispatched`/:meth:`completed`.

    In partition mode every shard owns ``slices[s]`` of the class rows
    and search batches broadcast to all shards; :meth:`pick` places the
    encode phase by the same rule.
    """

    def __init__(self, n_shards: int, mode: str = "replica",
                 n_classes: Optional[int] = None):
        if mode not in ("replica", "partition"):
            raise ValueError(
                f"mode must be 'replica' or 'partition', got {mode!r}"
            )
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if mode == "partition" and n_classes is None:
            raise ValueError("partition mode needs n_classes")
        self.n_shards = n_shards
        self.mode = mode
        self.slices = (partition_classes(n_classes, n_shards)
                       if mode == "partition" else None)
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

    # -- partitioned search --------------------------------------------------

    def shard_rows(self, shard: int) -> slice:
        if self.slices is None:
            raise RuntimeError("shard_rows is only defined in partition mode")
        return self.slices[shard]

    def merge(self, partials: dict, k: int = 1):
        """Merge ``{shard: (dists, rows)}`` partials (partition mode)."""
        shards = sorted(partials)
        return merge_topk([partials[s][0] for s in shards],
                          [partials[s][1] for s in shards], k=k)
