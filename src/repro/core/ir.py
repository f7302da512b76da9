"""Encode plans: the planner, the reference oracle and the op counts.

The paper's encoder decomposes into a handful of primitives -- permute,
XOR-fold, bundle, unpack -- that run in one of two representations:

- ``numpy-reference`` (``engine="reference"``): the bipolar ground
  truth, Eq. 1 as written -- int8 level gathers, ``np.roll`` per
  in-window offset, int8 products, an int32 sum
  (:func:`reference_encode`);
- ``packed-uint64`` (``engine="packed"``, and what ``"auto"`` resolves
  to): the bit-domain path of :mod:`repro.core.kernels`.

Both give the same counts for every plan; the property suite in
``tests/core/test_ir.py`` pins this over random shapes, dims and
approximation levels.

Given the static shape of an encode -- ``(n_features, window, dim,
num_levels)``, the engine and an optional multifold approximation
level -- :class:`KernelPlanner` decides, once per shape class:

- **fusion**: the permute is always fused into fit-time pre-permuted
  tables on the packed path, and when the fused pair tables
  ``rho^j(levels) ^ rho^{j+1}(levels)`` fit the cache budget, adjacent
  in-window offsets fuse too -- halving the gather+XOR passes over the
  fold slab;
- **chunking**: how many samples per encode chunk, and -- on the
  packed path -- how many rows each call folds per tile.  Both come
  from one fold-slab byte budget, :data:`~repro.core.kernels.SLAB`: a
  chunk holds as many rows as keep its count rows inside the slab, and
  a tile holds as many rows as keep its ``(windows, rows, words)``
  uint64 fold of *every* window inside it.  At ``D=8192`` a serving
  batch of <= 32 rows is one tile and a 128-row training chunk four;
- **approximation**: SHEARer-style multifold sampling -- fold only
  ``approx_folds`` evenly spaced windows, with the exact-vs-approx
  error bound surfaced on the plan.

Plans are cached per frozen :class:`PlanRequest`.  The logical op
counts per primitive come from one function, :func:`encode_op_counts`;
plan introspection (:meth:`KernelPlan.primitive_ops`), encode spans and
the encoders' :class:`~repro.core.encoders.base.OpProfile` all read it,
so traces, energy estimates and the device models cannot disagree.
Counts are *logical* (per dimension): the packed path executes 64
dimensions per word op but reports the same work as the reference.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.kernels import (
    SLAB,
    _row_tiles,
    _shift_index,
    _window_indices,
    sign_words,
)

__all__ = [
    "BACKENDS",
    "BACKEND_TO_ENGINE",
    "ENGINE_TO_BACKEND",
    "EncodeSources",
    "KernelPlan",
    "KernelPlanner",
    "PLANNER",
    "PlanRequest",
    "encode_op_counts",
    "plan_encode",
    "reference_encode",
    "resolve_backend",
    "select_windows",
]

REFERENCE = "numpy-reference"
PACKED = "packed-uint64"

#: ``engine=`` names -> backend names
ENGINE_TO_BACKEND = {"reference": REFERENCE, "packed": PACKED}
BACKEND_TO_ENGINE = {v: k for k, v in ENGINE_TO_BACKEND.items()}


class _Backends(tuple):
    """The backend names a plan can run on (benchmarks fingerprint them)."""

    def names(self):
        return sorted(self)


BACKENDS = _Backends(BACKEND_TO_ENGINE)

#: total bytes of encode intermediates per chunk on the reference path
#: (matches the historic ``Encoder`` budget)
CHUNK_BUDGET = 64 * 1024 * 1024
#: fused pair tables must fit this budget (L^2 x words x 8 per pair)
PAIR_TABLE_BUDGET = 16 * 1024 * 1024
#: below this many words per vector, pair fusion loses: the unfused
#: tables are L1-resident and the saved XOR slab pass is cheaper than
#: the pair table's random-access working set (measured on the bench
#: grid: 0.73x at D=1024, 1.6x+ at D>=4096)
PAIR_FUSION_MIN_WORDS = 32


def resolve_backend(engine: Optional[str]) -> str:
    """The backend name an ``engine=`` value runs on."""
    if engine in (None, "auto"):
        return PACKED
    try:
        return ENGINE_TO_BACKEND[engine]
    except KeyError:
        raise ValueError(
            f"unknown encode engine {engine!r}; choose from "
            f"{('auto',) + tuple(ENGINE_TO_BACKEND)}"
        ) from None


def select_windows(n_windows: int, folds: Optional[int]) -> Optional[np.ndarray]:
    """Evenly spaced window subset for multifold approximation.

    Returns ``None`` for the exact case (``folds`` is None or covers
    every window).  The selection is deterministic -- ``floor(i * n/k)``
    -- strictly increasing, and equals ``arange(n)`` when ``k == n``,
    which is what makes ``approx_folds=n_windows`` bit-identical to
    exact encoding.
    """
    if folds is None or folds >= n_windows:
        return None
    if folds < 1:
        raise ValueError(f"approx_folds must be >= 1, got {folds}")
    return np.floor(
        np.arange(folds, dtype=np.float64) * (n_windows / folds)
    ).astype(np.int64)


def encode_op_counts(
    n_features: int,
    window: int,
    dim: int,
    use_ids: bool = True,
    folds: Optional[int] = None,
) -> Dict[str, int]:
    """Logical per-sample op counts of one encode, by primitive.

    Each of the ``k`` folded windows (every window, or ``folds`` of
    them) costs ``window - 1`` XORs per dimension to fold its permuted
    levels, one more to bind its id when ids are bound, and one
    accumulation into the bundle.  The permute is fused into the tables
    (reference: a rotation, no arithmetic) and the unpack is a
    read-out, so both count zero.
    """
    n_windows = n_features - window + 1
    if n_windows < 1:
        raise ValueError(
            f"window={window} longer than input ({n_features} features)"
        )
    k = n_windows if folds is None else min(folds, n_windows)
    return {
        "permute": 0,
        "xor_fold": k * ((window - 1) + (1 if use_ids else 0)) * dim,
        "bundle": k * dim,
        "unpack": 0,
    }


def reference_encode(
    levels: np.ndarray,
    ids: Optional[np.ndarray],
    bins: np.ndarray,
    window: int,
    window_sel: Optional[np.ndarray] = None,
    tile_rows: Optional[int] = None,
) -> np.ndarray:
    """The bipolar oracle: ``sum_i id_i * prod_j rho^j(l(x_{i+j}))``.

    ``levels`` is the ``(L, D)`` int8 level table and ``ids`` the
    ``(n_windows, D)`` id table (None for none).  Bipolar products are
    XORs in the binary view, so this is the packed path's ground truth.
    Rows go ``tile_rows`` at a time (all at once when None).
    """
    bins = np.asarray(bins)
    idx = _window_indices(window_sel, bins.shape[1] - window + 1)
    out = np.empty((len(bins), levels.shape[1]), dtype=np.int32)
    for rows in _row_tiles(len(bins), tile_rows or max(1, len(bins))):
        tile = bins[rows]
        prod = None
        for j in range(window):
            lv = levels[tile[:, _shift_index(idx, j)]]
            if j:
                lv = np.roll(lv, j, axis=-1)
            prod = lv if prod is None else prod.__imul__(lv)
            del lv  # free the temp before the next gather (peak memory)
        if ids is not None:
            prod *= ids[idx][None, :, :]
        out[rows] = prod.sum(axis=1, dtype=np.int32)
    return out


@dataclass
class EncodeSources:
    """The fitted tables one encode call closes over.

    ``levels``/``ids`` feed the reference path; ``kernel`` (a
    :class:`~repro.core.kernels.GenericPackedKernel`) the packed one.
    """

    levels: Optional[np.ndarray] = None  # (L, D) int8 bipolar level table
    ids: Optional[np.ndarray] = None  # (n_windows, D) int8 bipolar or None
    kernel: Optional[object] = None  # GenericPackedKernel


@dataclass(frozen=True)
class PlanRequest:
    """The shape-class key one plan is built (and cached) for."""

    n_features: int
    window: int
    dim: int
    num_levels: int
    use_ids: bool = True
    engine: str = "auto"
    approx_folds: Optional[int] = None

    @property
    def n_windows(self) -> int:
        return self.n_features - self.window + 1

    def validate(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.n_windows < 1:
            raise ValueError(
                f"window={self.window} longer than input "
                f"({self.n_features} features)"
            )
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.approx_folds is not None and self.approx_folds < 1:
            raise ValueError(
                f"approx_folds must be >= 1, got {self.approx_folds}"
            )


@dataclass
class KernelPlan:
    """One encode recipe for a shape class, bound to a backend."""

    request: PlanRequest
    backend_name: str
    window_sel: Optional[np.ndarray]
    #: rows per tile: a call folds every window of ``tile_rows`` rows
    #: at a time and reads each tile out before folding the next
    tile_rows: int
    fuse_pairs: bool
    bytes_per_sample: int
    chunk_samples: int
    error_bound: Optional[Dict[str, float]] = None

    # -- execution -----------------------------------------------------------

    def execute(self, sources: EncodeSources, bins: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
        """Encode quantized bins ``(N, n_features)`` to int32 counts.

        The packed backend writes them straight into ``out`` when given
        and returns it (see :meth:`GenericPackedKernel.encode_bins
        <repro.core.kernels.GenericPackedKernel.encode_bins>`).
        """
        if self.backend_name == REFERENCE:
            if sources.levels is None:
                raise ValueError(f"{REFERENCE} needs the bipolar level table")
            return reference_encode(
                sources.levels, sources.ids, bins, self.request.window,
                self.window_sel, self.tile_rows,
            )
        return self._kernel(sources).encode_bins(
            bins, self.window_sel, self.tile_rows, self.fuse_pairs, out)

    def execute_signs(self, sources: EncodeSources, bins: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """The same encodings as packed sign words ``(N, words)``.

        Bit set where the count is negative (a zero count is +1, bit
        0).  The packed path reads them off the bit planes and never
        builds counts.
        """
        if self.backend_name == REFERENCE:
            return sign_words(self.execute(sources, bins))
        return self._kernel(sources).encode_sign_bins(
            bins, self.window_sel, self.tile_rows, self.fuse_pairs, out)

    @staticmethod
    def _kernel(sources: EncodeSources):
        if sources.kernel is None:
            raise ValueError(f"{PACKED} needs a packed kernel")
        return sources.kernel

    # -- introspection -------------------------------------------------------

    @property
    def folds(self) -> int:
        """How many windows are folded and bundled."""
        if self.window_sel is None:
            return self.request.n_windows
        return len(self.window_sel)

    @property
    def words(self) -> int:
        return -(-self.request.dim // 64)

    def primitive_ops(self, n_samples: int = 1) -> Dict[str, int]:
        """Per-primitive logical op totals (the obs/span currency)."""
        r = self.request
        ops = encode_op_counts(r.n_features, r.window, r.dim, r.use_ids,
                               r.approx_folds)
        return {name: count * n_samples for name, count in ops.items()}

    def describe(self) -> str:
        """Human-readable rendering of every planner decision."""
        r = self.request
        tiles = -(-self.chunk_samples // self.tile_rows)
        lines = [
            f"KernelPlan[{self.backend_name}]",
            f"  shape    : n_features={r.n_features} window={r.window} "
            f"dim={r.dim} ({self.words} words) levels={r.num_levels} "
            f"ids={'bound' if r.use_ids else 'identity'}",
            f"  windows  : {self.folds}/{r.n_windows} folded"
            + ("" if self.window_sel is None
               else " (multifold approximation, evenly spaced)"),
            "  fusion   : permute "
            + ("by rotation per window offset"
               if self.backend_name == REFERENCE
               else "fused into pre-permuted tables")
            + "; pair tables "
            + ("ON (adjacent offsets fused)" if self.fuse_pairs else "off"),
            f"  chunking : {self.chunk_samples} samples/chunk "
            f"({self.bytes_per_sample} B/sample), {self.tile_rows} rows/tile "
            f"({tiles} tile{'s' if tiles > 1 else ''} per full chunk)",
        ]
        if self.error_bound is not None:
            eb = self.error_bound
            lines.append(
                f"  approx   : |count error| <= {eb['max_abs_count_error']} "
                f"per dim ({eb['fold_fraction']:.0%} of windows folded)"
            )
        lines.append("  logical ops (per sample):")
        for name, count in self.primitive_ops(1).items():
            lines.append(f"    {name:16s} {count}")
        return "\n".join(lines)


class KernelPlanner:
    """Resolve (shape, engine) requests into cached plans."""

    def __init__(self):
        self._cache: Dict[PlanRequest, KernelPlan] = {}
        self._lock = threading.Lock()
        self.plans_built = 0

    def plan(self, request: PlanRequest) -> KernelPlan:
        """The cached plan for ``request`` (built on first miss)."""
        cached = self._cache.get(request)
        if cached is not None:
            return cached
        request.validate()
        plan = self._build(request)
        with self._lock:
            self._cache.setdefault(request, plan)
            self.plans_built += 1
        return self._cache[request]

    def cache_info(self) -> Dict[str, int]:
        with self._lock:
            return {"plans": len(self._cache), "built": self.plans_built}

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    @staticmethod
    def _build(request: PlanRequest) -> KernelPlan:
        backend_name = resolve_backend(request.engine)
        n_win = request.n_windows
        sel = select_windows(n_win, request.approx_folds)
        folds = n_win if sel is None else len(sel)
        words = -(-request.dim // 64)

        if backend_name == REFERENCE:
            fuse_pairs = False
            # level gather, rolled copy, running product and the bound
            # result all materialize at (folds, dim) int8 scale
            bytes_per_sample = folds * request.dim * (request.window + 1)
            chunk_samples = max(1, CHUNK_BUDGET // bytes_per_sample)
            tile_rows = chunk_samples
        else:
            pair_bytes = (request.num_levels ** 2) * words * 8
            n_pairs = request.window // 2
            fuse_pairs = (
                request.window >= 2
                and words >= PAIR_FUSION_MIN_WORDS
                and n_pairs * pair_bytes <= PAIR_TABLE_BUDGET
            )
            # one row's uint64 fold of every window, and its int32 ones
            # + count rows
            fold_bytes = folds * words * 8
            row_bytes = 8 * request.dim
            tile_rows = max(1, SLAB // fold_bytes)
            chunk_samples = max(1, SLAB // row_bytes)
            # one tile's fold (bundled in place) spread over a full
            # chunk, plus the count rows
            tile = min(tile_rows, chunk_samples)
            bytes_per_sample = tile * fold_bytes // chunk_samples + row_bytes

        error_bound = None
        if sel is not None:
            skipped = n_win - folds
            error_bound = {
                "skipped_windows": skipped,
                "max_abs_count_error": skipped,
                "fold_fraction": folds / n_win,
            }

        return KernelPlan(
            request=request,
            backend_name=backend_name,
            window_sel=sel,
            tile_rows=int(tile_rows),
            fuse_pairs=fuse_pairs,
            bytes_per_sample=int(bytes_per_sample),
            chunk_samples=int(chunk_samples),
            error_bound=error_bound,
        )


#: the process-wide planner every encoder resolves through
PLANNER = KernelPlanner()


def plan_encode(
    n_features: int,
    window: int,
    dim: int,
    num_levels: int,
    use_ids: bool = True,
    engine: str = "auto",
    approx_folds: Optional[int] = None,
) -> KernelPlan:
    """Convenience front door: build/fetch the plan for one shape."""
    return PLANNER.plan(PlanRequest(
        n_features=n_features, window=window, dim=dim,
        num_levels=num_levels, use_ids=use_ids, engine=engine,
        approx_folds=approx_folds,
    ))
