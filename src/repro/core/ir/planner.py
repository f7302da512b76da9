"""The kernel planner: shapes in, fused executable plans out.

Given the static shape of an encode problem -- ``(n_features, window,
dim, num_levels)`` plus the engine request and an optional multifold
approximation level -- the :class:`KernelPlanner` decides

- **backend**: which registered :class:`~repro.core.ir.backends.Backend`
  executes (``auto`` resolves to the highest-priority available one);
- **fusion**: the permute is always fused into fit-time pre-permuted
  tables on table-backed backends, and when the fused pair tables
  ``rho^j(levels) ^ rho^{j+1}(levels)`` fit the cache budget, adjacent
  in-window offsets fuse too -- halving the gather+XOR passes over the
  fold slab;
- **chunking**: how many samples per encode chunk, and -- on the
  packed path -- how many windows each call folds per block.  Both
  come from one fold-slab byte budget, :data:`SLAB`: a chunk holds as
  many rows as keep its count rows inside the slab, and each call
  folds as many windows per block as keep *its own* ``(windows, rows,
  words)`` uint64 fold slab inside it
  (:meth:`KernelPlan.window_block_for`).  The block is a property of
  the rows in the call, not of the shape: a 128-row training chunk at
  ``D=8192`` folds 64-window blocks, a serving batch of <= 32 rows
  folds all 254 windows in one block;
- **approximation**: SHEARer-style multifold sampling -- fold only
  ``approx_folds`` evenly spaced windows, with the exact-vs-approx
  error bound surfaced on the plan.

Plans are immutable, cached per shape-class (the frozen
:class:`PlanRequest` is the cache key), cheap to hash, and carry
per-primitive op counts so traces can attribute work per primitive
(:meth:`KernelPlan.primitive_ops`) and ``encode_batch`` can size its
chunk fan-out from :attr:`KernelPlan.chunk_samples` instead of each
encoder's hand-tuned heuristic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.ir.backends import (
    BACKENDS,
    BACKEND_TO_ENGINE,
    ENGINE_TO_BACKEND,
    BackendRegistry,
    EncodeSources,
)
from repro.core.ir.primitives import (
    Bundle,
    Permute,
    PopcountSearch,
    Primitive,
    ShapeCtx,
    Unpack,
    XorFold,
)

__all__ = [
    "PlanRequest",
    "KernelPlan",
    "KernelPlanner",
    "PLANNER",
    "plan_encode",
    "select_windows",
]

#: total bytes of encode intermediates per chunk on the bipolar and
#: JIT backends (matches the historic ``Encoder`` budget)
CHUNK_BUDGET = 64 * 1024 * 1024
#: fold-slab byte budget of the packed path.  A chunk holds
#: ``SLAB // (8 * dim)`` rows (its int32 ones + count rows fit the
#: slab) and one call on ``rows`` samples folds
#: ``SLAB // (rows * words * 8)`` windows per block.  8 MiB is a few
#: L2s: on a 2-vCPU Xeon (2 MiB L2 per core) at D=8192 it took encoding
#: 2080 training rows from 1.0-1.1 s (114-row chunks, one ~30 MB slab
#: each) to 0.54-0.67 s (128-row chunks, 64-window blocks), while
#: serving batches of <= 32 rows keep one block.  A fixed 32-window
#: block lost ~19% serving throughput in a prototype on that host:
#: eight small blocks plus their ripple-adds per batch made the
#: two-thread encode GIL-bound.
SLAB = 8 * 1024 * 1024
#: fused pair tables must fit this budget (L^2 x words x 8 per pair)
PAIR_TABLE_BUDGET = 16 * 1024 * 1024
#: below this many words per vector, pair fusion loses: the unfused
#: tables are L1-resident and the saved XOR slab pass is cheaper than
#: the pair table's random-access working set (measured on the bench
#: grid: 0.73x at D=1024, 1.6x+ at D>=4096)
PAIR_FUSION_MIN_WORDS = 32


#: backends that fold every window of a call in one block
_UNBLOCKED_BACKENDS = ("numpy-reference", "numba-jit")


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
    n_classes: int = 0

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
    """One fused, backend-bound execution recipe for a shape-class."""

    request: PlanRequest
    ctx: ShapeCtx
    backend_name: str
    steps: Tuple[Primitive, ...]
    window_sel: Optional[np.ndarray]
    #: the most windows one block may fold; the packed backend folds
    #: :meth:`window_block_for` (rows in the call) windows per block
    window_block: int
    fuse_pairs: bool
    bytes_per_sample: int
    chunk_samples: int
    error_bound: Optional[Dict[str, float]] = None

    # -- execution -----------------------------------------------------------

    @property
    def backend(self):
        return BACKENDS.get(self.backend_name)

    @property
    def engine(self) -> str:
        """Legacy engine label for this plan's backend."""
        return BACKEND_TO_ENGINE.get(self.backend_name, self.backend_name)

    def execute(self, sources: EncodeSources, bins: np.ndarray) -> np.ndarray:
        """Run the encode pipeline on quantized bins ``(N, n_features)``."""
        return self.backend.encode(self, sources, bins)

    def execute_signs(self, sources: EncodeSources,
                      bins: np.ndarray) -> np.ndarray:
        """The same pipeline read out as packed sign words ``(N, words)``."""
        return self.backend.encode_signs(self, sources, bins)

    # -- introspection -------------------------------------------------------

    @property
    def folds(self) -> int:
        return self.ctx.active_folds

    def window_block_for(self, rows: int) -> int:
        """Windows folded per block in a call on ``rows`` samples.

        Packed plans fold as many windows as keep the call's uint64
        fold slab (``rows x words x 8`` bytes per window) inside
        :data:`SLAB`, at most :attr:`window_block`, spread evenly over
        the blocks that takes (254 windows under a 72-window limit fold
        64+64+64+62, not 72+72+72+38).  The bipolar and JIT backends
        fold :attr:`window_block` windows per block.
        """
        if self.backend_name in _UNBLOCKED_BACKENDS:
            return self.window_block
        fit = SLAB // max(1, rows * self.ctx.words * 8)
        limit = max(1, min(self.window_block, fit))
        n_blocks = -(-self.folds // limit)
        return -(-self.folds // n_blocks)

    def op_counts(self, n_samples: int = 1) -> Dict[str, Dict[str, int]]:
        """Per-primitive op metadata for ``n_samples`` inputs."""
        out: Dict[str, Dict[str, int]] = {}
        for step in self.steps:
            cost = {k: int(v) * n_samples for k, v in step.op_cost(self.ctx).items()}
            if step.name in out:
                for k, v in cost.items():
                    out[step.name][k] = out[step.name].get(k, 0) + v
            else:
                out[step.name] = cost
        return out

    def primitive_ops(self, n_samples: int = 1) -> Dict[str, int]:
        """Per-primitive *logical* op totals (the obs/span currency)."""
        return {
            step.name: step.logical_ops(self.ctx) * n_samples
            for step in self.steps
        }

    def describe(self) -> str:
        """Human-readable rendering of every planner decision."""
        ctx = self.ctx
        n_win = ctx.n_windows
        block = self.window_block_for(self.chunk_samples)
        lines = [
            f"KernelPlan[{self.backend_name}]",
            f"  shape    : n_features={ctx.n_features} window={ctx.window} "
            f"dim={ctx.dim} ({ctx.words} words) levels={self.request.num_levels} "
            f"ids={'bound' if ctx.use_ids else 'identity'}",
            f"  windows  : {self.folds}/{n_win} folded"
            + ("" if self.window_sel is None
               else " (multifold approximation, evenly spaced)"),
            "  fusion   : permute "
            + ("fused into pre-permuted tables"
               if any(getattr(s, "fused", False) for s in self.steps)
               else "by rotation per window offset")
            + "; pair tables "
            + ("ON (adjacent offsets fused)" if self.fuse_pairs else "off"),
            f"  chunking : {self.chunk_samples} samples/chunk "
            f"({self.bytes_per_sample} B/sample), window block "
            + (f"{block} at a full chunk (sized per call)"
               if block < self.folds else f"{self.folds} (single block)"),
        ]
        if self.error_bound is not None:
            eb = self.error_bound
            lines.append(
                f"  approx   : |count error| <= {eb['max_abs_count_error']} "
                f"per dim ({eb['fold_fraction']:.0%} of windows folded)"
            )
        lines.append("  primitive ops (per sample):")
        counts = self.op_counts(1)
        for step in self.steps:
            cost = counts.get(step.name, {})
            parts = ", ".join(
                f"{k}={v}" for k, v in sorted(cost.items()) if v
            ) or "free (fused at fit)"
            lines.append(f"    {step.name:16s} {parts}")
        return "\n".join(lines)


class KernelPlanner:
    """Resolve (shape, engine) requests into cached executable plans."""

    def __init__(self, registry: Optional[BackendRegistry] = None):
        self.registry = registry or BACKENDS
        self._cache: Dict[PlanRequest, KernelPlan] = {}
        self._lock = threading.Lock()
        self.plans_built = 0

    # -- backend resolution --------------------------------------------------

    def resolve_backend(self, engine: str) -> str:
        """Map an ``engine=`` value to a registered backend name."""
        if engine in (None, "auto"):
            return self.registry.best().name
        name = ENGINE_TO_BACKEND.get(engine, engine)
        return self.registry.get(name).name

    # -- planning ------------------------------------------------------------

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

    # -- the decision procedure ----------------------------------------------

    def _build(self, request: PlanRequest) -> KernelPlan:
        backend_name = self.resolve_backend(request.engine)
        n_win = request.n_windows
        sel = select_windows(n_win, request.approx_folds)
        folds = n_win if sel is None else len(sel)
        ctx = ShapeCtx(
            n_features=request.n_features,
            window=request.window,
            dim=request.dim,
            use_ids=request.use_ids,
            folds=-1 if sel is None else folds,
            n_classes=request.n_classes,
        )
        words = ctx.words

        chunk_samples = None
        if backend_name == "numpy-reference":
            fuse_pairs = False
            window_block = folds
            # level gather, rolled copy, running product and the bound
            # result all materialize at (folds, dim) int8 scale
            bytes_per_sample = folds * request.dim * (request.window + 1)
            permute = Permute(fused=False)
        elif backend_name == "numba-jit":
            fuse_pairs = False  # the JIT loop is already fully fused
            window_block = folds
            bytes_per_sample = 8 * request.dim  # ones + out rows only
            permute = Permute(fused=True)
        else:  # packed-uint64 and packed-compatible plug-ins
            permute = Permute(fused=True)
            pair_bytes = (request.num_levels ** 2) * words * 8
            n_pairs = request.window // 2
            fuse_pairs = (
                request.window >= 2
                and words >= PAIR_FUSION_MIN_WORDS
                and n_pairs * pair_bytes <= PAIR_TABLE_BUDGET
            )
            # the uint64 words one row adds to the fold slab per window,
            # and its int32 ones + count rows
            window_bytes = words * 8
            row_bytes = 8 * request.dim
            # a cap only when one row's fold of every window overflows
            # the slab; calls block by their rows (window_block_for)
            window_block = max(1, min(folds, SLAB // window_bytes))
            chunk_samples = max(1, SLAB // row_bytes)
            full_block = max(1, min(window_block,
                                    SLAB // (chunk_samples * window_bytes)))
            # fold slab + gather temp per (sample, window) at a full
            # chunk, plus the count rows
            bytes_per_sample = 2 * full_block * window_bytes + row_bytes

        if chunk_samples is None:
            chunk_samples = max(1, CHUNK_BUDGET // max(1, bytes_per_sample))

        error_bound = None
        if sel is not None:
            skipped = n_win - folds
            error_bound = {
                "skipped_windows": skipped,
                "max_abs_count_error": skipped,
                "fold_fraction": folds / n_win,
            }

        steps = (permute, XorFold(), Bundle(), Unpack())
        if request.n_classes:
            steps = steps + (PopcountSearch(),)

        return KernelPlan(
            request=request,
            ctx=ctx,
            backend_name=backend_name,
            steps=steps,
            window_sel=sel,
            window_block=window_block,
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
    n_classes: int = 0,
    planner: Optional[KernelPlanner] = None,
) -> KernelPlan:
    """Convenience front door: build/fetch the plan for one shape."""
    request = PlanRequest(
        n_features=n_features, window=window, dim=dim,
        num_levels=num_levels, use_ids=use_ids, engine=engine,
        approx_folds=approx_folds, n_classes=n_classes,
    )
    return (planner or PLANNER).plan(request)
