"""The primitive IR of the bit-domain encoding/search pipeline.

The paper's entire efficiency story (Section 3.3) is built from a
handful of bit-domain primitives -- permute, XOR-fold, bundle,
popcount-search -- but until this module they were hardwired into one
monolithic kernel.  Here each primitive is an explicit, inspectable IR
node carrying *shape* and *logical-cost* metadata, so a planner can
reason about fusion, chunking and backend choice without executing
anything, and traces can attribute work per primitive instead of per
monolith.

The nodes (one encode/search pipeline, in order)::

    Pack ─ Permute ─ XorFold ─ Bundle ─ Unpack        (encoding)
                                └─ PopcountSearch     (inference)

- :class:`Pack` / :class:`Unpack` -- the {0,1}/bipolar <-> ``uint64``
  word boundaries.  Fit-time (levels/ids) and query-time (encodings)
  crossings are both instances of these.
- :class:`Permute` -- the ``rho^j`` rotation of level hypervectors by
  in-window offset.  The planner *fuses* this into table build time
  (``rho^j(levels)`` copies per offset), which is why its runtime cost
  collapses to zero in fused plans.
- :class:`XorFold` -- gather the (permuted) level words of a window's
  features and fold them with XOR; binding the per-window id is one
  more XOR in the same loop.
- :class:`Bundle` -- accumulate per-bit-position counts across windows
  (breadth-first carry-save adders, in place, in ``reduce_planes``).
- :class:`PopcountSearch` -- Hamming distance of a packed query to
  every packed class vector (XOR + popcount), the associative-search
  primitive of the inference stage.

Costs are reported in the repo's *logical* currencies (per-dimension
XORs/adds, bytes moved -- the same units as
:class:`~repro.core.encoders.base.OpProfile` and the device/energy
models) plus the physical ``word_ops`` a packed backend executes.  A
:class:`ShapeCtx` carries the shape parameters every cost formula
needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

_WORD = 64

__all__ = [
    "ShapeCtx",
    "Primitive",
    "Pack",
    "Unpack",
    "Permute",
    "XorFold",
    "Bundle",
    "PopcountSearch",
    "ENCODE_PIPELINE",
]


@dataclass(frozen=True)
class ShapeCtx:
    """Shape parameters the primitive cost formulas close over.

    ``folds`` is the number of windows actually folded and bundled --
    equal to ``n_windows`` for exact encoding, smaller under multifold
    approximation (SHEARer-style sampled window folding).
    """

    n_features: int
    window: int
    dim: int
    use_ids: bool = True
    folds: int = -1  # -1 -> all windows (exact)
    n_classes: int = 0

    @property
    def n_windows(self) -> int:
        return self.n_features - self.window + 1

    @property
    def active_folds(self) -> int:
        return self.n_windows if self.folds < 0 else min(self.folds, self.n_windows)

    @property
    def words(self) -> int:
        return (self.dim + _WORD - 1) // _WORD


class Primitive:
    """Base IR node: a named op with shape/cost metadata.

    Subclasses implement :meth:`op_cost` (logical + word-level counts
    for one sample) and :meth:`out_shape` (symbolic result shape).
    """

    #: registry/describe() name, also the span label primitives carry
    name: str = "primitive"

    def op_cost(self, ctx: ShapeCtx) -> Dict[str, int]:  # pragma: no cover
        raise NotImplementedError

    def out_shape(self, ctx: ShapeCtx) -> Tuple:  # pragma: no cover
        raise NotImplementedError

    def logical_ops(self, ctx: ShapeCtx) -> int:
        """Total logical ops (the obs/energy currency) for one sample."""
        cost = self.op_cost(ctx)
        return cost.get("xor_ops", 0) + cost.get("add_ops", 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


@dataclass(frozen=True, repr=False)
class Pack(Primitive):
    """{0,1}/bipolar array -> packed uint64 words (64 dims per word)."""

    name = "pack"
    rows: int = 1  # how many hypervector rows cross the boundary

    def op_cost(self, ctx: ShapeCtx) -> Dict[str, int]:
        return {
            "mem_bytes": self.rows * (ctx.dim + ctx.words * 8),
            "word_ops": self.rows * ctx.words,
        }

    def out_shape(self, ctx: ShapeCtx) -> Tuple:
        return (self.rows, ctx.words)


@dataclass(frozen=True, repr=False)
class Unpack(Primitive):
    """Packed words -> per-dimension values (the bundle read-out)."""

    name = "unpack"
    rows: int = 1

    def op_cost(self, ctx: ShapeCtx) -> Dict[str, int]:
        return {
            "mem_bytes": self.rows * (ctx.words * 8 + ctx.dim),
            "word_ops": self.rows * ctx.words,
        }

    def out_shape(self, ctx: ShapeCtx) -> Tuple:
        return (self.rows, ctx.dim)


@dataclass(frozen=True, repr=False)
class Permute(Primitive):
    """``rho^j``: rotate level hypervectors by in-window offset ``j``.

    ``fused=True`` (what the planner picks for table-backed backends)
    moves the rotation to fit time -- ``window`` pre-permuted copies of
    the level table -- so the runtime cost is zero and the price is
    table memory.  Unfused (the reference engine's ``np.roll`` per
    chunk) pays the full per-sample byte traffic instead.
    """

    name = "permute"
    fused: bool = True

    def op_cost(self, ctx: ShapeCtx) -> Dict[str, int]:
        if self.fused:
            return {"mem_bytes": 0, "word_ops": 0}
        # every non-zero offset re-copies the gathered levels once
        moved = ctx.active_folds * (ctx.window - 1) * ctx.dim
        return {"mem_bytes": moved, "word_ops": 0}

    def out_shape(self, ctx: ShapeCtx) -> Tuple:
        return (ctx.window, -1, ctx.words)


@dataclass(frozen=True, repr=False)
class XorFold(Primitive):
    """Gather + XOR-fold the window's (permuted) levels, bind the id.

    The planner fuses the gather and the fold into one loop over
    in-window offsets (the ``gather+XOR`` inner loop); with ids bound
    there is one extra XOR per window.
    """

    name = "xor_fold"

    def op_cost(self, ctx: ShapeCtx) -> Dict[str, int]:
        folds_per_window = (ctx.window - 1) + (1 if ctx.use_ids else 0)
        k = ctx.active_folds
        return {
            "xor_ops": k * folds_per_window * ctx.dim,
            "word_ops": k * folds_per_window * ctx.words,
            # one gathered row per offset plus the running fold
            "mem_bytes": k * (ctx.window + 1) * ctx.words * 8,
        }

    def out_shape(self, ctx: ShapeCtx) -> Tuple:
        return (ctx.active_folds, -1, ctx.words)


@dataclass(frozen=True, repr=False)
class Bundle(Primitive):
    """Per-bit-position counts across windows, as carry-save bit planes.

    The packed backend bundles one row tile's ``(windows, rows, words)``
    fold at a time with :func:`~repro.core.kernels.reduce_planes`:
    breadth-first adder stages, each a few whole-stack calls over
    L2-sized runs, that write sums and carries back into the fold.
    """

    name = "bundle"

    def op_cost(self, ctx: ShapeCtx) -> Dict[str, int]:
        k = ctx.active_folds
        return {
            "add_ops": k * ctx.dim,
            # the CSA tree touches each fold word ~5/3 times
            "word_ops": (5 * k * ctx.words) // 3,
            "mem_bytes": k * ctx.words * 8 + 4 * ctx.dim,
        }

    def out_shape(self, ctx: ShapeCtx) -> Tuple:
        return (-1, ctx.dim)


@dataclass(frozen=True, repr=False)
class PopcountSearch(Primitive):
    """Hamming distance of one packed query to every class vector."""

    name = "popcount_search"

    def op_cost(self, ctx: ShapeCtx) -> Dict[str, int]:
        c = max(1, ctx.n_classes)
        return {
            "xor_ops": c * ctx.dim,
            "add_ops": c * ctx.dim,
            "word_ops": 2 * c * ctx.words,
            "mem_bytes": (c + 1) * ctx.words * 8,
        }

    def out_shape(self, ctx: ShapeCtx) -> Tuple:
        return (-1, ctx.n_classes)


#: the canonical encode pipeline, in execution order
ENCODE_PIPELINE: Tuple[Primitive, ...] = (
    Permute(fused=True),
    XorFold(),
    Bundle(),
    Unpack(),
)
