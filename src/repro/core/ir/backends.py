"""Pluggable execution backends for the primitive IR.

A :class:`Backend` implements the IR primitives of
:mod:`repro.core.ir.primitives` for one representation of
hypervectors, and executes the fused encode pipeline a
:class:`~repro.core.ir.planner.KernelPlan` describes.  Backends are
registered in a :class:`BackendRegistry` -- patterned after the
:mod:`repro.platforms` device registry: a named catalogue the planner
resolves engines through -- so new hardware paths (SIMD, GPU) plug in
without touching encoders or callers.

Shipped backends:

- ``numpy-reference`` -- the readable bipolar-domain ground truth
  (int8 level gathers, ``np.roll`` permutes, int8 products).
- ``packed-uint64`` -- the bit-domain fast path of
  :mod:`repro.core.kernels` (pre-permuted packed tables, word-wise
  XOR folds, carry-save-adder bundling into bit planes), refactored
  here into per-primitive methods.  Its sign read-out compares the
  planes against ``k // 2 + 1`` and never builds int32 counts.
- ``numba-jit`` -- optional fully-fused scalar loops compiled by
  numba, auto-detected at import (see
  :mod:`repro.core.ir.numba_backend`); absent silently when numba is
  not installed.

Every backend is *bit-identical* to every other for the same plan --
the property suite in ``tests/core/test_ir.py`` pins this over random
shapes, dims and approximation levels.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "Backend",
    "BackendRegistry",
    "BACKENDS",
    "EncodeSources",
    "NumpyReferenceBackend",
    "PackedUint64Backend",
    "ENGINE_TO_BACKEND",
    "BACKEND_TO_ENGINE",
]

#: legacy ``engine=`` names -> backend names (the compatibility surface)
ENGINE_TO_BACKEND = {
    "reference": "numpy-reference",
    "packed": "packed-uint64",
    "numba": "numba-jit",
}
BACKEND_TO_ENGINE = {v: k for k, v in ENGINE_TO_BACKEND.items()}


@dataclass
class EncodeSources:
    """The fitted tables one encode call closes over.

    ``levels``/``ids`` feed the bipolar backends; ``kernel`` (a
    :class:`~repro.core.kernels.GenericPackedKernel`) feeds the packed
    ones.  An encoder hands the planner whichever side its engine
    needs; handing both lets the planner switch backends per plan.
    """

    levels: Optional[np.ndarray] = None  # (L, D) int8 bipolar level table
    ids: Optional[np.ndarray] = None  # (n_windows, D) int8 bipolar or None
    kernel: Optional[object] = None  # GenericPackedKernel for packed backends


class Backend:
    """One implementation of the IR primitives.

    Subclasses provide the primitive methods (``xor_fold``, ``bundle``,
    ``popcount_search``) plus :meth:`encode` -- the fused execution of
    a whole encode plan.  ``encode`` must return the same ``(N, dim)``
    int32 count matrix for any backend and any legal plan, and
    :meth:`encode_signs` the same packed sign words.
    """

    #: registry name (also what ``plan.backend`` reports)
    name: str = "backend"
    #: auto-selection rank: the planner's ``engine="auto"`` picks the
    #: highest-priority available backend
    priority: int = 0

    @classmethod
    def available(cls) -> bool:
        """Can this backend run in the current environment?"""
        return True

    def encode(self, plan, sources: EncodeSources,
               bins: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def encode_signs(self, plan, sources: EncodeSources,
                     bins: np.ndarray) -> np.ndarray:
        """The plan's sign-quantized encodings as packed query words.

        ``(N, ceil(dim/64))`` uint64, bit set where the count is
        negative (a zero count is +1, bit 0).  The default reads the
        sign off :meth:`encode`'s counts; a bit-domain backend can skip
        the counts entirely.
        """
        from repro.core.kernels import sign_words

        return sign_words(self.encode(plan, sources, bins))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} priority={self.priority}>"


def _window_indices(plan, n_windows: int):
    """The window index vector a plan folds (None -> all, in order)."""
    if plan.window_sel is None:
        return np.arange(n_windows, dtype=np.int64)
    sel = plan.window_sel
    if sel[-1] >= n_windows:
        raise ValueError(
            f"plan selects window {int(sel[-1])} but input has only "
            f"{n_windows} windows"
        )
    return sel


def _window_blocks(plan, n_windows: int, rows: int):
    """Yield ``(idx, count)`` window blocks for one encode pass on ``rows``.

    Exact plans (``window_sel is None``) yield :class:`slice` objects so
    every downstream gather stays a basic-indexing *view* of ``bins_t``
    -- fancy ``idx + j`` index arrays cost a materialized copy per
    window offset, which is the difference between matching and
    trailing the fused monolith at small ``dim``.  Approximate plans
    yield the selected index vector in array form.
    """
    block = plan.window_block_for(rows)
    if plan.window_sel is None:
        for b0 in range(0, n_windows, block):
            hi = min(b0 + block, n_windows)
            yield slice(b0, hi), hi - b0
    else:
        idx_all = _window_indices(plan, n_windows)
        for b0 in range(0, len(idx_all), block):
            idx = idx_all[b0:b0 + block]
            yield idx, len(idx)


def _shift_index(idx, j: int):
    """``idx + j`` for either index form (slice stays a slice)."""
    if isinstance(idx, slice):
        return slice(idx.start + j, idx.stop + j) if j else idx
    return idx + j if j else idx


class NumpyReferenceBackend(Backend):
    """Bipolar int8 ground truth: gather, roll, multiply, sum."""

    name = "numpy-reference"
    priority = 0

    # -- primitive impls ----------------------------------------------------

    def permute(self, vectors: np.ndarray, shift: int) -> np.ndarray:
        """``rho^shift``: rotate along the dimension axis."""
        return np.roll(vectors, shift, axis=-1) if shift else vectors

    def xor_fold(self, levels: np.ndarray, bins: np.ndarray,
                 idx: np.ndarray, window: int) -> np.ndarray:
        """Fold one block of windows: ``prod_j rho^j(l(x_{i+j}))``.

        XOR in the binary view is multiplication in the bipolar view;
        this is the reference-domain rendering of the fused
        permute+xor-fold loop.
        """
        prod: Optional[np.ndarray] = None
        for j in range(window):
            lv = self.permute(levels[bins[:, _shift_index(idx, j)]], j)
            prod = lv.copy() if prod is None else prod.__imul__(lv)
            del lv  # free the temp before the next gather (peak memory)
        return prod

    def bundle(self, bound: np.ndarray) -> np.ndarray:
        """Sum the bound window hypervectors into int32 counts."""
        return bound.sum(axis=1, dtype=np.int32)

    def popcount_search(self, queries: np.ndarray,
                        classes: np.ndarray) -> np.ndarray:
        """Hamming distances between bipolar {-1,+1} rows.

        ``hamming = (D - q . c) / 2`` for bipolar vectors -- the
        bipolar-domain twin of XOR+popcount, pinned bit-identical to
        :func:`repro.core.kernels.packed_hamming` by the test suite.
        """
        queries = np.asarray(queries, dtype=np.int32)
        classes = np.asarray(classes, dtype=np.int32)
        dots = queries @ classes.T
        return ((queries.shape[-1] - dots) // 2).astype(np.int64)

    # -- fused plan execution ----------------------------------------------

    def encode(self, plan, sources: EncodeSources,
               bins: np.ndarray) -> np.ndarray:
        levels = sources.levels
        ids = sources.ids
        if levels is None:
            raise ValueError(f"{self.name} backend needs bipolar level table")
        window = plan.ctx.window
        n_win = bins.shape[1] - window + 1
        _window_indices(plan, n_win)  # validates window_sel bounds
        out = np.zeros((len(bins), plan.ctx.dim), dtype=np.int32)
        for idx, _ in _window_blocks(plan, n_win, len(bins)):
            prod = self.xor_fold(levels, bins, idx, window)
            if ids is not None:
                prod = prod * ids[idx][None, :, :]
            out += self.bundle(prod)
        return out


class PackedUint64Backend(Backend):
    """The bit-domain fast path: packed tables, word XOR, CSA bundling."""

    name = "packed-uint64"
    priority = 20

    # -- primitive impls ----------------------------------------------------
    # (thin named fronts over repro.core.kernels so the monolith's body
    # is now a set of per-primitive entry points)

    def pack(self, bits: np.ndarray) -> np.ndarray:
        from repro.core.kernels import pack_bits

        return pack_bits(bits)

    def unpack(self, words: np.ndarray, dim: int) -> np.ndarray:
        from repro.core.kernels import unpack_bits

        return unpack_bits(words, dim)

    def xor_fold(self, kernel, bins_t: np.ndarray, idx: np.ndarray,
                 fuse_pairs: bool = False) -> np.ndarray:
        """Gather+XOR one block of windows from the packed tables.

        ``bins_t`` is the transposed ``(n_features, N)`` bin matrix;
        ``idx`` the window indices of this block.  With ``fuse_pairs``
        the planner has fused adjacent permuted level tables into
        ``rho^j(levels) ^ rho^{j+1}(levels)`` pair tables
        (:meth:`~repro.core.kernels.GenericPackedKernel.pair_table`),
        halving the gather+XOR passes over the fold slab.
        """
        window = kernel.window
        fold: Optional[np.ndarray] = None
        j = 0
        while j < window:
            if fuse_pairs and j + 1 < window:
                pair = kernel.pair_table(j)
                gathered = pair[bins_t[_shift_index(idx, j)],
                                bins_t[_shift_index(idx, j + 1)]]
                j += 2
            else:
                gathered = kernel.tables[j][bins_t[_shift_index(idx, j)]]
                j += 1
            if fold is None:
                fold = gathered
            else:
                fold ^= gathered
            # drop the temp before the next gather: keeping it alive
            # holds a third fold-sized slab during the gather, pushing
            # the allocator into fresh zero-filled mmaps every pass
            del gathered
        if kernel.id_words is not None:
            fold ^= kernel.id_words[idx, None, :]
        return fold

    def bundle(self, fold: np.ndarray) -> list:
        """Carry-save bit planes of the block's per-bit-position counts."""
        from repro.core.kernels import bit_slice_planes

        return bit_slice_planes(fold)

    def popcount_search(self, query_words: np.ndarray,
                        class_words: np.ndarray) -> np.ndarray:
        from repro.core.kernels import packed_hamming

        q = np.atleast_2d(query_words)
        return packed_hamming(q[:, None, :], class_words[None, :, :])

    # -- fused plan execution ----------------------------------------------

    def bundle_planes(self, plan, sources: EncodeSources,
                      bins: np.ndarray):
        """Fold and bundle every window block: ``(planes, k)``.

        ``planes`` are the bit-sliced counts of set bits over the ``k``
        folded windows, shape ``(N, words)`` each, least significant
        first.  The call folds :meth:`~repro.core.ir.planner.KernelPlan.
        window_block_for` windows per block -- as many as keep its fold
        slab inside the planner's slab budget for these ``N`` rows --
        and the blocks ripple-add their planes, so both read-outs see
        one bit-sliced count.
        """
        from repro.core.kernels import add_planes

        kernel = sources.kernel
        if kernel is None:
            raise ValueError(f"{self.name} backend needs a packed kernel")
        window = kernel.window
        n_win = bins.shape[1] - window + 1
        k = len(_window_indices(plan, n_win))
        # window-major layout: bundling reduces over the leading axis and
        # every gather/XOR below runs on contiguous (N, W) slabs
        bins_t = np.ascontiguousarray(bins.T)
        planes: Optional[list] = None
        for idx, _ in _window_blocks(plan, n_win, len(bins)):
            fold = self.xor_fold(kernel, bins_t, idx,
                                 fuse_pairs=plan.fuse_pairs)
            block = self.bundle(fold)
            del fold  # free the slab before the next block's gather
            planes = block if planes is None else add_planes(planes, block)
        # counts never exceed k: planes above its bit length are zero
        return planes[:k.bit_length()], k

    def encode(self, plan, sources: EncodeSources,
               bins: np.ndarray) -> np.ndarray:
        from repro.core.kernels import plane_counts

        planes, k = self.bundle_planes(plan, sources, bins)
        ones = plane_counts(planes)[:, :plan.ctx.dim]
        # bipolar read-out: each of the k bundled windows contributed
        # +1 (bit clear) or -1 (bit set) per dimension
        counts = ones * -2
        counts += k
        return counts

    def encode_signs(self, plan, sources: EncodeSources,
                     bins: np.ndarray) -> np.ndarray:
        """Sign words straight from the planes, no counts built.

        The count ``k - 2 * ones`` is negative (bit 1) exactly when
        ``ones >= k // 2 + 1``; a tie (count 0, even ``k``) stays +1,
        bit 0.  For ``k = 254`` the comparator is just the top plane.
        """
        from repro.core.kernels import planes_at_least

        planes, k = self.bundle_planes(plan, sources, bins)
        words = planes_at_least(planes, k // 2 + 1)
        tail = plan.ctx.dim % 64
        if tail:  # padding bits above dim stay zero
            words[:, -1] &= np.uint64((1 << tail) - 1)
        return words


class BackendRegistry:
    """Thread-safe name -> :class:`Backend` catalogue.

    The IR twin of the :mod:`repro.platforms` device registry: backends
    register once (typically at import), ``engine="auto"`` resolves to
    the highest-priority *available* entry, and explicit engine names
    resolve through :data:`ENGINE_TO_BACKEND`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._backends: Dict[str, Backend] = {}

    def register(self, backend: Backend, replace: bool = False) -> Backend:
        with self._lock:
            if backend.name in self._backends and not replace:
                raise ValueError(
                    f"backend {backend.name!r} already registered "
                    "(pass replace=True to override)"
                )
            self._backends[backend.name] = backend
        return backend

    def unregister(self, name: str) -> None:
        with self._lock:
            self._backends.pop(name, None)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._backends)

    def get(self, name: str) -> Backend:
        """Resolve a backend by registry name or legacy engine name."""
        with self._lock:
            backend = self._backends.get(name)
            if backend is None:
                backend = self._backends.get(ENGINE_TO_BACKEND.get(name, ""))
        if backend is None:
            raise KeyError(
                f"no backend {name!r}; registered: {self.names()}"
            )
        return backend

    def available(self) -> List[Backend]:
        """All usable backends, best (highest priority) first."""
        with self._lock:
            backends = list(self._backends.values())
        usable = [b for b in backends if b.available()]
        return sorted(usable, key=lambda b: -b.priority)

    def best(self) -> Backend:
        """What ``engine="auto"`` resolves to."""
        usable = self.available()
        if not usable:
            raise RuntimeError("no encode backend available")
        return usable[0]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return (name in self._backends
                    or ENGINE_TO_BACKEND.get(name, "") in self._backends)


#: the process-wide registry the planner resolves through
BACKENDS = BackendRegistry()
BACKENDS.register(NumpyReferenceBackend())
BACKENDS.register(PackedUint64Backend())


def autodetect_optional_backends(registry: Optional[BackendRegistry] = None
                                 ) -> List[str]:
    """Probe for optional JIT backends; returns the names registered.

    Called once at :mod:`repro.core.ir` import.  Safe to call again
    (already-registered names are skipped); environments without the
    optional dependencies simply register nothing.
    """
    registry = registry or BACKENDS
    added = []
    try:
        from repro.core.ir.numba_backend import NumbaJitBackend
    except ImportError:
        return added
    if NumbaJitBackend.available() and "numba-jit" not in registry:
        registry.register(NumbaJitBackend())
        added.append("numba-jit")
    return added
