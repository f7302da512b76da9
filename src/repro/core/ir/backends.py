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
  XOR folds, breadth-first carry-save bundling into bit planes, one
  row tile at a time), refactored here into per-primitive methods.
  Its sign read-out compares the planes against ``k // 2 + 1`` and
  never builds int32 counts.
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
    """The windows a plan folds: a :class:`slice` of all, or the selection.

    Exact plans (``window_sel is None``) get a slice so every
    downstream gather stays a basic-indexing *view* of the bins --
    fancy ``idx + j`` index arrays cost a materialized copy per window
    offset, which is the difference between matching and trailing the
    fused monolith at small ``dim``.  Approximate plans get the
    selected index vector.
    """
    if plan.window_sel is None:
        return slice(0, n_windows)
    sel = plan.window_sel
    if sel[-1] >= n_windows:
        raise ValueError(
            f"plan selects window {int(sel[-1])} but input has only "
            f"{n_windows} windows"
        )
    return sel


def _row_tiles(n_rows: int, tile_rows: int):
    """Row slices of at most ``tile_rows`` covering ``n_rows`` (>= one)."""
    return [slice(r0, min(r0 + tile_rows, n_rows))
            for r0 in range(0, max(1, n_rows), tile_rows)]


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
        idx = _window_indices(plan, bins.shape[1] - window + 1)
        out = np.empty((len(bins), plan.ctx.dim), dtype=np.int32)
        for rows in _row_tiles(len(bins), plan.tile_rows):
            prod = self.xor_fold(levels, bins[rows], idx, window)
            if ids is not None:
                prod *= ids[idx][None, :, :]
            out[rows] = self.bundle(prod)
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

    def xor_fold(self, kernel, bins_t: np.ndarray, idx,
                 fuse_pairs: bool = False) -> np.ndarray:
        """The ``(windows, rows, words)`` fold slab of windows ``idx``.

        ``bins_t`` is the transposed ``(n_features, rows)`` intp bin
        matrix, bins in ``[0, num_levels)`` (checked by the caller).  With
        ``fuse_pairs`` adjacent offsets gather from one pair table
        (:meth:`~repro.core.kernels.GenericPackedKernel.pair_table`).
        The first gather writes the slab; later gathers and the id XOR
        run over ``SLAB // 32``-byte runs of windows through one
        scratch run, so no slab-sized temp is allocated.
        """
        from repro.core.kernels import SLAB

        gathers = []  # (table (n, words), row index (windows, rows))
        j = 0
        while j < kernel.window:
            index = bins_t[_shift_index(idx, j)]
            if fuse_pairs and j + 1 < kernel.window:
                table = kernel.pair_table(j).reshape(-1, kernel.words)
                index = (index * kernel.num_levels
                         + bins_t[_shift_index(idx, j + 1)])
                j += 2
            else:
                table = kernel.tables[j]
                j += 1
            gathers.append((table, index))
        table, index = gathers.pop(0)
        fold = np.take(table, index, axis=0)
        ids = (None if kernel.id_words is None
               else kernel.id_words[idx, None, :])
        if not gathers and ids is None:
            return fold
        k = len(fold)
        run = max(1, (SLAB // 32) // max(1, fold[0].nbytes))
        scratch = np.empty((min(run, k),) + fold.shape[1:], dtype=np.uint64)
        for r0 in range(0, k, run):
            r1 = min(r0 + run, k)
            part = fold[r0:r1]
            for table, index in gathers:
                # mode="clip" lets take() write ``out`` unbuffered
                part ^= np.take(table, index[r0:r1], axis=0,
                                out=scratch[:r1 - r0], mode="clip")
            if ids is not None:
                part ^= ids[r0:r1]
        return fold

    def bundle(self, fold: np.ndarray) -> list:
        """Carry-save bit planes of one tile's fold, reduced in place."""
        from repro.core.kernels import reduce_planes

        return reduce_planes(fold)

    def popcount_search(self, query_words: np.ndarray,
                        class_words: np.ndarray) -> np.ndarray:
        from repro.core.kernels import packed_hamming

        q = np.atleast_2d(query_words)
        return packed_hamming(q[:, None, :], class_words[None, :, :])

    # -- fused plan execution ----------------------------------------------

    def _read_tiles(self, plan, sources: EncodeSources, bins: np.ndarray,
                    readout):
        """``readout(planes, k)`` of every row tile, stacked by rows.

        Each tile of ``plan.tile_rows`` rows folds all ``k`` windows
        into one slab that :meth:`bundle` reduces in place.  The planes
        are views into that slab, so a tile is read out before the next
        one folds; keeping them would keep every tile's slab alive.
        """
        kernel = sources.kernel
        if kernel is None:
            raise ValueError(f"{self.name} backend needs a packed kernel")
        n_win = bins.shape[1] - kernel.window + 1
        idx = _window_indices(plan, n_win)
        k = n_win if isinstance(idx, slice) else len(idx)
        out = None
        for rows in _row_tiles(len(bins), plan.tile_rows):
            # window-major layout: bundling reduces over the leading
            # axis and every gather/XOR runs on contiguous (rows, W) slabs;
            # intp so a fused pair index cannot wrap in a narrow dtype
            bins_t = bins[rows].T.astype(np.intp, order="C",
                                         casting="same_kind")
            if bins_t.size and (bins_t.min() < 0
                                or bins_t.max() >= kernel.num_levels):
                # clipped gathers and fused pair indices would not raise
                raise IndexError(
                    f"bins must lie in [0, {kernel.num_levels}), got "
                    f"[{int(bins_t.min())}, {int(bins_t.max())}]")
            fold = self.xor_fold(kernel, bins_t, idx,
                                 fuse_pairs=plan.fuse_pairs)
            part = readout(self.bundle(fold), k)
            del fold  # free the slab before the next tile's gather
            if rows.stop - rows.start == len(bins):
                return part
            if out is None:
                out = np.empty((len(bins),) + part.shape[1:], part.dtype)
            out[rows] = part
        return out

    def encode(self, plan, sources: EncodeSources,
               bins: np.ndarray) -> np.ndarray:
        from repro.core.kernels import plane_counts

        dim = plan.ctx.dim

        def counts(planes, k):
            # bipolar read-out: each of the k bundled windows contributed
            # +1 (bit clear) or -1 (bit set) per dimension
            out = plane_counts(planes)[:, :dim] * -2
            out += k
            return out

        return self._read_tiles(plan, sources, bins, counts)

    def encode_signs(self, plan, sources: EncodeSources,
                     bins: np.ndarray) -> np.ndarray:
        """Sign words straight from the planes, no counts built.

        The count ``k - 2 * ones`` is negative (bit 1) exactly when
        ``ones >= k // 2 + 1``; a tie (count 0, even ``k``) stays +1,
        bit 0.  For ``k = 254`` the comparator is just the top plane.
        """
        from repro.core.kernels import planes_at_least

        tail = plan.ctx.dim % 64

        def signs(planes, k):
            words = planes_at_least(planes, k // 2 + 1)
            if tail:  # padding bits above dim stay zero
                words[:, -1] &= np.uint64((1 << tail) - 1)
            return words

        return self._read_tiles(plan, sources, bins, signs)


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
