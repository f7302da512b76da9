"""Optional numba-JIT backend: the fully fused scalar rendering.

Where the numpy backends execute the IR as a short sequence of
slab-sized array passes, the JIT backend compiles the *entire* encode
pipeline -- gather, permuted XOR fold, id binding, per-bit bundling --
into one nopython loop nest with ``prange`` over samples: no
intermediate slabs at all, which is exactly the fusion a SIMD/GPU
backend would hand-write.

This module imports cleanly only when numba is installed; the registry
probe (:func:`repro.core.ir.backends.autodetect_optional_backends`)
swallows the ImportError otherwise, so numba stays a soft dependency.
The backend is bit-identical to the numpy backends (pinned by the
``tests/core/test_ir.py`` equivalence suite, which the optional-deps
CI job runs against a real numba install).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

import numba  # noqa: F401  -- the availability probe; ImportError gates us
from numba import njit, prange

from repro.core.ir.backends import Backend, EncodeSources, _window_indices

__all__ = ["NumbaJitBackend"]

_jit_encode = None  # compiled lazily on first use


def _build_jit():
    """Compile the fused encode loop once per process."""
    global _jit_encode
    if _jit_encode is not None:
        return _jit_encode

    @njit(parallel=True, nogil=True)
    def encode(tables, id_words, has_ids, bins_i, idx, dim):
        n_samples = bins_i.shape[0]
        window = tables.shape[0]
        n_words = tables.shape[2]
        k = idx.shape[0]
        one = np.uint64(1)
        out = np.empty((n_samples, dim), dtype=np.int32)
        for s in prange(n_samples):
            ones = np.zeros(n_words * 64, dtype=np.int32)
            for t in range(k):
                i = idx[t]
                for w in range(n_words):
                    v = tables[0, bins_i[s, i], w]
                    for j in range(1, window):
                        v ^= tables[j, bins_i[s, i + j], w]
                    if has_ids:
                        v ^= id_words[i, w]
                    base = w * 64
                    for b in range(64):
                        ones[base + b] += np.int32((v >> np.uint64(b)) & one)
            for d in range(dim):
                out[s, d] = k - 2 * ones[d]
        return out

    _jit_encode = encode
    return encode


class NumbaJitBackend(Backend):
    """Fused nopython loops over the packed tables (optional)."""

    name = "numba-jit"
    #: below packed-uint64: vectorized word-wise numpy usually wins on
    #: large batches, so ``auto`` keeps resolving to the packed backend
    #: even when numba is installed -- select this one explicitly with
    #: ``engine="numba"``.
    priority = 10

    @classmethod
    def available(cls) -> bool:
        return True  # the module import already proved numba is present

    def encode(self, plan, sources: EncodeSources,
               bins: np.ndarray) -> np.ndarray:
        kernel = sources.kernel
        if kernel is None:
            raise ValueError(f"{self.name} backend needs a packed kernel")
        n_win = bins.shape[1] - kernel.window + 1
        idx = np.arange(n_win, dtype=np.int64)[_window_indices(plan, n_win)]
        bins_i = np.ascontiguousarray(bins, dtype=np.int64)
        id_words = kernel.id_words
        has_ids = id_words is not None
        if not has_ids:
            id_words = np.zeros((1, kernel.words), dtype=np.uint64)
        fn = _build_jit()
        return fn(np.ascontiguousarray(kernel.tables),
                  np.ascontiguousarray(id_words),
                  has_ids, bins_i, idx, plan.ctx.dim)
