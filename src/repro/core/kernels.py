"""Bit-domain encoding kernels (the eGPU data-packing trick, Section 3.3).

The reference :class:`~repro.core.encoders.generic.GenericEncoder` works
in the bipolar domain: it materializes ``(N, n_windows, D)`` int8 level
lookups, re-copies them with ``np.roll`` for every in-window offset, and
folds windows with int8 multiplies.  The paper's edge-GPU implementation
closes exactly this gap "by data packing (for parallel XOR) and memory
reuse" -- a bipolar product is an XOR in the binary view, so 64
dimensions fold per ``uint64`` word instead of one per byte.

This module is that software fast path:

- :func:`pack_bits` / :func:`unpack_bits` -- {0,1} arrays <-> packed
  ``uint64`` words (64 dimensions per word, little bit order);
- :func:`popcount` / :func:`popcount_words` -- fast population count
  (``np.bitwise_count`` on NumPy >= 2.0, a byte lookup table otherwise);
- :func:`reduce_planes` -- bundling without unpacking every window:
  breadth-first carry-save adder stages reduce ``k`` packed slabs, in
  place, to the ``k.bit_length()`` bit planes of the per-bit-position
  count (:func:`bit_slice_planes` does the same on a copy);
- two read-outs of the same planes: :func:`plane_counts` (int32
  counts, accumulated in the narrowest type that holds ``k``) and
  :func:`planes_at_least`, a bit-sliced comparator.  A binary query's
  sign word is ``planes_at_least(planes, k // 2 + 1)``: the bipolar
  count ``k - 2 * ones`` is negative exactly there, and a tie (count 0)
  stays +1, bit 0 -- the same rule as :func:`sign_words`, the
  counts-side equivalent.  :func:`bit_slice_counts` is planes plus the
  counts read-out;
- :class:`GenericPackedKernel` -- the GENERIC/ngram construction run
  entirely in the packed domain, bit-identical to the reference encoder.

The kernel packs the level table once per fit, *including* the
``rho^j(levels)`` permuted copies for every in-window offset, so the
per-chunk ``np.roll`` of the reference path disappears entirely: window
folding degenerates to gathers plus word-wise XOR.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.core.hypervector import to_binary

_WORD = 64

#: per-byte population counts, the portable fallback for np.bitwise_count
_BYTE_ONES = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.uint8)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


# -- packing ----------------------------------------------------------------

def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a {0,1} array (..., D) into (..., ceil(D/64)) uint64 words."""
    bits = np.asarray(bits, dtype=np.uint8)
    d = bits.shape[-1]
    pad = (-d) % _WORD
    if pad:
        bits = np.concatenate(
            [bits, np.zeros((*bits.shape[:-1], pad), dtype=np.uint8)], axis=-1
        )
    bytes_ = np.packbits(bits, axis=-1, bitorder="little")
    return bytes_.view(np.uint64).reshape(*bits.shape[:-1], -1)


def unpack_bits(words: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`, truncated to ``dim`` bits."""
    words = np.asarray(words, dtype=np.uint64)
    bytes_ = words.view(np.uint8)
    bits = np.unpackbits(bytes_, axis=-1, bitorder="little")
    return bits[..., :dim]


def pack_bipolar(vectors: np.ndarray) -> np.ndarray:
    """Pack bipolar {-1,+1} vectors (..., D) into uint64 words (-1 -> bit 1)."""
    return pack_bits(to_binary(vectors))


# -- popcount ---------------------------------------------------------------

def popcount_words(words: np.ndarray) -> np.ndarray:
    """Element-wise popcount of a uint64 array (same shape, small ints)."""
    words = np.asarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(np.ascontiguousarray(words))
    return _popcount_words_lut(words)


def _popcount_words_lut(words: np.ndarray) -> np.ndarray:
    """LUT fallback: per-word counts via 8 byte lookups (NumPy < 2.0)."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    counts = _BYTE_ONES[words.view(np.uint8)]
    return counts.reshape(*words.shape, 8).sum(axis=-1, dtype=np.uint8)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of packed words (sum over the last axis)."""
    return popcount_words(words).sum(axis=-1, dtype=np.int64)


def packed_hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance between packed rows: popcount(a XOR b).

    Broadcasting follows NumPy: (N, W) vs (C, 1, W)-style layouts work.
    """
    return popcount(np.bitwise_xor(a, b))


# -- bit-slice bundling ------------------------------------------------------
# Bundling counts, per bit position, how many of ``m`` packed word slabs
# have that bit set.  A carry-save full adder folds three same-weight
# slabs into a sum plus a carry of double weight, so the count comes out
# *bit-sliced*: plane ``b`` holds bit ``b`` of every position's count,
# ``m.bit_length()`` planes in all.  Two read-outs consume the same
# planes -- :func:`plane_counts` (the int32 counts training needs) and
# :func:`planes_at_least` (the sign words a binary query needs, never
# leaving the packed domain).

#: fold-slab byte budget of the packed path.  The planner sizes a chunk
#: at ``SLAB // (8 * dim)`` rows (its int32 ones + count rows fit the
#: slab) and a tile at ``SLAB // (folds * words * 8)`` rows (its fold of
#: every window fits), and :func:`reduce_planes` and the packed fold run
#: in ``SLAB // 32``-byte (256 KiB, L2-sized) runs.  8 MiB is a few L2s:
#: on a 2-vCPU Xeon (2 MiB L2 per core) at D=8192 a tile is 32 rows, so
#: a serving batch is one tile and a 128-row training chunk four.
SLAB = 8 * 1024 * 1024


def reduce_planes(slabs: np.ndarray) -> list:
    """Carry-save bit planes of ``slabs`` (``(m, ..., W)`` uint64), in place.

    Breadth-first: a stage adds every same-weight triple with five
    ``out=`` calls per run of triples (as many slabs as fit
    ``SLAB // 32`` bytes).  A stage lays its pool out as ``[a | rest
    | b | c]`` and writes sums over ``b``, carries over ``c``: the next
    pool ``[rest | sums]`` stays contiguous and each stage's carries
    land just below the last's.  A weight's last slab is its plane; the
    carries above it are the next weight's pool.  ``slabs`` is consumed
    and the ``m.bit_length()`` planes (least significant first) are
    views into it; one run of scratch is the only other memory.
    """
    if slabs.ndim < 2 or slabs.dtype != np.uint64:
        raise ValueError(f"expected (m, ..., W) uint64 slabs, got "
                         f"{slabs.dtype} {slabs.shape}")
    m = len(slabs)
    run = max(1, (SLAB // 32) // max(1, slabs[0].nbytes if m else 1))
    scratch = np.empty((min(run, m // 3 or 1),) + slabs.shape[1:],
                       dtype=np.uint64)
    planes = []
    lo = 0
    while lo < m:
        n = m - lo  # this weight's pool: slabs[lo:lo + n]
        while n >= 3:
            n3, rest = divmod(n, 3)
            b0 = lo + n3 + rest
            c0 = b0 + n3
            for i in range(0, n3, run):
                j = min(i + run, n3)
                a = slabs[lo + i:lo + j]
                b = slabs[b0 + i:b0 + j]
                c = slabs[c0 + i:c0 + j]
                t = scratch[:j - i]
                np.bitwise_and(a, b, out=t)
                a ^= b
                np.bitwise_xor(a, c, out=b)  # sum
                c &= a
                c |= t  # carry
            lo += n3
            n = n3 + rest
        if n == 2:  # half adder: carry over the upper slab
            t = scratch[0]
            np.bitwise_and(slabs[lo], slabs[lo + 1], out=t)
            slabs[lo] ^= slabs[lo + 1]
            slabs[lo + 1] = t
        planes.append(slabs[lo])
        lo += 1
    return planes


def bit_slice_planes(words: np.ndarray) -> list:
    """Carry-save bit planes of the per-bit-position count over axis 0.

    ``words`` has shape ``(m, ..., W)``; the result is a list of
    ``m.bit_length()`` arrays of shape ``(..., W)``, least significant
    first: bit ``k`` of ``planes[b]`` is bit ``b`` of how many of the
    ``m`` slabs have bit ``k`` set.  Only ~log2(m) planes are ever
    materialized -- the software analogue of the bit-serial
    accumulators HDC accelerators bundle with.  ``words`` is not
    modified: :func:`reduce_planes` runs on a copy.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim < 2:
        raise ValueError(f"expected (m, ..., W) packed words, got {words.shape}")
    return reduce_planes(words.copy())


def plane_counts(planes: list) -> np.ndarray:
    """Counts read-out: bit-sliced counts ``(..., W)`` -> ``(..., W * 64)`` int32.

    Planes are unpacked and accumulated in the narrowest unsigned type
    that holds ``2**len(planes) - 1`` (uint8 up to 8 planes, i.e. up to
    255 bundled slabs), then widened to int32 once.
    """
    if not planes:
        raise ValueError("plane_counts needs at least one plane")
    n = len(planes)
    acc = np.uint8 if n <= 8 else np.uint16 if n <= 16 else np.uint32
    out = None
    for shift, plane in enumerate(planes):
        bits = np.unpackbits(
            np.ascontiguousarray(plane).view(np.uint8),
            axis=-1, bitorder="little",
        )
        if acc is not np.uint8:
            bits = bits.astype(acc)
        if shift:
            bits <<= shift
        out = bits if out is None else out.__iadd__(bits)
    return out.astype(np.int32)


def planes_at_least(planes: list, threshold: int) -> np.ndarray:
    """Sign read-out: packed words with bit ``k`` set iff count ``k >= threshold``.

    A bit-sliced comparator scanning the planes from the most
    significant down: positions still *equal* to ``threshold``'s prefix
    narrow with each plane, positions whose plane bit exceeds a zero
    bit of ``threshold`` become *greater*.  Planes below
    ``threshold``'s lowest set bit cannot change the answer and are
    never read, so a power-of-two threshold is a single plane.
    """
    if not planes:
        raise ValueError("planes_at_least needs at least one plane")
    threshold = int(threshold)
    if threshold <= 0:
        return np.full_like(planes[0], np.iinfo(np.uint64).max)
    if threshold >> len(planes):
        return np.zeros_like(planes[0])
    lowest = (threshold & -threshold).bit_length() - 1
    greater = equal = None
    for b in range(len(planes) - 1, lowest - 1, -1):
        plane = planes[b]
        if (threshold >> b) & 1:
            equal = plane if equal is None else equal & plane
        else:
            hit = plane if equal is None else equal & plane
            greater = hit if greater is None else greater | hit
            equal = ~plane if equal is None else equal & ~plane
    return equal.copy() if greater is None else greater | equal


def sign_words(counts: np.ndarray) -> np.ndarray:
    """Sign-quantize bipolar counts ``(..., D)`` to packed query words.

    ``count >= 0`` -> +1 -> bit 0 (a tie is +1), ``count < 0`` -> -1 ->
    bit 1: ``pack_bits(to_binary(where(counts >= 0, 1, -1)))``.
    """
    return pack_bits(np.asarray(counts) < 0)


def bit_slice_counts(words: np.ndarray) -> np.ndarray:
    """Per-bit-position counts across the leading axis of packed words.

    ``words`` has shape ``(m, ..., W)``; the result has shape
    ``(..., W * 64)`` with ``result[..., k]`` = how many of the ``m``
    slices have bit ``k`` set: :func:`plane_counts` of
    :func:`bit_slice_planes`.
    """
    planes = bit_slice_planes(words)
    if not planes:
        words = np.asarray(words)
        return np.zeros(words.shape[1:-1] + (words.shape[-1] * _WORD,),
                        dtype=np.int32)
    return plane_counts(planes)


# -- the GENERIC encoding in the packed domain -------------------------------

class GenericPackedKernel:
    """GENERIC/ngram window encoding folded with word-wise XOR.

    Built once per fitted encoder from the bipolar level table (and id
    table, when ids are bound).  ``encode_bins`` then reproduces
    ``GenericEncoder._encode_chunk`` bit for bit:

    - the level table is packed per in-window offset ``j`` as
      ``rho^j(levels)`` -- the reference path's per-chunk ``np.roll``
      becomes a fit-time table build;
    - each window's levels fold with XOR on ``ceil(D/64)`` uint64 words
      (one packed gather + in-place XOR per offset: memory reuse);
    - id binding is one more broadcast XOR (skipped entirely for
      identity ids, where the reference path still multiplies by ones);
    - bundling runs through :func:`reduce_planes` on the fold slab,
      and the bipolar counts fall out as ``n_windows - 2 * ones``.
    """

    def __init__(
        self,
        levels: np.ndarray,
        ids: Optional[np.ndarray],
        window: int,
        dim: int,
    ):
        levels = np.asarray(levels, dtype=np.int8)
        if levels.ndim != 2 or levels.shape[1] != dim:
            raise ValueError(
                f"level table shape {levels.shape} does not match dim={dim}"
            )
        if window < 1:
            raise ValueError(f"window length must be >= 1, got {window}")
        self.window = window
        self.dim = dim
        self.words = (dim + _WORD - 1) // _WORD
        level_bits = to_binary(levels)
        tables = np.empty(
            (window, len(levels), self.words), dtype=np.uint64
        )
        for j in range(window):
            tables[j] = pack_bits(np.roll(level_bits, j, axis=1))
        self.tables = tables
        self.id_words = None if ids is None else pack_bipolar(ids)
        self._pair_tables: dict = {}

    @property
    def num_levels(self) -> int:
        return self.tables.shape[1]

    def pair_table(self, j: int) -> np.ndarray:
        """Fused adjacent-offset table ``rho^j(levels) ^ rho^{j+1}(levels)``.

        Shape ``(L, L, W)``: entry ``[a, b]`` is the XOR of level ``a``
        at offset ``j`` with level ``b`` at offset ``j+1``, so one
        gather replaces two gathers plus a full XOR pass over the fold
        slab.  Built lazily (only when a plan enables pair fusion) and
        cached on the kernel; XOR associativity makes the fused fold
        bit-identical to the unfused one.
        """
        if not 0 <= j < self.window - 1:
            raise ValueError(
                f"pair offset {j} out of range for window={self.window}"
            )
        # kernels assembled via __new__ (shared-memory attach) skip
        # __init__; create the lazy cache on first use
        cache = self.__dict__.setdefault("_pair_tables", {})
        pair = cache.get(j)
        if pair is None:
            pair = self.tables[j][:, None, :] ^ self.tables[j + 1][None, :, :]
            pair.setflags(write=False)
            cache[j] = pair
        return pair

    def nbytes(self) -> int:
        """Packed table footprint (levels x offsets + ids + pair tables)."""
        total = self.tables.nbytes
        if self.id_words is not None:
            total += self.id_words.nbytes
        for pair in self.__dict__.get("_pair_tables", {}).values():
            total += pair.nbytes
        return total

    def op_counts(self, n_features: int, n_samples: int = 1) -> dict:
        """Logical and word-level op counts for encoding ``n_samples``.

        ``word_xor_ops`` is what the kernel physically executes (one
        uint64 XOR folds 64 dimensions, padding included);
        ``xor_ops``/``add_ops`` are the *logical* per-dimension counts
        -- the currency of :class:`~repro.core.encoders.base.OpProfile`
        and the op/energy models -- so the packed engine reports the
        same work as the reference engine, not 64x less.
        """
        n_win = n_features - self.window + 1
        if n_win < 1:
            raise ValueError(
                f"window={self.window} longer than input ({n_features} features)"
            )
        folds = (self.window - 1) + (1 if self.id_words is not None else 0)
        return {
            "xor_ops": n_samples * n_win * folds * self.dim,
            "add_ops": n_samples * n_win * self.dim,
            "word_xor_ops": n_samples * n_win * folds * self.words,
            "windows": n_win,
            "words": self.words,
        }

    def _validate_bins(self, bins: np.ndarray) -> int:
        if bins.ndim != 2:
            raise ValueError(f"expected (N, n_features) bins, got {bins.shape}")
        n_win = bins.shape[1] - self.window + 1
        if n_win < 1:
            raise ValueError(
                f"window={self.window} longer than input ({bins.shape[1]} features)"
            )
        if self.id_words is not None and len(self.id_words) < n_win:
            raise ValueError(
                f"kernel packed {len(self.id_words)} ids but input needs {n_win}"
            )
        return n_win

    def encode_bins(self, bins: np.ndarray, plan=None) -> np.ndarray:
        """Encode quantized inputs ``(N, n_features)`` to int32 counts.

        Returns the same ``(N, dim)`` int32 matrix as the reference
        encoder: per-dimension sums of the bound window hypervectors.
        Execution lowers onto the primitive IR: the planner builds (and
        caches) a fused :class:`~repro.core.ir.planner.KernelPlan` for
        this shape-class and the ``packed-uint64`` backend runs it;
        callers with a plan in hand (encoders) pass it to skip the
        cache lookup.
        """
        bins = np.asarray(bins)
        n_win = self._validate_bins(bins)
        if plan is None:
            from repro.core.ir import plan_encode

            plan = plan_encode(
                n_features=bins.shape[1],
                window=self.window,
                dim=self.dim,
                num_levels=self.num_levels,
                use_ids=self.id_words is not None,
                engine="packed",
            )
        from repro.core.ir.backends import EncodeSources

        return plan.execute(EncodeSources(kernel=self), bins)

    def _encode_bins_monolith(self, bins: np.ndarray) -> np.ndarray:
        """The pre-IR single-pass body, kept as the benchmark baseline.

        ``bench_encode.py --check`` gates the planned path against this
        exact code (bit-identity and no-regression), so the PR 2
        behaviour stays pinned even though the hot path now runs
        through the planner.
        """
        bins = np.asarray(bins)
        n_win = self._validate_bins(bins)
        # window-major layout: bundling reduces over the leading axis and
        # every gather/XOR below runs on contiguous (N, W) slabs
        bins_t = np.ascontiguousarray(bins.T)
        fold = self.tables[0][bins_t[:n_win]]
        for j in range(1, self.window):
            fold ^= self.tables[j][bins_t[j : j + n_win]]
        if self.id_words is not None:
            fold ^= self.id_words[:n_win, None, :]
        ones = plane_counts(reduce_planes(fold))
        return (n_win - 2 * ones[:, : self.dim]).astype(np.int32)


# -- packed-table memoization -------------------------------------------------
# Clones created through ``with_model`` / model import / process forks
# re-fit nothing, yet each used to re-pack the full rho^j(levels) table
# set.  Kernels are immutable after build, so identical sources (same
# level/id content, window, dim) can share one kernel; the cache key is
# a content hash, not object identity, so independently constructed but
# equal tables also hit.

_KERNEL_CACHE: "OrderedDict[str, GenericPackedKernel]" = OrderedDict()
_KERNEL_CACHE_LOCK = threading.Lock()
_KERNEL_CACHE_SIZE = 8


def _kernel_cache_key(
    levels: np.ndarray, ids: Optional[np.ndarray], window: int, dim: int
) -> str:
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(levels, dtype=np.int8).tobytes())
    if ids is not None:
        h.update(b"|ids|")
        h.update(np.ascontiguousarray(ids, dtype=np.int8).tobytes())
    h.update(f"|w={window}|d={dim}".encode())
    return h.hexdigest()


def shared_packed_kernel(
    levels: np.ndarray,
    ids: Optional[np.ndarray],
    window: int,
    dim: int,
) -> GenericPackedKernel:
    """Build-or-reuse a :class:`GenericPackedKernel` for these sources.

    Keyed by level/id table *content* (sha1), so ``with_model`` clones,
    re-imported models and repeated fits over the same seed all share
    one packed table set instead of re-packing per instance.  Bounded
    LRU; shared-memory kernels never enter (they attach their tables
    directly via ``PackedModel.from_shared``).
    """
    key = _kernel_cache_key(levels, ids, window, dim)
    with _KERNEL_CACHE_LOCK:
        kernel = _KERNEL_CACHE.get(key)
        if kernel is not None:
            _KERNEL_CACHE.move_to_end(key)
            return kernel
    kernel = GenericPackedKernel(levels, ids, window, dim)
    with _KERNEL_CACHE_LOCK:
        cached = _KERNEL_CACHE.setdefault(key, kernel)
        _KERNEL_CACHE.move_to_end(key)
        while len(_KERNEL_CACHE) > _KERNEL_CACHE_SIZE:
            _KERNEL_CACHE.popitem(last=False)
    return cached


def packed_kernel_cache_info() -> dict:
    with _KERNEL_CACHE_LOCK:
        return {"size": len(_KERNEL_CACHE), "max_size": _KERNEL_CACHE_SIZE}


def clear_packed_kernel_cache() -> None:
    with _KERNEL_CACHE_LOCK:
        _KERNEL_CACHE.clear()
