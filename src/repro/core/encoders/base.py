"""Shared machinery for HDC encoders.

Every encoder maps a raw feature vector ``x`` (length ``d``) to an
encoded hypervector of length ``dim``.  Encoders are *fit* on training
data (to learn the quantization range and allocate level/id tables) and
then encode single inputs or batches.  Batch encoding is chunked so the
encode intermediates stay within a bounded memory footprint -- each
encoder reports its own per-sample cost via ``_chunk_cost`` -- and a
batch of more than one chunk fans out over a thread pool as wide as the
usable CPUs (``n_jobs``, see :mod:`repro.core.jobs`), since the NumPy
kernels release the GIL.

Encoders also report an :class:`OpProfile` -- the operation counts the
platform models in :mod:`repro.platforms` use to estimate energy and
latency on conventional devices (Fig. 3 of the paper).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.jobs import resolve_jobs
from repro.core.kernels import sign_words
from repro.core.levels import LevelTable, Quantizer
from repro.obs import trace as obs_trace

DEFAULT_DIM = 4096
DEFAULT_LEVELS = 64
_CHUNK_BUDGET = 64 * 1024 * 1024  # bytes of encode intermediates per chunk


@dataclass
class OpProfile:
    """Operation counts for encoding one input (per-sample)."""

    xor_ops: int = 0
    add_ops: int = 0
    mul_ops: int = 0
    mem_bytes: int = 0
    notes: Dict[str, int] = field(default_factory=dict)

    def total_ops(self) -> int:
        return self.xor_ops + self.add_ops + self.mul_ops


class Encoder(ABC):
    """Base class: fit a quantizer + tables, then encode inputs."""

    #: human-readable name used by the registry and result tables
    name: str = "base"

    def __init__(
        self,
        dim: int = DEFAULT_DIM,
        num_levels: int = DEFAULT_LEVELS,
        seed: int = 0,
        level_scheme: str = "linear",
    ):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.num_levels = num_levels
        self.seed = seed
        self.level_scheme = level_scheme
        self.rng = np.random.default_rng(seed)
        self.quantizer = Quantizer(num_levels=num_levels)
        self.levels: Optional[LevelTable] = None
        self.n_features: Optional[int] = None

    # -- fitting ---------------------------------------------------------

    def fit(self, X: np.ndarray) -> "Encoder":
        """Learn the quantization range and allocate per-index tables."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"expected (N, d) matrix, got shape {X.shape}")
        self.n_features = X.shape[1]
        self.quantizer.fit(X)
        self.levels = LevelTable(
            self.rng, self.num_levels, self.dim, scheme=self.level_scheme
        )
        self._allocate(X)
        return self

    def _allocate(self, X: np.ndarray) -> None:
        """Hook for subclasses to allocate id tables etc. after fit."""

    @property
    def fitted(self) -> bool:
        return self.n_features is not None

    def _check_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError(f"{type(self).__name__} used before fit()")

    # -- encoding --------------------------------------------------------

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Encode a single input vector to an int32 hypervector."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"encode() takes a single input, got shape {x.shape}")
        return self.encode_batch(x[None, :])[0]

    def encode_batch(
        self,
        X: np.ndarray,
        chunk: Optional[int] = None,
        n_jobs: Optional[int] = None,
        dtype=np.int32,
    ) -> np.ndarray:
        """Encode a batch of inputs; returns an ``(N, dim)`` count matrix.

        The batch is split into chunks sized from the encoder's own
        :meth:`_chunk_cost` estimate (bytes of intermediates per sample)
        so the working set stays near the 64 MiB budget.  Chunks fan
        out over a thread pool of ``n_jobs`` workers (``None`` or ``-1``
        = all usable CPUs, ``1`` = serial), capped by the number of
        chunks -- the NumPy kernels release the GIL, and every chunk
        writes a disjoint slice of the preallocated output, so the
        result is identical for any worker count.

        ``dtype`` is the output matrix's dtype: ``int32`` by default, or
        any dtype that :meth:`holds_counts` (``np.float64`` always,
        ``np.float32`` when :attr:`max_abs_count` is at most 2**24);
        each chunk's counts are cast as they are written, so the trainer
        gets its matrix with no int32 staging copy.  The packed GENERIC
        kernel writes each row tile straight into the chunk's rows of
        the output, so no chunk-sized int32 buffer is built either.
        """
        dtype = np.dtype(dtype)
        if not self.holds_counts(dtype):
            raise ValueError(
                f"dtype {dtype} cannot hold this encoder's counts exactly "
                f"(|count| <= {self.max_abs_count})"
            )
        return self._encode_rows(
            X, chunk, n_jobs, self._encode_chunk, self.dim, dtype
        )

    @property
    def max_abs_count(self) -> Optional[int]:
        """Bound on ``|count|`` in any encoded dimension (None: unbounded).

        Derived from the fitted shape, never set: a bundle of ``m``
        bipolar terms stays within ``[-m, m]``.  The default claims no
        bound; encoders that bundle a fixed number of terms override it.
        """
        self._check_fitted()
        return None

    def holds_counts(self, dtype) -> bool:
        """True when ``dtype`` stores every count this encoder emits exactly.

        Any dtype that holds every int32 does; a float dtype with a
        ``p``-bit significand also does when :attr:`max_abs_count` is at
        most ``2**p`` (2**24 for float32), since every integer up to
        there is representable.
        """
        dtype = np.dtype(dtype)
        if np.can_cast(np.int32, dtype, casting="safe"):
            return True
        bound = self.max_abs_count
        return (dtype.kind == "f" and bound is not None
                and bound <= 2 ** (np.finfo(dtype).nmant + 1))

    def encode_signs_packed(
        self,
        X: np.ndarray,
        chunk: Optional[int] = None,
        n_jobs: Optional[int] = None,
    ) -> np.ndarray:
        """Encode a batch to sign-quantized packed query words.

        Returns ``(N, ceil(dim/64))`` uint64 words equal to
        ``pack_bits(to_binary(where(encode_batch(X) >= 0, 1, -1)))``:
        bit set where the count is negative, a zero count is +1 (bit 0),
        padding bits above ``dim`` are zero.  Chunking, thread fan-out
        and the ``encode`` span are :meth:`encode_batch`'s.
        """
        words = -(-self.dim // 64)
        return self._encode_rows(
            X, chunk, n_jobs, self._encode_signs_chunk, words, np.uint64
        )

    def _encode_rows(self, X, chunk, n_jobs, encode_chunk, width, dtype):
        """Chunked ``encode_chunk`` over a batch, threaded when multi-chunk."""
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"input has {X.shape[1]} features, encoder fitted with "
                f"{self.n_features}"
            )
        if chunk is None:
            chunk = self._auto_chunk(len(X))
        out = np.empty((len(X), width), dtype=dtype)
        spans = [
            (start, min(start + chunk, len(X)))
            for start in range(0, len(X), chunk)
        ]
        jobs = min(resolve_jobs(n_jobs), len(spans))
        with obs_trace.span(
            "encode", encoder=self.name, engine=self._engine_label(),
            samples=len(X), dim=self.dim, jobs=jobs,
        ) as sp:
            def _run(span):
                start, stop = span
                rows = out[start:stop]
                part = encode_chunk(X[start:stop], rows)
                if part is not rows:
                    rows[...] = part

            if jobs > 1:
                with ThreadPoolExecutor(max_workers=jobs) as pool:
                    # list() so every future is awaited and errors propagate
                    list(pool.map(_run, spans))
            else:
                for span in spans:
                    _run(span)
            if sp.recording:
                # logical (engine-independent) per-sample ops x batch size
                profile = self._op_profile()
                sp.add_ops(
                    xor_ops=profile.xor_ops * len(X),
                    add_ops=profile.add_ops * len(X),
                    mul_ops=profile.mul_ops * len(X),
                    mem_bytes=profile.mem_bytes * len(X),
                )
                extra = self._span_attrs(len(X))
                if extra:
                    sp.set(**extra)
        return out

    def _auto_chunk(self, n: int) -> int:
        """Chunk size keeping per-chunk intermediates within the budget.

        Encoders with an encode plan size chunks from the
        planner's per-chunk cost estimate (:meth:`_planned_chunk`);
        everything else falls back to the local :meth:`_chunk_cost`
        heuristic against the budget.
        """
        planned = self._planned_chunk()
        if planned is not None:
            return max(1, min(n, int(planned)))
        return max(1, min(n, _CHUNK_BUDGET // max(1, self._chunk_cost())))

    def _planned_chunk(self) -> Optional[int]:
        """Hook: the planner's samples-per-chunk, or None if unplanned."""
        return None

    def _span_attrs(self, n_samples: int) -> Dict:
        """Hook: extra attrs for the encode span (e.g. per-primitive ops)."""
        return {}

    def _chunk_cost(self) -> int:
        """Approximate bytes of encode intermediates per input sample.

        The default charges the ``(chunk, d, dim)`` int8 level lookup;
        encoders with bigger working sets (windowed encoders allocate
        ``n_windows``-scale products per offset) must override this so
        :meth:`encode_batch` does not overshoot the chunk budget.
        """
        return int(self.n_features) * self.dim

    @abstractmethod
    def _encode_chunk(self, X: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """Encode a small batch to ``(N, dim)`` integer bundle counts.

        Subclasses implement the actual math.  The counts must be
        integers (bound bipolar sums, or a rounded projection): the
        retraining planner trusts every ``encode_batch`` output to be
        integral, whatever its dtype, instead of scanning it.  ``out``
        is the batch's rows of the caller's result: an encoder may write
        the counts straight into it and return it, or ignore it.
        """

    def _encode_signs_chunk(self, X: np.ndarray,
                            out: Optional[np.ndarray] = None) -> np.ndarray:
        """Packed sign words of a small batch (default: from the counts;
        ``out`` as in :meth:`_encode_chunk`)."""
        return sign_words(self._encode_chunk(X))

    def _engine_label(self) -> str:
        """Engine tag attached to encode spans (overridden where selectable)."""
        return "reference"

    # -- cost reporting ----------------------------------------------------

    def op_profile(self) -> OpProfile:
        """Per-input operation counts (used by the device models)."""
        self._check_fitted()
        return self._op_profile()

    def _op_profile(self) -> OpProfile:
        d = int(self.n_features or 0)
        return OpProfile(add_ops=d * self.dim, mem_bytes=d * self.dim // 8)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(dim={self.dim}, "
            f"num_levels={self.num_levels}, seed={self.seed})"
        )
