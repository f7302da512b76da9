"""Chunked, bounded-memory streaming encoding.

"Streaming Encoding Algorithms for Scalable Hyperdimensional Computing"
(Thomas, Khaleghi et al.) observes that HDC encoders are single-pass by
construction: every sample's hypervector depends only on that sample and
the (fixed) level/id tables, so an unbounded stream can be encoded in
bounded memory by buffering a fixed-size chunk and reusing the batch
kernels per chunk.  The only *stateful* part of the pipeline is the
quantizer's value range, which on a stream is unknown up front; a
fixed-size uniform reservoir estimates it.

:class:`StreamingEncoder` wraps any registered :class:`~repro.core.
encoders.base.Encoder`:

- the chunk buffer holds at most ``chunk_size`` raw samples; a full
  buffer is flushed through :meth:`Encoder.encode_batch`, which runs
  whatever engine the encoder selected (for the GENERIC family that is
  the bit-packed XOR kernel) and can fan out over ``n_jobs`` threads;
- an unfitted encoder is fitted once ``warmup`` samples have arrived
  (the warmup buffer doubles as the first chunk), so the stream needs no
  offline pass;
- a :class:`RangeReservoir` keeps a bounded uniform sample of observed
  feature values plus the exact running min/max; with ``adapt_range=
  True`` the quantizer's ``lo``/``hi`` are refreshed when the estimate
  moves more than ``range_tolerance`` of the current span (covariate
  drift in *scale* would otherwise pin every value to the extreme bins).

With ``adapt_range=False`` (the default) and a fitted encoder, the
level tables and quantizer are frozen, so chunked streaming output is
**bit-identical** to a one-shot ``encode_batch`` over the concatenated
stream -- the property the CI gate and the hypothesis suite pin.

Every flushed chunk lands in a ``stream.chunk`` trace span carrying the
chunk index, size, and encoder engine.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.core.encoders.base import Encoder
from repro.obs import trace as obs_trace

__all__ = ["RangeReservoir", "StreamingEncoder"]


class RangeReservoir:
    """Bounded uniform sample of a scalar stream, plus exact min/max.

    Classic reservoir sampling, vectorized per incoming block: once the
    reservoir is full, a block arriving after ``n`` values keeps each new
    value with probability ``size / n`` and overwrites uniformly chosen
    slots.  The inclusion probabilities are approximated blockwise
    (exact per-item replay would be O(stream length) Python work), which
    is indistinguishable for range estimation.  Min/max are tracked
    exactly and cost O(1) memory.
    """

    def __init__(self, size: int = 2048, seed: int = 0):
        if size < 2:
            raise ValueError(f"reservoir size must be >= 2, got {size}")
        self.size = size
        self._rng = np.random.default_rng(seed)
        self._values = np.empty(size, dtype=np.float64)
        self._filled = 0
        self.seen = 0
        self.min = np.inf
        self.max = -np.inf

    def offer(self, values: np.ndarray) -> None:
        """Feed a block of values (any shape; flattened)."""
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            return
        self.min = min(self.min, float(v.min()))
        self.max = max(self.max, float(v.max()))
        if self._filled < self.size:
            take = min(self.size - self._filled, v.size)
            self._values[self._filled:self._filled + take] = v[:take]
            self._filled += take
            v = v[take:]
            self.seen += take
        if v.size:
            self.seen += v.size
            # blockwise acceptance at the post-block rate size/seen
            keep = self._rng.random(v.size) < (self.size / self.seen)
            kept = v[keep]
            if kept.size:
                slots = self._rng.integers(0, self.size, size=kept.size)
                self._values[slots] = kept

    @property
    def filled(self) -> int:
        return self._filled

    def range(self, quantile: float = 0.0) -> Tuple[float, float]:
        """Estimated value range.

        ``quantile=0`` returns the exact running min/max; ``q > 0``
        returns the ``(q, 1-q)`` quantiles of the reservoir sample -- a
        robust range that sheds outliers.
        """
        if self.seen == 0:
            raise RuntimeError("RangeReservoir.range() before any offer()")
        if quantile <= 0.0:
            return self.min, self.max
        lo, hi = np.quantile(self._values[:self._filled],
                             [quantile, 1.0 - quantile])
        return float(lo), float(hi)


class StreamingEncoder:
    """Bounded-memory chunked encoding over an unbounded sample stream.

    Parameters
    ----------
    encoder:
        Any :class:`Encoder`.  May be unfitted: the first ``warmup``
        samples fit it (quantizer range + table allocation) before any
        encoding happens.
    chunk_size:
        Samples buffered before a flush through ``encode_batch``; the
        whole pipeline holds at most ``chunk_size`` raw samples plus one
        chunk of encodings at a time.
    n_jobs:
        Thread fan-out for each chunk's ``encode_batch`` call (``None``
        = all usable CPUs, ``1`` = serial; see ``encode_batch``).
    warmup:
        Samples used to fit an unfitted encoder (default: one chunk).
    adapt_range:
        Refresh the quantizer's ``lo``/``hi`` from the reservoir when
        the estimate drifts; breaks bit-identity with a frozen one-shot
        encode by design, so it is opt-in.
    range_quantile / range_tolerance:
        Robust-range quantile for the reservoir estimate, and the
        minimum relative movement (fraction of the current span) that
        triggers a refresh.
    """

    def __init__(
        self,
        encoder: Encoder,
        chunk_size: int = 256,
        n_jobs: Optional[int] = None,
        warmup: Optional[int] = None,
        adapt_range: bool = False,
        range_quantile: float = 0.0,
        range_tolerance: float = 0.05,
        reservoir_size: int = 2048,
        seed: int = 0,
    ):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.encoder = encoder
        self.chunk_size = chunk_size
        self.n_jobs = n_jobs
        self.warmup = chunk_size if warmup is None else max(1, int(warmup))
        self.adapt_range = adapt_range
        self.range_quantile = range_quantile
        self.range_tolerance = range_tolerance
        self.reservoir = RangeReservoir(reservoir_size, seed=seed)
        self._buffer: list = []      # raw sample rows awaiting a flush
        self.samples_seen = 0
        self.chunks_flushed = 0
        self.range_refits = 0

    # -- state ---------------------------------------------------------------

    @property
    def fitted(self) -> bool:
        return self.encoder.fitted

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def stats(self) -> dict:
        return {
            "samples_seen": self.samples_seen,
            "chunks_flushed": self.chunks_flushed,
            "buffered": self.buffered,
            "range_refits": self.range_refits,
            "reservoir_seen": self.reservoir.seen,
        }

    # -- the chunk pipeline --------------------------------------------------

    def _maybe_refit_range(self) -> None:
        """Refresh quantizer lo/hi when the reservoir estimate moved."""
        if not self.adapt_range or not self.encoder.fitted:
            return
        q = self.encoder.quantizer
        if q.per_feature or q.lo is None:
            return  # per-feature ranges are not reservoir-estimated
        lo, hi = self.reservoir.range(self.range_quantile)
        cur_lo, cur_hi = float(q.lo), float(q.hi)
        span = max(cur_hi - cur_lo, 1e-12)
        if (abs(lo - cur_lo) > self.range_tolerance * span
                or abs(hi - cur_hi) > self.range_tolerance * span):
            q.lo = np.asarray(lo)
            q.hi = np.asarray(hi)
            self.range_refits += 1

    def _encode_chunk(self, X: np.ndarray) -> np.ndarray:
        """One chunk through the wrapped encoder's batch kernel."""
        with obs_trace.span(
            "stream.chunk", encoder=self.encoder.name,
            samples=len(X), chunk=self.chunks_flushed,
        ):
            out = self.encoder.encode_batch(X, n_jobs=self.n_jobs)
        self.chunks_flushed += 1
        return out

    def _drain_buffer(self) -> Optional[np.ndarray]:
        """Flush the raw-sample buffer (fitting the encoder if needed)."""
        if not self._buffer:
            return None
        X = np.asarray(self._buffer, dtype=np.float64)
        self._buffer = []
        if not self.encoder.fitted:
            self.encoder.fit(X)
        self._maybe_refit_range()
        return self._encode_chunk(X)

    def push(self, X: np.ndarray) -> Optional[np.ndarray]:
        """Feed samples; returns encodings when a chunk boundary flushes.

        Accepts a single sample (1-D) or a block of rows (2-D).  At most
        one flush happens per call when the block is smaller than the
        chunk; larger blocks flush as many whole chunks as they fill and
        return them concatenated.  Returns ``None`` while the chunk (or
        the warmup buffer, for an unfitted encoder) is still filling.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        self.reservoir.offer(X)
        self.samples_seen += len(X)
        out = []
        for row in X:
            self._buffer.append(row)
            threshold = (self.chunk_size if self.encoder.fitted
                         else max(self.chunk_size, self.warmup))
            if len(self._buffer) >= threshold:
                out.append(self._drain_buffer())
        if not out:
            return None
        return out[0] if len(out) == 1 else np.concatenate(out, axis=0)

    def flush(self) -> Optional[np.ndarray]:
        """Encode whatever is buffered (end-of-stream / chunk boundary)."""
        return self._drain_buffer()

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Encode an in-memory block chunk-by-chunk (one call, no buffer).

        Requires a fitted encoder (or enough rows to warm it up).  The
        result is bit-identical to ``encoder.encode_batch(X)`` when the
        quantizer range is frozen (``adapt_range=False``).
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        self.reservoir.offer(X)
        self.samples_seen += len(X)
        if not self.encoder.fitted:
            if len(X) < self.warmup:
                raise RuntimeError(
                    f"encoder unfitted and block ({len(X)} rows) is smaller "
                    f"than warmup={self.warmup}; use push()/encode_stream()"
                )
            self.encoder.fit(X[:self.warmup])
        self._maybe_refit_range()
        parts = [
            self._encode_chunk(X[start:start + self.chunk_size])
            for start in range(0, len(X), self.chunk_size)
        ]
        return np.concatenate(parts, axis=0)

    def encode_stream(
        self, stream: Iterable[np.ndarray]
    ) -> Iterator[np.ndarray]:
        """Generator: samples (or row blocks) in, encoding chunks out.

        Memory stays bounded by one chunk of raw samples plus one chunk
        of encodings regardless of stream length; a final partial chunk
        is flushed when the stream ends.
        """
        for item in stream:
            encoded = self.push(item)
            if encoded is not None:
                yield encoded
        tail = self.flush()
        if tail is not None:
            yield tail
