"""Bit-packed binary HDC inference (the eGPU implementation's trick).

Section 3.3: the paper's edge-GPU implementation gets its 134x energy
win over the Raspberry Pi "by data packing (for parallel XOR) and
memory reuse".  This module is that software path: hypervectors are
packed 64 dimensions per ``uint64`` word, binding is a word-wise XOR,
and similarity is a popcount -- the representation any software
deployment of a *1-bit* GENERIC model would actually use.  The bit
primitives live in :mod:`repro.core.kernels` (re-exported here for
compatibility); popcount uses ``np.bitwise_count`` when NumPy provides
it, with a byte-LUT fallback, instead of the old 8x-memory
``np.unpackbits`` expansion.

:class:`PackedModel` converts a trained
:class:`~repro.core.classifier.HDClassifier` into sign-quantized packed
class vectors and classifies queries by minimum Hamming distance, which
for binary vectors is a monotone transform of cosine similarity
(``cos = 1 - 2 * hamming / D``), so rankings match the 1-bit
full-precision model exactly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.classifier import HDClassifier
from repro.core.config import ComputeConfig
from repro.core.encoders.base import Encoder
from repro.core.hypervector import sign_quantize, to_binary
from repro.core.kernels import (  # noqa: F401  (re-exported public API)
    GenericPackedKernel,
    pack_bits,
    packed_hamming,
    popcount,
    popcount_words,
    unpack_bits,
)

_WORD = 64

#: canonical array keys of a shared packed-model image
_IMG_CLASS_WORDS = "class_words"
_IMG_LEVELS = "levels"
_IMG_IDS = "ids"
_IMG_KERNEL_TABLES = "kernel_tables"
_IMG_KERNEL_IDS = "kernel_id_words"


def _owns(arr: Optional[np.ndarray]) -> bool:
    """Does ``arr``'s buffer terminate in NumPy-owned memory?

    Walks the view chain: an array produced by slicing/``view`` of an
    ordinary ndarray is still *owned* (its lifetime is self-contained
    and pickling copies it), while one whose chain bottoms out in a
    foreign buffer -- a ``memoryview`` over a shared-memory segment, a
    ``bytes`` object -- is not: it dies with that buffer.
    """
    if arr is None:
        return False
    base = arr
    while isinstance(base, np.ndarray) and not base.flags["OWNDATA"]:
        base = base.base
    return base is None or isinstance(base, np.ndarray)


class PackedModel:
    """Sign-quantized, bit-packed HDC classifier for binary deployment."""

    def __init__(self, encoder: Encoder, class_words: np.ndarray,
                 class_labels: np.ndarray, dim: int,
                 config: Optional[ComputeConfig] = None):
        self.encoder = encoder
        self.class_words = np.asarray(class_words, dtype=np.uint64)
        self.class_labels = np.asarray(class_labels)
        self.dim = dim
        self.config = (config.replace() if config is not None
                       else ComputeConfig())
        #: shared-memory segment this model's arrays are mapped from
        #: (set by :meth:`from_shared`; ``None`` for ordinary models)
        self.shared_segment: Optional[str] = None

    @classmethod
    def from_classifier(cls, clf: HDClassifier,
                        rng: Optional[np.random.Generator] = None,
                        config: Optional[ComputeConfig] = None
                        ) -> "PackedModel":
        """Sign-quantize and pack a trained classifier's class matrix.

        The model shares the classifier's encoder, so queries encode on
        whatever engine that encoder was built with;
        ``config.encode_jobs`` fans query encoding out over a thread
        pool.  ``config`` defaults to the classifier's own.
        """
        if clf.model_ is None:
            raise RuntimeError("PackedModel needs a fitted classifier")
        signs = np.vstack([
            sign_quantize(row, rng=rng) for row in clf.model_
        ])
        words = pack_bits(to_binary(signs))
        return cls(clf.encoder, words, clf.classes_, clf.encoder.dim,
                   config=clf.config if config is None else config)

    def with_words(self, class_words: np.ndarray,
                   copy: bool = False) -> "PackedModel":
        """A shallow clone scored against substituted class words.

        The packed counterpart of
        :meth:`~repro.core.classifier.HDClassifier.with_model`: encoder,
        labels and config are shared, only the class memory differs.
        Used by fault injection (VOS bit flips on the packed memory).

        **Ownership contract:** by default the clone *aliases* whatever
        buffer backs ``class_words`` -- a view stays a view, so mutating
        the source later silently changes the clone (and vice versa
        where writable).  Pass ``copy=True`` to materialize a private,
        owned copy -- required when the clone must outlive its source,
        e.g. a model derived from a shared-memory mapping that is about
        to be unlinked.  :attr:`owns_words` reports the resulting state.
        """
        words = np.asarray(class_words, dtype=np.uint64)
        if copy:
            words = np.array(words, dtype=np.uint64, order="C", copy=True)
        return PackedModel(self.encoder, words, self.class_labels,
                           self.dim, config=self.config)

    # -- buffer ownership ---------------------------------------------------

    @property
    def owns_words(self) -> bool:
        """True when ``class_words`` owns its buffer (no aliasing).

        False for views -- e.g. models mapped from shared memory
        (:meth:`from_shared`) or cloned via ``with_words(copy=False)``
        on a view.  A model that does not own its words must not
        outlive the buffer they alias; :meth:`materialize` (or
        pickling, which materializes implicitly) breaks the alias.
        """
        return _owns(self.class_words)

    def materialize(self) -> "PackedModel":
        """Return ``self`` if fully owned, else an owned deep clone.

        The clone copies the class words *and* rebuilds the encoder's
        packed kernel from owned tables, so nothing in the result
        references a shared segment or a caller's array.
        """
        if self.owns_words and self.shared_segment is None:
            return self
        import pickle as _pickle

        return _pickle.loads(_pickle.dumps(self))

    def __getstate__(self):
        """Pickle with clean buffer ownership.

        A view-backed ``class_words`` (shared-memory mapping, fault
        clone) is materialized into an owned copy, and the shared
        segment reference is dropped -- an unpickled model never
        depends on a segment that may no longer exist.  (NumPy copies
        view *data* on pickle anyway; this makes the contract explicit
        and clears the read-only flag shared mappings carry.)
        """
        state = self.__dict__.copy()
        words = state.get("class_words")
        if words is not None and not _owns(words):
            state["class_words"] = np.array(words, dtype=np.uint64,
                                            order="C", copy=True)
        state["shared_segment"] = None
        return state

    def __setstate__(self, state):
        state.setdefault("shared_segment", None)
        self.__dict__.update(state)

    # -- shared-memory images ------------------------------------------------

    def to_shared(self, arena, epoch: int = 0,
                  name: Optional[str] = None):
        """Publish this model's big arrays as one shared-memory image.

        Returns a picklable
        :class:`~repro.core.shared.SharedImageSpec` whose ``meta``
        holds the pickled model *skeleton* (everything but the big
        arrays).  Worker processes rebuild the model zero-copy with
        :meth:`from_shared` -- every worker maps the same physical
        uint64 level tables, id words and class words.

        ``arena`` is a :class:`~repro.core.shared.SharedModelArena`;
        the caller is responsible for unlinking the segment through it
        (the arena's atexit hook backstops leaks).
        """
        from repro.core.shared import dump_meta

        enc = self.encoder
        arrays = {_IMG_CLASS_WORDS: self.class_words}
        kernel = None
        if hasattr(enc, "_current_kernel") and getattr(enc, "fitted", False):
            kernel = enc._current_kernel()
            arrays[_IMG_KERNEL_TABLES] = kernel.tables
            if kernel.id_words is not None:
                arrays[_IMG_KERNEL_IDS] = kernel.id_words
        if getattr(enc, "levels", None) is not None:
            arrays[_IMG_LEVELS] = enc.levels.vectors
        if getattr(enc, "_ids", None) is not None:
            arrays[_IMG_IDS] = enc._ids

        # pickle the skeleton with the shared arrays detached, then
        # restore -- to_shared must leave ``self`` untouched.  (The
        # encoder's own __getstate__ already drops the packed kernel.)
        stash = [(self, "class_words")]
        if _IMG_LEVELS in arrays:
            stash.append((enc.levels, "vectors"))
        if _IMG_IDS in arrays:
            stash.append((enc, "_ids"))
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr in stash]
        try:
            for obj, attr, _ in saved:
                setattr(obj, attr, None)
            meta = dump_meta(self)
        finally:
            for obj, attr, value in saved:
                setattr(obj, attr, value)
        return arena.publish(arrays, meta=meta, epoch=epoch, name=name)

    @classmethod
    def from_shared(cls, spec, arena) -> "PackedModel":
        """Rebuild a model from a published image, zero-copy.

        Every array the image carries is mapped read-only straight out
        of the shared segment -- no unpickling of tables, no per-worker
        copy.  The encoder's packed kernel is reassembled around the
        mapped ``rho^j(levels)`` tables, so the first encode does not
        silently rebuild (and privately re-allocate) them.

        The returned model is valid while ``arena`` keeps the segment
        attached; call :meth:`materialize` to break that dependency.
        """
        from repro.core.shared import load_meta

        views = arena.attach(spec)
        model = load_meta(spec.meta)
        if not isinstance(model, cls):
            raise TypeError(
                f"image meta holds {type(model).__name__}, expected {cls.__name__}"
            )
        model.class_words = views[_IMG_CLASS_WORDS]
        model.shared_segment = spec.segment
        enc = model.encoder
        if _IMG_LEVELS in views and getattr(enc, "levels", None) is not None:
            enc.levels.vectors = views[_IMG_LEVELS]
        if _IMG_IDS in views and hasattr(enc, "_ids"):
            enc._ids = views[_IMG_IDS]
        if _IMG_KERNEL_TABLES in views and hasattr(enc, "_kernel"):
            tables = views[_IMG_KERNEL_TABLES]
            kernel = GenericPackedKernel.__new__(GenericPackedKernel)
            kernel.window = enc.window
            kernel.dim = enc.dim
            kernel.words = tables.shape[-1]
            kernel.tables = tables
            kernel.id_words = views.get(_IMG_KERNEL_IDS)
            enc._kernel = kernel
            enc._kernel_sources = (
                enc.levels.vectors if getattr(enc, "levels", None) is not None
                else None,
                enc._ids,
            )
        return model

    # -- inference --------------------------------------------------------------

    def encode_packed(self, X: np.ndarray) -> np.ndarray:
        """Encode raw inputs to sign-quantized packed query words.

        Exposed separately from :meth:`predict` so batch servers (see
        :mod:`repro.serve`) can time and schedule the encode and search
        stages independently.
        """
        return self.encoder.encode_signs_packed(
            np.atleast_2d(X), n_jobs=self.config.encode_jobs
        )

    # backwards-compatible private alias
    _encode_packed = encode_packed

    def _words_for_dim(self, dim: Optional[int]) -> Optional[int]:
        """Word count covering a reduced prefix of ``dim`` dimensions."""
        if dim is None or dim == self.dim:
            return None
        if dim % _WORD != 0:
            raise ValueError(
                f"reduced dim {dim} must be a multiple of {_WORD} for packed search"
            )
        if not 0 < dim <= self.dim:
            raise ValueError(f"reduced dim {dim} out of range (0, {self.dim}]")
        return dim // _WORD

    def hamming_to_classes(
        self, query_words: np.ndarray, dim: Optional[int] = None
    ) -> np.ndarray:
        """(N, n_classes) Hamming distances of packed queries to classes.

        With ``dim`` set, only the first ``dim`` dimensions (a whole
        number of 64-bit words) participate -- the packed counterpart of
        the paper's on-demand dimension reduction.  Binary prefix norms
        are exact by construction (every surviving dimension contributes
        exactly one bit), so reduced-dimension rankings need no
        correction table.
        """
        q = np.atleast_2d(query_words)
        words = self._words_for_dim(dim)
        if words is None:
            return packed_hamming(q[:, None, :], self.class_words[None, :, :])
        return packed_hamming(
            q[:, None, :words], self.class_words[None, :, :words]
        )

    def predict_packed(
        self, query_words: np.ndarray, dim: Optional[int] = None
    ) -> np.ndarray:
        """Classify pre-packed queries by minimum (prefix) Hamming distance."""
        distances = self.hamming_to_classes(query_words, dim=dim)
        return self.class_labels[np.argmin(distances, axis=1)]

    def topk_to_classes(
        self, query_words: np.ndarray, k: int = 1,
        dim: Optional[int] = None,
        rows: Optional[slice] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-query ``k`` best class rows: ``(distances, row_indices)``.

        Rows come back sorted by ``(distance, row index)`` -- the same
        first-occurrence tie-break :func:`np.argmin` applies -- so a
        router that merges per-shard top-k lists by that key reproduces
        single-process :meth:`predict_packed` bit for bit (see
        :mod:`repro.serve.sharded.router`).  ``rows`` restricts the
        search to a contiguous slice of class rows (a class-partitioned
        shard's slice); returned indices are *global* row numbers.
        """
        lo = 0
        words = self.class_words
        if rows is not None:
            lo = rows.start or 0
            words = words[rows]
        q = np.atleast_2d(query_words)
        nw = self._words_for_dim(dim)
        if nw is None:
            dist = packed_hamming(q[:, None, :], words[None, :, :])
        else:
            dist = packed_hamming(q[:, None, :nw], words[None, :, :nw])
        n_rows = dist.shape[1]
        k = min(int(k), n_rows)
        # stable sort keeps equal distances in row order, i.e. the
        # lexicographic (distance, row) key the router merge relies on
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        top = np.take_along_axis(dist, order, axis=1)
        return top, order.astype(np.int64) + lo

    def predict(self, X: np.ndarray, dim: Optional[int] = None) -> np.ndarray:
        """Classify by minimum Hamming distance (max binary cosine)."""
        return self.predict_packed(self.encode_packed(X), dim=dim)

    def score(self, X: np.ndarray, y: np.ndarray,
              dim: Optional[int] = None) -> float:
        return float(np.mean(self.predict(X, dim=dim) == np.asarray(y)))

    # -- footprint ---------------------------------------------------------------

    def model_bytes(self) -> int:
        """Deployed model size: one bit per class dimension."""
        return self.class_words.size * 8

    def compression_vs_16bit(self) -> float:
        """Footprint factor versus the accelerator's 16-bit class words."""
        full = len(self.class_labels) * self.dim * 2
        return full / self.model_bytes()
