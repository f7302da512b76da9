"""The GENERIC encoding (paper Section 3.1, Eq. 1, Fig. 2d).

For every sliding window of ``n`` consecutive features, the level
hypervectors of the window's elements are permuted by their in-window
offset (0, 1, ..., n-1) and multiplied element-wise (XOR in binary) into
a *window hypervector*.  The window hypervector is bound with a
per-window ``id`` hypervector to restore the global order of windows,
and all bound window hypervectors are bundled:

    H(X) = sum_{i=1}^{d-n+1}  id_i * prod_{j=0}^{n-1} rho^j( l(x_{i+j}) )

Setting the ids to the binding identity (``use_ids=False``) skips global
binding, which the paper does for order-free applications such as
language identification.  ``n = 3`` is the paper's default.

Execution goes through an encode plan (:mod:`repro.core.ir`): the
``engine=`` request resolves to one of two backends, and the cached
plan decides fusion, row tiles and chunk sizing:

- ``"reference"`` -- ``numpy-reference``, the direct bipolar-domain
  translation of Eq. 1 (int8 level lookups, ``np.roll`` per offset,
  int8 multiplies, :func:`repro.core.ir.reference_encode`).  Kept as
  the readable ground truth.
- ``"packed"`` -- ``packed-uint64``, the bit-domain path of
  :class:`~repro.core.kernels.GenericPackedKernel`: levels packed to
  uint64 words once at fit (with per-offset permuted copies), windows
  folded by word-wise XOR, bundling by carry-save bit planes.
  Bit-identical to the reference and roughly an order of magnitude
  faster (Section 3.3's eGPU data-packing trick in software).
- ``"auto"`` (default) resolves to ``packed``.

``approx_folds=k`` enables SHEARer-style multifold approximate
encoding: only ``k`` evenly spaced windows are folded and bundled, the
plan surfaces the exact-vs-approx error bound, and ``k = n_windows``
is bit-identical to exact encoding.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.encoders.base import DEFAULT_DIM, DEFAULT_LEVELS, Encoder, OpProfile
from repro.core.ids import SeedIdGenerator, identity_ids
from repro.core.ir import (
    BACKEND_TO_ENGINE,
    PLANNER,
    EncodeSources,
    PlanRequest,
    encode_op_counts,
    resolve_backend,
)
from repro.core.kernels import GenericPackedKernel, shared_packed_kernel

ENGINES = ("auto", "reference", "packed")


class GenericEncoder(Encoder):
    """Windowed permute-and-bind encoder proposed by the paper."""

    name = "generic"

    def __init__(
        self,
        dim: int = DEFAULT_DIM,
        num_levels: int = DEFAULT_LEVELS,
        seed: int = 0,
        window: int = 3,
        use_ids: bool = True,
        level_scheme: str = "linear",
        engine: str = "auto",
        approx_folds: int | None = None,
    ):
        super().__init__(
            dim=dim, num_levels=num_levels, seed=seed, level_scheme=level_scheme
        )
        if window < 1:
            raise ValueError(f"window length must be >= 1, got {window}")
        self.window = window
        self.use_ids = use_ids
        self.engine = engine
        self.approx_folds = approx_folds
        self.id_generator: SeedIdGenerator | None = None
        self._ids: np.ndarray | None = None

    # -- engine selection -------------------------------------------------

    @property
    def engine(self) -> str:
        return self._engine

    @engine.setter
    def engine(self, value: str) -> None:
        if value not in ENGINES:
            raise ValueError(
                f"unknown encode engine {value!r}; choose from {ENGINES}"
            )
        self._engine = value
        self._kernel: GenericPackedKernel | None = None
        self._plan = None

    @property
    def approx_folds(self) -> int | None:
        """Multifold approximation level (None = exact, fold all windows)."""
        return self._approx_folds

    @approx_folds.setter
    def approx_folds(self, value: int | None) -> None:
        if value is not None:
            value = int(value)
            if value < 1:
                raise ValueError(f"approx_folds must be >= 1, got {value}")
        self._approx_folds = value
        self._plan = None

    def _resolved_engine(self) -> str:
        """The engine label ``engine`` resolves to."""
        return BACKEND_TO_ENGINE[resolve_backend(self._engine)]

    def __getstate__(self):
        """Pickle without the packed kernel.

        The kernel's uint64 tables are derived data (rebuilt on demand
        by :meth:`_current_kernel`), and ``_kernel_sources`` holds raw
        references to the level/id arrays -- carrying either through a
        pickle would duplicate megabytes of tables or, worse, alias
        arrays the unpickled copy no longer owns (e.g. shared-memory
        views, see :meth:`PackedModel.to_shared
        <repro.core.packed.PackedModel.to_shared>`).
        """
        state = self.__dict__.copy()
        state["_kernel"] = None
        state["_plan"] = None
        state.pop("_kernel_sources", None)
        return state

    def _engine_label(self) -> str:
        return self._resolved_engine()

    def _build_kernel(self) -> GenericPackedKernel:
        # content-hash memoized: with_model clones, re-imported models
        # and repeated fits over the same seed share one packed table set
        kernel = shared_packed_kernel(
            levels=self.levels.vectors,
            ids=self._ids if self.use_ids else None,
            window=self.window,
            dim=self.dim,
        )
        self._kernel = kernel
        self._kernel_sources = (self.levels.vectors, self._ids)
        return kernel

    def _current_kernel(self) -> GenericPackedKernel:
        """The packed kernel, rebuilt if the source tables were swapped.

        Fault injection and :mod:`repro.core.model_io` rebind
        ``levels.vectors`` / ``_ids`` on fitted encoders; an identity
        check keeps the packed tables in sync.  (In-place mutation of a
        table is not detected -- swap the array, or use the reference
        engine, when experimenting that way.)
        """
        if (
            self._kernel is None
            or self._kernel_sources[0] is not self.levels.vectors
            or self._kernel_sources[1] is not self._ids
        ):
            return self._build_kernel()
        return self._kernel

    # -- fitting ----------------------------------------------------------

    def _allocate(self, X: np.ndarray) -> None:
        if self.n_features < self.window:
            raise ValueError(
                f"window={self.window} longer than input ({self.n_features} features)"
            )
        n_windows = self.n_features - self.window + 1
        if self.use_ids:
            self.id_generator = SeedIdGenerator(self.rng, self.dim)
            self._ids = self.id_generator.table(n_windows)
        else:
            self._ids = identity_ids(n_windows, self.dim)
        self._kernel = None
        self._plan = None
        if self._resolved_engine() != "reference":
            self._build_kernel()

    @property
    def n_windows(self) -> int:
        self._check_fitted()
        return self.n_features - self.window + 1

    @property
    def max_abs_count(self) -> int:
        """One bipolar window product per window (multifold folds fewer)."""
        return self.n_windows

    # -- encoding (through the encode plan) --------------------------------

    def encode_plan(self):
        """The cached :class:`~repro.core.ir.KernelPlan`.

        One plan per (encoder-fit, shape-class): the planner memoizes by
        :class:`~repro.core.ir.PlanRequest` globally, and the
        encoder pins the resolved plan locally so the hot path never
        re-resolves.  Invalidated by engine/approx changes and refits.
        """
        self._check_fitted()
        plan = self._plan
        if plan is None:
            plan = PLANNER.plan(PlanRequest(
                n_features=int(self.n_features),
                window=self.window,
                dim=self.dim,
                num_levels=self.num_levels,
                use_ids=self.use_ids,
                engine=self._engine,
                approx_folds=self._approx_folds,
            ))
            self._plan = plan
        return plan

    def _plan_sources(self, plan):
        if plan.backend_name == "numpy-reference":
            return EncodeSources(levels=self.levels.vectors, ids=self._ids)
        return EncodeSources(kernel=self._current_kernel())

    def _encode_chunk(self, X: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        plan = self.encode_plan()
        bins = self.quantizer.transform(X)
        return plan.execute(self._plan_sources(plan), bins, out)

    def _encode_signs_chunk(self, X: np.ndarray,
                            out: Optional[np.ndarray] = None) -> np.ndarray:
        plan = self.encode_plan()
        bins = self.quantizer.transform(X)
        return plan.execute_signs(self._plan_sources(plan), bins, out)

    # -- cost reporting ---------------------------------------------------

    def _chunk_cost(self) -> int:
        """Bytes of encode intermediates per sample, from the plan."""
        return self.encode_plan().bytes_per_sample

    def _planned_chunk(self) -> int:
        """Chunk fan-out sized by the planner's per-chunk cost estimate."""
        return self.encode_plan().chunk_samples

    def _span_attrs(self, n_samples: int) -> dict:
        plan = self.encode_plan()
        attrs = {
            "backend": plan.backend_name,
            "primitives": plan.primitive_ops(n_samples),
        }
        if plan.error_bound is not None:
            attrs["approx_folds"] = plan.folds
            attrs["approx_error_bound"] = plan.error_bound[
                "max_abs_count_error"
            ]
        return attrs

    def _op_profile(self) -> OpProfile:
        """Logical per-sample op counts, identical for both engines.

        The XOR and add counts are :func:`repro.core.ir.encode_op_counts`
        -- the same function the plan's per-primitive span attrs read --
        so a trace's ``xor_fold``/``bundle`` ops always equal this
        profile times the sample count.  They are per dimension, not
        per uint64 word, so the packed engine reports the same work as
        the reference engine.
        """
        w = self.n_windows
        # multifold approximation folds only k of the w windows; the
        # profile stays engine-independent either way
        k = w if self._approx_folds is None else min(self._approx_folds, w)
        ops = encode_op_counts(int(self.n_features), self.window, self.dim,
                               self.use_ids, self._approx_folds)
        mem = (self.n_features + k * self.window) * self.dim // 8
        notes = {"windows": w, "window_len": self.window}
        if k != w:
            notes["folds"] = k
        return OpProfile(
            xor_ops=ops["xor_fold"],
            add_ops=ops["bundle"],
            mem_bytes=mem,
            notes=notes,
        )


class NgramEncoder(GenericEncoder):
    """N-gram encoding (paper Section 2.2 / refs [6, 14]).

    Extracts every subsequence of length ``n``, encodes each with the
    permute-and-multiply construction, and bundles them *without* global
    position binding -- exactly the GENERIC construction with identity
    ids.  Captures local subsequences (good for text) but discards the
    global arrangement of features (fails on images and speech).
    """

    name = "ngram"

    def __init__(
        self,
        dim: int = DEFAULT_DIM,
        num_levels: int = DEFAULT_LEVELS,
        seed: int = 0,
        window: int = 3,
        engine: str = "auto",
        approx_folds: int | None = None,
    ):
        super().__init__(
            dim=dim,
            num_levels=num_levels,
            seed=seed,
            window=window,
            use_ids=False,
            engine=engine,
            approx_folds=approx_folds,
        )
