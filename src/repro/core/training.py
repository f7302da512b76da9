"""Retraining engines: the reference per-sample loop and a Gram cache.

The paper's retraining (Fig. 1c) is inherently sequential -- every
sample is scored against the *current* model, and a misprediction
mutates the model before the next sample is scored.  The reference
engine implements exactly that, one NumPy matvec per sample.  The
``gram`` engine computes the same sequence of predictions and updates
from two caches instead:

- ``G = encodings @ model.T`` (kept transposed as ``(n_classes, n)``):
  scoring sample ``i`` is a read of column ``i`` -- no matvec.  When
  class ``c`` changes by ``±h_i``, the whole row ``G[c]`` moves by
  ``±k_i`` where ``k_i = encodings @ h_i`` is a column of the Gram
  matrix ``K = encodings @ encodings.T``.
- scalar squared norms per class, moved by the identity
  ``||C ± h||² = ||C||² ± 2·(C·h) + ||h||²`` where ``C·h`` is *already
  in the cache* (it is ``G[c, i]``), so a misprediction costs
  ``O(n + dim)`` instead of two full ``O(dim)`` norm recomputes plus an
  ``O(n_classes · dim)`` matvec per subsequent score.

``K`` is built by use.  Columns are computed on demand (one GEMV each,
cached); the whole matrix is built with one BLAS GEMM, and the
remaining columns read from it, only when ``K`` fits the memory budget
and the fit needs more distinct columns than the GEMM costs.  Both run
in float32 when the values provably stay exact (see below).  The need
is forecast before the first update -- the initial model's
mispredictions are the first epoch's updates to within a few -- and
re-checked as columns are used.
A nearly converged fit touches a handful of columns and never pays the
GEMM; a noisy one builds ``K`` for its first update.

**Why the gram engine is result-identical, not just close.**  Encoded
hypervectors are integer-valued (window-folded XOR sums), so the model,
every dot product, and every squared norm are integers.  IEEE-754
float64 arithmetic on integers below 2**53 is exact regardless of
association order, which makes the cached dots and delta-updated norms
*bit-equal* to freshly computed ones -- the scores, arg-maxes, update
sequence, final model, and :class:`SubNormTable` all match the
reference engine exactly.  :func:`plan_retraining` verifies the
integer-magnitude precondition up front (a conservative worst-case
growth bound); ``engine="auto"`` falls back to the reference loop when
it cannot prove exactness or when the Gram cache would not fit the
memory budget.

**Why float32 changes nothing either.**  :meth:`HDClassifier.fit
<repro.core.classifier.HDClassifier.fit>` stores its encodings ``E``
in float32 when the encoder's count bound
(:attr:`~repro.core.encoders.base.Encoder.max_abs_count`) is at most
2**24, so every count is held exactly at half of float64's memory.
Float32 *arithmetic* is exact on integers whose every intermediate
stays below 2**24, and each float32 pass of a fit runs only under a
cheap bound that proves this; when the bound fails, the pass runs in
float64 over row blocks of at most 4 MiB (:func:`_row_blocks`), so no
float64 copy of the whole ``E`` is ever made.

- *Row norms.*  One float32 pass gives ``h2 = ||h_i||²``.  Its
  terms are non-negative and rounding is monotone, so a partial sum
  whose true value reaches 2**24 rounds to at least 2**24, and so does
  every sum above it: when the largest computed ``h2`` is below 2**24,
  every ``h2`` is exact, in any summation order.  The planner then
  bounds every class norm by ``B = max_c ||M0_c|| + epochs·Σ ||h_i||``
  (``M0`` the starting model, which must be integer) and every dot and
  squared norm by ``B²``, against 2**52.  Only when that fails, or
  ``E`` is not float32, does it run the blocked float64 column bound
  (:func:`_bound_stats`).
- *Gram columns and K.*  Cauchy-Schwarz bounds every product and every
  partial sum of ``E[j]·E[i]``, over any subset of the dimensions, by
  ``max ||h_i||²``; below 2**24 the float32 GEMV of a column and the
  float32 GEMM of ``K`` are exact in whatever order BLAS sums.
- *Dot cache.*  The integer model splits as ``M = hi·2**s + lo`` with
  ``0 <= lo < 2**s``, ``s`` the largest shift with
  ``2**s·sqrt(D)·max ||h|| < 2**24``, so ``||lo_c||·||h||`` stays below
  2**24 without being computed.  When ``max_c ||hi_c||·max ||h||`` is
  below 2**24 too, ``E @ [hi; lo].T`` is one exact float32 GEMM, whose
  two halves combine in float64 (:func:`_limb_shift`).
- *Class sums.*  Every partial sum of a class's rows is bounded by
  ``n_c · max_abs_count``; when the largest class times the encoder's
  count bound is below 2**24 -- known before any row is read -- the
  rows are summed in float32 (:func:`class_sums`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.norms import SubNormTable
from repro.core.sims import METRICS
from repro.obs import trace as obs_trace

#: selectable training engines (mirrors the encoders' ``engine=`` flag)
TRAIN_ENGINES = ("auto", "reference", "gram")

#: default cap on Gram-cache memory (G + K + column cache), in bytes
DEFAULT_TRAIN_BUDGET = 256 * 2**20

#: integer magnitudes must stay below this for float64 ops to be exact;
#: one bit of slack under 2**53 covers the ``2*(C·h) + ||h||²`` deltas
_EXACT_LIMIT = 2.0**52

#: float32 holds and accumulates integers exactly below 2**24: Gram
#: columns and ``K`` run in float32 while every ``||h_i||²`` stays below
_EXACT_LIMIT_F32 = 2.0**24

_EPOCH_CHUNK = 16384  # dot-cache columns per _gram_misses chunk

#: one ``K = E·Eᵀ`` GEMM costs as much as ``n / _GEMM_GAIN`` single-
#: column GEMVs: the break-even in distinct columns past which
#: :class:`_ColumnProvider` builds ``K``.  Measured at n=2080, D=8192 on
#: a 2-vCPU Xeon (OpenBLAS) with a float32 ``E``: the float32 GEMM took
#: 0.20 s and a float32 ``E @ E[i]`` 1.5-1.7 ms, a break-even of 120-135
#: columns (the float64 pair, 0.36-0.40 s and 3.8-5.7 ms, gives 20-33).
_GEMM_GAIN = 16

#: bytes of float64 rows per block wherever a float64 product or
#: reduction reads ``E`` (:func:`_row_blocks`): 64 rows at D=8192, so a
#: float32 ``E`` is never copied whole to float64.  At 2080x8192,
#: 32-256-row blocks of :func:`_bound_stats` all took ~0.04 s, where one
#: whole ``np.abs`` copy took 0.11 s and 136 MB.
_BLOCK_BYTES = 4 * 2**20

#: rows per block of the float32 GEMMs over ``E`` (dot-cache limbs,
#: forecast columns).  At 2080x8192 one whole-``E`` GEMM took 15 ms but
#: left ~4 MB more resident (BLAS packing buffers) than 256-row blocks,
#: which took 18 ms; 64-row blocks took 28 ms.
_GEMM_ROWS = 256

#: samples per vectorized scan block in the gram engine.  The scan
#: scores a whole block from the cache and jumps to the first
#: misprediction, so converged epochs cost a handful of NumPy calls per
#: block instead of one Python iteration per sample.  128 balances the
#: per-update tail rescan (grows with the block) against per-block
#: overhead (shrinks with it).
_SCAN_CHUNK = 128


@dataclass
class TrainReport:
    """Bookkeeping returned by :meth:`HDClassifier.fit`."""

    epochs_run: int
    updates_per_epoch: list
    train_accuracy_per_epoch: list
    #: wall-clock seconds of planning plus the retraining engine (set by
    #: :func:`retrain`; excludes encoding and model initialization)
    seconds: Optional[float] = None
    #: gram engine only: distinct Gram columns used before ``K`` was
    #: built, and whether the whole ``K`` was built with the GEMM
    gram_columns: Optional[int] = None
    gram_kernel_built: Optional[bool] = None
    #: wall-clock seconds per phase: ``init`` (class sums and sub-norm
    #: table, when :func:`retrain` initialized the model), ``plan``,
    #: ``dots`` (the gram dot cache), ``columns`` (Gram columns and
    #: ``K``) and ``loop`` (the rest of the engine)
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def final_train_accuracy(self) -> float:
        return self.train_accuracy_per_epoch[-1] if self.train_accuracy_per_epoch else 0.0


@dataclass
class TrainPlan:
    """Resolved engine choice for one ``fit()`` (see ``clf.train_plan_``)."""

    requested: str          # what the caller asked for
    engine: str             # "reference" | "gram"
    exact: bool             # gram proven bit-identical to reference
    kernel: str             # "precomputed" (K fits: built past the
                            # break-even) | "columns" | "none"
    kernel_dtype: str       # Gram columns and K: "float32" when every
                            # ||h_i||² < 2**24 (exact by Cauchy-Schwarz),
                            # else "float64"; "-" for reference
    encodings_dtype: str    # dtype of the E the fit trained on
    cache_bytes: int        # planned gram-cache footprint
    budget_bytes: int
    reason: str             # why this engine was picked
    dot_shift: Optional[int] = None  # s of the float32 limbs hi·2**s + lo
                                     # of the dot cache; None: float64

    def __str__(self) -> str:
        dots = "float64" if self.dot_shift is None else f"limbs(s={self.dot_shift})"
        return (
            f"TrainPlan({self.requested!r} -> {self.engine!r}, "
            f"exact={self.exact}, kernel={self.kernel}, "
            f"kernel_dtype={self.kernel_dtype}, "
            f"encodings_dtype={self.encodings_dtype}, dots={dots}, "
            f"{self.reason})"
        )


# -- planning ---------------------------------------------------------------


def _block_rows(encodings: np.ndarray) -> int:
    """Rows of ``encodings`` that fill :data:`_BLOCK_BYTES` as float64."""
    return max(1, _BLOCK_BYTES // (8 * max(1, encodings.shape[1])))


def _row_blocks(encodings: np.ndarray,
                rows: Optional[int] = None) -> List[slice]:
    """Row slices of ``encodings`` of ``rows`` (default
    :func:`_block_rows`) rows each."""
    n, rows = len(encodings), rows or _block_rows(encodings)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def _bound_stats(encodings: np.ndarray, h2: Optional[np.ndarray] = None):
    """Per-column L1 / max-abs bounds, reduced in row blocks.

    ``|E|`` is never materialized whole: each of :func:`_row_blocks`
    goes through one small float64 ``np.abs`` buffer.  Float64 sums of
    integers below 2**53 are exact in any order, so for integer
    encodings the blocked ``col_l1`` is bit-equal to
    ``np.abs(E).sum(axis=0)``; ``col_max`` is a max and order-free.
    When given, the length-n array ``h2`` is filled with the rows'
    squared norms ``||h_i||²`` in the same pass (float64, exact).
    """
    n, d = encodings.shape
    col_l1 = np.zeros(d)
    col_max = np.zeros(d)
    blocks = _row_blocks(encodings)
    buf = np.empty((blocks[0].stop if blocks else 0, d))
    for rows in blocks:
        block = np.abs(encodings[rows], out=buf[:rows.stop - rows.start])
        if h2 is not None:
            np.einsum("ij,ij->i", block, block, out=h2[rows])
        col_l1 += block.sum(axis=0)
        np.maximum(col_max, block.max(axis=0), out=col_max)
    return col_l1, col_max


def _is_integral(values: np.ndarray) -> bool:
    return bool(np.array_equal(values, np.trunc(values)))


def _exact_h2_f32(encodings: np.ndarray, out: np.ndarray) -> bool:
    """Fill ``out`` with ``||h_i||²`` from one float32 pass, if exact.

    True when ``encodings`` is float32 and the largest computed square
    norm is below 2**24: for integer rows that proves every one exact
    (non-negative terms, monotone rounding; see the module docstring).
    """
    if encodings.dtype != np.float32:
        return False
    # np.vecdot (NumPy >= 2) took half the time of the einsum at 2080x8192
    vecdot = getattr(np, "vecdot", None)
    h2 = (vecdot(encodings, encodings) if vecdot is not None
          else np.einsum("ij,ij->i", encodings, encodings))
    if not float(h2.max()) < _EXACT_LIMIT_F32:
        return False
    out[:] = h2
    return True


def _norm_bound_holds(h2: np.ndarray, epochs: int,
                      model: Optional[np.ndarray]) -> bool:
    """The row-norm growth bound of the ±h rule, against 2**52.

    Each epoch moves each sample at most once, so no class norm exceeds
    ``B = max_c ||M0_c|| + epochs·Σ ||h_i||``; every dot is then at most
    ``B·max ||h_i|| <= B²`` and every squared norm (and the
    ``||C||² ± 2·(C·h) + ||h||²`` steps between two of them) at most
    ``B²``.  Without ``model`` the start is the class sums, whose norms
    are at most ``Σ ||h_i||``.  The float64 rounding of ``B`` itself is
    far inside the bit of slack that :data:`_EXACT_LIMIT` keeps.
    """
    h_sum = float(np.sqrt(h2).sum())
    start = h_sum if model is None else math.sqrt(
        float(np.einsum("ij,ij->i", model, model).max()))
    bound = start + float(epochs) * h_sum
    return bound * bound < _EXACT_LIMIT


def _column_bound_holds(stats, epochs: int,
                        model: Optional[np.ndarray]) -> bool:
    """The per-dimension growth bound: the fallback of the norm bound.

    ``|M_c[d]|`` stays within ``max_c |M0_c[d]| + epochs·col_l1[d]``
    (``(1+epochs)·col_l1[d]`` from the class sums), which bounds every
    dot by ``col_max·growth`` and every squared norm by ``growth²``.
    """
    col_l1, col_max = stats
    start = col_l1 if model is None else np.abs(model).max(axis=0)
    growth = start + float(epochs) * col_l1
    return max(float(col_max @ growth), float(growth @ growth)) < _EXACT_LIMIT


def _limb_shift(model: np.ndarray, h2_max: float) -> Optional[int]:
    """Shift ``s`` of the float32 limbs of an integer model, or None.

    ``M = hi·2**s + lo`` with ``0 <= lo < 2**s``.  ``s`` is the largest
    shift with ``2**s·sqrt(D)·max ||h|| < 2**24``, so ``E @ lo.T`` is
    exact in float32 by construction; None when ``E @ hi.T`` is not,
    i.e. ``max_c ||hi_c||·max ||h|| >= 2**24``.  Both tests compare
    squares: sums of non-negative terms round monotonically, so a
    computed value below the limit proves the true one is.
    """
    limit2 = _EXACT_LIMIT_F32 * _EXACT_LIMIT_F32
    h2_max = max(float(h2_max), 1.0)  # hi must be float32-representable
    dim = model.shape[1]
    shift = 0
    while shift < 24 and 4.0 ** (shift + 1) * dim * h2_max < limit2:
        shift += 1
    hi = np.floor_divide(model, 2.0 ** shift)
    if not float(np.einsum("ij,ij->i", hi, hi).max()) * h2_max < limit2:
        return None
    return shift


def plan_retraining(
    encodings: np.ndarray,
    n_classes: int,
    epochs: int,
    engine: str = "auto",
    budget_bytes: Optional[int] = None,
    assume_integral: bool = False,
    h2: Optional[np.ndarray] = None,
    model: Optional[np.ndarray] = None,
) -> TrainPlan:
    """Pick the retraining engine and Gram-cache layout for one fit.

    ``model`` is the starting model ``M0`` (None: the class sums of
    ``encodings``); gram replay is proven exact only for an integer one.
    ``assume_integral`` skips the whole-array integer scan of
    ``encodings`` when the caller has already seen integer counts.  A
    length-n float64 ``h2`` is filled with the squared norms
    ``||h_i||²`` (every gram plan computes them), so the engine reuses
    them instead of a second pass.
    """
    if engine not in TRAIN_ENGINES:
        raise ValueError(
            f"unknown train engine {engine!r}; choose from {TRAIN_ENGINES}"
        )
    budget = DEFAULT_TRAIN_BUDGET if budget_bytes is None else int(budget_bytes)
    n = len(encodings)

    e_dtype = encodings.dtype.name

    def reference(reason: str, exact: bool = True) -> TrainPlan:
        return TrainPlan(engine, "reference", exact, "none", "-",
                         e_dtype, 0, budget, reason)

    if engine == "reference":
        return reference("requested")
    if epochs <= 0 or n == 0:
        return reference("nothing to retrain")

    h2 = np.empty(n) if h2 is None else h2
    integral = assume_integral or _is_integral(encodings)
    stats = None
    if not (integral and _exact_h2_f32(encodings, h2)):
        stats = _bound_stats(encodings, h2=h2)
    exact = integral and (model is None or _is_integral(model))
    if exact and not _norm_bound_holds(h2, epochs, model):
        stats = _bound_stats(encodings) if stats is None else stats
        exact = _column_bound_holds(stats, epochs, model)
    if engine == "auto" and not exact:
        return reference(
            "encodings or starting model fail the integer-exactness "
            "bound for gram replay", exact=False,
        )

    # gram-cache layout: G (n_classes, n) + h2 (n) always; K when it fits
    g_bytes = n_classes * n * 8 + n * 8
    if engine == "auto" and g_bytes > budget:
        return reference(
            f"dot cache ({g_bytes} B) exceeds the {budget} B budget"
        )
    # Cauchy-Schwarz bounds every product and every partial sum of
    # E[j]·E[i] by max ||h||², so below 2**24 float32 BLAS is exact in
    # any summation order
    h2_max = float(h2.max())
    kernel_f32 = h2_max < _EXACT_LIMIT_F32
    k_dtype = "float32" if kernel_f32 else "float64"
    k_bytes = n * n * (4 if kernel_f32 else 8)
    if g_bytes + k_bytes <= budget:
        kernel, cache = "precomputed", g_bytes + k_bytes
    else:
        kernel, cache = "columns", g_bytes  # on-demand columns, budget-gated
    shift = None
    if exact and model is not None and kernel_f32 and e_dtype == "float32":
        shift = _limb_shift(model, h2_max)
    return TrainPlan(engine, "gram", exact, kernel, k_dtype, e_dtype,
                     cache, budget, "gram cache fits the memory budget",
                     dot_shift=shift)


# -- shared helpers ---------------------------------------------------------


class _ColumnProvider:
    """Columns of the Gram matrix ``K = E @ E.T``, computed by use.

    ``forecast`` holds the columns the fit is expected to ask for (the
    initial model's mispredictions).  When the plan's ``K`` fits the
    budget (``precomputed``) and the forecast passes the break-even of
    ``n / _GEMM_GAIN`` distinct columns, the first column builds ``K``
    with one GEMM and every later column reads from it.  Otherwise the
    forecast columns are fetched together in one GEMM, as far as the
    cache holds them, and any other column on its own, ``E @ E[i]``,
    cached while the budget lasts; a ``precomputed`` plan still builds
    ``K`` once the fit has used break-even many distinct columns.
    Every path yields the same exact integer dots.

    Columns run in blocks of :data:`_GEMM_ROWS` rows straight on a
    float64 ``E``, and on a float32 ``E`` under the plan's float32
    bound (exact by Cauchy-Schwarz); any other ``E`` goes through
    float64 over :func:`_row_blocks`, never copied whole to float64.
    The GEMM of ``K`` runs in ``plan.kernel_dtype`` the same way.
    ``seconds`` accumulates the time spent computing columns and ``K``.
    """

    def __init__(self, encodings: np.ndarray, plan: TrainPlan,
                 forecast: np.ndarray):
        self._E = encodings
        n = len(encodings)
        self._f32 = plan.kernel_dtype == "float32"
        self._native = encodings.dtype == np.float64 or (
            self._f32 and encodings.dtype == np.float32)
        self.kernel: Optional[np.ndarray] = None
        self._cache: Dict[int, np.ndarray] = {}
        self.seconds = 0.0
        forecast = np.asarray(forecast, dtype=np.intp)
        if plan.kernel == "precomputed":
            break_even = n // _GEMM_GAIN
            self._build_after = 0 if len(forecast) > break_even else break_even
            self._capacity = self._build_after
        else:
            self._build_after = None
            spare = plan.budget_bytes - plan.cache_bytes
            self._capacity = max(0, spare // (n * 8)) if n else 0
        self._seen: set = set()
        if self._build_after != 0 and self._capacity and len(forecast):
            t0 = time.perf_counter()
            take = forecast[:self._capacity]
            self._cache.update(zip(take.tolist(), self._rows(take)))
            self.seconds += time.perf_counter() - t0

    @property
    def computed(self) -> int:
        """Distinct columns used before ``K`` was built."""
        return len(self._seen)

    def column(self, i: int) -> np.ndarray:
        if self.kernel is not None:
            return self.kernel[i]
        col = self._cache.get(i)
        if col is not None and i in self._seen:
            return col
        t0 = time.perf_counter()
        if (self._build_after is not None
                and len(self._seen) >= self._build_after):
            self.kernel = self._gemm()
            self._cache.clear()
            self.seconds += time.perf_counter() - t0
            return self.kernel[i]
        if col is None:
            col = self._rows(np.array([i]))[0]
            if len(self._cache) < self._capacity:
                self._cache[i] = col
        self._seen.add(i)
        self.seconds += time.perf_counter() - t0
        return col

    def _rows(self, idx: np.ndarray) -> np.ndarray:
        """Rows ``idx`` of ``K`` (its columns, by symmetry): one GEMM
        per row block of ``E``."""
        E = self._E
        right = E[idx] if self._native else E[idx].astype(np.float64)
        out = np.empty((len(E), len(idx)), dtype=right.dtype)
        for rows in _row_blocks(E, _GEMM_ROWS if self._native else None):
            np.matmul(E[rows], right.T, out=out[rows])
        return np.ascontiguousarray(out.T)

    def _gemm(self) -> np.ndarray:
        E = self._E
        if self._f32:
            e = E.astype(np.float32, copy=False)
            return e @ e.T
        if self._native:
            return E @ E.T
        kernel = np.empty((len(E), len(E)))
        blocks = _row_blocks(E)
        for cols in blocks:
            right = E[cols].T.astype(np.float64)
            for rows in blocks:
                kernel[rows, cols] = E[rows] @ right
        return kernel

    def record(self, report: "TrainReport") -> "TrainReport":
        """Note the column policy's outcome on ``report``."""
        report.gram_columns = self.computed
        report.gram_kernel_built = self.kernel is not None
        return report


def _gram_scores_block(block: np.ndarray, safe: np.ndarray,
                       sqrt_safe: np.ndarray, metric: str) -> np.ndarray:
    """Scores for a ``(n_classes, chunk)`` slice of the dot cache.

    Elementwise-identical to :meth:`HDClassifier._scores` on the same
    dots and norms (division by the same sqrt, same hardware formula).
    """
    if metric == "cosine":
        return block / sqrt_safe[:, None]
    if metric == "dot":
        return block
    if metric == "hardware":
        return np.sign(block) * ((block * block) / safe[:, None])
    raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")


def _gram_misses(gt: np.ndarray, safe: np.ndarray, sqrt_safe: np.ndarray,
                 metric: str, y_idx: np.ndarray) -> np.ndarray:
    """Indices of the samples mispredicted by the dot cache, chunked."""
    n = gt.shape[1]
    misses = []
    for start in range(0, n, _EPOCH_CHUNK):
        stop = min(start + _EPOCH_CHUNK, n)
        scores = _gram_scores_block(gt[:, start:stop], safe, sqrt_safe, metric)
        preds = np.argmax(scores, axis=0)
        misses.append(start + np.flatnonzero(preds != y_idx[start:stop]))
    return np.concatenate(misses) if misses else np.empty(0, dtype=np.intp)


def _chunked_epoch_accuracy(clf, encodings: np.ndarray,
                            y_idx: np.ndarray) -> float:
    """Epoch-end accuracy for the reference engines, scored over
    :func:`_row_blocks` so neither the ``(n, C)`` score matrix nor a
    float64 copy of ``E`` is materialized in one shot."""
    correct = 0
    for rows in _row_blocks(encodings):
        preds = np.argmax(clf._scores(encodings[rows]), axis=1)
        correct += int(np.count_nonzero(preds == y_idx[rows]))
    return correct / len(encodings)


def _block_norm2(encodings: np.ndarray, n_blocks: int, block: int) -> np.ndarray:
    """Per-sample per-block squared norms ``||h_blk||²`` (shape (n, n_blocks)),
    in float64 over :func:`_row_blocks`."""
    out = np.empty((len(encodings), n_blocks))
    for rows in _row_blocks(encodings):
        blocked = encodings[rows].astype(np.float64, copy=False).reshape(
            -1, n_blocks, block)
        np.einsum("ijk,ijk->ij", blocked, blocked, out=out[rows])
    return out


def _class_dots(model: np.ndarray, encodings: np.ndarray,
                shift: Optional[int] = None) -> np.ndarray:
    """The dot cache ``model @ E.T`` as float64 ``(n_classes, n)``.

    With a plan's ``dot_shift`` (a float32 ``E`` and an integer model
    whose limbs pass :func:`_limb_shift`), one exact float32 GEMM on the
    stacked limbs ``[hi; lo]``, combined in float64; otherwise float64
    over :func:`_row_blocks`.
    """
    if shift is not None:
        c = len(model)
        scale = 2.0 ** shift
        limbs = np.empty((2 * c, model.shape[1]), dtype=np.float32)
        # floor quotient and non-negative remainder; the guard keeps
        # both within float32's exact integers
        np.divmod(model, scale, out=(limbs[:c], limbs[c:]))
        both = np.empty((len(encodings), 2 * c), dtype=np.float32)
        for rows in _row_blocks(encodings, _GEMM_ROWS):
            np.matmul(encodings[rows], limbs.T, out=both[rows])
        dots = np.multiply(both[:, :c].T, scale, dtype=np.float64, order="C")
        dots += both[:, c:].T
        return dots
    # row blocks land in contiguous rows of the transpose: writing
    # them as column strips of ``gt`` took twice as long
    dots = np.empty((len(encodings), len(model)))
    for rows in _row_blocks(encodings):
        np.matmul(encodings[rows], model.T, out=dots[rows])
    return np.ascontiguousarray(dots.T)


def class_sums(encodings: np.ndarray, y_idx: np.ndarray, n_classes: int,
               count_bound: Optional[int] = None) -> np.ndarray:
    """Per-class sums of the encodings: the paper's model initialization.

    Each class's rows are gathered at most :func:`_block_rows` at a time
    and reduced, so a float32 ``E`` is never copied whole.  The blocks
    sum in float32 when ``E`` is float32 and the largest class times
    ``count_bound`` (a bound on every ``|E[i, d]|``, e.g. the encoder's
    ``max_abs_count``) is below 2**24, which bounds every partial sum;
    otherwise in float64.  Both are exact for integer encodings.  At
    2080x8192 the float32 sums took 10-15 ms, the float64 ones 18-23 ms.
    """
    model = np.zeros((n_classes, encodings.shape[1]))
    counts = np.bincount(y_idx, minlength=n_classes)
    f32 = (encodings.dtype == np.float32 and count_bound is not None
           and len(counts) > 0
           and float(counts.max()) * count_bound < _EXACT_LIMIT_F32)
    acc = np.float32 if f32 else np.float64
    step = _block_rows(encodings)
    order = np.argsort(y_idx, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(counts)])
    for c in range(n_classes):
        for start in range(bounds[c], bounds[c + 1], step):
            rows = order[start:min(start + step, bounds[c + 1])]
            model[c] += encodings[rows].sum(axis=0, dtype=acc)
    return model


class _EpochTracer:
    """Per-epoch ``train.epoch`` spans for the engine loops.

    The epoch loops are the retraining hot path, so instead of a context
    manager per iteration the engines call :meth:`mark` once per epoch
    boundary; everything is a no-op while tracing is disabled.
    """

    __slots__ = ("engine", "epoch", "_t0", "_enabled")

    def __init__(self, engine: str):
        self._enabled = obs_trace.tracing_enabled()
        self.engine = engine
        self.epoch = 0
        self._t0 = time.perf_counter() if self._enabled else 0.0

    def mark(self, updates: int, accuracy: float) -> None:
        if not self._enabled:
            return
        now = time.perf_counter()
        obs_trace.emit_span(
            "train.epoch", now - self._t0,
            attrs={
                "engine": self.engine, "epoch": self.epoch, "updates": updates,
                "train_accuracy": accuracy,
            },
        )
        self.epoch += 1
        self._t0 = now


# -- reference engine -------------------------------------------------------


def _retrain_reference(clf, encodings: np.ndarray,
                       y_idx: np.ndarray) -> TrainReport:
    """The paper's per-sample rule (Fig. 1c), scored against the live model.

    Norm maintenance uses :meth:`SubNormTable.delta_update` (exact
    ``±2·(C_blk·h_blk) + ||h_blk||²`` per block) instead of the old
    full-row square-and-sum, with the per-sample block norms hoisted out
    of the loop.
    """
    updates_per_epoch: List[int] = []
    acc_per_epoch: List[float] = []
    n = len(encodings)
    order = np.arange(n)
    tracer = _EpochTracer("reference")
    h_blk2 = None
    if clf.epochs > 0 and n > 0:
        h_blk2 = _block_norm2(encodings, clf.norms_.n_blocks, clf.norms_.block)
    for _ in range(clf.epochs):
        if clf.shuffle:
            clf.rng.shuffle(order)
        updates = 0
        for i in order:
            h = encodings[i]
            pred = int(np.argmax(clf._scores(h[None, :])[0]))
            truth = int(y_idx[i])
            if pred != truth:
                clf.norms_.delta_update(pred, clf.model_[pred], h, -1.0,
                                        h_block_norm2=h_blk2[i])
                clf.norms_.delta_update(truth, clf.model_[truth], h, 1.0,
                                        h_block_norm2=h_blk2[i])
                clf.model_[pred] -= h
                clf.model_[truth] += h
                updates += 1
        updates_per_epoch.append(updates)
        acc_per_epoch.append(_chunked_epoch_accuracy(clf, encodings, y_idx))
        tracer.mark(updates, acc_per_epoch[-1])
        if updates == 0:
            break
    return TrainReport(
        epochs_run=len(updates_per_epoch),
        updates_per_epoch=updates_per_epoch,
        train_accuracy_per_epoch=acc_per_epoch,
    )


# -- gram engine ------------------------------------------------------------


def _retrain_gram(clf, encodings: np.ndarray, y_idx: np.ndarray,
                  plan: TrainPlan, h2: np.ndarray) -> TrainReport:
    """Gram-cached replay of the paper's rule (result-identical).

    ``gt`` is the transposed dot cache ``(n_classes, n)`` so the two
    rows touched by an update are contiguous; scoring sample ``i`` reads
    column ``i``.  Samples are consumed through a vectorized scan: a
    block of upcoming samples is scored from the cache in one shot and
    the scan jumps straight to the first misprediction (everything
    before it was predicted correctly and mutated nothing); after the
    update only the block's tail is rescored, because the two touched
    ``gt`` rows and norms are stale there.  The per-column scores and
    arg-maxes are elementwise-identical to the per-sample loop, so the
    update sequence is exactly the reference's.

    The block-granular :class:`SubNormTable` is not needed while
    training (only full norms enter the scores), so it is rebuilt once
    from the final model -- exactly what the reference engine's
    per-update maintenance converges to.
    """
    t0 = time.perf_counter()
    model = clf.model_
    n = len(encodings)
    metric = clf.metric
    gt = _class_dots(model, encodings, plan.dot_shift)  # exact integer dots
    dots_s = time.perf_counter() - t0
    norm2 = clf.norms_.full_norm2()
    safe = np.where(norm2 <= 0.0, np.inf, norm2)
    sqrt_safe = np.sqrt(safe)
    # each of the initial model's mispredictions is (to within a few) a
    # first-epoch update, and each update asks for its column
    columns = _ColumnProvider(
        encodings, plan,
        forecast=_gram_misses(gt, safe, sqrt_safe, metric, y_idx),
    )

    updates_per_epoch: List[int] = []
    acc_per_epoch: List[float] = []
    order = np.arange(n)
    tracer = _EpochTracer("gram")
    for _ in range(clf.epochs):
        if clf.shuffle:
            clf.rng.shuffle(order)
        updates = 0
        for start in range(0, n, _SCAN_CHUNK):
            idx = order[start:start + _SCAN_CHUNK]
            truths = y_idx[idx]
            m = len(idx)
            # score the whole block once; after an update only the two
            # touched class rows go stale and are re-derived for the tail
            scores = _gram_scores_block(gt[:, idx], safe, sqrt_safe, metric)
            j = 0
            while j < m:
                tail = scores[:, j:]
                preds = np.argmax(tail, axis=0)
                wrong = preds != truths[j:]
                p = int(np.argmax(wrong))
                if not wrong[p]:
                    break
                i = int(idx[j + p])
                pred = int(preds[p])
                truth = int(truths[j + p])
                # norm deltas use the pre-update dots still in the cache
                norm2[pred] += h2[i] - 2.0 * gt[pred, i]
                norm2[truth] += h2[i] + 2.0 * gt[truth, i]
                col = columns.column(i)
                gt[pred] -= col
                gt[truth] += col
                h = encodings[i]
                model[pred] -= h
                model[truth] += h
                j += p + 1
                for c in (pred, truth):
                    v = norm2[c]
                    safe[c] = np.inf if v <= 0.0 else v
                    sqrt_safe[c] = math.sqrt(safe[c]) if v > 0.0 else np.inf
                    if j < m:
                        scores[c, j:] = _gram_scores_block(
                            gt[c, idx[j:]][None, :],
                            safe[c:c + 1], sqrt_safe[c:c + 1], metric,
                        )[0]
                updates += 1
        updates_per_epoch.append(updates)
        acc_per_epoch.append(
            (n - len(_gram_misses(gt, safe, sqrt_safe, metric, y_idx))) / n
        )
        tracer.mark(updates, acc_per_epoch[-1])
        if updates == 0:
            break
    clf.norms_.recompute(model)
    loop_s = time.perf_counter() - t0 - dots_s - columns.seconds
    return columns.record(TrainReport(
        epochs_run=len(updates_per_epoch),
        updates_per_epoch=updates_per_epoch,
        train_accuracy_per_epoch=acc_per_epoch,
        phase_seconds={"dots": dots_s, "columns": columns.seconds,
                       "loop": loop_s},
    ))


# -- entry point ------------------------------------------------------------


def retrain(clf, encodings: np.ndarray, y_idx: np.ndarray,
            n_classes: Optional[int] = None,
            count_bound: Optional[int] = None,
            assume_integral: bool = False) -> TrainReport:
    """Run the paper's retraining for a classifier under its engine flag.

    With ``n_classes``, first initialize ``clf.model_`` and
    ``clf.norms_`` from the :func:`class_sums` of ``encodings``
    (``count_bound`` bounds every ``|count|``; see there); otherwise
    ``clf`` must already hold its starting model.  Resolves
    ``clf.config.train_engine`` via :func:`plan_retraining` (recorded on
    ``clf.train_plan_``); ``assume_integral`` is passed on to it, so
    only a caller whose ``encodings`` come straight from an encoder
    should set it.  One ``train`` span covers the whole call, with
    ``train.init`` and ``train.plan`` children.
    """
    n, dim = encodings.shape if encodings.ndim == 2 else (len(encodings), 0)
    phases: Dict[str, float] = {}
    with obs_trace.span("train", samples=n, dim=dim, epochs=clf.epochs) as sp:
        if n_classes is not None:
            t_init = time.perf_counter()
            with obs_trace.span("train.init", samples=n, dim=dim):
                clf.model_ = class_sums(encodings, y_idx, n_classes,
                                        count_bound)
                clf.norms_ = SubNormTable(n_classes, dim, block=clf.norm_block)
                clf.norms_.recompute(clf.model_)
            phases["init"] = time.perf_counter() - t_init
        t0 = time.perf_counter()
        n_classes = clf.model_.shape[0]
        h2 = np.empty(n)  # filled by the planner's scan of E
        with obs_trace.span("train.plan"):
            plan = plan_retraining(
                encodings,
                n_classes=n_classes,
                epochs=clf.epochs,
                engine=clf.config.train_engine,
                budget_bytes=clf.config.train_memory_budget,
                assume_integral=assume_integral,
                h2=h2,
                model=clf.model_,
            )
        clf.train_plan_ = plan
        phases["plan"] = time.perf_counter() - t0
        if plan.engine == "gram":
            report = _retrain_gram(clf, encodings, y_idx, plan, h2)
        else:
            report = _retrain_reference(clf, encodings, y_idx)
        report.seconds = time.perf_counter() - t0
        phases.update(report.phase_seconds
                      or {"loop": report.seconds - phases["plan"]})
        report.phase_seconds = phases
        if sp.recording:
            # logical work, engine-independent: every sample is scored
            # against every class each epoch (dim MACs per pair), and a
            # misprediction moves two class rows plus their norm deltas
            total_updates = int(sum(report.updates_per_epoch))
            score_macs = report.epochs_run * n * n_classes * dim
            sp.set(engine=plan.engine, n_classes=n_classes,
                   epochs_run=report.epochs_run, updates=total_updates)
            if plan.engine == "gram":
                sp.set(gram_columns=report.gram_columns,
                       gram_kernel_built=report.gram_kernel_built)
            sp.add_ops(
                mul_ops=score_macs,
                add_ops=score_macs + total_updates * 4 * dim,
                mem_bytes=report.epochs_run * (n + n_classes) * dim * 8,
            )
    return report
