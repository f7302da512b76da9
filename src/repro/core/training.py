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
<repro.core.classifier.HDClassifier.fit>` stores the paper rule's
encodings ``E`` in float32 when the encoder's count bound
(:attr:`~repro.core.encoders.base.Encoder.max_abs_count`) is at most
2**24, so every count is held exactly at half of float64's memory.
Float32 *arithmetic* is exact on integers whose every intermediate
stays below 2**24.  For a Gram entry ``E[j]·E[i]`` Cauchy-Schwarz
bounds every product and every partial sum, over any subset of the
dimensions, by ``max_i ||h_i||²``; so when the planner's exact float64
``||h_i||²`` all stay below 2**24, the float32 GEMV of a column and the
float32 GEMM of ``K`` are exact in whatever order BLAS sums.  Otherwise
columns and ``K`` run in float64.  Products that mix float64 operands
with ``E`` -- the dot cache ``model @ E.T``, the class sums, epoch
scores, block norms -- accumulate in float64 over row blocks of at most
4 MiB (:func:`_row_blocks`), so no float64 copy of the whole ``E`` is
ever made.

The adaptive (OnlineHD-style) rule of
:class:`~repro.core.online.AdaptiveHDClassifier` scales updates by
continuous similarities, so its cached dots drift from fresh ones at
float rounding level; its gram engine is numerically equivalent (and
refreshes the cache every epoch) but not guaranteed bit-identical,
which is why ``auto`` resolves to ``reference`` for the adaptive rule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

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

_EPOCH_CHUNK = 16384  # dot-cache columns per _gram_errors chunk

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
    #: wall-clock seconds spent inside the retraining engine (set by
    #: :func:`retrain`; excludes encoding and model initialization)
    seconds: Optional[float] = None
    #: gram engine only: distinct Gram columns computed one GEMV at a
    #: time, and whether the whole ``K`` was built with the GEMM
    gram_columns: Optional[int] = None
    gram_kernel_built: Optional[bool] = None

    @property
    def final_train_accuracy(self) -> float:
        return self.train_accuracy_per_epoch[-1] if self.train_accuracy_per_epoch else 0.0


@dataclass
class TrainPlan:
    """Resolved engine choice for one ``fit()`` (see ``clf.train_plan_``)."""

    requested: str          # what the caller asked for
    engine: str             # "reference" | "gram"
    rule: str               # "paper" | "adaptive"
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

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrainPlan({self.requested!r} -> {self.engine!r}, rule={self.rule}, "
            f"exact={self.exact}, kernel={self.kernel}, {self.reason})"
        )


# -- planning ---------------------------------------------------------------


def _block_rows(encodings: np.ndarray) -> int:
    """Rows of ``encodings`` that fill :data:`_BLOCK_BYTES` as float64."""
    return max(1, _BLOCK_BYTES // (8 * max(1, encodings.shape[1])))


def _row_blocks(encodings: np.ndarray) -> List[slice]:
    """Row slices of ``encodings`` of :func:`_block_rows` rows each."""
    n, rows = len(encodings), _block_rows(encodings)
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


def _paper_rule_exact(
    encodings: np.ndarray,
    epochs: int,
    assume_integral: bool = False,
    stats=None,
) -> bool:
    """True when the gram replay of the ±h rule is provably bit-exact.

    Requires integer-valued encodings whose worst-case dot products and
    squared norms stay below 2**52.  The growth bound is conservative:
    it assumes every sample is moved into the same class every epoch.
    ``assume_integral`` skips the whole-array integer scan when the
    caller has already seen an integer source dtype; ``stats`` accepts a
    precomputed ``(col_l1, col_max)`` pair from :func:`_bound_stats`.
    """
    if encodings.size == 0:
        return True
    if not assume_integral and not np.array_equal(
        encodings, np.trunc(encodings)
    ):
        return False
    col_l1, col_max = _bound_stats(encodings) if stats is None else stats
    growth = (1.0 + float(epochs)) * col_l1   # worst-case model magnitude
    dot_bound = float(col_max @ growth)
    norm_bound = float(growth @ growth)
    return max(dot_bound, norm_bound) < _EXACT_LIMIT


def plan_retraining(
    encodings: np.ndarray,
    n_classes: int,
    epochs: int,
    engine: str = "auto",
    rule: str = "paper",
    budget_bytes: Optional[int] = None,
    assume_integral: bool = False,
    h2: Optional[np.ndarray] = None,
) -> TrainPlan:
    """Pick the retraining engine and Gram-cache layout for one fit.

    A length-n float64 ``h2`` is filled with the squared norms
    ``||h_i||²`` whenever the planner scans ``encodings`` (every gram
    plan does), so the engine reuses them instead of a second pass.
    """
    if engine not in TRAIN_ENGINES:
        raise ValueError(
            f"unknown train engine {engine!r}; choose from {TRAIN_ENGINES}"
        )
    budget = DEFAULT_TRAIN_BUDGET if budget_bytes is None else int(budget_bytes)
    n = len(encodings)

    e_dtype = encodings.dtype.name

    def reference(reason: str, exact: bool = True) -> TrainPlan:
        return TrainPlan(engine, "reference", rule, exact, "none", "-",
                         e_dtype, 0, budget, reason)

    if engine == "reference":
        return reference("requested")
    if epochs <= 0 or n == 0:
        return reference("nothing to retrain")

    h2 = np.empty(n) if h2 is None else h2
    stats = _bound_stats(encodings, h2=h2)
    exact = rule == "paper" and _paper_rule_exact(
        encodings, epochs, assume_integral=assume_integral, stats=stats
    )
    if engine == "auto":
        if rule != "paper":
            return reference(
                "adaptive updates are similarity-scaled (non-integer); "
                "gram replay is not provably bit-identical", exact=False,
            )
        if not exact:
            return reference(
                "encodings fail the integer-exactness bound for gram replay",
                exact=False,
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
    kernel_f32 = float(h2.max()) < _EXACT_LIMIT_F32
    k_dtype = "float32" if kernel_f32 else "float64"
    k_bytes = n * n * (4 if kernel_f32 else 8)
    if g_bytes + k_bytes <= budget:
        kernel, cache = "precomputed", g_bytes + k_bytes
    else:
        kernel, cache = "columns", g_bytes  # on-demand columns, budget-gated
    return TrainPlan(engine, "gram", rule, exact, kernel, k_dtype, e_dtype,
                     cache, budget, "gram cache fits the memory budget")


# -- shared helpers ---------------------------------------------------------


class _ColumnProvider:
    """Columns of the Gram matrix ``K = E @ E.T``, computed by use.

    A column is one GEMV, ``E @ E[i]``, cached while the budget lasts.
    When the plan's ``K`` fits the budget (``precomputed``), the
    provider builds it with one GEMM and serves every later column from
    it, as soon as the need passes the break-even of ``n / _GEMM_GAIN``
    distinct columns: at the first column when ``forecast`` (the
    columns the fit is expected to ask for) already does, else once
    that many distinct columns were computed.  Both paths yield the
    same exact integer dots.

    The GEMV runs straight on a float64 ``E``, and on a float32 ``E``
    under the plan's float32 bound (exact by Cauchy-Schwarz); any other
    ``E`` goes through float64 over :func:`_row_blocks`, never copied
    whole to float64.  The GEMM runs in ``plan.kernel_dtype`` the same
    way.
    """

    def __init__(self, encodings: np.ndarray, plan: TrainPlan,
                 forecast: int = 0):
        self._E = encodings
        n = len(encodings)
        self._f32 = plan.kernel_dtype == "float32"
        self._native = encodings.dtype == np.float64 or (
            self._f32 and encodings.dtype == np.float32)
        self.kernel: Optional[np.ndarray] = None
        self._cache: Dict[int, np.ndarray] = {}
        if plan.kernel == "precomputed":
            break_even = n // _GEMM_GAIN
            self._build_after = 0 if forecast > break_even else break_even
            self._capacity = self._build_after
        else:
            self._build_after = None
            spare = plan.budget_bytes - plan.cache_bytes
            self._capacity = max(0, spare // (n * 8)) if n else 0
        self._seen: set = set()

    @property
    def computed(self) -> int:
        """Distinct columns computed one GEMV at a time."""
        return len(self._seen)

    def column(self, i: int) -> np.ndarray:
        if self.kernel is not None:
            return self.kernel[i]
        col = self._cache.get(i)
        if col is None:
            if (self._build_after is not None
                    and len(self._seen) >= self._build_after):
                self.kernel = self._gemm()
                self._cache.clear()
                return self.kernel[i]
            col = self._gemv(i)
            self._seen.add(i)
            if len(self._cache) < self._capacity:
                self._cache[i] = col
        return col

    def _gemv(self, i: int) -> np.ndarray:
        E = self._E
        if self._native:
            return E @ E[i]
        v = E[i].astype(np.float64)
        col = np.empty(len(E))
        for rows in _row_blocks(E):
            col[rows] = E[rows] @ v
        return col

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


def _gram_errors(gt: np.ndarray, safe: np.ndarray, sqrt_safe: np.ndarray,
                 metric: str, y_idx: np.ndarray) -> int:
    """Chunked count of mispredicted samples straight from the dot cache."""
    n = gt.shape[1]
    wrong = 0
    for start in range(0, n, _EPOCH_CHUNK):
        stop = min(start + _EPOCH_CHUNK, n)
        scores = _gram_scores_block(gt[:, start:stop], safe, sqrt_safe, metric)
        preds = np.argmax(scores, axis=0)
        wrong += int(np.count_nonzero(preds != y_idx[start:stop]))
    return wrong


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


def _class_dots(model: np.ndarray, encodings: np.ndarray) -> np.ndarray:
    """The dot cache ``model @ E.T`` in float64, over :func:`_row_blocks`."""
    # row blocks land in contiguous rows of the transpose: writing
    # them as column strips of ``gt`` took twice as long
    dots = np.empty((len(encodings), len(model)))
    for rows in _row_blocks(encodings):
        np.matmul(encodings[rows], model.T, out=dots[rows])
    return np.ascontiguousarray(dots.T)


def class_sums(encodings: np.ndarray, y_idx: np.ndarray,
               n_classes: int) -> np.ndarray:
    """Per-class sums of the encodings: the paper's model initialization.

    Each class's rows are gathered at most :func:`_block_rows` at a time
    and reduced with a float64 accumulator: exact for integer
    encodings, and a float32 ``E`` is never copied whole.  At 2080x8192
    this took 17 ms, against 32 ms for a one-hot GEMM per float64 row
    block and 14 ms for one GEMM on a whole float64 ``E``.
    """
    model = np.zeros((n_classes, encodings.shape[1]))
    step = _block_rows(encodings)
    order = np.argsort(y_idx, kind="stable")
    bounds = np.searchsorted(y_idx[order], np.arange(n_classes + 1))
    for c in range(n_classes):
        for start in range(bounds[c], bounds[c + 1], step):
            rows = order[start:min(start + step, bounds[c + 1])]
            model[c] += encodings[rows].sum(axis=0, dtype=np.float64)
    return model


class _EpochTracer:
    """Per-epoch ``train.epoch`` spans for the engine loops.

    The epoch loops are the retraining hot path, so instead of a context
    manager per iteration the engines call :meth:`mark` once per epoch
    boundary; everything is a no-op while tracing is disabled.
    """

    __slots__ = ("engine", "rule", "epoch", "_t0", "_enabled")

    def __init__(self, engine: str, rule: str):
        self._enabled = obs_trace.tracing_enabled()
        self.engine = engine
        self.rule = rule
        self.epoch = 0
        self._t0 = time.perf_counter() if self._enabled else 0.0

    def mark(self, updates: int, accuracy: float) -> None:
        if not self._enabled:
            return
        now = time.perf_counter()
        obs_trace.emit_span(
            "train.epoch", now - self._t0,
            attrs={
                "engine": self.engine, "rule": self.rule,
                "epoch": self.epoch, "updates": updates,
                "train_accuracy": accuracy,
            },
        )
        self.epoch += 1
        self._t0 = now


# -- reference engines ------------------------------------------------------


def _retrain_reference_paper(clf, encodings: np.ndarray,
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
    tracer = _EpochTracer("reference", "paper")
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


def _retrain_reference_adaptive(clf, encodings: np.ndarray,
                                y_idx: np.ndarray) -> TrainReport:
    """Similarity-weighted (OnlineHD-style) per-sample rule."""
    updates_per_epoch: List[int] = []
    acc_per_epoch: List[float] = []
    n = len(encodings)
    order = np.arange(n)
    tracer = _EpochTracer("reference", "adaptive")
    for _ in range(clf.epochs):
        if clf.shuffle:
            clf.rng.shuffle(order)
        updates = 0
        for i in order:
            h = encodings[i]
            sims = clf._cosine_row(h)
            pred = int(np.argmax(sims))
            truth = int(y_idx[i])
            if pred != truth:
                clf.model_[truth] += clf.lr * (1.0 - sims[truth]) * h
                clf.model_[pred] -= clf.lr * (1.0 - sims[pred]) * h
                clf.norms_.update_class(truth, clf.model_[truth])
                clf.norms_.update_class(pred, clf.model_[pred])
                updates += 1
            elif clf.update_on_correct:
                bump = 0.1 * clf.lr * (1.0 - sims[truth])
                if bump > 0:
                    clf.model_[truth] += bump * h
                    clf.norms_.update_class(truth, clf.model_[truth])
        updates_per_epoch.append(updates)
        acc_per_epoch.append(_chunked_epoch_accuracy(clf, encodings, y_idx))
        tracer.mark(updates, acc_per_epoch[-1])
        if updates == 0 and not clf.update_on_correct:
            break
    return TrainReport(
        epochs_run=len(updates_per_epoch),
        updates_per_epoch=updates_per_epoch,
        train_accuracy_per_epoch=acc_per_epoch,
    )


# -- gram engines -----------------------------------------------------------


def _retrain_gram_paper(clf, encodings: np.ndarray, y_idx: np.ndarray,
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
    model = clf.model_
    n = len(encodings)
    metric = clf.metric
    gt = _class_dots(model, encodings)            # exact integer dots
    norm2 = clf.norms_.full_norm2()
    safe = np.where(norm2 <= 0.0, np.inf, norm2)
    sqrt_safe = np.sqrt(safe)
    # each of the initial model's mispredictions is (to within a few) a
    # first-epoch update, and each update asks for one column
    columns = _ColumnProvider(
        encodings, plan,
        forecast=_gram_errors(gt, safe, sqrt_safe, metric, y_idx),
    )

    updates_per_epoch: List[int] = []
    acc_per_epoch: List[float] = []
    order = np.arange(n)
    tracer = _EpochTracer("gram", "paper")
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
            (n - _gram_errors(gt, safe, sqrt_safe, metric, y_idx)) / n
        )
        tracer.mark(updates, acc_per_epoch[-1])
        if updates == 0:
            break
    clf.norms_.recompute(model)
    return columns.record(TrainReport(
        epochs_run=len(updates_per_epoch),
        updates_per_epoch=updates_per_epoch,
        train_accuracy_per_epoch=acc_per_epoch,
    ))


def _retrain_gram_adaptive(clf, encodings: np.ndarray, y_idx: np.ndarray,
                           plan: TrainPlan, h2: np.ndarray) -> TrainReport:
    """Gram-cached adaptive rule (numerically equivalent, not bit-exact).

    Updates are scaled by continuous similarities, so the cached dots
    accumulate float rounding; the cache and norms are refreshed from
    the model at every epoch boundary to keep drift at rounding level.
    """
    model = clf.model_
    n = len(encodings)
    metric = clf.metric
    gt = _class_dots(model, encodings)
    hn = np.sqrt(h2)
    columns = _ColumnProvider(encodings, plan)
    norm2 = clf.norms_.full_norm2()

    updates_per_epoch: List[int] = []
    acc_per_epoch: List[float] = []
    order = np.arange(n)
    tracer = _EpochTracer("gram", "adaptive")
    y_list = [int(v) for v in y_idx]
    lr = clf.lr
    for _ in range(clf.epochs):
        if clf.shuffle:
            clf.rng.shuffle(order)
        sqrt_n2 = np.sqrt(norm2)
        updates = 0
        for i in order.tolist():
            g = gt[:, i]
            denom = sqrt_n2 * hn[i]
            sims = g / np.where(denom == 0.0, np.inf, denom)
            pred = int(np.argmax(sims))
            truth = y_list[i]
            if pred != truth:
                a_t = lr * (1.0 - sims[truth])
                a_p = lr * (1.0 - sims[pred])
                norm2[truth] += 2.0 * a_t * gt[truth, i] + a_t * a_t * h2[i]
                norm2[pred] += -2.0 * a_p * gt[pred, i] + a_p * a_p * h2[i]
                col = columns.column(i)
                gt[truth] += a_t * col
                gt[pred] -= a_p * col
                h = encodings[i]
                model[truth] += a_t * h
                model[pred] -= a_p * h
                sqrt_n2[truth] = np.sqrt(max(norm2[truth], 0.0))
                sqrt_n2[pred] = np.sqrt(max(norm2[pred], 0.0))
                updates += 1
            elif clf.update_on_correct:
                bump = 0.1 * lr * (1.0 - sims[truth])
                if bump > 0:
                    norm2[truth] += 2.0 * bump * gt[truth, i] + bump * bump * h2[i]
                    gt[truth] += bump * columns.column(i)
                    model[truth] += bump * encodings[i]
                    sqrt_n2[truth] = np.sqrt(max(norm2[truth], 0.0))
        # refresh from the model: caps float drift at one epoch's worth
        gt = _class_dots(model, encodings)
        norm2 = np.einsum("ij,ij->i", model, model)
        safe = np.where(norm2 <= 0.0, np.inf, norm2)
        sqrt_safe = np.sqrt(safe)
        updates_per_epoch.append(updates)
        acc_per_epoch.append(
            (n - _gram_errors(gt, safe, sqrt_safe, metric, y_idx)) / n
        )
        tracer.mark(updates, acc_per_epoch[-1])
        if updates == 0 and not clf.update_on_correct:
            break
    clf.norms_.recompute(model)
    return columns.record(TrainReport(
        epochs_run=len(updates_per_epoch),
        updates_per_epoch=updates_per_epoch,
        train_accuracy_per_epoch=acc_per_epoch,
    ))


# -- entry point ------------------------------------------------------------


def retrain(clf, encodings: np.ndarray, y_idx: np.ndarray) -> TrainReport:
    """Run retraining for a fitted-init classifier under its engine flag.

    Resolves ``clf.config.train_engine`` via :func:`plan_retraining` (recorded
    on ``clf.train_plan_``) and dispatches on the classifier's update
    rule (``clf.train_rule``: ``"paper"`` or ``"adaptive"``).
    """
    rule = getattr(clf, "train_rule", "paper")
    t0 = time.perf_counter()
    h2 = np.empty(len(encodings))  # filled by the planner's scan of E
    plan = plan_retraining(
        encodings,
        n_classes=clf.model_.shape[0],
        epochs=clf.epochs,
        engine=clf.config.train_engine,
        rule=rule,
        budget_bytes=clf.config.train_memory_budget,
        assume_integral=getattr(clf, "_encodings_integral", False),
        h2=h2,
    )
    clf.train_plan_ = plan
    n, dim = encodings.shape if encodings.ndim == 2 else (len(encodings), 0)
    n_classes = clf.model_.shape[0]
    with obs_trace.span(
        "train", engine=plan.engine, rule=rule, samples=n,
        n_classes=n_classes, dim=dim, epochs=clf.epochs,
    ) as sp:
        if plan.engine == "gram":
            if rule == "adaptive":
                report = _retrain_gram_adaptive(clf, encodings, y_idx,
                                                plan, h2)
            else:
                report = _retrain_gram_paper(clf, encodings, y_idx, plan, h2)
        elif rule == "adaptive":
            report = _retrain_reference_adaptive(clf, encodings, y_idx)
        else:
            report = _retrain_reference_paper(clf, encodings, y_idx)
        if sp.recording:
            # logical work, engine-independent: every sample is scored
            # against every class each epoch (dim MACs per pair), and a
            # misprediction moves two class rows plus their norm deltas
            total_updates = int(sum(report.updates_per_epoch))
            score_macs = report.epochs_run * n * n_classes * dim
            sp.set(epochs_run=report.epochs_run, updates=total_updates)
            if plan.engine == "gram":
                sp.set(gram_columns=report.gram_columns,
                       gram_kernel_built=report.gram_kernel_built)
            sp.add_ops(
                mul_ops=score_macs,
                add_ops=score_macs + total_updates * 4 * dim,
                mem_bytes=report.epochs_run * (n + n_classes) * dim * 8,
            )
    report.seconds = time.perf_counter() - t0
    return report
