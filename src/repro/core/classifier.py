"""HDC classification: model initialization, retraining, inference.

Implements Fig. 1 of the paper:

- **training (initialization)** -- every encoded training input is added
  to its class hypervector;
- **retraining** -- for a number of epochs, each training input is
  scored against the model; on a misprediction the encoding is
  subtracted from the wrongly-predicted class and added to the correct
  class (per-sample, online);
- **inference** -- the query is encoded and the class with the highest
  cosine similarity wins.

The classifier also implements the on-demand dimension reduction of
Section 4.3.3: predictions can run on a 128-multiple prefix of the
dimensions, using either exact per-prefix norms from the
:class:`~repro.core.norms.SubNormTable` (the paper's fix) or the stale
full-length norms (the "Constant" curves of Fig. 5).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core import training
from repro.core.config import ComputeConfig
from repro.core.encoders.base import Encoder
from repro.core.norms import DEFAULT_BLOCK, SubNormTable
from repro.core.sims import score as score_fn
from repro.core.training import TRAIN_ENGINES, TrainPlan, TrainReport

__all__ = ["HDClassifier", "TrainReport", "TrainPlan", "TRAIN_ENGINES"]


class HDClassifier:
    """Hyperdimensional classifier over any :class:`Encoder`.

    Parameters
    ----------
    encoder:
        The encoding to use; fitted on the training data if not already.
    epochs:
        Retraining epochs after initialization (paper uses 20).
    metric:
        ``"cosine"`` (default), ``"dot"``, or ``"hardware"`` -- see
        :mod:`repro.core.sims`.
    shuffle:
        Shuffle the sample order each retraining epoch.
    seed:
        Seed for the shuffling generator.
    norm_block:
        Granularity of the sub-norm table (128 in the ASIC).
    config:
        A :class:`~repro.core.config.ComputeConfig` (copied on
        ingestion): ``encode_jobs`` is the thread-pool width for batch
        encoding in :meth:`fit`/:meth:`predict` (results are identical
        for any value); ``train_engine`` picks the retraining engine --
        ``"reference"`` (the paper's per-sample loop), ``"gram"`` (the
        dot-product-cached replay of :mod:`repro.core.training`,
        result-identical for this classifier's integer ±h rule) or
        ``"auto"`` (gram whenever exactness is provable and the cache
        fits ``train_memory_budget``; the resolved choice is recorded
        on ``train_plan_`` after :meth:`fit`).  The encode engine is
        the encoder's own setting (``GenericEncoder(engine=...)``).
    """

    def __init__(
        self,
        encoder: Encoder,
        epochs: int = 20,
        metric: str = "cosine",
        shuffle: bool = True,
        seed: int = 0,
        norm_block: int = DEFAULT_BLOCK,
        config: Optional[ComputeConfig] = None,
    ):
        self.encoder = encoder
        self.epochs = epochs
        self.metric = metric
        self.shuffle = shuffle
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.norm_block = norm_block
        self.config = (config.replace() if config is not None
                       else ComputeConfig())
        if self.config.train_engine not in TRAIN_ENGINES:
            raise ValueError(
                f"unknown train engine {self.config.train_engine!r}; "
                f"choose from {TRAIN_ENGINES}"
            )

        self.classes_: Optional[np.ndarray] = None
        self.model_: Optional[np.ndarray] = None
        self.norms_: Optional[SubNormTable] = None
        self.report_: Optional[TrainReport] = None
        self.train_plan_: Optional[TrainPlan] = None

    # -- training ----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "HDClassifier":
        """Initialize and retrain the HDC model on ``(X, y)``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if len(X) != len(y):
            raise ValueError(f"X has {len(X)} rows but y has {len(y)} labels")
        if not self.encoder.fitted:
            self.encoder.fit(X)
        # counts land straight in the matrix retraining works on: float32
        # (half of float64's footprint) whenever it holds every count
        # exactly, else float64
        f32 = self.encoder.holds_counts(np.float32)
        encodings = self.encoder.encode_batch(
            X, n_jobs=self.config.encode_jobs,
            dtype=np.float32 if f32 else np.float64,
        )
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        n_classes = len(self.classes_)

        dim = self.encoder.dim
        if dim % self.norm_block:
            raise ValueError(
                f"encoder dim {dim} must be a multiple of norm_block={self.norm_block}"
            )
        # initialization (class sums) and retraining (Fig. 1c) under
        # config.train_engine, in one ``train`` span; encoders return
        # integer counts (Encoder._encode_chunk), so the planner skips
        # its whole-array integer scan
        self.report_ = training.retrain(
            self, encodings, y_idx, n_classes=n_classes,
            count_bound=self.encoder.max_abs_count, assume_integral=True,
        )
        return self

    # -- inference -----------------------------------------------------------

    def _check_fitted(self) -> None:
        if self.model_ is None:
            raise RuntimeError("HDClassifier used before fit()")

    def _scores(
        self,
        encodings: np.ndarray,
        dim: Optional[int] = None,
        constant_norms: bool = False,
    ) -> np.ndarray:
        self._check_fitted()
        if dim is None or dim == self.encoder.dim:
            norm2 = self.norms_.full_norm2()
            model = self.model_
            queries = encodings
        else:
            model = self.model_[:, :dim]
            queries = encodings[:, :dim]
            norm2 = self.norms_.full_norm2() if constant_norms else self.norms_.norm2(dim)
        if self.metric == "hardware":
            return score_fn(queries, model, metric="hardware", norm2=norm2)
        if self.metric == "cosine":
            # cosine with the (possibly reduced) norm2 from the table; the
            # query norm is constant per row and cannot change the arg-max.
            dots = queries @ model.T
            safe = np.where(norm2 <= 0.0, np.inf, norm2)
            return dots / np.sqrt(safe)[None, :]
        return score_fn(queries, model, metric=self.metric)

    def predict_encoded(
        self,
        encodings: np.ndarray,
        dim: Optional[int] = None,
        constant_norms: bool = False,
    ) -> np.ndarray:
        """Predict from pre-encoded queries (optionally dimension-reduced).

        Float64 input is scored in place (no conversion copy); other
        dtypes (e.g. raw int32 encodings) are upcast once.
        """
        encodings = np.asarray(encodings)
        if encodings.dtype != np.float64:
            encodings = encodings.astype(np.float64)
        scores = self._scores(
            np.atleast_2d(encodings), dim=dim, constant_norms=constant_norms
        )
        return self.classes_[np.argmax(scores, axis=1)]

    def predict(
        self,
        X: np.ndarray,
        dim: Optional[int] = None,
        constant_norms: bool = False,
    ) -> np.ndarray:
        """Encode and classify raw inputs."""
        encodings = self.encoder.encode_batch(
            np.asarray(X, dtype=np.float64), n_jobs=self.config.encode_jobs,
            dtype=np.float64,
        )
        return self.predict_encoded(encodings, dim=dim, constant_norms=constant_norms)

    def score(
        self,
        X: np.ndarray,
        y: np.ndarray,
        dim: Optional[int] = None,
        constant_norms: bool = False,
    ) -> float:
        """Classification accuracy on ``(X, y)``."""
        preds = self.predict(X, dim=dim, constant_norms=constant_norms)
        return float(np.mean(preds == np.asarray(y)))

    # -- model surgery ---------------------------------------------------------

    @property
    def n_classes(self) -> int:
        self._check_fitted()
        return len(self.classes_)

    def quantized_model(self, bits: int) -> np.ndarray:
        """Class matrix quantized to signed ``bits``-bit integers (Fig. 6).

        Symmetric linear quantization per model (shared scale), matching
        the masked ``bw``-bit class words the accelerator loads.
        """
        self._check_fitted()
        from repro.hardware.faults import quantize_to_bits

        return quantize_to_bits(self.model_, bits).astype(np.float64)

    def with_model(self, model: np.ndarray) -> "HDClassifier":
        """Return a shallow copy using a substituted class matrix.

        Used by the fault-injection experiments: the encoder, classes and
        metric are shared, the model (and its norms) are replaced.
        """
        self._check_fitted()
        clone = HDClassifier(
            self.encoder,
            epochs=self.epochs,
            metric=self.metric,
            shuffle=self.shuffle,
            seed=self.seed,
            norm_block=self.norm_block,
            config=self.config,
        )
        clone.classes_ = self.classes_
        clone.model_ = np.asarray(model, dtype=np.float64)
        clone.norms_ = SubNormTable(len(self.classes_), self.encoder.dim, self.norm_block)
        clone.norms_.recompute(clone.model_)
        clone.report_ = self.report_
        return clone
