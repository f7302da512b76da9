"""HDC clustering (paper Sections 2.1 and 4.2.3).

The first ``k`` encoded inputs seed the centroids.  Each epoch, every
encoded input is compared with the centroids (cosine) and added to a
*copy* of the closest centroid; the copies replace the centroids for the
next epoch (the model is never updated mid-epoch, unlike classification
retraining).  This mirrors HDCluster [13] and the dataflow the GENERIC
controller implements.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.classifier import apply_engine
from repro.core.config import UNSET, ComputeConfig
from repro.core.encoders.base import Encoder
from repro.core.sims import cosine_scores


class HDCluster:
    """K-centroid clustering in hyperspace.

    ``config`` bundles the compute knobs
    (:class:`~repro.core.config.ComputeConfig`); ``engine`` /
    ``encode_jobs`` remain as deprecated aliases.
    """

    def __init__(
        self,
        encoder: Encoder,
        k: int,
        epochs: int = 10,
        seed: int = 0,
        engine=UNSET,
        encode_jobs=UNSET,
        config: Optional[ComputeConfig] = None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.encoder = encoder
        self.k = k
        self.epochs = epochs
        self.rng = np.random.default_rng(seed)
        self.config = ComputeConfig.from_kwargs(
            config, engine=engine, encode_jobs=encode_jobs,
            owner=type(self).__name__,
        )
        apply_engine(encoder, self.config.engine, owner=type(self).__name__)

        self.centroids_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None
        self.epochs_run_: int = 0

    # legacy per-knob attributes, views over ``self.config``
    @property
    def engine(self) -> Optional[str]:
        return self.config.engine

    @engine.setter
    def engine(self, value: Optional[str]) -> None:
        self.config.engine = value

    @property
    def encode_jobs(self) -> Optional[int]:
        return self.config.encode_jobs

    @encode_jobs.setter
    def encode_jobs(self, value: Optional[int]) -> None:
        self.config.encode_jobs = value

    def fit(self, X: np.ndarray) -> "HDCluster":
        """Cluster the rows of ``X``; sets ``labels_`` and ``centroids_``."""
        X = np.asarray(X, dtype=np.float64)
        if len(X) < self.k:
            raise ValueError(f"need at least k={self.k} samples, got {len(X)}")
        if not self.encoder.fitted:
            self.encoder.fit(X)
        encodings = self.encoder.encode_batch(
            X, n_jobs=self.encode_jobs, dtype=np.float64
        )

        # Paper: the first k encoded inputs are the initial centroids.
        centroids = encodings[: self.k].copy()
        labels = np.zeros(len(X), dtype=np.int64)
        for epoch in range(self.epochs):
            scores = cosine_scores(encodings, centroids)
            new_labels = np.argmax(scores, axis=1)
            copies = np.zeros_like(centroids)
            np.add.at(copies, new_labels, encodings)
            # An empty cluster keeps its previous centroid rather than
            # collapsing to zero.
            counts = np.bincount(new_labels, minlength=self.k)
            empty = counts == 0
            copies[empty] = centroids[empty]
            converged = epoch > 0 and np.array_equal(new_labels, labels)
            labels = new_labels
            centroids = copies
            self.epochs_run_ = epoch + 1
            if converged:
                break

        self.centroids_ = centroids
        self.labels_ = labels
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Assign new inputs to the learned centroids."""
        if self.centroids_ is None:
            raise RuntimeError("HDCluster used before fit()")
        encodings = self.encoder.encode_batch(
            np.asarray(X, dtype=np.float64), n_jobs=self.encode_jobs,
            dtype=np.float64,
        )
        scores = cosine_scores(encodings, self.centroids_)
        return np.argmax(scores, axis=1)

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).labels_
