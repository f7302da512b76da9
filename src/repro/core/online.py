"""Adaptive (similarity-weighted) retraining -- an extension.

The paper's retraining (Fig. 1c) moves a full encoded hypervector
between classes on every misprediction.  The HDC literature the paper
builds on (e.g. the in-sensor adaptive learning of Moin et al. [7] and
OnlineHD-style training) refines this: the update is *scaled by how
wrong the model was*, so confident mistakes move the model a lot and
near-ties barely disturb it.  This module provides that variant as
:class:`AdaptiveHDClassifier`, a drop-in replacement for
:class:`~repro.core.classifier.HDClassifier`.

Update rule on a sample with encoding ``h``, true class ``t`` and
predicted class ``p != t`` (cosine scores ``s``)::

    C_t += lr * (1 - s_t) * h
    C_p -= lr * (1 - s_p) * h

and optionally (``update_on_correct=True``) a small reinforcement on
correct predictions, which is what lets the model keep adapting on a
drifting stream.  This is an *extension* beyond the paper; the
benchmarks use the paper's rule unless stated.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.classifier import HDClassifier
from repro.core.config import ComputeConfig
from repro.obs import trace as obs_trace


class AdaptiveHDClassifier(HDClassifier):
    """HDC classifier with similarity-weighted (OnlineHD-style) updates."""

    #: similarity-scaled update rule (see repro.core.training); because the
    #: updates are continuous-valued, ``train_engine="auto"`` resolves to the
    #: reference loop and ``"gram"`` must be requested explicitly (it agrees
    #: to float rounding, not bit-for-bit).
    train_rule = "adaptive"

    def __init__(
        self,
        encoder,
        epochs: int = 20,
        lr: float = 1.0,
        update_on_correct: bool = False,
        metric: str = "cosine",
        shuffle: bool = True,
        seed: int = 0,
        norm_block: int = 128,
        config: Optional[ComputeConfig] = None,
    ):
        super().__init__(
            encoder,
            epochs=epochs,
            metric=metric,
            shuffle=shuffle,
            seed=seed,
            norm_block=norm_block,
            config=config,
        )
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.update_on_correct = update_on_correct

    def _cosine_row(self, h: np.ndarray) -> np.ndarray:
        dots = self.model_ @ h
        norms = np.sqrt(self.norms_.full_norm2())
        hn = np.linalg.norm(h)
        safe = np.where(norms * hn == 0.0, np.inf, norms * hn)
        return dots / safe

    def partial_fit(self, X: np.ndarray, y: np.ndarray) -> "AdaptiveHDClassifier":
        """Continue training on a new batch (streaming adaptation).

        Unseen labels must have appeared in the original ``fit`` call;
        the class memory layout is fixed once configured, as on the
        hardware.
        """
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y)
        unknown = set(np.unique(y)) - set(self.classes_.tolist())
        if unknown:
            raise ValueError(f"labels not present at fit time: {sorted(unknown)}")
        # same encode path as fit()/predict(): the encoder's engine and
        # the config's thread fan-out apply to streaming batches too
        encodings = self.encoder.encode_batch(
            X, n_jobs=self.config.encode_jobs, dtype=np.float64
        )
        y_idx = np.searchsorted(self.classes_, y)
        n, dim = len(X), self.encoder.dim
        n_classes = len(self.classes_)
        with obs_trace.span(
            "train.partial_fit", engine="reference", rule=self.train_rule,
            samples=n, n_classes=n_classes, dim=dim, epochs=1,
        ) as sp:
            updates = 0
            for i in range(len(X)):
                h = encodings[i]
                sims = self._cosine_row(h)
                pred = int(np.argmax(sims))
                truth = int(y_idx[i])
                if pred != truth:
                    self.model_[truth] += self.lr * (1.0 - sims[truth]) * h
                    self.model_[pred] -= self.lr * (1.0 - sims[pred]) * h
                    self.norms_.update_class(truth, self.model_[truth])
                    self.norms_.update_class(pred, self.model_[pred])
                    updates += 1
            if sp.recording:
                sp.set(updates=updates)
                # scoring: one MAC per (sample, class, dim); each update
                # touches two class rows twice (scale + add, norms)
                score_macs = n * n_classes * dim
                sp.add_ops(
                    mul_ops=score_macs,
                    add_ops=score_macs + updates * 4 * dim,
                    mem_bytes=(n + n_classes) * dim * 8,
                )
        return self
