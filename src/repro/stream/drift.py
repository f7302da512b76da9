"""Drift detection on per-class similarity margins.

A trained HDC model separates classes by similarity margin: the gap
between the best and second-best class scores for a query.  Under
covariate drift the encodings move away from the class hypervectors and
the margins collapse *before* accuracy is even measurable (labels may
lag predictions on a real stream), which makes the margin the right
leading indicator.  :class:`DriftDetector` tracks three signals over a
sliding window and compares each against a slow EWMA baseline:

- **margin collapse** -- the windowed mean top-1/top-2 margin falls
  below ``(1 - margin_drop)`` of the baseline margin;
- **error-rate jump** -- when labels are available (prequential
  evaluation), the windowed error rate exceeds the baseline error by
  ``error_jump`` absolute points;
- **class-prior shift** -- the L1 distance between the windowed
  *predicted*-class histogram and its baseline exceeds ``prior_shift``
  (a model predicting mostly one class is drifting even if margins look
  healthy).

Each enabled trigger contributes a normalized score (1.0 = at
threshold); :meth:`DriftDetector.drift_score` is their maximum and is
exported by the stream loop as the ``stream_drift_score`` gauge.  A
trigger fires a :class:`DriftEvent` once the detector is armed (past
``warmup`` samples) and outside the post-trigger ``cooldown``; firing
clears the window and baselines so the detector re-warms against the
*new* regime rather than flapping on the old one.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DriftConfig", "DriftEvent", "DriftDetector", "TRIGGERS"]

TRIGGERS = ("margin", "error", "prior")


@dataclass
class DriftConfig:
    """Thresholds and windows for :class:`DriftDetector`."""

    #: sliding-window length, in samples
    window: int = 256
    #: EWMA rate for the baselines (per window-refresh, not per sample)
    ewma_alpha: float = 0.1
    #: samples observed before any trigger may fire
    warmup: int = 256
    #: relative margin collapse that fires: window < (1-drop) * baseline
    margin_drop: float = 0.4
    #: absolute error-rate jump over baseline that fires
    error_jump: float = 0.15
    #: L1 distance between windowed and baseline prediction priors
    prior_shift: float = 0.6
    #: samples after a trigger during which no new trigger fires
    cooldown: int = 256
    #: which of the three signals may fire (all by default)
    triggers: Tuple[str, ...] = TRIGGERS

    def __post_init__(self) -> None:
        unknown = set(self.triggers) - set(TRIGGERS)
        if unknown:
            raise ValueError(
                f"unknown drift triggers {sorted(unknown)}; "
                f"choose from {TRIGGERS}"
            )
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if not 0 < self.margin_drop < 1:
            raise ValueError(
                f"margin_drop must be in (0, 1), got {self.margin_drop}"
            )


@dataclass
class DriftEvent:
    """One fired drift trigger (what, how badly, and the evidence)."""

    reason: str                  # "margin" | "error" | "prior"
    score: float                 # normalized severity (1.0 = at threshold)
    sample_index: int            # stream position when it fired
    window_margin: float
    baseline_margin: float
    window_error: Optional[float]
    baseline_error: Optional[float]
    prior_l1: float
    scores: dict = field(default_factory=dict)  # per-trigger normalized


class DriftDetector:
    """Sliding-window margin/error/prior monitor with EWMA baselines.

    Thread-safe: a stream loop feeds it from the serving thread while
    the background trainer resets it after a swap.
    """

    def __init__(self, n_classes: int, config: Optional[DriftConfig] = None):
        if n_classes < 2:
            raise ValueError(f"need >= 2 classes, got {n_classes}")
        self.n_classes = n_classes
        self.config = config or DriftConfig()
        w = self.config.window
        self._margins: Deque[float] = deque(maxlen=w)
        self._errors: Deque[int] = deque(maxlen=w)
        self._preds: Deque[int] = deque(maxlen=w)
        self.samples_seen = 0
        self.events: list = []
        self._last_trigger = -10**18
        # EWMA baselines; seeded lazily from the first full window and
        # refreshed once per *window* of healthy samples (per-sample
        # tracking would chase the drift and never see it)
        self._base_margin: Optional[float] = None
        self._base_error: Optional[float] = None
        self._base_prior: Optional[np.ndarray] = None
        self._baseline_refreshed_at = 0
        self._lock = threading.RLock()

    # -- feeding -------------------------------------------------------------

    @staticmethod
    def margins_from_scores(scores: np.ndarray) -> np.ndarray:
        """Per-row top-1 minus top-2 score gap from an (N, C) score matrix."""
        scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
        if scores.shape[1] < 2:
            raise ValueError("margins need at least 2 class scores")
        part = np.partition(scores, -2, axis=1)
        return part[:, -1] - part[:, -2]

    def observe(
        self,
        margins: Sequence[float],
        preds: Sequence[int],
        labels: Optional[Sequence[int]] = None,
    ) -> Optional[DriftEvent]:
        """Feed one chunk of per-sample statistics; maybe fire an event.

        ``preds`` are class *indices* (positions in the model's class
        list); ``labels`` (optional, same index space) unlock the
        error-rate trigger for prequential streams.
        """
        margins = np.asarray(margins, dtype=np.float64)
        preds = np.asarray(preds, dtype=np.int64)
        if margins.shape != preds.shape:
            raise ValueError(
                f"margins {margins.shape} vs preds {preds.shape} mismatch"
            )
        errs = None
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            errs = (preds != labels).astype(np.int64)
        with self._lock:
            for i in range(len(margins)):
                self._margins.append(float(margins[i]))
                self._preds.append(int(preds[i]))
                if errs is not None:
                    self._errors.append(int(errs[i]))
            self.samples_seen += len(margins)
            return self._evaluate()

    # -- the decision --------------------------------------------------------

    def _window_stats(self):
        margin = float(np.mean(self._margins)) if self._margins else 0.0
        error = (float(np.mean(self._errors))
                 if len(self._errors) else None)
        prior = np.bincount(
            np.asarray(self._preds, dtype=np.int64),
            minlength=self.n_classes,
        ).astype(np.float64)
        total = prior.sum()
        if total > 0:
            prior /= total
        return margin, error, prior

    def _seed_baselines(self, margin, error, prior) -> None:
        self._base_margin = margin
        self._base_error = error
        self._base_prior = prior.copy()
        self._baseline_refreshed_at = self.samples_seen

    def _ewma(self, base, value):
        a = self.config.ewma_alpha
        return (1.0 - a) * base + a * value

    def trigger_scores(self) -> dict:
        """Normalized severity per enabled trigger (1.0 = at threshold)."""
        with self._lock:
            cfg = self.config
            margin, error, prior = self._window_stats()
            scores = {}
            if self._base_margin is None:
                return {t: 0.0 for t in cfg.triggers}
            if "margin" in cfg.triggers and self._base_margin > 0:
                drop = 1.0 - margin / self._base_margin
                scores["margin"] = max(0.0, drop) / cfg.margin_drop
            if ("error" in cfg.triggers and error is not None
                    and self._base_error is not None):
                jump = error - self._base_error
                scores["error"] = max(0.0, jump) / cfg.error_jump
            if "prior" in cfg.triggers and self._base_prior is not None:
                l1 = float(np.abs(prior - self._base_prior).sum())
                scores["prior"] = l1 / cfg.prior_shift
            return scores

    def drift_score(self) -> float:
        """Worst normalized trigger score (the gauge the loop exports)."""
        scores = self.trigger_scores()
        return max(scores.values()) if scores else 0.0

    def _evaluate(self) -> Optional[DriftEvent]:
        cfg = self.config
        if len(self._margins) < cfg.window:
            return None
        margin, error, prior = self._window_stats()
        if self._base_margin is None:
            self._seed_baselines(margin, error, prior)
            return None
        scores = self.trigger_scores()
        armed = (self.samples_seen >= cfg.warmup
                 and self.samples_seen - self._last_trigger >= cfg.cooldown)
        fired = {t: s for t, s in scores.items() if s >= 1.0}
        if armed and fired:
            reason = max(fired, key=fired.get)
            event = DriftEvent(
                reason=reason,
                score=fired[reason],
                sample_index=self.samples_seen,
                window_margin=margin,
                baseline_margin=self._base_margin,
                window_error=error,
                baseline_error=self._base_error,
                prior_l1=float(np.abs(prior - self._base_prior).sum())
                if self._base_prior is not None else 0.0,
                scores=scores,
            )
            self.events.append(event)
            self._last_trigger = self.samples_seen
            # re-warm against the new regime: the fire-time window mixes
            # both regimes, so seeding from it would leave an inflated
            # baseline that refires on the same change after cooldown
            self.reset_baselines()
            return event
        # healthy window: let the baselines track slow change, one EWMA
        # step per window of samples (not per observe call)
        if self.samples_seen - self._baseline_refreshed_at >= cfg.window:
            self._base_margin = self._ewma(self._base_margin, margin)
            if error is not None:
                self._base_error = (error if self._base_error is None
                                    else self._ewma(self._base_error, error))
            if self._base_prior is not None:
                self._base_prior = self._ewma(self._base_prior, prior)
            self._baseline_refreshed_at = self.samples_seen
        return None

    def reset_baselines(self) -> None:
        """Forget baselines *and* the window (e.g. after a model swap).

        The window statistics were produced by the old model, so they
        say nothing about the new one; the detector re-warms from the
        next full window.
        """
        with self._lock:
            self._base_margin = None
            self._base_error = None
            self._base_prior = None
            self._margins.clear()
            self._errors.clear()
            self._preds.clear()

    def state(self) -> dict:
        with self._lock:
            margin, error, prior = self._window_stats()
            return {
                "samples_seen": self.samples_seen,
                "window_margin": margin,
                "window_error": error,
                "baseline_margin": self._base_margin,
                "baseline_error": self._base_error,
                "drift_score": self.drift_score(),
                "events": len(self.events),
            }
