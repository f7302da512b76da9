"""Background retraining: replay the recent window, hot-swap the model.

The Gram-cached retraining engine (:mod:`repro.core.training`) makes a
few-epoch retrain over a replay window of a few hundred samples cost
milliseconds, cheap enough to run *while serving*.  The pieces here:

- :class:`ReplayBuffer` -- a fixed-capacity ring of the most recent
  ``(encoding, label)`` pairs.  Encodings are stored as the encoder's
  int32 output, so a 512-sample window at D=4096 is ~8 MB; raw features
  are *not* kept (the encodings already went through the streaming
  encoder).
- :class:`BackgroundTrainer` -- a daemon thread that waits for retrain
  requests (typically fired by a :class:`~repro.stream.drift.
  DriftDetector` trigger).  A request snapshots the replay window,
  clones the current base classifier, re-initializes the class rows
  observed in the window (``init="window"``, the right choice under
  covariate drift -- the old bundle is *wrong* now, not merely stale),
  replays the paper's retraining rule through
  :func:`repro.core.training.retrain` (``train_engine="auto"`` resolves
  to the Gram engine for integer encodings), and hands the retrained
  clone to ``swap_fn`` -- in the stream loop, an atomic
  :meth:`~repro.serve.registry.ModelRegistry.swap` into the serving
  registry with old-version drain.

A retrain runs entirely on the clone: the serving model, its encoder
tables, and the in-flight batches are untouched until the swap lands.
Requests are latest-wins (a drifting stream may fire faster than a
retrain completes) and debounced by ``min_interval``.  Every retrain is
wrapped in a ``stream.retrain`` trace span recording the trigger
reason, window size, and the resolved engine.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core import training
from repro.core.classifier import HDClassifier
from repro.obs import trace as obs_trace

__all__ = ["ReplayBuffer", "BackgroundTrainer"]

RETRAIN_INITS = ("window", "warm")


class ReplayBuffer:
    """Fixed-capacity ring buffer of recent (encoding, label) pairs."""

    def __init__(self, capacity: int, dim: int, dtype=np.int32):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dim = dim
        self._enc = np.zeros((capacity, dim), dtype=dtype)
        self._y = np.zeros(capacity, dtype=np.int64)
        self._lock = threading.Lock()
        self._next = 0
        self._count = 0
        self.total_appended = 0

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def append(self, encodings: np.ndarray, labels: np.ndarray) -> None:
        """Append a chunk; oldest samples fall off once full."""
        encodings = np.atleast_2d(encodings)
        labels = np.asarray(labels)
        if len(encodings) != len(labels):
            raise ValueError(
                f"{len(encodings)} encodings vs {len(labels)} labels"
            )
        if encodings.shape[1] != self.dim:
            raise ValueError(
                f"encoding dim {encodings.shape[1]} != buffer dim {self.dim}"
            )
        if len(encodings) > self.capacity:  # only the newest fit anyway
            encodings = encodings[-self.capacity:]
            labels = labels[-self.capacity:]
        with self._lock:
            n = len(encodings)
            first = min(n, self.capacity - self._next)
            self._enc[self._next:self._next + first] = encodings[:first]
            self._y[self._next:self._next + first] = labels[:first]
            if n > first:
                self._enc[:n - first] = encodings[first:]
                self._y[:n - first] = labels[first:]
            self._next = (self._next + n) % self.capacity
            self._count = min(self.capacity, self._count + n)
            self.total_appended += n

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copy of the buffered window in arrival order (oldest first)."""
        with self._lock:
            if self._count < self.capacity:
                return (self._enc[:self._count].copy(),
                        self._y[:self._count].copy())
            order = np.r_[self._next:self.capacity, 0:self._next]
            return self._enc[order].copy(), self._y[order].copy()


class BackgroundTrainer:
    """Daemon thread turning drift triggers into retrained model versions.

    Parameters
    ----------
    source:
        Zero-arg callable returning the current *base* classifier (the
        un-regenerated, original-dimension-order model).  A callable --
        not a fixed reference -- so consecutive retrains chain off the
        freshest swapped-in version.
    swap_fn:
        Called with ``(clone, reason)`` when a retrain finishes; the
        stream loop uses it to swap the serving registry and rebind its
        base model.  Runs on the trainer thread.
    epochs:
        Retraining epochs for the replay window (``None`` keeps the
        classifier's own setting; streams want a small number).
    init:
        ``"window"`` re-initializes the class hypervectors of every
        class present in the window from the window's own bundles
        (classes absent from the window keep their old rows) before
        replaying the retraining rule -- the right reset under real
        covariate drift.  ``"warm"`` keeps the current model as the
        starting point and only replays updates -- gentler, for mild
        drift.
    min_interval:
        Debounce: seconds that must pass between retrain *starts*.
    """

    def __init__(
        self,
        source: Callable[[], HDClassifier],
        swap_fn: Callable[[HDClassifier, str], None],
        epochs: Optional[int] = None,
        init: str = "window",
        min_interval: float = 0.0,
    ):
        if init not in RETRAIN_INITS:
            raise ValueError(
                f"unknown retrain init {init!r}; choose from {RETRAIN_INITS}"
            )
        self._source = source
        self._swap_fn = swap_fn
        self.epochs = epochs
        self.init = init
        self.min_interval = min_interval
        self._request: Optional[Tuple[np.ndarray, np.ndarray, str]] = None
        self._request_lock = threading.Lock()
        self._wake = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_start = -float("inf")
        self.retrains = 0
        self.rejected = 0
        self.failed = 0
        self.last_report = None
        self.last_error: Optional[BaseException] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "BackgroundTrainer":
        if self._thread is not None:
            raise RuntimeError("trainer already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="stream-trainer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=timeout)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def busy(self) -> bool:
        return not self._idle.is_set()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no retrain is queued or running (tests, benches)."""
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            with self._request_lock:
                pending = self._request is not None
            if not pending and self._idle.is_set():
                return True
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            if remaining is not None and remaining <= 0:
                return False
            self._idle.wait(0.01 if remaining is None
                            else min(0.01, remaining))

    # -- requests ------------------------------------------------------------

    def request(self, encodings: np.ndarray, labels: np.ndarray,
                reason: str = "manual") -> bool:
        """Queue a retrain over the given window (latest request wins).

        Returns False when debounced by ``min_interval`` (the window
        will fire again if drift persists) or when the trainer is not
        running.
        """
        if self._thread is None or self._stop.is_set():
            self.rejected += 1
            return False
        if time.monotonic() - self._last_start < self.min_interval:
            self.rejected += 1
            return False
        if len(encodings) == 0:
            self.rejected += 1
            return False
        with self._request_lock:
            self._request = (np.asarray(encodings), np.asarray(labels),
                             reason)
        self._idle.clear()
        self._wake.set()
        return True

    # -- the retrain ---------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(0.05)
            if self._stop.is_set():
                return
            with self._request_lock:
                req, self._request = self._request, None
                self._wake.clear()
            if req is None:
                self._idle.set()
                continue
            encodings, labels, reason = req
            self._last_start = time.monotonic()
            try:
                clone, report = self._retrain(encodings, labels, reason)
                self.retrains += 1
                self.last_report = report
                self._swap_fn(clone, reason)
            except Exception as exc:  # never kill the trainer thread
                self.failed += 1
                self.last_error = exc
            finally:
                with self._request_lock:
                    pending = self._request is not None
                if not pending:
                    self._idle.set()

    def _retrain(self, encodings: np.ndarray, labels: np.ndarray,
                 reason: str):
        base = self._source()
        encodings = np.asarray(encodings, dtype=np.float64)
        y_idx = np.searchsorted(base.classes_, labels)
        # drop samples whose label never appeared at fit time: the class
        # memory layout is fixed, as on the hardware
        valid = (y_idx < len(base.classes_))
        valid &= base.classes_[np.clip(y_idx, 0, len(base.classes_) - 1)] \
            == labels
        if not valid.all():
            encodings, y_idx = encodings[valid], y_idx[valid]
        if len(encodings) == 0:
            raise ValueError("no window samples with known labels")

        clone = base.with_model(base.model_.copy())
        if self.epochs is not None:
            clone.epochs = self.epochs
        if self.init == "window":
            present = np.unique(y_idx)
            onehot = np.zeros((len(y_idx), len(base.classes_)))
            onehot[np.arange(len(y_idx)), y_idx] = 1.0
            window_model = onehot.T @ encodings
            clone.model_[present] = window_model[present]
            clone.norms_.recompute(clone.model_)
        with obs_trace.span(
            "stream.retrain", reason=reason, samples=len(encodings),
            init=self.init, epochs=clone.epochs,
        ) as sp:
            report = training.retrain(clone, encodings, y_idx)
            if sp.recording:
                sp.set(
                    engine=clone.train_plan_.engine,
                    epochs_run=report.epochs_run,
                    train_accuracy=report.final_train_accuracy,
                )
        return clone, report
