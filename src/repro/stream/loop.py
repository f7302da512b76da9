"""The streaming control loop: encode, detect, retrain, swap.

:class:`StreamLoop` ties the pieces of :mod:`repro.stream` to a running
:class:`~repro.serve.server.InferenceServer`::

    chunk --> StreamingEncoder --> scores/margins --> DriftDetector
                     |                                    | trigger
                ReplayBuffer  ----------------------------+
                     |                                    v
                     +----- snapshot ------------> BackgroundTrainer
                                                          | retrained clone
            InferenceServer.swap  <----- _install --------+
            (atomic version bump, old-version drain)

The loop is **prequential** (test-then-train): every chunk is scored by
the current model *before* it is added to the replay window, so the
reported accuracy is an honest estimate of serving accuracy under
drift.  The base classifier held by the loop always keeps the original
dimension order; regeneration (:mod:`repro.stream.regen`) only permutes
the *served* view, and is re-applied after every retrain swap while the
load-shed policy holds a reduced level.  The loop also registers itself
on the degradation ladder's ``dim_shed`` tier, so breaker-driven forced
shedding triggers the same re-materialization.

Telemetry: ``stream_drift_score`` and ``stream_model_version`` gauges,
``stream_chunks`` / ``stream_regens`` counters on the server's metrics
hub, plus the ``stream.chunk`` / ``stream.retrain`` / ``stream.swap``
trace spans emitted by the components.

The loop drives any :class:`~repro.serve.server.Server`: a
:class:`~repro.serve.sharded.ShardedServer` works as a drop-in
``server`` (both share the ``registry`` / ``swap(drain=...)`` /
``metrics`` / ``ladder`` / ``recorder`` surface the loop uses).  Sharded deployments
are always bit-packed, so a retrain swap rides the epoch-based
shared-memory protocol (publish new segment, all-shard ack, unlink
old), and dimension regeneration -- which needs the classifier-kind
float view -- correctly no-ops via the ``dep.kind != "classifier"``
guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.core.classifier import HDClassifier
from repro.obs import trace as obs_trace
from repro.serve.server import Server
from repro.stream.drift import DriftConfig, DriftDetector
from repro.stream.encoder import StreamingEncoder
from repro.stream.regen import regenerate_deployment
from repro.stream.trainer import BackgroundTrainer, ReplayBuffer

__all__ = ["StreamConfig", "StreamLoop"]


@dataclass
class StreamConfig:
    """Knobs for :class:`StreamLoop` (defaults suit small test rigs)."""

    #: deployment name the loop serves and swaps
    model_name: str = "stream"
    #: streaming-encoder chunk size (samples per encode_batch call)
    chunk_size: int = 64
    #: replay window capacity, in samples
    replay_capacity: int = 512
    #: drift thresholds; ``None`` -> :class:`DriftConfig` defaults
    drift: Optional[DriftConfig] = None
    #: retraining epochs over the replay window (None: classifier's own)
    retrain_epochs: Optional[int] = 3
    #: ``"window"`` (re-init drifted classes) or ``"warm"``
    retrain_init: str = "window"
    #: debounce between retrain starts, seconds
    retrain_min_interval: float = 0.0
    #: drain in-flight batches on the old version during a swap
    swap_drain: bool = True
    #: re-materialize informative dimensions while the policy sheds
    regen_on_shed: bool = True
    #: let the streaming encoder track the value range (breaks exactness)
    adapt_range: bool = False
    #: thread fan-out for chunk encoding (None = all usable CPUs)
    n_jobs: Optional[int] = None


@dataclass
class ChunkReport:
    """What one :meth:`StreamLoop.process` call observed and did."""

    samples: int
    accuracy: Optional[float]       # None when the chunk had no labels
    drift_score: float
    event: Optional[object]         # the DriftEvent, if one fired
    retrain_requested: bool
    model_version: int
    preds: np.ndarray = field(repr=False, default=None)


class StreamLoop:
    """Train-while-serving orchestration for one deployment.

    Parameters
    ----------
    server:
        A (started or not) :class:`~repro.serve.server.Server` --
        :class:`InferenceServer` or
        :class:`~repro.serve.sharded.ShardedServer`.  The loop registers
        ``clf`` under ``config.model_name`` if no such deployment
        exists (a sharded server packs it on registration).
    clf:
        Fitted :class:`HDClassifier`; becomes the loop's *base* model.
        Retrained versions rebind this reference on every swap.
    """

    def __init__(self, server: Server, clf: HDClassifier,
                 config: Optional[StreamConfig] = None):
        clf._check_fitted()
        self.server = server
        self.clf = clf
        self.cfg = config or StreamConfig()
        if self.cfg.model_name not in server.registry:
            server.register(self.cfg.model_name, clf)
        self.encoder = StreamingEncoder(
            clf.encoder,
            chunk_size=self.cfg.chunk_size,
            n_jobs=self.cfg.n_jobs,
            adapt_range=self.cfg.adapt_range,
        )
        self.detector = DriftDetector(len(clf.classes_), self.cfg.drift)
        self.buffer = ReplayBuffer(self.cfg.replay_capacity, clf.encoder.dim)
        self.trainer = BackgroundTrainer(
            lambda: self.clf,
            self._install,
            epochs=self.cfg.retrain_epochs,
            init=self.cfg.retrain_init,
            min_interval=self.cfg.retrain_min_interval,
        )
        self.swaps = 0
        self.regens = 0
        self.chunks = 0
        #: model version regeneration last ran against (avoid re-permuting
        #: the same version every chunk while shed persists)
        self._regen_version: Optional[int] = None
        if self.cfg.regen_on_shed:
            server.ladder.add_dim_shed_hook(self._on_dim_shed)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "StreamLoop":
        self.trainer.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        self.trainer.stop(timeout=timeout)

    def __enter__(self) -> "StreamLoop":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def wait_idle(self, timeout: Optional[float] = 10.0) -> bool:
        """Block until no retrain is queued or running (tests, benches)."""
        return self.trainer.wait_idle(timeout=timeout)

    # -- the per-chunk pipeline ----------------------------------------------

    def process(self, X: np.ndarray,
                y: Optional[np.ndarray] = None) -> ChunkReport:
        """Run one chunk through the loop (prequential: score, then learn).

        ``y`` (raw labels, optional) unlocks the error-rate drift
        trigger and lets the replay window carry labels for retraining;
        without labels the chunk still feeds the margin/prior triggers
        but is not added to the replay window.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        clf = self.clf  # one consistent model for the whole chunk
        encodings = self.encoder.encode(X)
        scores = clf._scores(np.asarray(encodings, dtype=np.float64))
        preds_idx = np.argmax(scores, axis=1)
        margins = self.detector.margins_from_scores(scores)

        accuracy = None
        labels_idx = None
        if y is not None:
            y = np.asarray(y)
            labels_idx = np.searchsorted(clf.classes_, y)
            valid = labels_idx < len(clf.classes_)
            valid &= clf.classes_[
                np.clip(labels_idx, 0, len(clf.classes_) - 1)] == y
            # unknown labels can never match a prediction: count as errors
            labels_idx = np.where(valid, labels_idx, -1)
            accuracy = float(np.mean(preds_idx == labels_idx))
            self.buffer.append(encodings, y)

        event = self.detector.observe(margins, preds_idx, labels_idx)
        score = self.detector.drift_score()
        self.server.metrics.gauge("stream_drift_score").set(score)
        self.server.metrics.counter("stream_chunks").inc()
        self.chunks += 1

        requested = False
        if event is not None:
            self.server.recorder.record_event(
                "drift_fire", reason=event.reason, score=score,
                model=self.cfg.model_name,
            )
        if event is not None and len(self.buffer):
            enc, lab = self.buffer.snapshot()
            requested = self.trainer.request(enc, lab, reason=event.reason)
        self._maybe_regenerate()
        return ChunkReport(
            samples=len(X),
            accuracy=accuracy,
            drift_score=score,
            event=event,
            retrain_requested=requested,
            model_version=self.server.registry.get(self.cfg.model_name).version,
            preds=clf.classes_[preds_idx],
        )

    def run(self, stream: Iterable[Tuple[np.ndarray, np.ndarray]]):
        """Consume an iterable of ``(X, y)`` chunks; returns the reports."""
        return [self.process(X, y) for X, y in stream]

    # -- swap & regeneration callbacks ---------------------------------------

    def _install(self, clone: HDClassifier, reason: str) -> None:
        """Swap a retrained clone into the registry (trainer thread)."""
        with obs_trace.span(
            "stream.swap", model=self.cfg.model_name, reason=reason,
        ) as sp:
            dep = self.server.swap(
                self.cfg.model_name, clone, drain=self.cfg.swap_drain,
            )
            # the new version serves in original dimension order; a held
            # shed level re-triggers regeneration on the next chunk
            self.clf = clone
            self.swaps += 1
            self._regen_version = None
            self.detector.reset_baselines()
            if sp.recording:
                sp.set(version=dep.version)
        self.server.recorder.record_event(
            "model_swap", model=self.cfg.model_name,
            version=dep.version, reason=reason,
        )
        self.server.metrics.gauge("stream_model_version").set(dep.version)

    def _maybe_regenerate(self) -> None:
        """Permute informative dims into the prefix while shed is held."""
        if not self.cfg.regen_on_shed:
            return
        policy = self.server.policy
        if policy.level <= 0:
            return
        dep = self.server.registry.get(self.cfg.model_name)
        if dep.version == self._regen_version or dep.kind != "classifier":
            return
        self.regenerate(serving_dim=dep.dim_for_level(policy.level))

    def _on_dim_shed(self, floor_level: int) -> None:
        """Degradation-ladder hook: forced shed -> regenerate the prefix."""
        dep = self.server.registry.get(self.cfg.model_name)
        if dep.version == self._regen_version or dep.kind != "classifier":
            return
        self.regenerate(serving_dim=dep.dim_for_level(floor_level))

    def regenerate(self, serving_dim: Optional[int] = None):
        """Swap in a regenerated (dimension-permuted) serving view."""
        dep, plan = regenerate_deployment(
            self.server.registry, self.cfg.model_name,
            serving_dim=serving_dim, drain=False,
        )
        self._regen_version = dep.version
        self.regens += 1
        self.server.metrics.counter("stream_regens").inc()
        self.server.metrics.gauge("stream_model_version").set(dep.version)
        return dep, plan

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "chunks": self.chunks,
            "swaps": self.swaps,
            "regens": self.regens,
            "model_version":
                self.server.registry.get(self.cfg.model_name).version,
            "encoder": self.encoder.stats(),
            "drift": self.detector.state(),
            "trainer": {
                "retrains": self.trainer.retrains,
                "rejected": self.trainer.rejected,
                "failed": self.trainer.failed,
            },
            "replay": len(self.buffer),
        }
