"""One simulated edge device: local data, local training, costed uplink.

An :class:`EdgeDevice` owns a non-IID shard of the training set, a
:class:`~repro.platforms.device.DeviceModel` (energy/latency), an
uplink bandwidth, and optionally a
:class:`~repro.hardware.faultspec.FaultSpec` corrupting its uploads.
Per round it produces a :class:`DeviceUpdate`:

- **bootstrap round** (the global model is still all-zero): the device
  bundles its shard -- per-class integer sums of the encodings, the
  same one-hot GEMM centralized :meth:`~repro.core.classifier.
  HDClassifier.fit` uses for initialization.  Because the fleet's
  shards are a disjoint cover, these bundles sum to the centralized
  ``epochs=0`` model *bit-identically* (integer adds reordered).
- **refinement rounds**: the device seeds a local classifier with the
  broadcast global model and runs the paper's ±h retraining (via the
  Gram engine where exact) over its shard for ``epochs`` local epochs;
  the upload is the integer delta ``M_local - M_global``.

Encodings are computed once and cached (the shard is static); the cost
model charges the encode workload on first participation and the
retraining workload every round, scaled by the device's ``speed`` and
pushed through its :class:`DeviceModel` for latency/energy.  Upload
time is payload bytes over ``uplink_bps``; the aggregator compares
``train_s + upload_s`` against the round deadline to drop stragglers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import training
from repro.core.classifier import HDClassifier
from repro.core.config import ComputeConfig
from repro.core.encoders.base import Encoder
from repro.core.norms import DEFAULT_BLOCK, SubNormTable
from repro.hardware.faultspec import FaultSpec
from repro.platforms import (
    RASPBERRY_PI,
    DeviceModel,
    hdc_inference_workload,
    hdc_training_workload,
)
from repro.fleet.compression import (
    CompressedUpdate,
    UpdateCodec,
    corrupt_update,
)

__all__ = ["DeviceUpdate", "EdgeDevice"]


@dataclass
class DeviceUpdate:
    """One device's contribution to one round, with simulated costs."""

    device_id: int
    update: CompressedUpdate
    n_samples: int
    train_s: float
    upload_s: float
    energy_j: float

    @property
    def total_s(self) -> float:
        return self.train_s + self.upload_s


class EdgeDevice:
    """A fleet member: shard + compute model + uplink.

    Parameters
    ----------
    device_id:
        Stable integer identity (seeds the device's rng streams).
    X, y_idx:
        The device's shard: raw features and labels already mapped to
        *fleet-wide class indices* (the aggregator fixes ``classes``
        once; devices never see labels outside that set).
    encoder:
        The shared, already-fitted encoder (a real fleet broadcasts the
        level/id tables once at enrollment).
    device_model:
        Platform cost model; defaults to the Raspberry Pi.
    speed:
        Relative compute speed multiplier (heterogeneous fleet); only
        latency scales, energy does not.
    uplink_bps:
        Uplink bandwidth in bits/second.
    faults:
        Optional uplink fault spec; bit-flips the payload words of
        every upload (see :func:`repro.fleet.compression.corrupt_update`).
    """

    def __init__(
        self,
        device_id: int,
        X: np.ndarray,
        y_idx: np.ndarray,
        encoder: Encoder,
        device_model: Optional[DeviceModel] = None,
        speed: float = 1.0,
        uplink_bps: float = 1e6,
        faults: Optional[FaultSpec] = None,
        norm_block: int = DEFAULT_BLOCK,
        seed: int = 0,
    ):
        if not encoder.fitted:
            raise ValueError(
                f"device {device_id}: the shared encoder must be fitted "
                "before enrollment (broadcast its tables first)"
            )
        if speed <= 0.0:
            raise ValueError(f"speed must be positive, got {speed}")
        if uplink_bps <= 0.0:
            raise ValueError(f"uplink_bps must be positive, got {uplink_bps}")
        self.device_id = device_id
        self.X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        self.y_idx = np.asarray(y_idx, dtype=np.int64)
        if len(self.X) != len(self.y_idx):
            raise ValueError(
                f"device {device_id}: {len(self.X)} samples but "
                f"{len(self.y_idx)} labels"
            )
        self.encoder = encoder
        self.device_model = device_model or RASPBERRY_PI
        self.speed = float(speed)
        self.uplink_bps = float(uplink_bps)
        self.faults = faults
        self.norm_block = norm_block
        self.rng = np.random.default_rng(seed ^ (device_id * 0x9E3779B9))
        self.rounds_participated = 0
        self._encodings: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.X)

    @property
    def encodings(self) -> np.ndarray:
        """The shard's encodings (computed once, cached -- static data)."""
        if self._encodings is None:
            self._encodings = self.encoder.encode_batch(
                self.X, dtype=np.float64
            )
        return self._encodings

    # -- local computation ---------------------------------------------------

    def local_bundle(self, n_classes: int) -> np.ndarray:
        """Per-class encoding sums over the shard (init contribution)."""
        onehot = np.zeros((len(self.y_idx), n_classes), dtype=np.float64)
        if len(self.y_idx):
            onehot[np.arange(len(self.y_idx)), self.y_idx] = 1.0
        return onehot.T @ self.encodings if len(self.y_idx) else np.zeros(
            (n_classes, self.encoder.dim)
        )

    def local_delta(
        self,
        global_model: np.ndarray,
        classes: np.ndarray,
        epochs: int,
    ) -> np.ndarray:
        """Integer delta from retraining the global model on the shard."""
        if epochs <= 0 or len(self.y_idx) == 0:
            return np.zeros_like(global_model)
        clf = HDClassifier(
            self.encoder,
            epochs=epochs,
            shuffle=True,
            seed=int(self.rng.integers(2**31)),
            norm_block=self.norm_block,
            config=ComputeConfig(train_engine="auto"),
        )
        clf.classes_ = classes
        clf.model_ = np.asarray(global_model, dtype=np.float64).copy()
        clf.norms_ = SubNormTable(
            len(classes), self.encoder.dim, block=self.norm_block
        )
        clf.norms_.recompute(clf.model_)
        training.retrain(clf, self.encodings, self.y_idx)
        return clf.model_ - global_model

    # -- the round step ------------------------------------------------------

    def run_round(
        self,
        global_model: np.ndarray,
        classes: np.ndarray,
        codec: UpdateCodec,
        epochs: int,
    ) -> DeviceUpdate:
        """Produce this device's (possibly corrupted) costed upload."""
        bootstrap = not np.any(global_model)
        first = self.rounds_participated == 0
        if bootstrap:
            delta = self.local_bundle(len(classes))
        else:
            delta = self.local_delta(global_model, classes, epochs)
        update = corrupt_update(codec.encode(delta), self.faults, self.rng)

        n = max(len(self.X), 1)
        if bootstrap:
            work = hdc_inference_workload(self.encoder, len(classes)).scaled(n)
        else:
            work = hdc_training_workload(
                self.encoder, len(classes), n_train=n, epochs=max(epochs, 1)
            )
            if not first:
                # encodings are cached: later rounds only pay retraining
                encode = hdc_inference_workload(
                    self.encoder, len(classes)
                ).scaled(n)
                work = type(work)(
                    flops=max(work.flops - encode.flops, 0.0),
                    bitops=max(work.bitops - encode.bitops, 0.0),
                    bytes_moved=max(work.bytes_moved - encode.bytes_moved, 0.0),
                    sync_points=work.sync_points,
                    label=work.label,
                )
        self.rounds_participated += 1
        return DeviceUpdate(
            device_id=self.device_id,
            update=update,
            n_samples=len(self.X),
            train_s=self.device_model.latency_s(work) / self.speed,
            upload_s=update.nbytes * 8.0 / self.uplink_bps,
            energy_j=self.device_model.energy_j(work),
        )
