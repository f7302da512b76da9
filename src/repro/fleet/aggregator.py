"""The fleet round protocol: sample, train locally, merge, publish.

:class:`FleetAggregator` coordinates a population of
:class:`~repro.fleet.device.EdgeDevice` against any
:class:`~repro.serve.server.Server` (thread or process executor).  Per
round:

1. **Churn + sampling** -- each device is independently offline with
   probability ``churn``; a ``participation`` fraction of the online
   devices is sampled for the round.
2. **Local work** -- every sampled device runs
   :meth:`~repro.fleet.device.EdgeDevice.run_round`: the bootstrap
   round uploads its class-hypervector bundle, later rounds upload the
   integer delta of local ±h retraining, through the configured
   :mod:`~repro.fleet.compression` codec.
3. **Straggler cut** -- devices whose simulated ``train + upload`` time
   exceeds ``deadline_s`` miss the round; their bytes are counted as
   wasted uplink but excluded from the merge.
4. **Merge** -- decoded updates are summed onto the global model
   (class-hypervector addition is the natural HDC merge: the bootstrap
   merge over a disjoint shard cover is *bit-identical* to centralized
   initialization).  ``merge="mean"`` averages refinement deltas
   instead, damping overshoot on very large fleets; bootstrap bundles
   are always summed, anything else would change the model's scale.
5. **Publish** -- the merged model is wrapped via
   :meth:`~repro.core.classifier.HDClassifier.with_model` and pushed
   through the surface's ``register``/``swap`` path, so a live server
   (threaded or process-sharded) serves the fleet-trained model between
   rounds with the usual drain semantics.
6. **Evaluate** -- the held-out set is scored through the server's
   :meth:`~repro.serve.server.Server.predict_encoded`
   side-door (stage-1 representation computed once and cached), so the
   reported accuracy is measured against the *deployed* model, not a
   local copy.

Everything is observable: ``fleet.round`` / ``fleet.upload`` /
``fleet.merge`` spans, ``fleet_*`` counters and gauges on the
surface's metric registry, and a ``fleet_round`` flight-recorder event per
round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.classifier import HDClassifier
from repro.core.config import ComputeConfig
from repro.core.norms import DEFAULT_BLOCK, SubNormTable
from repro.obs import trace as obs_trace
from repro.serve.server import Server
from repro.fleet.compression import UpdateCodec, make_codec
from repro.fleet.device import DeviceUpdate, EdgeDevice

__all__ = ["FleetAggregator", "FleetConfig", "RoundReport"]


@dataclass
class FleetConfig:
    """Knobs for one federated run."""

    #: deployment name the aggregator registers/swaps on the surface
    model_name: str = "fleet"
    #: uplink codec spec: ``full``, ``sign`` or ``topk:<k>``
    codec: str = "sign"
    #: local retraining epochs per refinement round
    local_epochs: int = 1
    #: fraction of *online* devices sampled each round
    participation: float = 1.0
    #: per-round probability that a device is offline (churn)
    churn: float = 0.0
    #: straggler deadline on simulated train+upload seconds (None: off)
    deadline_s: Optional[float] = None
    #: ``"sum"`` (HDC-native) or ``"mean"`` for refinement deltas
    merge: str = "sum"
    #: drain in-flight batches on the old version during publish swaps
    swap_drain: bool = True
    #: sub-norm table block for locally retrained models
    norm_block: int = DEFAULT_BLOCK
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.participation <= 1.0:
            raise ValueError(
                f"participation must be in (0, 1], got {self.participation}"
            )
        if not 0.0 <= self.churn < 1.0:
            raise ValueError(f"churn must be in [0, 1), got {self.churn}")
        if self.merge not in ("sum", "mean"):
            raise ValueError(f"merge must be 'sum' or 'mean', got {self.merge!r}")


@dataclass
class RoundReport:
    """What one round did, cost and quality-wise (JSON-friendly)."""

    round: int
    bootstrap: bool
    sampled: int
    offline: int
    stragglers: int
    merged: int
    bytes_uploaded: int
    bytes_merged: int
    sim_round_s: float
    energy_j: float
    model_version: int
    accuracy: Optional[float]
    device_ids: List[int] = field(default_factory=list, repr=False)

    def to_dict(self) -> Dict:
        return {
            "round": self.round,
            "bootstrap": self.bootstrap,
            "sampled": self.sampled,
            "offline": self.offline,
            "stragglers": self.stragglers,
            "merged": self.merged,
            "bytes_uploaded": self.bytes_uploaded,
            "bytes_merged": self.bytes_merged,
            "sim_round_s": round(self.sim_round_s, 6),
            "energy_j": round(self.energy_j, 6),
            "model_version": self.model_version,
            "accuracy": (round(self.accuracy, 4)
                         if self.accuracy is not None else None),
        }


class FleetAggregator:
    """Merge a device fleet's updates and publish through a server.

    Parameters
    ----------
    surface:
        Any started-or-startable :class:`~repro.serve.server.Server`; the
        aggregator registers ``config.model_name`` on the first merge
        and hot-swaps every round after.
    devices:
        The fleet.  Devices must share ``classes`` (their ``y_idx``
        index into it) and a fitted encoder of one dimension.
    classes:
        The fleet-wide label set, fixed up front (a federation cannot
        infer it from any single shard).
    eval_X, eval_y:
        Optional held-out set scored through the deployed model after
        every round.
    """

    def __init__(
        self,
        surface: Server,
        devices: Sequence[EdgeDevice],
        classes: np.ndarray,
        eval_X: Optional[np.ndarray] = None,
        eval_y: Optional[np.ndarray] = None,
        config: Optional[FleetConfig] = None,
    ):
        if not devices:
            raise ValueError("a fleet needs at least one device")
        dims = {d.encoder.dim for d in devices}
        if len(dims) != 1:
            raise ValueError(f"devices disagree on encoder dim: {sorted(dims)}")
        self.surface = surface
        self.devices = list(devices)
        self.classes = np.asarray(classes)
        self.cfg = config or FleetConfig()
        self.codec: UpdateCodec = make_codec(self.cfg.codec)
        self.rng = np.random.default_rng(self.cfg.seed)
        self.dim = next(iter(dims))
        self.model = np.zeros((len(self.classes), self.dim), dtype=np.float64)
        self.round_idx = 0
        self.published = False
        self.reports: List[RoundReport] = []
        self.eval_X = (None if eval_X is None
                       else np.atleast_2d(np.asarray(eval_X, dtype=np.float64)))
        self.eval_y = None if eval_y is None else np.asarray(eval_y)
        self._eval_repr: Optional[np.ndarray] = None
        # template for with_model publishing: a fitted-shaped classifier
        # sharing the fleet encoder (never trained itself)
        template = HDClassifier(
            self.devices[0].encoder,
            epochs=0,
            norm_block=self.cfg.norm_block,
            config=ComputeConfig(train_engine="auto"),
        )
        template.classes_ = self.classes
        template.model_ = self.model
        template.norms_ = SubNormTable(
            len(self.classes), self.dim, block=self.cfg.norm_block
        )
        self._template = template

    # -- round protocol ------------------------------------------------------

    def _sample_round(self):
        """Churn then participation sampling; returns (devices, offline)."""
        online = [d for d in self.devices
                  if self.rng.random() >= self.cfg.churn]
        offline = len(self.devices) - len(online)
        if not online:
            return [], offline
        k = max(1, int(round(self.cfg.participation * len(online))))
        if k >= len(online):
            return online, offline
        picks = self.rng.choice(len(online), size=k, replace=False)
        return [online[i] for i in sorted(picks)], offline

    def run_round(self) -> RoundReport:
        """Execute one full round: sample, collect, merge, publish, eval."""
        self.round_idx += 1
        bootstrap = not self.published
        with obs_trace.span("fleet.round", round=self.round_idx,
                            bootstrap=bootstrap) as round_sp:
            sampled, offline = self._sample_round()
            accepted: List[DeviceUpdate] = []
            stragglers = 0
            bytes_uploaded = 0
            energy = 0.0
            slowest = 0.0
            for dev in sampled:
                with obs_trace.span("fleet.upload", device=dev.device_id):
                    up = dev.run_round(
                        self.model, self.classes, self.codec,
                        self.cfg.local_epochs,
                    )
                bytes_uploaded += up.update.nbytes
                energy += up.energy_j
                if (self.cfg.deadline_s is not None
                        and up.total_s > self.cfg.deadline_s):
                    stragglers += 1
                    slowest = max(slowest, self.cfg.deadline_s)
                    continue
                slowest = max(slowest, up.total_s)
                accepted.append(up)

            bytes_merged = sum(u.update.nbytes for u in accepted)
            with obs_trace.span("fleet.merge", updates=len(accepted),
                                codec=self.codec.name):
                if accepted:
                    delta = np.zeros_like(self.model)
                    for up in accepted:
                        delta += self.codec.decode(up.update)
                    if self.cfg.merge == "mean" and not bootstrap:
                        delta /= len(accepted)
                    self.model = self.model + np.rint(delta)

            version = self._publish() if accepted or self.published else 0
            accuracy = self._evaluate()
            if round_sp.recording:
                round_sp.set(merged=len(accepted), bytes=bytes_merged)

        report = RoundReport(
            round=self.round_idx,
            bootstrap=bootstrap,
            sampled=len(sampled),
            offline=offline,
            stragglers=stragglers,
            merged=len(accepted),
            bytes_uploaded=bytes_uploaded,
            bytes_merged=bytes_merged,
            sim_round_s=slowest,
            energy_j=energy,
            model_version=version,
            accuracy=accuracy,
            device_ids=[u.device_id for u in accepted],
        )
        self.reports.append(report)
        self._record(report)
        return report

    def run(self, rounds: int) -> List[RoundReport]:
        return [self.run_round() for _ in range(rounds)]

    # -- publish / evaluate --------------------------------------------------

    def _publish(self) -> int:
        """Push the merged model through the serving surface."""
        clone = self._template.with_model(self.model)
        if not self.published:
            dep = self.surface.register(self.cfg.model_name, clone)
            self.published = True
        else:
            dep = self.surface.swap(
                self.cfg.model_name, clone, drain=self.cfg.swap_drain
            )
        return dep.version

    def _evaluate(self) -> Optional[float]:
        """Held-out accuracy against the *deployed* model version."""
        if self.eval_X is None or not self.published:
            return None
        if self._eval_repr is None:
            # stage-1 representation depends only on the (frozen) encoder,
            # so it is computed once through the deployment and reused
            dep = self.surface.registry.get(self.cfg.model_name)
            self._eval_repr = dep.encode(self.eval_X)
        preds = self.surface.predict_encoded(
            self.cfg.model_name, self._eval_repr
        )
        return float(np.mean(preds == self.eval_y))

    def _record(self, report: RoundReport) -> None:
        metrics = self.surface.metrics
        metrics.counter("fleet_rounds").inc()
        metrics.counter("fleet_bytes_uploaded").inc(report.bytes_uploaded)
        metrics.counter("fleet_bytes_merged").inc(report.bytes_merged)
        metrics.counter("fleet_stragglers").inc(report.stragglers)
        metrics.gauge("fleet_participants").set(report.merged)
        if report.accuracy is not None:
            metrics.gauge("fleet_accuracy").set(report.accuracy)
        self.surface.recorder.record_event(
            "fleet_round",
            round=report.round,
            merged=report.merged,
            stragglers=report.stragglers,
            offline=report.offline,
            bytes=report.bytes_merged,
            accuracy=report.accuracy,
            model=self.cfg.model_name,
        )

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict:
        """Run-level summary (bytes, rounds, current accuracy)."""
        return {
            "rounds": self.round_idx,
            "devices": len(self.devices),
            "codec": self.codec.describe(),
            "bytes_uploaded": int(sum(r.bytes_uploaded for r in self.reports)),
            "bytes_merged": int(sum(r.bytes_merged for r in self.reports)),
            "stragglers": int(sum(r.stragglers for r in self.reports)),
            "energy_j": float(sum(r.energy_j for r in self.reports)),
            "sim_total_s": float(sum(r.sim_round_s for r in self.reports)),
            "accuracy": (self.reports[-1].accuracy
                         if self.reports else None),
        }
