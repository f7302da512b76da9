"""Federated on-device learning for a simulated edge fleet.

GENERIC's pitch is training *on* the edge device; this subpackage
scales that from one device to a fleet.  Thousands of simulated edge
devices (per-device compute/energy from :mod:`repro.platforms`, uplink
bit-flips from :class:`~repro.hardware.faultspec.FaultSpec`) each train
locally on a non-IID shard, and a :class:`FleetAggregator` merges
their class hypervectors under a bandwidth budget -- HDC's integer
bundling makes the merge a sum, no gradients anywhere -- then publishes
every merged model through a live :class:`~repro.serve.server.Server`
so the fleet-trained model serves between rounds.

Entry points:

- :func:`~repro.fleet.sharding.dirichlet_shards` -- Dirichlet label-skew
  partitioning (disjoint + complete);
- :class:`~repro.fleet.device.EdgeDevice` -- local bundle/retrain with
  simulated latency, energy and uplink faults;
- :mod:`repro.fleet.compression` -- full-int / sign / top-k uplink
  codecs with provable reconstruction bounds;
- :class:`FleetAggregator` / :class:`FleetConfig` -- the round
  protocol: churn, participation sampling, straggler deadlines, merge,
  publish, evaluate;
- ``python -m repro.fleet.bench`` -- accuracy vs. rounds vs.
  communicated bytes against centralized training (``BENCH_fed.json``).
"""

from repro.fleet.aggregator import FleetAggregator, FleetConfig, RoundReport
from repro.fleet.compression import (
    CompressedUpdate,
    FullIntCodec,
    SignCodec,
    TopKCodec,
    UpdateCodec,
    corrupt_update,
    make_codec,
)
from repro.fleet.device import DeviceUpdate, EdgeDevice
from repro.fleet.sharding import dirichlet_shards, shard_summary

__all__ = [
    "CompressedUpdate",
    "DeviceUpdate",
    "EdgeDevice",
    "FleetAggregator",
    "FleetConfig",
    "FullIntCodec",
    "RoundReport",
    "SignCodec",
    "TopKCodec",
    "UpdateCodec",
    "corrupt_update",
    "dirichlet_shards",
    "make_codec",
    "shard_summary",
]
