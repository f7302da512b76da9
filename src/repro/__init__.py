"""Reproduction of GENERIC (DAC 2022): an HDC learning engine for the edge.

The package splits the paper's system into four layers:

- :mod:`repro.core` -- the GENERIC encoding and HDC learning algorithms
  (classification with retraining, clustering), plus the baseline HDC
  encodings the paper compares against.
- :mod:`repro.hardware` -- a cycle-approximate simulator of the GENERIC
  ASIC with its energy/area model and the paper's energy-reduction
  techniques (id compression, power gating, dimension reduction, voltage
  over-scaling).
- :mod:`repro.baselines` -- from-scratch NumPy implementations of the ML
  algorithms the paper benchmarks (MLP, SVM, random forest, kNN,
  logistic regression, DNN, K-means).
- :mod:`repro.datasets` / :mod:`repro.platforms` / :mod:`repro.eval` --
  the evaluation substrate: synthetic stand-ins for the paper's
  benchmarks, device energy models, and one experiment module per table
  and figure.
- :mod:`repro.serve` -- a micro-batching inference service over trained
  models with load-shedding via the paper's on-demand dimension
  reduction (imported lazily; see :class:`repro.serve.InferenceServer`).
- :mod:`repro.stream` -- streaming encoding, drift detection, and a
  train-while-serving loop that hot-swaps retrained models into the
  server (imported lazily; see :class:`repro.stream.StreamLoop`).
- :mod:`repro.fleet` -- a simulated federated fleet of edge devices
  training locally and merging class hypervectors under bandwidth
  budgets, published live through any
  :class:`repro.serve.Server` (imported lazily; see
  :class:`repro.fleet.FleetAggregator`).
"""

from repro.core.classifier import HDClassifier
from repro.core.clustering import HDCluster
from repro.core.config import ComputeConfig
from repro.core.packed import PackedModel
from repro.core.encoders import (
    GenericEncoder,
    LevelIdEncoder,
    NgramEncoder,
    PermutationEncoder,
    RandomProjectionEncoder,
    make_encoder,
)
from repro.hardware.accelerator import GenericAccelerator
from repro.version import __version__

__all__ = [
    "ComputeConfig",
    "GenericAccelerator",
    "GenericEncoder",
    "HDClassifier",
    "HDCluster",
    "PackedModel",
    "LevelIdEncoder",
    "NgramEncoder",
    "PermutationEncoder",
    "RandomProjectionEncoder",
    "__version__",
    "make_encoder",
]
