"""Algorithmic core of the GENERIC reproduction.

This subpackage implements Section 2 (HDC background), Section 3 (the
GENERIC encoding and its baselines) and the learning procedures of the
paper: classification with retraining and unsupervised clustering.
"""

from repro.core.classifier import HDClassifier
from repro.core.clustering import HDCluster
from repro.core.config import ComputeConfig
from repro.core.training import (
    TRAIN_ENGINES,
    TrainPlan,
    TrainReport,
    plan_retraining,
)
from repro.core.packed import PackedModel
from repro.core.hypervector import (
    bind,
    bundle,
    cosine,
    dot,
    hamming,
    normalized_hamming,
    permute,
    random_bipolar,
    sign_quantize,
    to_binary,
    to_bipolar,
)
from repro.core.levels import LevelTable, Quantizer
from repro.core.ids import IdTable, SeedIdGenerator
from repro.core.kernels import (
    GenericPackedKernel,
    bit_slice_counts,
    pack_bits,
    packed_hamming,
    popcount,
    popcount_words,
    unpack_bits,
)

__all__ = [
    "ComputeConfig",
    "TRAIN_ENGINES",
    "TrainPlan",
    "TrainReport",
    "plan_retraining",
    "GenericPackedKernel",
    "PackedModel",
    "HDClassifier",
    "HDCluster",
    "IdTable",
    "LevelTable",
    "Quantizer",
    "SeedIdGenerator",
    "bit_slice_counts",
    "pack_bits",
    "packed_hamming",
    "popcount",
    "popcount_words",
    "unpack_bits",
    "bind",
    "bundle",
    "cosine",
    "dot",
    "hamming",
    "normalized_hamming",
    "permute",
    "random_bipolar",
    "sign_quantize",
    "to_binary",
    "to_bipolar",
]
