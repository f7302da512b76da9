"""One compute config for every user-facing model class.

:class:`ComputeConfig` holds the three knobs a model carries about where
and how it spends its compute -- ``encode_jobs`` (encode-stage thread
fan-out), ``train_engine`` (retraining engine) and
``train_memory_budget`` (gram-cache byte cap).
:class:`~repro.core.classifier.HDClassifier`,
:class:`~repro.core.clustering.HDCluster` and
:class:`~repro.core.packed.PackedModel` accept it as ``config=``; a
server deploying one of them reads the knobs from the model.

The encode *engine* is not a compute knob here: it is set once, on the
encoder (``GenericEncoder(engine=...)``)::

    enc = GenericEncoder(dim=4096, engine="packed")
    clf = HDClassifier(enc, config=ComputeConfig(encode_jobs=4,
                                                 train_engine="gram"))

Every consumer copies the config on ingestion (``replace()``), so one
``ComputeConfig`` literal can parameterize many models without aliasing
their later mutations into each other.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

__all__ = ["ComputeConfig"]


@dataclass
class ComputeConfig:
    """How a model spends its compute.

    Parameters
    ----------
    encode_jobs:
        Thread-pool width for batch encoding.  ``None`` (default) and
        ``-1`` use every usable CPU (the process's affinity mask, see
        :mod:`repro.core.jobs`), ``1`` is serial.  The width is capped
        by the batch's chunk count, so a batch of one chunk -- every
        serving batch up to the planner's ``chunk_samples`` -- always
        encodes serially.  Results are identical for any value.
    train_engine:
        Retraining engine: ``"reference"``, ``"gram"`` or ``"auto"``
        (see :mod:`repro.core.training`).
    train_memory_budget:
        Byte cap for the gram caches (``None`` = module default).
    """

    encode_jobs: Optional[int] = None
    train_engine: str = "auto"
    train_memory_budget: Optional[int] = None

    def replace(self, **changes) -> "ComputeConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)
