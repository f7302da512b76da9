"""One compute-placement config for every user-facing model class.

Four PRs of growth left the same four knobs -- ``engine`` (encoding
kernel), ``encode_jobs`` (encode-stage thread fan-out), ``train_engine``
(retraining engine) and ``train_memory_budget`` (gram-cache byte cap) --
copy-pasted across :class:`~repro.core.classifier.HDClassifier`,
:class:`~repro.core.online.AdaptiveHDClassifier`,
:class:`~repro.core.clustering.HDCluster`,
:class:`~repro.core.packed.PackedModel` and
:class:`~repro.serve.server.ServeConfig`.  :class:`ComputeConfig`
consolidates them into one picklable dataclass those classes accept as
``config=``; the old per-class kwargs keep working as deprecated
aliases routed through :meth:`ComputeConfig.from_kwargs`.

Migration::

    # before (still works, warns DeprecationWarning):
    HDClassifier(enc, engine="packed", encode_jobs=4, train_engine="gram")

    # after:
    cfg = ComputeConfig(engine="packed", encode_jobs=4, train_engine="gram")
    HDClassifier(enc, config=cfg)

Every consumer copies the config on ingestion (``replace()``), so one
``ComputeConfig`` literal can parameterize many models without aliasing
their later mutations into each other.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.core.compat import warn_legacy_kwargs

__all__ = ["ComputeConfig", "UNSET"]


class _Unset:
    """Sentinel distinguishing 'kwarg not passed' from an explicit None."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<UNSET>"

    def __reduce__(self):
        # pickle round-trips to the same singleton
        return (_Unset, ())


UNSET = _Unset()


@dataclass
class ComputeConfig:
    """Where and how a model spends its compute.

    Parameters
    ----------
    engine:
        Encoding engine override applied to the model's encoder when it
        supports one (``"reference"``/``"packed"``/``"auto"``); ``None``
        keeps the encoder's own setting.
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

    engine: Optional[str] = None
    encode_jobs: Optional[int] = None
    train_engine: str = "auto"
    train_memory_budget: Optional[int] = None

    def replace(self, **changes) -> "ComputeConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """Plain JSON-serializable dict of the four knobs."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ComputeConfig":
        return cls(**d)

    @classmethod
    def from_kwargs(
        cls,
        config: Optional["ComputeConfig"] = None,
        *,
        engine=UNSET,
        encode_jobs=UNSET,
        train_engine=UNSET,
        train_memory_budget=UNSET,
        owner: str = "",
        warn: bool = True,
        stacklevel: int = 3,
    ) -> "ComputeConfig":
        """Merge a ``config=`` object with legacy per-class kwargs.

        The shim behind every consolidated constructor: returns a fresh
        :class:`ComputeConfig` (never the caller's instance), with any
        legacy kwarg that was actually passed overriding the matching
        field.  Passing a legacy kwarg emits a :class:`DeprecationWarning`
        naming the owner class unless ``warn=False`` (used internally by
        ``with_model``-style cloning, which round-trips whatever the
        original had without re-warning).
        """
        out = config.replace() if config is not None else cls()
        legacy = {
            "engine": engine,
            "encode_jobs": encode_jobs,
            "train_engine": train_engine,
            "train_memory_budget": train_memory_budget,
        }
        passed = {k: v for k, v in legacy.items() if v is not UNSET}
        if passed:
            if warn:
                # the single DeprecationWarning site lives in
                # repro.core.compat; keep this frame transparent
                warn_legacy_kwargs(owner, passed, stacklevel=stacklevel)
            for k, v in passed.items():
                setattr(out, k, v)
        return out
