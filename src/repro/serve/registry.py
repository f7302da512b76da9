"""Named model deployments with hot swap.

:class:`Deployment` adapts the repo's two user-facing inference engines
-- full-precision :class:`~repro.core.classifier.HDClassifier` (and its
:class:`~repro.core.online.AdaptiveHDClassifier` subclass) and the
bit-packed :class:`~repro.core.packed.PackedModel` -- to one batched,
two-stage interface the workers drive:

- ``encode(X)``   -> stage-1 representation (float encodings / packed words)
- ``search(E, dim)`` -> labels, optionally over a reduced 128-multiple
  prefix of the dimensions.

For the full-precision path, reduced-dimension search goes through
``HDClassifier.predict_encoded(dim=...)`` and therefore uses the exact
per-128-dim prefix norms of the :class:`~repro.core.norms.SubNormTable`
(paper Section 4.3.3) -- never the stale full-length norms.  For the
packed path, prefix Hamming distance is used; binary prefix norms are
exact by construction.

:class:`ModelRegistry` maps names to deployments and supports hot swap
two ways: re-registering a name replaces the deployment wholesale
(fresh state), while :meth:`ModelRegistry.swap` installs a new model
*version* that inherits the old deployment's serving state -- min_dim,
compute config, the degradation ladder's engine-fallback bookkeeping --
and can optionally drain the old version (block until its in-flight
batches finish; new batches already land on the new version).  Workers
bracket their use of a deployment with :meth:`Deployment.serving`, so a
drain is precise rather than a sleep.

Deployments can also carry a ``dim_order`` -- a permutation applied to
query encodings before search, matched by a column-permuted class
matrix.  This is the hook for DistHD-style dimension regeneration
(:mod:`repro.stream.regen`): with both sides permuted identically,
full-dimension results are unchanged while prefix (shed) searches keep
the most informative dimensions.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.classifier import HDClassifier
from repro.core.config import ComputeConfig
from repro.core.norms import DEFAULT_BLOCK
from repro.core.packed import PackedModel

Model = Union[HDClassifier, PackedModel]

#: sentinel for "no approx fallback active" -- None is a *valid* saved
#: approx_folds value (exact encoding), so absence needs its own marker
_NOT_DEGRADED = object()


class Deployment:
    """A servable model: batched two-stage inference + shed-dim mapping.

    ``config`` (a :class:`~repro.core.config.ComputeConfig`) carries the
    compute knobs: ``config.engine`` selects the encoding path when the
    model's encoder supports one (``"reference"``/``"packed"``/``"auto"``
    on the GENERIC-family encoders); ``config.encode_jobs`` fans the
    encode stage out over a thread pool.  The ``engine``/``encode_jobs``
    kwargs override matching config fields.  Everything defaults to
    leaving the model as-is.
    """

    def __init__(self, name: str, model: Model, version: int = 1,
                 min_dim: Optional[int] = None,
                 engine: Optional[str] = None,
                 encode_jobs: Optional[int] = None,
                 config: Optional[ComputeConfig] = None,
                 dim_order: Optional[np.ndarray] = None):
        self.name = name
        self.model = model
        self.version = version
        self.config = (config.replace() if config is not None
                       else ComputeConfig())
        if engine is not None:
            self.config.engine = engine
        if encode_jobs is not None:
            self.config.encode_jobs = encode_jobs
        self.encode_jobs = self.config.encode_jobs
        engine = self.config.engine
        if engine is not None:
            encoder = model.encoder
            if not hasattr(encoder, "engine"):
                raise ValueError(
                    f"deployment {name!r}: {type(encoder).__name__} has "
                    "no selectable engine"
                )
            encoder.engine = engine
        self.engine = engine
        # engine the degradation ladder saved before a fallback (tier 1)
        self._engine_before_fallback: Optional[str] = None
        # approx_folds saved before the ladder's approx tier engaged
        self._approx_before_fallback = _NOT_DEGRADED

        if isinstance(model, PackedModel):
            self.kind = "packed"
            self.dim = model.dim
            self.block = DEFAULT_BLOCK
        elif isinstance(model, HDClassifier):
            if model.model_ is None:
                raise ValueError(
                    f"model for deployment {name!r} is not fitted"
                )
            self.kind = "classifier"
            self.dim = model.encoder.dim
            self.block = model.norm_block
        else:
            raise TypeError(
                f"cannot deploy {type(model).__name__}; expected "
                "HDClassifier or PackedModel"
            )

        if min_dim is None:
            # default floor: shed down to a quarter of the dimensions,
            # the deepest reduction Fig. 5 shows staying usable
            min_dim = max(self.block, (self.dim // 4 // self.block) * self.block)
        if min_dim % self.block or not 0 < min_dim <= self.dim:
            raise ValueError(
                f"min_dim={min_dim} must be a positive multiple of "
                f"block={self.block} and <= dim={self.dim}"
            )
        self.min_dim = min_dim

        if dim_order is not None:
            if self.kind != "classifier":
                raise ValueError(
                    f"deployment {name!r}: dim_order regeneration needs a "
                    "classifier deployment (packed words bake the layout in)"
                )
            dim_order = np.asarray(dim_order, dtype=np.int64)
            if (dim_order.shape != (self.dim,)
                    or not np.array_equal(np.sort(dim_order),
                                          np.arange(self.dim))):
                raise ValueError(
                    f"dim_order must be a permutation of range({self.dim})"
                )
        self.dim_order = dim_order

        # in-flight accounting so swap() can drain the old version
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._drained = threading.Event()
        self._drained.set()

    # -- in-flight tracking (drained hot swap) ------------------------------

    @contextmanager
    def serving(self):
        """Bracket one batch's use of this deployment (workers call this)."""
        with self._inflight_lock:
            self._inflight += 1
            self._drained.clear()
        try:
            yield self
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                if self._inflight <= 0:
                    self._drained.set()

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until no batch is being served on this deployment."""
        return self._drained.wait(timeout)

    # -- shed-level mapping -------------------------------------------------

    def dim_for_level(self, level: int) -> int:
        """Serving dimensionality at shed ``level`` (128-dim steps).

        Level 0 is the full model; each level drops one ``block`` of
        dimensions, floored at ``min_dim``.
        """
        reduced = self.dim - max(0, int(level)) * self.block
        return max(self.min_dim, min(self.dim, reduced))

    @property
    def max_level(self) -> int:
        """Deepest meaningful shed level for this deployment."""
        return (self.dim - self.min_dim) // self.block

    # -- batched two-stage inference ---------------------------------------

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Stage 1: raw features -> model-native query representation."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.kind == "packed":
            if self.encode_jobs is not None:
                self.model.encode_jobs = self.encode_jobs
            return self.model.encode_packed(X)
        encoded = self.model.encoder.encode_batch(
            X, n_jobs=self.encode_jobs, dtype=np.float64
        )
        if self.dim_order is not None:
            # regenerated layout: queries permute to match the permuted
            # class matrix, so prefix searches keep informative dims
            encoded = encoded[:, self.dim_order]
        return encoded

    def search(self, encoded: np.ndarray,
               dim: Optional[int] = None,
               fault=None,
               rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Stage 2: associative search over (optionally) reduced dims.

        With ``fault`` (a :class:`~repro.hardware.faultspec.FaultSpec`)
        and ``rng``, the search runs against a freshly corrupted copy of
        the class memory -- one faulty read of the VOS-scaled SRAM --
        while the deployment's own model stays pristine.
        """
        if dim is not None and dim >= self.dim:
            dim = None
        model = self.model
        if fault is not None and fault.active:
            if rng is None:
                raise ValueError("fault injection needs an rng")
            if self.kind == "packed":
                model = model.with_words(
                    fault.corrupt_words(model.class_words, rng)
                )
            else:
                model = fault.corrupt_classifier(model, rng)
        if self.kind == "packed":
            return model.predict_packed(encoded, dim=dim)
        return model.predict_encoded(encoded, dim=dim)

    def predict(self, X: np.ndarray, dim: Optional[int] = None) -> np.ndarray:
        """Both stages in one call (the non-serving reference path)."""
        return self.search(self.encode(X), dim=dim)

    # -- degradation hooks (ladder tiers 1 and 2) ---------------------------

    def fallback_engine(self, engine: str = "reference") -> bool:
        """Drop to a simpler encode engine (degradation tier 1).

        Returns True when an engine switch actually happened; no-op for
        encoders without a selectable engine or when already fallen
        back.  The previous engine is saved for :meth:`restore_engine`.
        """
        encoder = getattr(self.model, "encoder", None)
        if encoder is None or not hasattr(encoder, "engine"):
            return False
        if self._engine_before_fallback is not None:
            return False
        current = encoder.engine
        if current == engine:
            return False
        self._engine_before_fallback = current
        encoder.engine = engine
        return True

    def restore_engine(self) -> bool:
        """Undo :meth:`fallback_engine` (recovery from tier 1)."""
        if self._engine_before_fallback is None:
            return False
        self.model.encoder.engine = self._engine_before_fallback
        self._engine_before_fallback = None
        return True

    def fallback_approx(self, fraction: float = 0.5) -> bool:
        """Switch to multifold approximate encoding (the approx tier).

        Folds only ``fraction`` of the encoder's windows
        (``approx_folds``, SHEARer-style evenly spaced sampling) --
        cheaper encodes at a bounded count error, quality shed before
        any dimension is.  Returns True when approximation actually
        engaged; no-op for encoders without ``approx_folds`` support or
        when already engaged.  The previous setting is saved for
        :meth:`restore_approx`.
        """
        encoder = getattr(self.model, "encoder", None)
        if encoder is None or not hasattr(encoder, "approx_folds"):
            return False
        if self._approx_before_fallback is not _NOT_DEGRADED:
            return False
        if not 0 < fraction <= 1:
            raise ValueError(
                f"approx fraction must be in (0, 1], got {fraction}"
            )
        n_windows = getattr(encoder, "n_windows", None)
        if n_windows is None:
            return False
        folds = max(1, int(round(fraction * n_windows)))
        if encoder.approx_folds is not None and encoder.approx_folds <= folds:
            return False  # already at least this approximate
        self._approx_before_fallback = encoder.approx_folds
        encoder.approx_folds = folds
        return True

    def restore_approx(self) -> bool:
        """Undo :meth:`fallback_approx` (recovery from the approx tier)."""
        if self._approx_before_fallback is _NOT_DEGRADED:
            return False
        self.model.encoder.approx_folds = self._approx_before_fallback
        self._approx_before_fallback = _NOT_DEGRADED
        return True

    @property
    def degraded(self) -> bool:
        return self._engine_before_fallback is not None

    @property
    def approx_degraded(self) -> bool:
        return self._approx_before_fallback is not _NOT_DEGRADED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Deployment(name={self.name!r}, kind={self.kind}, "
            f"dim={self.dim}, version={self.version})"
        )


class ModelRegistry:
    """Thread-safe name -> :class:`Deployment` map with versioned swap."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._deployments: Dict[str, Deployment] = {}
        self.swaps = 0

    def register(self, name: str, model: Model,
                 min_dim: Optional[int] = None,
                 engine: Optional[str] = None,
                 encode_jobs: Optional[int] = None,
                 config: Optional[ComputeConfig] = None) -> Deployment:
        """Deploy ``model`` under ``name``; replaces any existing
        deployment wholesale (fresh serving state) and bumps the
        version.  For mid-flight model *updates* prefer :meth:`swap`,
        which inherits the old deployment's serving state and can drain
        the outgoing version."""
        with self._lock:
            previous = self._deployments.get(name)
            version = previous.version + 1 if previous else 1
            dep = Deployment(name, model, version=version, min_dim=min_dim,
                             engine=engine, encode_jobs=encode_jobs,
                             config=config)
            self._deployments[name] = dep
            return dep

    def swap(self, name: str, model: Model,
             dim_order: Optional[np.ndarray] = None,
             drain: bool = False,
             drain_timeout: Optional[float] = 5.0) -> Deployment:
        """Atomically install ``model`` as the next version of ``name``.

        Unlike :meth:`register`, the deployment must already exist and
        the new version inherits its serving state: ``min_dim`` (when
        the dimensionality is unchanged), the compute config, and the
        degradation ladder's engine-fallback bookkeeping, so a hot swap
        in the middle of a degraded period does not silently undo the
        ladder's tier-1 effect.  The version is bumped under the
        registry lock -- concurrent :meth:`get` sees either the old or
        the new deployment, never a torn mix, and versions are strictly
        monotonic per name.

        ``dim_order`` installs (or, left ``None``, clears) a
        regenerated dimension layout for the new version -- pass the
        composed permutation from :mod:`repro.stream.regen`.

        With ``drain=True`` the call additionally blocks (up to
        ``drain_timeout`` seconds) until batches in flight on the *old*
        version finish; new batches already land on the new version, so
        a drain only waits for the tail, it never pauses serving.
        Returns the new deployment.
        """
        with self._lock:
            try:
                old = self._deployments[name]
            except KeyError:
                raise KeyError(
                    f"swap: no deployment named {name!r}; register it "
                    "first"
                ) from None
            new_dim = (model.dim if isinstance(model, PackedModel)
                       else model.encoder.dim)
            min_dim = old.min_dim if new_dim == old.dim else None
            dep = Deployment(name, model, version=old.version + 1,
                             min_dim=min_dim, config=old.config,
                             dim_order=dim_order)
            if old._engine_before_fallback is not None:
                # the ladder degraded the old version to a simpler
                # engine; keep the new version on the same tier so
                # recovery (restore_engine) stays symmetric
                encoder = getattr(dep.model, "encoder", None)
                if encoder is not None and hasattr(encoder, "engine"):
                    dep._engine_before_fallback = old._engine_before_fallback
                    fallen = getattr(
                        getattr(old.model, "encoder", None), "engine", None
                    )
                    if fallen is not None:
                        encoder.engine = fallen
            if old._approx_before_fallback is not _NOT_DEGRADED:
                # same symmetry for the approx tier: the new version
                # keeps encoding approximately until restore_approx()
                encoder = getattr(dep.model, "encoder", None)
                if encoder is not None and hasattr(encoder, "approx_folds"):
                    dep._approx_before_fallback = old._approx_before_fallback
                    degraded_folds = getattr(
                        getattr(old.model, "encoder", None),
                        "approx_folds", None,
                    )
                    if degraded_folds is not None:
                        encoder.approx_folds = degraded_folds
            self._deployments[name] = dep
            self.swaps += 1
        if drain:
            old.wait_drained(drain_timeout)
        return dep

    def get(self, name: str) -> Deployment:
        with self._lock:
            try:
                return self._deployments[name]
            except KeyError:
                raise KeyError(
                    f"no deployment named {name!r}; registered: "
                    f"{sorted(self._deployments)}"
                ) from None

    def unregister(self, name: str) -> None:
        with self._lock:
            self._deployments.pop(name, None)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._deployments)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._deployments

    def __len__(self) -> int:
        with self._lock:
            return len(self._deployments)
