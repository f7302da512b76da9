"""Level-id encoding (paper Section 2.2).

Each feature index ``m`` owns a random (but constant) binary id that is
multiplied (XOR in binary) with the feature's level hypervector; the
bound vectors are bundled:

    H(X) = sum_m id_m * l(x_m)

Like permutation encoding this captures per-position values, but through
random-id binding instead of shifts.  It was the strongest HDC baseline
in the paper's Table 1 (90.0% mean).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.encoders.base import DEFAULT_DIM, DEFAULT_LEVELS, Encoder, OpProfile
from repro.core.ids import IdTable


class LevelIdEncoder(Encoder):
    """Bundle id-bound level hypervectors, one id per feature index."""

    name = "level-id"

    def __init__(
        self,
        dim: int = DEFAULT_DIM,
        num_levels: int = DEFAULT_LEVELS,
        seed: int = 0,
    ):
        super().__init__(dim=dim, num_levels=num_levels, seed=seed)
        self.ids: IdTable | None = None

    def _allocate(self, X: np.ndarray) -> None:
        self.ids = IdTable(self.rng, self.n_features, self.dim)

    @property
    def max_abs_count(self) -> int:
        """One bound bipolar term per feature."""
        self._check_fitted()
        return int(self.n_features)

    def _encode_chunk(self, X: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        bins = self.quantizer.transform(X)
        lv = self.levels[bins]  # (B, d, dim) int8
        bound = lv * self.ids.all()[None, :, :]
        return bound.sum(axis=1, dtype=np.int32)

    def _op_profile(self) -> OpProfile:
        d = int(self.n_features)
        return OpProfile(
            xor_ops=d * self.dim,
            add_ops=d * self.dim,
            mem_bytes=2 * d * self.dim // 8,
        )
