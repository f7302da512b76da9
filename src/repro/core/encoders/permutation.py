"""Permutation encoding (paper Section 2.2, Fig. 2b).

Binding by circular shift: the level hypervector of the ``m``-th feature
is permuted by ``m`` indexes before bundling:

    H(X) = sum_m rho^m( l(x_m) )

Positional order is captured through the shift amount, so the encoding
works for spatio-temporal data but enforces strict global ordering (it
fails when the discriminative structure is order-free, e.g. LANG).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.encoders.base import Encoder, OpProfile


class PermutationEncoder(Encoder):
    """Bundle per-feature levels, each circularly shifted by its index."""

    name = "permute"

    @property
    def max_abs_count(self) -> int:
        """One shifted bipolar level per feature."""
        self._check_fitted()
        return int(self.n_features)

    def _encode_chunk(self, X: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        bins = self.quantizer.transform(X)
        d = self.n_features
        acc = np.zeros((len(X), self.dim), dtype=np.int32)
        # Shift-by-m is equivalent to gathering at (k - m) mod D; rolling a
        # (B, D) slice per feature keeps the working set small.
        for m in range(d):
            lv = self.levels[bins[:, m]]
            if m % self.dim:
                lv = np.roll(lv, m % self.dim, axis=1)
            acc += lv
        return acc

    def _op_profile(self) -> OpProfile:
        d = int(self.n_features)
        return OpProfile(
            add_ops=d * self.dim,
            mem_bytes=d * self.dim // 8,
            notes={"shifts": d},
        )
