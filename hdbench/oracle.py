"""Answer oracle: what every served or trained result must equal.

The oracle is deliberately independent of the packed path it checks.
Queries are encoded once with a ``GenericEncoder(engine="reference")``
fitted on the same training inputs, and class signs come from the
trained classifier's integer model, never from the packed words the
server holds.  A served answer is checked at the dimension and model
version its :class:`~repro.serve.workers.Prediction` reports, so an
answer shed to a shorter prefix is compared with the argmin over that
prefix rather than with the full-dimension label.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

WORD_BITS = 64


def negative_bits(values: np.ndarray) -> np.ndarray:
    """Sign bits the packed model stores: 1 where a value is negative."""
    return (np.asarray(values) < 0).astype(np.float32)


class AnswerOracle:
    """Hamming-argmin labels for a query pool at any served prefix.

    ``query_encodings`` are reference-engine encodings of the pool,
    ``class_model`` the trained (integer) class matrix and
    ``class_labels`` the label of each class row.  ``version`` is the
    model version the server must report.
    """

    def __init__(self, query_encodings: np.ndarray, class_model: np.ndarray,
                 class_labels: np.ndarray, version: int = 1):
        self.q = negative_bits(query_encodings)
        self.c = negative_bits(class_model)
        self.labels = np.asarray(class_labels)
        self.version = int(version)
        self.dim = self.q.shape[1]
        self._by_dim: Dict[int, np.ndarray] = {}

    def hamming(self, dim: int) -> np.ndarray:
        """(pool, classes) Hamming distances over the first ``dim`` bits."""
        q, c = self.q[:, :dim], self.c[:, :dim]
        agree = q @ c.T + (1.0 - q) @ (1.0 - c).T
        return np.rint(dim - agree).astype(np.int64)

    def labels_at(self, dim: int) -> np.ndarray:
        """Expected label of every pool query at served prefix ``dim``."""
        if dim not in self._by_dim:
            self._by_dim[dim] = self.labels[np.argmin(self.hamming(dim), axis=1)]
        return self._by_dim[dim]

    def valid_dim(self, dim: int) -> bool:
        return 0 < dim <= self.dim and dim % WORD_BITS == 0

    def right(self, query: int, label, dim: int, version: int) -> bool:
        """Is ``label`` the answer for pool query ``query`` at ``dim``?"""
        return (version == self.version and self.valid_dim(dim)
                and label == self.labels_at(dim)[query])

    def check(self, answers: Iterable[Tuple[int, object, int, int]]) -> int:
        """Count wrong answers among ``(query, label, dim, version)``."""
        return sum(not self.right(*answer) for answer in answers)


def packed_rows_match(class_words: np.ndarray, class_model: np.ndarray) -> bool:
    """Do packed class words hold exactly the sign bits of ``class_model``?"""
    words = np.asarray(class_words, dtype=np.uint64)
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    bits = ((words[:, :, None] >> shifts) & np.uint64(1)).reshape(len(words), -1)
    dim = class_model.shape[1]
    return bits.shape[1] >= dim and np.array_equal(
        bits[:, :dim].astype(np.float32), negative_bits(class_model)
    )
