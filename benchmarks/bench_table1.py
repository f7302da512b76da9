"""Table 1 regeneration: accuracy of HDC encoders and ML baselines.

Prints the per-dataset accuracy table in the paper's column order and
asserts its shape claims (GENERIC best HDC mean, beats classic ML,
lowest STDV, RP/ngram failure modes).  The timed kernels are the
encoding and retraining paths that dominate the table's runtime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import training
from repro.core.classifier import HDClassifier
from repro.core.encoders import GenericEncoder
from repro.datasets import load_dataset
from repro.eval.experiments import table1


_CACHE = {}


def _regenerate(bench_profile):
    """Run the experiment once per session; later tests reuse the result."""
    if "result" not in _CACHE:
        result = table1.run(profile=bench_profile)
        print()
        print(result.render(float_fmt="{:.3f}"))
        _CACHE["result"] = result
    return _CACHE["result"]


@pytest.fixture(scope="module")
def table1_result(bench_profile):
    return _regenerate(bench_profile)


def test_regenerate_and_verify(benchmark, bench_profile):
    """The paper artifact itself: regenerate the rows, assert the claims."""
    result = benchmark.pedantic(
        _regenerate, args=(bench_profile,), rounds=1, iterations=1
    )
    result.assert_claims()


class TestTable1Shape:
    def test_all_claims_hold(self, table1_result):
        table1_result.assert_claims()

    def test_generic_mean_margin_over_best_hdc(self, table1_result):
        """Paper: +3.5% over the best HDC baseline."""
        means = table1_result.data["means"]
        best_other = max(
            v for k, v in means.items()
            if k in table1.HDC_COLUMNS and k != "generic"
        )
        assert means["generic"] - best_other > 0.0

    def test_eleven_dataset_rows(self, table1_result):
        assert len(table1_result.data["table"]) == 11


class TestTable1Kernels:
    @pytest.fixture(scope="class")
    def workload(self, bench_profile):
        ds = load_dataset("ISOLET", bench_profile)
        enc = GenericEncoder(dim=2048, seed=5)
        enc.fit(ds.X_train)
        return ds, enc

    def test_generic_encode_throughput(self, benchmark, workload):
        ds, enc = workload
        batch = ds.X_train[:64]
        benchmark(enc.encode_batch, batch)

    def test_retrain_epoch_speed(self, benchmark, workload):
        ds, enc = workload
        clf = HDClassifier(enc, epochs=0, seed=5)
        clf.fit(ds.X_train[:200], ds.y_train[:200])
        encodings = enc.encode_batch(ds.X_train[:200]).astype(np.float64)
        y_idx = np.searchsorted(clf.classes_, ds.y_train[:200])

        def one_epoch():
            training.retrain(clf, encodings, y_idx)

        benchmark(one_epoch)
