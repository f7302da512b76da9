"""Tests for the retraining engines (repro.core.training).

The load-bearing property: the ``gram`` engine must be **result
identical** to the sequential reference loop for the paper's ±h rule --
same model matrix, same sub-norm table, same per-epoch update counts
and accuracies -- across metrics, shuffle settings and encoders.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import training
from repro.core.classifier import HDClassifier
from repro.core.config import ComputeConfig
from repro.core.encoders import GenericEncoder
from repro.core.encoders.registry import ENCODERS, make_encoder
from repro.core.norms import SubNormTable
from repro.core.online import AdaptiveHDClassifier
from repro.core.training import (
    DEFAULT_TRAIN_BUDGET,
    TRAIN_ENGINES,
    TrainPlan,
    plan_retraining,
)


def _workload(n=160, n_features=8, n_classes=5, noise=0.3, seed=3):
    """Gaussian clusters with flipped labels so retraining keeps firing."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, n_features)) * 2.0
    y = rng.integers(0, n_classes, size=n)
    X = centers[y] + rng.normal(size=(n, n_features))
    flip = rng.random(n) < noise
    y[flip] = rng.integers(0, n_classes, size=int(flip.sum()))
    return X, y


def _fit(engine, metric="cosine", shuffle=True, use_ids=True,
         cls=HDClassifier, epochs=6, dim=256, **compute):
    X, y = _workload()
    enc = GenericEncoder(dim=dim, num_levels=16, seed=2, use_ids=use_ids)
    clf = cls(enc, epochs=epochs, metric=metric, shuffle=shuffle, seed=9,
              config=ComputeConfig(train_engine=engine, **compute))
    clf.fit(X, y)
    return clf


def _assert_identical(ref, gram):
    assert np.array_equal(ref.model_, gram.model_)
    assert np.array_equal(ref.norms_.table, gram.norms_.table)
    assert ref.report_.epochs_run == gram.report_.epochs_run
    assert ref.report_.updates_per_epoch == gram.report_.updates_per_epoch
    assert (ref.report_.train_accuracy_per_epoch
            == gram.report_.train_accuracy_per_epoch)


class TestGramIdentity:
    @pytest.mark.parametrize("metric", ["cosine", "dot", "hardware"])
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_identical_across_metrics_and_shuffle(self, metric, shuffle):
        ref = _fit("reference", metric=metric, shuffle=shuffle)
        gram = _fit("gram", metric=metric, shuffle=shuffle)
        assert sum(ref.report_.updates_per_epoch) > 0  # non-trivial run
        _assert_identical(ref, gram)

    def test_identical_without_position_ids(self):
        _assert_identical(_fit("reference", use_ids=False),
                          _fit("gram", use_ids=False))

    def test_auto_resolves_to_gram_and_matches(self):
        auto = _fit("auto")
        assert auto.train_plan_.engine == "gram"
        assert auto.train_plan_.exact
        _assert_identical(_fit("reference"), auto)

    def test_same_predictions(self):
        X, _ = _workload(seed=11)
        ref, gram = _fit("reference"), _fit("gram")
        assert np.array_equal(ref.predict(X), gram.predict(X))

    def test_column_kernel_matches_precomputed(self):
        # budget large enough for G but not for K -> on-demand columns
        ref = _fit("reference")
        n, n_classes = 160, len(ref.classes_)
        tight = n_classes * n * 8 + n * 8 + 4 * n * 8
        gram = _fit("gram", train_memory_budget=tight)
        assert gram.train_plan_.kernel == "columns"
        _assert_identical(ref, gram)


class TestEncodeFanOut:
    """The default config fans fit's encode out; the fit must not change."""

    def _fit_with(self, config):
        # D=8192 holds 128 rows per packed chunk: 300 rows are 3 chunks
        X, y = _workload(n=300, n_features=16)
        enc = GenericEncoder(dim=8192, num_levels=16, seed=2)
        return HDClassifier(enc, epochs=4, seed=9, config=config).fit(X, y)

    def test_default_fit_matches_serial_encode(self):
        fanned = self._fit_with(ComputeConfig())
        serial = self._fit_with(ComputeConfig(encode_jobs=1))
        assert fanned.config.encode_jobs is None
        assert np.array_equal(fanned.classes_, serial.classes_)
        assert sum(serial.report_.updates_per_epoch) > 0  # non-trivial
        _assert_identical(serial, fanned)
        assert fanned.train_plan_ == serial.train_plan_

    @pytest.mark.parametrize("name", sorted(ENCODERS))
    def test_every_encoder_returns_integer_counts(self, name):
        """``fit`` trusts integral float64 encodings without a scan."""
        X, _ = _workload(n=40, n_features=16)
        enc = make_encoder(name, dim=256, num_levels=16, seed=2).fit(X)
        out = enc.encode_batch(X, dtype=np.float64)
        assert np.array_equal(out, np.trunc(out))


class TestGramColumnPolicy:
    """``K`` is built only once a fit has used enough distinct columns."""

    @staticmethod
    def _fit_on(X, y, engine):
        enc = GenericEncoder(dim=256, num_levels=16, seed=2)
        return HDClassifier(enc, epochs=6, seed=9,
                            config=ComputeConfig(train_engine=engine),
                            ).fit(X, y)

    def test_few_updates_stay_lazy(self):
        X, y = _workload(n=600, noise=0.0)
        ref = self._fit_on(X, y, "reference")
        gram = self._fit_on(X, y, "gram")
        assert gram.train_plan_.kernel == "precomputed"  # K would fit
        assert gram.report_.gram_kernel_built is False
        assert 0 < gram.report_.gram_columns <= 600 // training._GEMM_GAIN
        _assert_identical(ref, gram)

    def test_noisy_fit_builds_k_for_its_first_update(self):
        # ~40 of 160 initial mispredictions forecast far more columns
        # than the break-even (3): no column is computed on its own
        ref, gram = _fit("reference"), _fit("gram")
        assert gram.report_.gram_kernel_built is True
        assert gram.report_.gram_columns == 0
        _assert_identical(ref, gram)

    def test_use_crosses_the_break_even_mid_epoch(self, monkeypatch):
        # a costlier GEMM puts the break-even (53 columns) above the
        # forecast, so the fit starts lazy and builds K in epoch two
        monkeypatch.setattr(training, "_GEMM_GAIN", 3)
        ref, gram = _fit("reference"), _fit("gram")
        report = gram.report_
        assert report.gram_kernel_built is True
        assert report.gram_columns == 160 // 3
        assert (report.updates_per_epoch[0] < report.gram_columns
                < sum(report.updates_per_epoch[:2]))
        _assert_identical(ref, gram)

    def test_column_plan_never_builds_k(self):
        n, n_classes = 160, 5
        tight = n_classes * n * 8 + n * 8 + 4 * n * 8
        gram = _fit("gram", train_memory_budget=tight)
        assert gram.train_plan_.kernel == "columns"
        assert gram.report_.gram_kernel_built is False
        assert gram.report_.gram_columns > 4  # more than it could cache

    def test_reference_report_has_no_column_stats(self):
        report = _fit("reference").report_
        assert report.gram_columns is None
        assert report.gram_kernel_built is None

    def test_train_span_records_the_policy(self):
        from repro.obs import trace as obs_trace
        from repro.obs.export import CollectorSink

        sink = CollectorSink()
        obs_trace.enable_tracing(sink)
        try:
            gram = _fit("gram")
        finally:
            obs_trace.disable_tracing()
        (train,) = [r for r in sink.spans if r["name"] == "train"]
        assert train["attrs"]["gram_columns"] == 0
        assert train["attrs"]["gram_kernel_built"] is True

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
    def test_bound_stats_bit_equal_to_the_abs_copy(self, n):
        E = np.random.default_rng(n).integers(
            -90, 91, size=(n, 70)).astype(np.float64)
        col_l1, col_max = training._bound_stats(E)
        np.testing.assert_array_equal(col_l1, np.abs(E).sum(axis=0))
        np.testing.assert_array_equal(col_max, np.abs(E).max(axis=0))


class TestAdaptiveEngine:
    def test_auto_uses_reference_for_adaptive_rule(self):
        clf = _fit("auto", cls=AdaptiveHDClassifier)
        assert clf.train_plan_.engine == "reference"
        assert not clf.train_plan_.exact

    def test_explicit_gram_agrees_to_rounding(self):
        ref = _fit("reference", cls=AdaptiveHDClassifier)
        gram = _fit("gram", cls=AdaptiveHDClassifier)
        assert gram.train_plan_.engine == "gram"
        assert ref.report_.updates_per_epoch == gram.report_.updates_per_epoch
        np.testing.assert_allclose(ref.model_, gram.model_, rtol=1e-9)
        np.testing.assert_allclose(ref.norms_.table, gram.norms_.table,
                                   rtol=1e-9)


class TestPlanning:
    def test_invalid_engine_rejected(self):
        enc = GenericEncoder(dim=128, num_levels=4, seed=0)
        with pytest.raises(ValueError, match="train engine"):
            HDClassifier(enc, config=ComputeConfig(train_engine="turbo"))
        with pytest.raises(ValueError, match="train engine"):
            plan_retraining(np.ones((4, 8)), 2, 1, engine="turbo")

    def test_reference_requested_is_honored(self):
        plan = plan_retraining(np.ones((4, 8)), 2, 1, engine="reference")
        assert plan.engine == "reference" and plan.reason == "requested"

    def test_zero_epochs_falls_back(self):
        plan = plan_retraining(np.ones((4, 8)), 2, 0, engine="auto")
        assert plan.engine == "reference"

    def test_non_integer_encodings_fall_back(self):
        rng = np.random.default_rng(0)
        plan = plan_retraining(rng.normal(size=(16, 32)), 3, 5, engine="auto")
        assert plan.engine == "reference" and not plan.exact

    def test_budget_fallback(self):
        enc = np.ones((64, 32))
        plan = plan_retraining(enc, 4, 5, engine="auto", budget_bytes=1024)
        assert plan.engine == "reference"
        assert "budget" in plan.reason

    def test_budget_fallback_through_classifier(self):
        clf = _fit("auto", train_memory_budget=64)
        assert clf.train_plan_.engine == "reference"

    def test_default_budget_and_plan_shape(self):
        enc = np.full((32, 64), 3.0)
        plan = plan_retraining(enc, 4, 5, engine="auto")
        assert isinstance(plan, TrainPlan)
        assert plan.budget_bytes == DEFAULT_TRAIN_BUDGET
        assert plan.engine == "gram" and plan.kernel == "precomputed"
        assert plan.kernel_dtype == "float32"  # small ints: f32 is exact
        assert plan.cache_bytes <= plan.budget_bytes

    def test_huge_magnitudes_not_proven_exact(self):
        enc = np.full((8, 16), 2.0**40)
        plan = plan_retraining(enc, 2, 20, engine="auto")
        assert plan.engine == "reference" and not plan.exact

    def test_engines_tuple_is_public(self):
        assert TRAIN_ENGINES == ("auto", "reference", "gram")


class TestReport:
    def test_retrain_seconds_recorded(self):
        clf = _fit("gram")
        assert clf.report_.seconds is not None
        assert clf.report_.seconds >= 0.0

    def test_training_module_reexported(self):
        from repro.core import TRAIN_ENGINES as exported
        assert exported is training.TRAIN_ENGINES


# -- float32 encodings ------------------------------------------------------


def _retrain_on(E, y_idx, n_classes, engine, metric="dot", shuffle=True,
                epochs=4, block=4, budget=None):
    """Initialize and retrain a classifier straight on the encodings ``E``."""
    clf = HDClassifier(None, epochs=epochs, metric=metric, shuffle=shuffle,
                       seed=1, norm_block=block,
                       config=ComputeConfig(train_engine=engine,
                                            train_memory_budget=budget))
    clf.classes_ = np.arange(n_classes)
    clf.model_ = training.class_sums(E, y_idx, n_classes)
    clf.norms_ = SubNormTable(n_classes, E.shape[1], block=block)
    clf.norms_.recompute(clf.model_)
    clf.report_ = training.retrain(clf, E, y_idx)
    return clf


def _assert_same_training(a, b):
    assert np.array_equal(a.model_, b.model_)
    assert np.array_equal(a.norms_.table, b.norms_.table)
    assert a.report_.updates_per_epoch == b.report_.updates_per_epoch


def _tied_encodings(seed, n=12, dim=8, n_classes=3, big=4097):
    """Small counts plus a ``±big`` first dimension: near-tied scores.

    Class sums cancel the big dimension often, so scores tie to within
    a few units and one rounded Gram entry changes an arg-max.  With
    ``big > 4096`` every ``||h_i||²`` exceeds 2**24.
    """
    rng = np.random.default_rng(seed)
    E = rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
    E[:, 0] = rng.choice([-1, 1], n) * big
    return E, rng.integers(0, n_classes, n)


class TestFloat32Encodings:
    @pytest.mark.parametrize("name", sorted(ENCODERS))
    def test_paper_fit_trains_on_float32_when_exact(self, name):
        X, y = _workload(n=60, n_features=16)
        enc = make_encoder(name, dim=256, num_levels=16, seed=2)
        clf = HDClassifier(enc, epochs=2, seed=9).fit(X, y)
        bounded = enc.max_abs_count is not None
        assert bounded == (name != "rp")  # random projection: unbounded
        assert clf.train_plan_.encodings_dtype == (
            "float32" if bounded else "float64")
        assert clf.train_plan_.engine == "gram"

    @pytest.mark.parametrize("name", sorted(ENCODERS))
    def test_counts_stay_within_the_bound(self, name):
        X, _ = _workload(n=40, n_features=16)
        enc = make_encoder(name, dim=256, num_levels=4, seed=2).fit(X)
        if enc.max_abs_count is not None:
            assert np.abs(enc.encode_batch(X)).max() <= enc.max_abs_count

    def test_adaptive_fit_keeps_float64(self):
        clf = _fit("gram", cls=AdaptiveHDClassifier)
        assert clf.train_plan_.encodings_dtype == "float64"

    @pytest.mark.parametrize("engine", TRAIN_ENGINES)
    def test_fit_equals_the_float64_fit(self, engine, monkeypatch):
        f32 = _fit(engine)
        assert f32.train_plan_.encodings_dtype == "float32"
        # an encoder that admits only float64 gives the parent's float64 E
        monkeypatch.setattr(
            GenericEncoder, "holds_counts",
            lambda self, dtype: np.dtype(dtype) != np.float32)
        f64 = _fit(engine)
        assert f64.train_plan_.encodings_dtype == "float64"
        _assert_identical(f64, f32)
        assert f64.train_plan_.kernel_dtype == f32.train_plan_.kernel_dtype

    def test_fit_peak_memory_stays_below_float64_encodings(self):
        """n=2048, D=4096: a float64 ``E`` alone would be 64 MiB."""
        import tracemalloc

        X, y = _workload(n=2048, n_features=16, n_classes=4, noise=0.25)
        enc = GenericEncoder(dim=4096, num_levels=16, seed=2).fit(X)
        clf = HDClassifier(enc, epochs=2, seed=9,
                           config=ComputeConfig(encode_jobs=1))
        tracemalloc.start()
        try:
            clf.fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert clf.train_plan_.encodings_dtype == "float32"
        assert clf.report_.gram_kernel_built  # K is part of the peak
        assert peak < 2048 * 4096 * 8


class TestFloat32Exactness:
    """Retraining on a float32 ``E`` equals retraining on its float64 copy."""

    @pytest.mark.parametrize("engine", TRAIN_ENGINES)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 20),
           dim=st.sampled_from([4, 8, 16]), n_classes=st.integers(2, 4),
           above=st.booleans(),
           metric=st.sampled_from(["cosine", "dot", "hardware"]),
           shuffle=st.booleans())
    def test_float32_equals_float64(self, engine, seed, n, dim, n_classes,
                                    above, metric, shuffle):
        big = 4097 + seed % 900 if above else 1 + seed % 1400
        E, y = _tied_encodings(seed, n, dim, n_classes, big)
        assert (np.einsum("ij,ij->i", E, E).max() >= 2**24) == above
        args = (y, n_classes, engine, metric, shuffle)
        f64 = _retrain_on(E, *args)
        f32 = _retrain_on(E.astype(np.float32), *args)
        _assert_same_training(f64, f32)
        if f64.train_plan_.engine == "gram":
            assert f32.train_plan_.kernel_dtype == (
                "float64" if above else "float32")

    @pytest.mark.parametrize("budget", [None, 512])
    def test_rounding_case_takes_the_float64_fallback(self, budget,
                                                      monkeypatch):
        """Float32 rounds here; without the fallback the fit diverges."""
        E, y = _tied_encodings(seed=2)
        E32 = E.astype(np.float32)
        exact_h2 = np.einsum("ij,ij->i", E, E)
        assert not np.array_equal(np.einsum("ij,ij->i", E32, E32), exact_h2)
        assert not np.array_equal(E32 @ E32.T, E @ E.T)
        ref = _retrain_on(E, y, 3, "reference")
        for engine in TRAIN_ENGINES:
            fit = _retrain_on(E32, y, 3, engine, budget=budget)
            _assert_same_training(ref, fit)
        gram = _retrain_on(E32, y, 3, "gram", budget=budget)
        assert gram.train_plan_.kernel == (
            "precomputed" if budget is None else "columns")
        # float32 columns / K past the bound change the update sequence
        monkeypatch.setattr(training, "_EXACT_LIMIT_F32", np.inf)
        lossy = _retrain_on(E32, y, 3, "gram", budget=budget)
        assert lossy.train_plan_.kernel_dtype == "float32"
        assert lossy.report_.updates_per_epoch != ref.report_.updates_per_epoch

    def test_kernel_dtype_follows_the_row_norm_bound(self):
        # one 3000 per row: col_max² · D = 5.8e8 (the old float32 test
        # failed) but every ||h||² = 9e6 < 2**24
        E = np.zeros((64, 64))
        E[np.arange(64), np.arange(64)] = 3000.0
        plan = plan_retraining(E, 2, 3, engine="gram")
        assert plan.kernel_dtype == "float32"
        E[0, 1] = 3000.0  # ||h_0||² = 1.8e7 >= 2**24
        plan = plan_retraining(E, 2, 3, engine="gram")
        assert plan.kernel_dtype == "float64"

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
    def test_blocked_passes_match_whole_array_math(self, n, monkeypatch):
        # 64 float64 rows of 70 per block, so n straddles block edges
        monkeypatch.setattr(training, "_BLOCK_BYTES", 64 * 70 * 8)
        rng = np.random.default_rng(n)
        E = rng.integers(-90, 91, size=(n, 70)).astype(np.float64)
        y = rng.integers(0, 3, n)
        E32 = E.astype(np.float32)
        h2 = np.empty(n)
        col_l1, col_max = training._bound_stats(E32, h2=h2)
        np.testing.assert_array_equal(col_l1, np.abs(E).sum(axis=0))
        np.testing.assert_array_equal(col_max, np.abs(E).max(axis=0))
        np.testing.assert_array_equal(h2, np.einsum("ij,ij->i", E, E))
        model = training.class_sums(E32, y, 3)
        np.testing.assert_array_equal(model, np.eye(3)[y].T @ E)
        np.testing.assert_array_equal(training._class_dots(model, E32),
                                      model @ E.T)
        np.testing.assert_array_equal(
            training._block_norm2(E32[:, :64], 4, 16),
            np.einsum("ijk,ijk->ij", *[E[:, :64].reshape(n, 4, 16)] * 2))
