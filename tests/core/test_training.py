"""Tests for the retraining engines (repro.core.training).

The load-bearing property: the ``gram`` engine must be **result
identical** to the sequential reference loop for the paper's ±h rule --
same model matrix, same sub-norm table, same per-epoch update counts
and accuracies -- across metrics, shuffle settings and encoders.
"""

import math

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
         encoder="generic", epochs=6, dim=256, **compute):
    X, y = _workload()
    ids = {} if use_ids else {"use_ids": False}  # a GENERIC-only option
    enc = make_encoder(encoder, dim=dim, num_levels=16, seed=2, **ids)
    clf = HDClassifier(enc, epochs=epochs, metric=metric, shuffle=shuffle,
                       seed=9,
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

    @pytest.mark.parametrize("encoder", sorted(ENCODERS))
    def test_auto_resolves_to_gram_and_matches(self, encoder):
        auto = _fit("auto", encoder=encoder)
        assert auto.train_plan_.engine == "gram"
        assert auto.train_plan_.exact
        ref = _fit("reference", encoder=encoder)
        assert sum(ref.report_.updates_per_epoch) > 0  # non-trivial run
        _assert_identical(ref, auto)

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


# -- float32 passes of the fit: each taken exactly when its guard holds ----


_F32 = 2**24


def _exact_h2(E):
    """Row squared norms in Python integers."""
    return [sum(int(v) ** 2 for v in row) for row in E]


def _boundary_row(dim, target):
    """An integer row with ``||row||²`` of exactly ``target`` (greedy)."""
    row, left = np.zeros(dim), int(target)
    for k in range(dim):
        v = math.isqrt(left)
        row[k], left = v, left - v * v
    assert left == 0
    return row


class TestFloat32Paths:
    """The float32 ``h2``, dot-cache limbs and class sums, at their limits."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 12),
           offset=st.sampled_from([-2, -1, 0, 1, 2, None]),
           epochs=st.integers(1, 4))
    def test_h2_pass_is_exact_exactly_below_its_limit(self, seed, n, offset,
                                                      epochs):
        rng = np.random.default_rng(seed)
        E = rng.integers(-40, 41, size=(n, 16)).astype(np.float64)
        if offset is not None:  # one row at 2**24 + offset
            E[rng.integers(n)] = rng.permutation(
                _boundary_row(16, _F32 + offset))
        E32 = E.astype(np.float32)
        exact = _exact_h2(E)
        below = max(exact) < _F32
        h2 = np.empty(n)
        assert training._exact_h2_f32(E32, h2) == below
        if below:
            assert h2.tolist() == exact
        assert not training._exact_h2_f32(E, np.empty(n))  # float64 E
        # the plan's h2 and decisions equal the float64 plan's either way
        plans = {}
        for name, enc in (("f32", E32), ("f64", E)):
            out = np.empty(n)
            plans[name] = plan_retraining(enc, 3, epochs, engine="gram",
                                          assume_integral=True, h2=out)
            assert out.tolist() == exact
        assert plans["f32"].exact == plans["f64"].exact
        assert plans["f32"].kernel_dtype == plans["f64"].kernel_dtype == (
            "float32" if below else "float64")

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(3, 11),
           dim=st.sampled_from([4, 16, 64]), delta=st.integers(-2, 2),
           sign=st.sampled_from([-1, 1]))
    def test_limb_guard_and_dot_cache(self, seed, k, dim, delta, sign):
        """``max ||hi||·max ||h||`` at 2**24 + delta·2**k: limbs iff below."""
        rng = np.random.default_rng(seed)
        n, n_classes = 6, 3
        E = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
        E[0] = 0.0
        E[0, 0] = 2.0**k  # max ||h||² = 4**k >= dim
        h2_max = max(_exact_h2(E))
        assert h2_max == 4**k
        shift = max([s for s in range(25)
                     if 4**s * dim * max(h2_max, 1) < _F32**2] + [0])
        model = rng.integers(-50, 51, size=(n_classes, dim)).astype(np.float64)
        # ||hi_1||·max ||h|| = 2**24 + delta·2**k
        model[1] = 0.0
        model[1, 0] = (sign * (2 ** (24 - k) + delta) * 2**shift
                       + rng.integers(0, 2**shift))
        hi = np.floor(model / 2.0**shift)
        guard = max(sum(int(v) ** 2 for v in r) for r in hi) * h2_max < _F32**2
        got = training._limb_shift(model, float(h2_max))
        assert got == (shift if guard else None)
        E32 = E.astype(np.float32)
        exact = model @ E.T  # integers far below 2**53: exact
        np.testing.assert_array_equal(training._class_dots(model, E32, got),
                                      exact)
        np.testing.assert_array_equal(training._class_dots(model, E32), exact)
        plan = plan_retraining(E32, n_classes, 1, engine="gram",
                               assume_integral=True, model=model)
        assert plan.dot_shift == (got if plan.exact else None)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), count=st.integers(2, 40),
           delta=st.integers(-2, 2), n_classes=st.integers(1, 4))
    def test_class_sums_in_float32_exactly_below_the_limit(
            self, seed, count, delta, n_classes):
        """Largest class times the count bound at 2**24 + delta."""
        rng = np.random.default_rng(seed)
        bound = -(-(_F32 + delta) // count)  # count·bound just past the edge
        y = np.concatenate([np.zeros(count, dtype=np.intp),
                            rng.integers(0, n_classes, size=count // 2)])
        counts = np.bincount(y, minlength=n_classes)
        E = rng.integers(-bound, bound + 1, size=(len(y), 8)).astype(np.float64)
        E[y == 0, 0] = bound  # class 0's first sum: count·bound
        E32 = E.astype(np.float32)
        assert np.array_equal(E32, E)  # every count is held exactly
        expect = np.array([E[y == c].astype(np.int64).sum(axis=0)
                           for c in range(n_classes)], dtype=np.float64)
        f32 = int(counts.max()) * bound < _F32
        seen = []
        real_sum = np.ndarray.sum

        class Spy(np.ndarray):
            pass

        def spy(self, *args, **kw):
            seen.append(np.dtype(kw.get("dtype")).name)
            return real_sum(np.asarray(self), *args, **kw)

        Spy.sum = spy
        for enc in (E32, E):
            seen.clear()
            got = training.class_sums(enc.view(Spy), y, n_classes, bound)
            np.testing.assert_array_equal(got, expect)
            assert set(seen) == {"float32" if f32 and enc is E32
                                 else "float64"}

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 10),
           delta=st.integers(-3, 3), epochs=st.integers(1, 3),
           metric=st.sampled_from(["cosine", "dot"]))
    def test_growth_bound_at_2_pow_52(self, seed, n, delta, epochs, metric):
        """``B = max ||M0_c|| + epochs·Σ ||h_i||`` at 2**26 + delta."""
        rng = np.random.default_rng(seed)
        E = np.zeros((n, 8))
        E[:, 0] = rng.integers(1, 9, size=n) * rng.choice([-1, 1], size=n)
        y = rng.integers(0, 2, size=n)
        model = np.zeros((2, 8))
        model[0, 0] = 2**26 + delta - epochs * int(np.abs(E[:, 0]).sum())
        below = (2**26 + delta) ** 2 < 2**52
        plan = plan_retraining(E.astype(np.float32), 2, epochs,
                               assume_integral=True, model=model)
        assert plan.exact == below
        assert plan.engine == ("gram" if below else "reference")
        fits = {}
        for engine in ("reference", "auto"):
            clf = HDClassifier(None, epochs=epochs, metric=metric, seed=1,
                               norm_block=4,
                               config=ComputeConfig(train_engine=engine))
            clf.classes_ = np.arange(2)
            clf.model_ = model.copy()
            clf.norms_ = SubNormTable(2, 8, block=4)
            clf.norms_.recompute(clf.model_)
            clf.report_ = training.retrain(clf, E.astype(np.float32), y)
            fits[engine] = clf
        assert fits["auto"].train_plan_.engine == plan.engine
        _assert_same_training(fits["reference"], fits["auto"])


class TestStartingModel:
    """The exactness proof covers the model retraining starts from."""

    def _plan(self, model):
        E = np.random.default_rng(0).integers(-5, 6, size=(20, 16))
        return plan_retraining(E.astype(np.float32), 3, 4,
                               assume_integral=True, model=model)

    def test_small_integer_start_is_exact(self):
        plan = self._plan(np.full((3, 16), 7.0))
        assert plan.engine == "gram" and plan.exact

    @pytest.mark.parametrize("model", [
        np.full((3, 16), 0.5),                 # non-integer
        np.full((3, 16), 2.0**30),             # B² past 2**52
        np.full((3, 16), np.nan),
    ])
    def test_large_or_non_integer_start_resolves_to_reference(self, model):
        plan = self._plan(model)
        assert plan.engine == "reference" and not plan.exact

    def test_retrain_from_a_non_integer_model(self):
        init = _fit("auto", epochs=0)
        clf = init.with_model(init.model_ + 0.25)
        clf.epochs = 3
        X, y = _workload()
        E = clf.encoder.encode_batch(X)
        training.retrain(clf, E, np.searchsorted(clf.classes_, y))
        assert clf.train_plan_.engine == "reference"
        assert not clf.train_plan_.exact

    @pytest.mark.parametrize("offset", ["quarter", "noise"])
    def test_fitted_classifier_rechecks_non_integer_encodings(self, offset):
        """A fit's integer counts vouch for nothing retrained later."""
        clf = _fit("auto")
        assert clf.train_plan_.engine == "gram" and clf.train_plan_.exact
        X, y = _workload()
        E = clf.encoder.encode_batch(X)
        E = E + (0.25 if offset == "quarter"
                 else np.random.default_rng(0).normal(0.0, 0.1, E.shape))
        training.retrain(clf, E, np.searchsorted(clf.classes_, y))
        assert clf.train_plan_.engine == "reference"
        assert not clf.train_plan_.exact


class TestForecastColumns:
    def _provider(self, E, forecast, budget):
        plan = plan_retraining(E, 2, 3, engine="gram", assume_integral=True,
                               budget_bytes=budget)
        return training._ColumnProvider(E, plan, forecast=forecast)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forecast_columns_equal_single_columns(self, dtype):
        E = np.random.default_rng(1).integers(
            -9, 10, size=(64, 32)).astype(dtype)
        exact = E.astype(np.float64) @ E.astype(np.float64).T
        cols = self._provider(E, np.array([5, 9, 2]), budget=None)
        assert cols.kernel is None  # 3 columns: below the break-even (4)
        for i in (9, 5, 9, 40, 2):
            np.testing.assert_array_equal(cols.column(i), exact[i])
        assert cols.computed == 4  # distinct columns used, not fetched

    def test_unforecast_columns_build_k_at_the_break_even(self):
        E = np.random.default_rng(2).integers(
            -9, 10, size=(64, 32)).astype(np.float32)
        cols = self._provider(E, np.array([0, 1]), budget=None)
        for i in range(64 // training._GEMM_GAIN):
            cols.column(i)
        assert cols.kernel is None
        cols.column(1)  # seen before: from the cache
        assert cols.kernel is None
        cols.column(63)
        assert cols.kernel is not None
        assert cols.computed == 64 // training._GEMM_GAIN


class TestFitPhases:
    def test_fit_reports_every_phase(self):
        report = _fit("gram").report_
        assert set(report.phase_seconds) == {
            "init", "plan", "dots", "columns", "loop"}
        assert all(v >= 0.0 for v in report.phase_seconds.values())

    def test_retrain_without_init_and_reference_loop(self):
        clf = _fit("reference")
        assert set(clf.report_.phase_seconds) == {"init", "plan", "loop"}
        X, y = _workload()
        report = training.retrain(clf, clf.encoder.encode_batch(X),
                                  np.searchsorted(clf.classes_, y))
        assert set(report.phase_seconds) == {"plan", "loop"}

    def test_init_and_plan_spans_nest_in_train(self):
        from repro.obs import trace as obs_trace
        from repro.obs.export import CollectorSink

        sink = CollectorSink()
        obs_trace.enable_tracing(sink)
        try:
            _fit("gram")
        finally:
            obs_trace.disable_tracing()
        paths = {r["name"]: r["path"] for r in sink.spans}
        assert paths["train.init"] == "train/train.init"
        assert paths["train.plan"] == "train/train.plan"

    def test_plan_prints_its_dtypes(self):
        plan = _fit("gram").train_plan_
        assert plan.dot_shift is not None  # float32 E, integer model
        text = str(plan)
        assert "kernel_dtype=float32" in text
        assert "encodings_dtype=float32" in text
