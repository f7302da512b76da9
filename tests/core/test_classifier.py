"""Unit tests for the HDC classifier (training, retraining, inference)."""

import numpy as np
import pytest

from repro.core.classifier import HDClassifier
from repro.core.config import ComputeConfig
from repro.core.encoders import GenericEncoder, LevelIdEncoder

DIM = 256


class TestFitPredict:
    def test_learns_toy_problem(self, toy_problem):
        X_train, y_train, X_test, y_test = toy_problem
        clf = HDClassifier(GenericEncoder(dim=DIM, seed=1), epochs=5, seed=1)
        clf.fit(X_train, y_train)
        assert clf.score(X_test, y_test) > 0.8

    def test_predict_returns_original_labels(self, toy_problem):
        X_train, y_train, _, _ = toy_problem
        labels = np.array(["cat", "dog", "owl"])[y_train]
        clf = HDClassifier(GenericEncoder(dim=DIM, seed=1), epochs=2, seed=1)
        clf.fit(X_train, labels)
        preds = clf.predict(X_train[:10])
        assert set(preds) <= {"cat", "dog", "owl"}

    def test_retraining_improves_train_accuracy(self, toy_problem):
        X_train, y_train, _, _ = toy_problem
        no_retrain = HDClassifier(GenericEncoder(dim=DIM, seed=2), epochs=0, seed=2)
        retrained = HDClassifier(GenericEncoder(dim=DIM, seed=2), epochs=8, seed=2)
        no_retrain.fit(X_train, y_train)
        retrained.fit(X_train, y_train)
        assert retrained.score(X_train, y_train) >= no_retrain.score(X_train, y_train)

    def test_report_tracks_epochs(self, fitted_generic_classifier):
        report = fitted_generic_classifier.report_
        assert report.epochs_run >= 1
        assert len(report.updates_per_epoch) == report.epochs_run
        assert 0.0 <= report.final_train_accuracy <= 1.0

    def test_early_stop_on_zero_updates(self, toy_problem):
        X_train, y_train, _, _ = toy_problem
        # easy problem + many epochs: should converge before the cap
        clf = HDClassifier(GenericEncoder(dim=1024, seed=1), epochs=50, seed=1)
        clf.fit(X_train, y_train)
        assert clf.report_.epochs_run < 50

    def test_model_shape(self, fitted_generic_classifier):
        clf = fitted_generic_classifier
        assert clf.model_.shape == (clf.n_classes, clf.encoder.dim)

    def test_length_mismatch_raises(self):
        clf = HDClassifier(GenericEncoder(dim=DIM))
        with pytest.raises(ValueError):
            clf.fit(np.zeros((5, 4)), np.zeros(4))

    def test_use_before_fit_raises(self):
        clf = HDClassifier(GenericEncoder(dim=DIM))
        with pytest.raises(RuntimeError):
            clf.predict(np.zeros((1, 4)))

    def test_metric_hardware_agrees_with_cosine(self, toy_problem):
        X_train, y_train, X_test, _ = toy_problem
        cos = HDClassifier(GenericEncoder(dim=DIM, seed=3), epochs=3, seed=3,
                           metric="cosine").fit(X_train, y_train)
        hw = HDClassifier(GenericEncoder(dim=DIM, seed=3), epochs=3, seed=3,
                          metric="hardware").fit(X_train, y_train)
        agree = np.mean(cos.predict(X_test) == hw.predict(X_test))
        assert agree > 0.9

    def test_shuffle_off_is_deterministic(self, toy_problem):
        X_train, y_train, X_test, _ = toy_problem
        a = HDClassifier(GenericEncoder(dim=DIM, seed=1), epochs=3, shuffle=False)
        b = HDClassifier(GenericEncoder(dim=DIM, seed=1), epochs=3, shuffle=False)
        a.fit(X_train, y_train)
        b.fit(X_train, y_train)
        assert np.array_equal(a.model_, b.model_)

    def test_norms_consistent_after_retraining(self, fitted_generic_classifier):
        clf = fitted_generic_classifier
        expected = (clf.model_**2).sum(axis=1)
        assert np.allclose(clf.norms_.full_norm2(), expected)


class TestDimensionReduction:
    def test_reduced_prediction_shapes(self, fitted_generic_classifier, toy_problem):
        _, _, X_test, _ = toy_problem
        clf = fitted_generic_classifier
        preds = clf.predict(X_test, dim=128)
        assert preds.shape == (len(X_test),)

    def test_updated_norms_beat_constant_at_low_dims(self, toy_problem):
        X_train, y_train, X_test, y_test = toy_problem
        clf = HDClassifier(GenericEncoder(dim=1024, seed=4), epochs=5, seed=4)
        clf.fit(X_train, y_train)
        updated = clf.score(X_test, y_test, dim=128)
        constant = clf.score(X_test, y_test, dim=128, constant_norms=True)
        assert updated >= constant - 0.02

    def test_full_dim_equals_default(self, fitted_generic_classifier, toy_problem):
        _, _, X_test, _ = toy_problem
        clf = fitted_generic_classifier
        assert np.array_equal(
            clf.predict(X_test), clf.predict(X_test, dim=clf.encoder.dim)
        )

    def test_non_block_dim_rejected(self, fitted_generic_classifier, toy_problem):
        _, _, X_test, _ = toy_problem
        with pytest.raises(ValueError):
            fitted_generic_classifier.predict(X_test, dim=100)


class TestModelSurgery:
    def test_quantized_model_range(self, fitted_generic_classifier):
        q = fitted_generic_classifier.quantized_model(4)
        assert np.abs(q).max() <= 7

    def test_one_bit_model_is_sign(self, fitted_generic_classifier):
        q = fitted_generic_classifier.quantized_model(1)
        assert set(np.unique(q)) <= {-1.0, 1.0}

    def test_bad_bits_rejected(self, fitted_generic_classifier):
        with pytest.raises(ValueError):
            fitted_generic_classifier.quantized_model(0)

    def test_with_model_substitutes(self, fitted_generic_classifier, toy_problem):
        _, _, X_test, _ = toy_problem
        clf = fitted_generic_classifier
        clone = clf.with_model(np.zeros_like(clf.model_))
        # degenerate model: all scores equal -> argmax picks class 0
        preds = clone.predict(X_test)
        assert (preds == clone.classes_[0]).all()
        # original untouched
        assert not np.allclose(clf.model_, 0.0)

    def test_with_model_keeps_quality(self, fitted_generic_classifier, toy_problem):
        _, _, X_test, y_test = toy_problem
        clf = fitted_generic_classifier
        clone = clf.with_model(clf.model_.copy())
        assert clone.score(X_test, y_test) == clf.score(X_test, y_test)

    def test_with_model_preserves_configuration(self, toy_problem):
        # its own classifier: the session-scoped fixture is shared
        X_train, y_train, _, _ = toy_problem
        clf = HDClassifier(
            GenericEncoder(dim=DIM, seed=3), epochs=1, seed=123,
            config=ComputeConfig(train_engine="gram",
                                 train_memory_budget=2**20, encode_jobs=2),
        ).fit(X_train, y_train)
        clone = clf.with_model(clf.model_.copy())
        assert clone.seed == 123
        assert clone.encoder is clf.encoder
        assert clone.config == ComputeConfig(
            encode_jobs=2, train_engine="gram", train_memory_budget=2**20)


class TestEncoderInterplay:
    def test_prefitted_encoder_reused(self, toy_problem):
        X_train, y_train, _, _ = toy_problem
        enc = LevelIdEncoder(dim=DIM, seed=5)
        enc.fit(X_train)
        ids_before = enc.ids.all().copy()
        HDClassifier(enc, epochs=1, seed=5).fit(X_train, y_train)
        assert np.array_equal(enc.ids.all(), ids_before)

    def test_dim_not_multiple_of_block_rejected(self, toy_problem):
        X_train, y_train, _, _ = toy_problem
        clf = HDClassifier(GenericEncoder(dim=200, seed=1), norm_block=128)
        with pytest.raises(ValueError):
            clf.fit(X_train, y_train)


class TestDotMetric:
    def test_dot_metric_trains_and_predicts(self, toy_problem):
        X_train, y_train, X_test, y_test = toy_problem
        clf = HDClassifier(GenericEncoder(dim=DIM, seed=8), epochs=3, seed=8,
                           metric="dot")
        clf.fit(X_train, y_train)
        # raw dot favors large-norm classes but still learns the easy toy
        assert clf.score(X_test, y_test) > 0.7

    def test_unknown_metric_raises_at_predict(self, toy_problem):
        X_train, y_train, X_test, _ = toy_problem
        clf = HDClassifier(GenericEncoder(dim=DIM, seed=8), epochs=0, seed=8,
                           metric="manhattan")
        clf.fit(X_train, y_train)  # no scoring happens with epochs=0
        with pytest.raises(ValueError, match="unknown metric"):
            clf.predict(X_test[:2])
