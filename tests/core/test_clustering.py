"""Unit tests for HDC clustering."""

import numpy as np
import pytest

from repro.core.clustering import HDCluster
from repro.core.config import ComputeConfig
from repro.core.encoders import GenericEncoder
from repro.eval.metrics import normalized_mutual_information

DIM = 512


@pytest.fixture
def blobs():
    rng = np.random.default_rng(3)
    centers = np.array([[0.0] * 8, [4.0] * 8, [-4.0] * 8])
    y = rng.integers(0, 3, size=150)
    X = centers[y] + rng.normal(scale=0.5, size=(150, 8))
    order = rng.permutation(150)
    return X[order], y[order]


class TestHDCluster:
    def test_recovers_well_separated_blobs(self, blobs):
        X, y = blobs
        clu = HDCluster(GenericEncoder(dim=DIM, seed=1), k=3, epochs=10).fit(X)
        assert normalized_mutual_information(y, clu.labels_) > 0.8

    def test_labels_in_range(self, blobs):
        X, _ = blobs
        clu = HDCluster(GenericEncoder(dim=DIM, seed=1), k=3, epochs=5).fit(X)
        assert clu.labels_.min() >= 0
        assert clu.labels_.max() < 3

    def test_fit_predict_matches_labels(self, blobs):
        X, _ = blobs
        clu = HDCluster(GenericEncoder(dim=DIM, seed=2), k=3, epochs=5)
        labels = clu.fit_predict(X)
        assert np.array_equal(labels, clu.labels_)

    def test_predict_new_points(self, blobs):
        X, _ = blobs
        clu = HDCluster(GenericEncoder(dim=DIM, seed=1), k=3, epochs=5).fit(X)
        preds = clu.predict(X[:10])
        # points already seen should mostly land in their assigned cluster
        assert np.mean(preds == clu.labels_[:10]) > 0.7

    def test_centroids_shape(self, blobs):
        X, _ = blobs
        clu = HDCluster(GenericEncoder(dim=DIM, seed=1), k=3, epochs=3).fit(X)
        assert clu.centroids_.shape == (3, DIM)

    def test_converges_and_stops_early(self, blobs):
        X, _ = blobs
        clu = HDCluster(GenericEncoder(dim=DIM, seed=1), k=3, epochs=50).fit(X)
        assert clu.epochs_run_ < 50

    def test_k_larger_than_samples_rejected(self):
        clu = HDCluster(GenericEncoder(dim=DIM), k=10)
        with pytest.raises(ValueError):
            clu.fit(np.zeros((5, 4)))

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            HDCluster(GenericEncoder(dim=DIM), k=0)

    def test_predict_before_fit_raises(self):
        clu = HDCluster(GenericEncoder(dim=DIM), k=2)
        with pytest.raises(RuntimeError):
            clu.predict(np.zeros((1, 4)))

    def test_k1_puts_everything_together(self, blobs):
        X, _ = blobs
        clu = HDCluster(GenericEncoder(dim=DIM, seed=1), k=1, epochs=3).fit(X)
        assert (clu.labels_ == 0).all()

    def test_empty_cluster_keeps_centroid(self):
        # two identical points seed two centroids; one cluster will end up
        # empty and must not collapse to a zero centroid
        X = np.ones((10, 6)) * 2.0
        X[0] = 2.0  # duplicates
        clu = HDCluster(GenericEncoder(dim=DIM, seed=4), k=2, epochs=3).fit(X)
        norms = np.linalg.norm(clu.centroids_, axis=1)
        assert (norms > 0).all()


class TestClusterEngineControls:
    def test_encode_jobs_results_identical(self, blobs):
        X, _ = blobs
        serial = HDCluster(GenericEncoder(dim=DIM, seed=1), k=3, epochs=5).fit(X)
        fanned = HDCluster(GenericEncoder(dim=DIM, seed=1), k=3, epochs=5,
                           config=ComputeConfig(encode_jobs=2)).fit(X)
        assert np.array_equal(serial.labels_, fanned.labels_)
        assert np.array_equal(serial.centroids_, fanned.centroids_)
        assert np.array_equal(serial.predict(X[:20]), fanned.predict(X[:20]))

    def test_engine_forwarded_to_encoder(self, blobs):
        X, _ = blobs
        enc = GenericEncoder(dim=DIM, seed=1)
        clu = HDCluster(enc, k=3, epochs=3,
                        config=ComputeConfig(engine="reference"))
        assert enc.engine == "reference"
        ref_labels = clu.fit(X).labels_
        enc2 = GenericEncoder(dim=DIM, seed=1)
        packed = HDCluster(enc2, k=3, epochs=3,
                           config=ComputeConfig(engine="packed")).fit(X)
        assert np.array_equal(ref_labels, packed.labels_)

    def test_engine_rejected_without_support(self):
        class Plain:
            fitted = True
        with pytest.raises(ValueError, match="selectable engine"):
            HDCluster(Plain(), k=2, config=ComputeConfig(engine="packed"))
