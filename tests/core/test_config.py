"""ComputeConfig: the one compute-knob API of the model classes."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import ComputeConfig
from repro.core.classifier import HDClassifier
from repro.core.clustering import HDCluster
from repro.core.encoders import GenericEncoder
from repro.core.packed import PackedModel


class TestComputeConfig:
    def test_defaults(self):
        cfg = ComputeConfig()
        assert cfg.encode_jobs is None
        assert cfg.train_engine == "auto"
        assert cfg.train_memory_budget is None

    def test_replace_is_a_copy(self):
        cfg = ComputeConfig(train_engine="gram")
        clone = cfg.replace(encode_jobs=2)
        assert clone.train_engine == "gram" and clone.encode_jobs == 2
        assert cfg.encode_jobs is None  # original untouched
        clone.train_engine = "reference"
        assert cfg.train_engine == "gram"

    def test_pickle_round_trip(self):
        cfg = ComputeConfig(encode_jobs=3, train_engine="gram")
        assert pickle.loads(pickle.dumps(cfg)) == cfg


@pytest.fixture()
def encoder():
    return GenericEncoder(dim=256, num_levels=8, seed=0)


class TestLegacyKwargShims:
    """config= is the only way in; the old per-knob kwargs are gone."""

    @pytest.mark.parametrize("make", [
        lambda enc, **kw: HDClassifier(enc, **kw),
        lambda enc, **kw: HDCluster(enc, k=3, **kw),
    ], ids=["classifier", "cluster"])
    @pytest.mark.parametrize("kwarg", [
        {"engine": "packed"}, {"encode_jobs": 2},
    ], ids=["engine", "encode_jobs"])
    def test_legacy_kwargs_are_rejected(self, encoder, make, kwarg):
        with pytest.raises(TypeError):
            make(encoder, **kwarg)

    def test_classifier_accepts_config_silently(self, encoder):
        clf = HDClassifier(
            encoder, config=ComputeConfig(train_engine="gram",
                                          encode_jobs=2),
        )
        assert clf.config.train_engine == "gram"
        assert clf.config.encode_jobs == 2
        assert encoder.engine == "auto"  # the encoder keeps its own

    def test_cluster_forwards(self, encoder):
        clu = HDCluster(encoder, k=3, config=ComputeConfig(encode_jobs=1))
        assert clu.config.encode_jobs == 1

    def test_config_is_copied_on_ingestion(self, encoder):
        shared = ComputeConfig(encode_jobs=2)
        clf = HDClassifier(encoder, config=shared)
        shared.encode_jobs = 8
        assert clf.config.encode_jobs == 2


class TestRoundTrips:
    """config= must survive with_model, pickling and packing."""

    def test_with_model_carries_config(self, toy_problem, encoder):
        X, y, _, _ = toy_problem
        clf = HDClassifier(
            encoder, epochs=2,
            config=ComputeConfig(train_engine="gram", encode_jobs=2),
        ).fit(X, y)
        clone = clf.with_model(clf.model_ + 1.0)
        assert clone.config == clf.config
        assert clone.config is not clf.config  # independent copies

    def test_pickle_carries_config(self, toy_problem, encoder):
        X, y, _, _ = toy_problem
        clf = HDClassifier(
            encoder, epochs=2, config=ComputeConfig(train_engine="gram"),
        ).fit(X, y)
        thawed = pickle.loads(pickle.dumps(clf))
        assert thawed.config == clf.config
        assert np.array_equal(thawed.predict(X), clf.predict(X))

    def test_packed_from_classifier_merges_config(self, toy_problem, encoder):
        X, y, _, _ = toy_problem
        clf = HDClassifier(encoder, epochs=2).fit(X, y)
        packed = PackedModel.from_classifier(
            clf, config=ComputeConfig(encode_jobs=2)
        )
        assert packed.config.encode_jobs == 2
        assert PackedModel.from_classifier(clf).config == ComputeConfig()
        with pytest.raises(TypeError):
            PackedModel.from_classifier(clf, encode_jobs=3)
        with pytest.raises(TypeError):
            PackedModel.from_classifier(clf, engine="packed")

    def test_packed_inherits_the_classifiers_config(self, toy_problem,
                                                    encoder):
        """Packing keeps the classifier's encode width, directly and when
        ShardedServer.register packs a classifier for its shards."""
        from repro.core.shared import load_meta
        from repro.serve.sharded import ShardedServeConfig, ShardedServer

        X, y, _, _ = toy_problem
        serial = ComputeConfig(encode_jobs=1)
        clf = HDClassifier(encoder, epochs=2, config=serial).fit(X, y)
        packed = PackedModel.from_classifier(clf)
        assert packed.config == serial
        assert packed.config is not clf.config

        server = ShardedServer(ShardedServeConfig(n_shards=1, max_batch=8))
        with server:
            dep = server.register("m", clf)
            assert dep.model.config == serial
            spec = server.executor.specs["m"]
            assert load_meta(spec.meta).config == serial  # what shards load
            preds = server.predict_many("m", X[:8], timeout=60.0)
            assert np.array_equal([p.label for p in preds],
                                  packed.predict(X[:8]))

    def test_packed_with_words_carries_config(self, toy_problem, encoder):
        X, y, _, _ = toy_problem
        clf = HDClassifier(encoder, epochs=2).fit(X, y)
        packed = PackedModel.from_classifier(
            clf, config=ComputeConfig(encode_jobs=2)
        )
        clone = packed.with_words(packed.class_words ^ np.uint64(1))
        assert clone.config == packed.config
        assert clone.config is not packed.config


class TestServeConfigIntegration:
    def test_serve_config_has_no_compute_fields(self):
        from repro.serve import ServeConfig
        from repro.serve.sharded import ShardedServeConfig

        compute = {"config", "engine", "encode_jobs", "train_engine"}
        for cls in (ServeConfig, ShardedServeConfig):
            names = {f.name for f in dataclasses.fields(cls)}
            assert not names & compute
            with pytest.raises(TypeError):
                cls(engine="packed")
