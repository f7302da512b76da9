"""Unit tests for deployments and the hot-swappable model registry."""

import threading
import time

import numpy as np
import pytest

from repro.core.classifier import HDClassifier
from repro.core.encoders import GenericEncoder
from repro.serve.registry import Deployment, ModelRegistry


class TestDeployment:
    def test_classifier_metadata(self, serve_classifier):
        dep = Deployment("m", serve_classifier)
        assert dep.kind == "classifier"
        assert dep.dim == 512
        assert dep.block == 128
        assert dep.min_dim == 128
        assert dep.max_level == 3

    def test_packed_metadata(self, serve_packed):
        dep = Deployment("m", serve_packed)
        assert dep.kind == "packed"
        assert dep.dim == 512
        assert dep.block == 128

    def test_dim_for_level_steps_and_clamps(self, serve_classifier):
        dep = Deployment("m", serve_classifier)
        assert [dep.dim_for_level(k) for k in range(6)] == [
            512, 384, 256, 128, 128, 128
        ]
        assert dep.dim_for_level(-3) == 512

    def test_predict_matches_model_both_kinds(
        self, serve_classifier, serve_packed, serve_queries
    ):
        for model in (serve_classifier, serve_packed):
            dep = Deployment("m", model)
            assert np.array_equal(
                dep.predict(serve_queries), model.predict(serve_queries)
            )

    def test_reduced_dim_matches_model(self, serve_classifier, serve_queries):
        dep = Deployment("m", serve_classifier)
        assert np.array_equal(
            dep.predict(serve_queries, dim=256),
            serve_classifier.predict(serve_queries, dim=256),
        )

    def test_search_treats_full_dim_as_none(self, serve_packed, serve_queries):
        dep = Deployment("m", serve_packed)
        words = dep.encode(serve_queries)
        assert np.array_equal(
            dep.search(words, dim=512), dep.search(words, dim=None)
        )

    def test_unfitted_classifier_rejected(self):
        with pytest.raises(ValueError):
            Deployment("m", HDClassifier(GenericEncoder(dim=256)))

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            Deployment("m", object())

    def test_bad_min_dim_rejected(self, serve_classifier):
        with pytest.raises(ValueError):
            Deployment("m", serve_classifier, min_dim=100)  # not a block multiple
        with pytest.raises(ValueError):
            Deployment("m", serve_classifier, min_dim=1024)  # > dim

    def test_engine_choice_never_changes_predictions(
        self, toy_problem, serve_queries
    ):
        X_train, y_train, _, _ = toy_problem
        outs = []
        for engine in ("reference", "packed"):
            enc = GenericEncoder(dim=512, num_levels=16, seed=11,
                                 engine=engine)
            clf = HDClassifier(enc, epochs=4, seed=11).fit(X_train, y_train)
            dep = Deployment("m", clf)
            assert dep.model.encoder.engine == engine
            outs.append(dep.predict(serve_queries))
        assert np.array_equal(outs[0], outs[1])

    def test_encode_jobs_never_changes_predictions(
        self, serve_classifier, serve_queries
    ):
        serial = Deployment("m", serve_classifier).predict(serve_queries)
        clf = serve_classifier.with_model(serve_classifier.model_)
        clf.config.encode_jobs = 3
        fanned = Deployment("m", clf).predict(serve_queries)
        assert np.array_equal(serial, fanned)

    def test_engine_on_unsupported_encoder_rejected(self, toy_problem):
        from repro.core.encoders import RandomProjectionEncoder

        X_train, y_train, _, _ = toy_problem
        clf = HDClassifier(
            RandomProjectionEncoder(dim=256, seed=1), epochs=1
        ).fit(X_train, y_train)
        # the ladder's engine fallback is a no-op without an engine
        assert not Deployment("m", clf).fallback_engine("reference")

    def test_deployment_copy_shares_the_packed_kernel(self, serve_packed,
                                                      serve_queries):
        serve_packed.encode_packed(serve_queries[:1])  # kernel built
        dep = Deployment("m", serve_packed)
        assert dep.model is not serve_packed
        assert dep.model.encoder is not serve_packed.encoder
        assert dep.model.class_words is serve_packed.class_words
        assert dep.model.encoder._kernel is serve_packed.encoder._kernel
        assert dep.model.encoder._plan is serve_packed.encoder._plan
        assert np.array_equal(dep.encode(serve_queries),
                              serve_packed.encode_packed(serve_queries))


class TestModelRegistry:
    def test_register_and_get(self, serve_classifier):
        reg = ModelRegistry()
        dep = reg.register("a", serve_classifier)
        assert reg.get("a") is dep
        assert dep.version == 1
        assert "a" in reg
        assert reg.names() == ["a"]

    def test_hot_swap_bumps_version(self, serve_classifier, serve_packed):
        reg = ModelRegistry()
        reg.register("a", serve_classifier)
        dep2 = reg.register("a", serve_packed)
        assert dep2.version == 2
        assert reg.get("a").kind == "packed"
        assert len(reg) == 1

    def test_unknown_name_lists_registered(self, serve_classifier):
        reg = ModelRegistry()
        reg.register("a", serve_classifier)
        with pytest.raises(KeyError, match="'a'"):
            reg.get("missing")

    def test_unregister(self, serve_classifier):
        reg = ModelRegistry()
        reg.register("a", serve_classifier)
        reg.unregister("a")
        assert "a" not in reg
        reg.unregister("a")  # idempotent


class TestSwap:
    def test_swap_bumps_version_and_preserves_limits(self, serve_classifier):
        reg = ModelRegistry()
        reg.register("a", serve_classifier, min_dim=256)
        clone = serve_classifier.with_model(serve_classifier.model_.copy())
        dep = reg.swap("a", clone)
        assert dep.version == 2
        assert dep.min_dim == 256
        assert reg.get("a") is dep
        assert reg.swaps == 1

    def test_swap_unknown_name_rejected(self, serve_classifier):
        reg = ModelRegistry()
        with pytest.raises(KeyError, match="register it first"):
            reg.swap("missing", serve_classifier)

    def test_swap_with_dim_order_permutes_queries(self, serve_classifier,
                                                  serve_queries):
        reg = ModelRegistry()
        reg.register("a", serve_classifier)
        before = reg.get("a").predict(serve_queries)
        order = np.random.default_rng(0).permutation(512)
        permuted = serve_classifier.with_model(
            serve_classifier.model_[:, order])
        dep = reg.swap("a", permuted, dim_order=order)
        assert np.array_equal(dep.predict(serve_queries), before)

    def test_bad_dim_order_rejected(self, serve_classifier):
        with pytest.raises(ValueError, match="permutation"):
            Deployment("a", serve_classifier, dim_order=np.zeros(512, int))
        with pytest.raises(ValueError, match="permutation"):
            Deployment("a", serve_classifier, dim_order=np.arange(100))

    def test_dim_order_on_packed_rejected(self, serve_packed):
        with pytest.raises(ValueError):
            Deployment("a", serve_packed, dim_order=np.arange(512))

    def test_engine_fallback_state_survives_swap(self, serve_classifier):
        reg = ModelRegistry()
        dep = reg.register("a", serve_classifier)
        dep.fallback_engine("reference")
        clone = serve_classifier.with_model(serve_classifier.model_.copy())
        new = reg.swap("a", clone)
        # still degraded, and restore undoes it on the new deployment
        assert new.degraded
        assert new.model.encoder.engine == "reference"
        assert serve_classifier.encoder.engine == "auto"
        new.restore_engine()
        assert not new.degraded
        assert new.model.encoder.engine == "auto"

    def test_approx_fallback_state_survives_swap(self, serve_classifier):
        reg = ModelRegistry()
        dep = reg.register("a", serve_classifier)
        assert dep.fallback_approx(0.5)
        folds = dep.model.encoder.approx_folds
        clone = serve_classifier.with_model(serve_classifier.model_.copy())
        new = reg.swap("a", clone)
        assert new.approx_degraded
        assert new.model.encoder.approx_folds == folds
        assert clone.encoder.approx_folds is None
        new.restore_approx()
        assert new.model.encoder.approx_folds is None

    def test_serving_tracks_inflight_and_drain(self, serve_classifier):
        dep = Deployment("a", serve_classifier)
        assert dep.inflight == 0
        assert dep.wait_drained(timeout=0.1)
        with dep.serving():
            assert dep.inflight == 1
            assert not dep.wait_drained(timeout=0.01)
        assert dep.inflight == 0
        assert dep.wait_drained(timeout=0.1)

    def test_swap_with_drain_waits_for_old_version(self, serve_classifier):
        reg = ModelRegistry()
        old = reg.register("a", serve_classifier)
        clone = serve_classifier.with_model(serve_classifier.model_.copy())
        entered = threading.Event()
        release = threading.Event()

        def worker():
            with old.serving():
                entered.set()
                release.wait(5.0)

        t = threading.Thread(target=worker)
        t.start()
        assert entered.wait(5.0)
        done = []
        swapper = threading.Thread(
            target=lambda: done.append(
                reg.swap("a", clone, drain=True, drain_timeout=10.0))
        )
        swapper.start()
        # the new version is visible immediately, drain only blocks return
        deadline = time.monotonic() + 5.0
        while reg.get("a").version != 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert reg.get("a").version == 2
        assert swapper.is_alive()  # still draining the old version
        release.set()
        swapper.join(5.0)
        t.join(5.0)
        assert not swapper.is_alive()
        assert done and done[0].version == 2

    def test_concurrent_get_and_swap_no_torn_reads(self, serve_classifier):
        """Hammer: readers always see an internally consistent deployment."""
        reg = ModelRegistry()
        reg.register("a", serve_classifier)
        stop = threading.Event()
        failures = []
        versions_seen = []

        def swapper():
            marker = 0
            while not stop.is_set():
                marker += 1
                clone = serve_classifier.with_model(
                    serve_classifier.model_.copy())
                clone._marker = marker
                dep = reg.swap("a", clone)
                dep._expected_marker = marker

        def reader():
            last = 0
            while not stop.is_set():
                dep = reg.get("a")
                with dep.serving():
                    # consistency: the deployment's model matches the
                    # marker stamped when that exact version was swapped
                    marker = getattr(dep.model, "_marker", None)
                    expected = getattr(dep, "_expected_marker", None)
                    if marker is not None and expected is not None \
                            and marker != expected:
                        failures.append((marker, expected))
                    if dep.version < last:
                        failures.append(("version went backwards",
                                         dep.version, last))
                    last = dep.version
            versions_seen.append(last)

        threads = [threading.Thread(target=swapper)] + [
            threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(5.0)
        assert failures == []
        assert reg.swaps > 0
        assert max(versions_seen) <= reg.get("a").version
