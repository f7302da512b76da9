"""End-to-end stream loop: drift -> retrain -> hot swap -> recovery."""

import numpy as np
import pytest

from repro.serve.server import InferenceServer, ServeConfig
from repro.stream import DriftConfig, StreamConfig, StreamLoop

PRETRAIN = 600
CHUNK = 50


@pytest.fixture
def loop_rig(stream_classifier):
    server = InferenceServer(ServeConfig(n_workers=1))
    cfg = StreamConfig(
        model_name="m", chunk_size=CHUNK, replay_capacity=300,
        drift=DriftConfig(window=100, warmup=100, cooldown=100,
                          margin_drop=0.3),
    )
    loop = StreamLoop(server, stream_classifier, cfg)
    with server, loop:
        yield server, loop


def drive(loop, X, y, start=PRETRAIN, stop=None, synchronous=True):
    reports = []
    for i in range(start, stop or len(X), CHUNK):
        reports.append(loop.process(X[i:i + CHUNK], y[i:i + CHUNK]))
        if synchronous:
            assert loop.wait_idle(timeout=30.0)
    return reports


class TestStreamLoop:
    def test_registers_the_deployment(self, loop_rig):
        server, loop = loop_rig
        assert "m" in server.registry
        assert server.registry.get("m").version == 1

    def test_drift_triggers_retrain_and_recovery(self, loop_rig,
                                                 drift_stream):
        server, loop = loop_rig
        X, y, phase = drift_stream
        reports = drive(loop, X, y)
        assert loop.swaps >= 1
        assert loop.trainer.failed == 0
        assert server.registry.get("m").version == 1 + server.registry.swaps
        # prequential accuracy over the fully-drifted tail recovered
        post = [r for r, i in zip(reports, range(PRETRAIN, len(X), CHUNK))
                if phase[i] >= 1.0]
        tail_acc = np.mean([r.accuracy for r in post[-5:]])
        assert tail_acc > 0.8
        # and the loop's base model was rebound to the retrained version
        post_idx = phase >= 1.0
        assert loop.clf.score(X[post_idx], y[post_idx]) > 0.8

    def test_static_model_would_have_collapsed(self, stream_classifier,
                                               drift_stream):
        X, y, phase = drift_stream
        post = phase >= 1.0
        assert stream_classifier.score(X[post], y[post]) < 0.5

    def test_reports_are_prequential(self, loop_rig, drift_stream):
        server, loop = loop_rig
        X, y, _ = drift_stream
        r = loop.process(X[PRETRAIN:PRETRAIN + CHUNK],
                         y[PRETRAIN:PRETRAIN + CHUNK])
        assert r.samples == CHUNK
        assert 0.0 <= r.accuracy <= 1.0
        assert r.preds.shape == (CHUNK,)
        assert r.model_version == 1
        assert len(loop.buffer) == CHUNK  # scored first, then buffered

    def test_unlabeled_chunks_feed_detector_not_buffer(self, loop_rig,
                                                       drift_stream):
        server, loop = loop_rig
        X, _, _ = drift_stream
        r = loop.process(X[PRETRAIN:PRETRAIN + CHUNK])
        assert r.accuracy is None
        assert len(loop.buffer) == 0
        assert loop.detector.samples_seen == CHUNK

    def test_gauges_and_counters_exported(self, loop_rig, drift_stream):
        server, loop = loop_rig
        X, y, _ = drift_stream
        drive(loop, X, y, stop=PRETRAIN + 4 * CHUNK)
        snap = server.metrics.snapshot()
        assert snap["counters"]["stream_chunks"] == 4
        assert "stream_drift_score" in snap["gauges"]

    def test_shed_level_triggers_regeneration(self, loop_rig, drift_stream):
        server, loop = loop_rig
        X, y, _ = drift_stream
        server.policy.force_level(2)
        drive(loop, X, y, stop=PRETRAIN + CHUNK)
        assert loop.regens == 1
        dep = server.registry.get("m")
        assert dep.dim_order is not None
        # same version: no second regeneration while shed persists
        drive(loop, X, y, start=PRETRAIN + CHUNK, stop=PRETRAIN + 2 * CHUNK)
        assert loop.regens == 1

    def test_ladder_dim_shed_hook_regenerates(self, loop_rig,
                                              stream_classifier):
        server, loop = loop_rig
        server.ladder.force_tier(3)  # dim_shed tier fires the hook
        assert loop.regens == 1
        assert server.registry.get("m").dim_order is not None
        # the lower tiers flipped only the deployment's encoder copy
        assert stream_classifier.encoder.engine == "auto"
        assert stream_classifier.encoder.approx_folds is None

    def test_serving_continues_across_swaps(self, loop_rig, drift_stream):
        server, loop = loop_rig
        X, y, _ = drift_stream
        futures = [server.submit("m", X[i]) for i in range(300)]
        drive(loop, X, y, stop=1800, synchronous=False)
        assert loop.wait_idle(timeout=60.0)
        preds = [f.result(timeout=10.0) for f in futures]
        assert len(preds) == 300  # nothing dropped or hung during swaps
        assert loop.swaps >= 1

    def test_stats_shape(self, loop_rig, drift_stream):
        server, loop = loop_rig
        X, y, _ = drift_stream
        drive(loop, X, y, stop=PRETRAIN + 2 * CHUNK)
        s = loop.stats()
        assert s["chunks"] == 2
        assert set(s) >= {"swaps", "regens", "model_version", "encoder",
                          "drift", "trainer", "replay"}

    def test_unfitted_classifier_rejected(self, stream_classifier):
        from repro.core.classifier import HDClassifier
        from repro.core.encoders import GenericEncoder

        server = InferenceServer(ServeConfig(n_workers=1))
        with pytest.raises(RuntimeError):
            StreamLoop(server, HDClassifier(GenericEncoder(dim=256)))
