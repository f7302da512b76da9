"""Replay buffer semantics and the background retraining thread."""

import threading
import time

import numpy as np
import pytest

from repro.stream import BackgroundTrainer, ReplayBuffer


class TestReplayBuffer:
    def test_fills_then_wraps_in_arrival_order(self):
        buf = ReplayBuffer(capacity=5, dim=2)
        for i in range(8):
            buf.append(np.full((1, 2), i), [i])
        enc, y = buf.snapshot()
        assert len(buf) == 5
        assert y.tolist() == [3, 4, 5, 6, 7]
        assert np.array_equal(enc[:, 0], [3, 4, 5, 6, 7])
        assert buf.total_appended == 8

    def test_block_append_spanning_the_wrap(self):
        buf = ReplayBuffer(capacity=4, dim=1)
        buf.append(np.arange(3).reshape(3, 1), [0, 1, 2])
        buf.append(np.arange(3, 6).reshape(3, 1), [3, 4, 5])
        _, y = buf.snapshot()
        assert y.tolist() == [2, 3, 4, 5]

    def test_oversized_block_keeps_newest(self):
        buf = ReplayBuffer(capacity=3, dim=1)
        buf.append(np.arange(10).reshape(10, 1), np.arange(10))
        _, y = buf.snapshot()
        assert y.tolist() == [7, 8, 9]

    def test_snapshot_is_a_copy(self):
        buf = ReplayBuffer(capacity=3, dim=1)
        buf.append([[1.0]], [1])
        enc, _ = buf.snapshot()
        enc[:] = 99
        assert buf.snapshot()[0][0, 0] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0, dim=4)
        buf = ReplayBuffer(capacity=4, dim=3)
        with pytest.raises(ValueError, match="dim"):
            buf.append(np.zeros((2, 5)), [0, 1])
        with pytest.raises(ValueError, match="labels"):
            buf.append(np.zeros((2, 3)), [0])


@pytest.fixture
def drifted_window(stream_classifier, drift_stream):
    """Post-drift encodings+labels the pretrained model now gets wrong."""
    X, y, phase = drift_stream
    post = np.nonzero(phase >= 1.0)[0][:400]
    enc = stream_classifier.encoder.encode_batch(X[post])
    return enc, y[post]


class TestBackgroundTrainer:
    def test_retrain_recovers_and_swaps(self, stream_classifier, drifted_window):
        enc, labels = drifted_window
        swapped = []
        trainer = BackgroundTrainer(
            lambda: stream_classifier,
            lambda clone, reason: swapped.append((clone, reason)),
            epochs=3,
        ).start()
        try:
            assert trainer.request(enc[:300], labels[:300], reason="margin")
            assert trainer.wait_idle(timeout=30.0)
        finally:
            trainer.stop()
        (clone, reason), = swapped
        assert reason == "margin"
        assert clone is not stream_classifier
        # the base model is untouched; the clone learned the new regime
        hold_enc, hold_y = enc[300:], labels[300:]
        base_acc = np.mean(
            stream_classifier.predict_encoded(
                np.asarray(hold_enc, np.float64)) == hold_y)
        clone_acc = np.mean(
            clone.predict_encoded(np.asarray(hold_enc, np.float64)) == hold_y)
        assert base_acc < 0.5
        assert clone_acc > base_acc + 0.3
        assert trainer.retrains == 1
        assert trainer.last_report.epochs_run <= 3

    def test_gram_engine_selected_for_integer_window(
            self, stream_classifier, drifted_window):
        enc, labels = drifted_window
        clones = []
        trainer = BackgroundTrainer(
            lambda: stream_classifier, lambda c, r: clones.append(c)
        ).start()
        try:
            trainer.request(enc, labels)
            assert trainer.wait_idle(timeout=30.0)
        finally:
            trainer.stop()
        assert clones[0].train_plan_.engine == "gram"

    def test_integer_window_trains_on_float32_exactly(
            self, stream_classifier, drifted_window):
        # an int32 window retrains on float32 encodings (the encoder's
        # counts fit its significand) and lands on the very model and
        # norm table a float64 copy of the same window trains to
        enc, labels = drifted_window
        clones = []
        trainer = BackgroundTrainer(
            lambda: stream_classifier, lambda c, r: clones.append(c),
            epochs=3,
        ).start()
        try:
            for window in (enc, np.asarray(enc, np.float64)):
                assert trainer.request(window, labels)
                assert trainer.wait_idle(timeout=30.0)
        finally:
            trainer.stop()
        f32, f64 = clones
        assert enc.dtype == np.int32
        assert f32.train_plan_.encodings_dtype == "float32"
        assert f64.train_plan_.encodings_dtype == "float64"
        np.testing.assert_array_equal(f32.model_, f64.model_)
        np.testing.assert_array_equal(f32.norms_.table, f64.norms_.table)

    def test_warm_init_keeps_old_rows_as_start(self, stream_classifier,
                                               drifted_window):
        enc, labels = drifted_window
        clones = []
        trainer = BackgroundTrainer(
            lambda: stream_classifier, lambda c, r: clones.append(c),
            epochs=1, init="warm",
        ).start()
        try:
            trainer.request(enc[:100], labels[:100])
            assert trainer.wait_idle(timeout=30.0)
        finally:
            trainer.stop()
        assert trainer.retrains == 1

    def test_request_without_start_rejected(self, drifted_window):
        enc, labels = drifted_window
        trainer = BackgroundTrainer(lambda: None, lambda c, r: None)
        assert not trainer.request(enc, labels)
        assert trainer.rejected == 1

    def test_min_interval_debounces(self, stream_classifier, drifted_window):
        enc, labels = drifted_window
        trainer = BackgroundTrainer(
            lambda: stream_classifier, lambda c, r: None,
            epochs=1, min_interval=60.0,
        ).start()
        try:
            assert trainer.request(enc[:50], labels[:50])
            trainer.wait_idle(timeout=30.0)
            assert not trainer.request(enc[:50], labels[:50])
        finally:
            trainer.stop()
        assert trainer.rejected == 1

    def test_empty_window_rejected(self, stream_classifier):
        trainer = BackgroundTrainer(
            lambda: stream_classifier, lambda c, r: None).start()
        try:
            assert not trainer.request(np.empty((0, 512)), np.empty(0))
        finally:
            trainer.stop()

    def test_unknown_labels_fail_without_killing_thread(
            self, stream_classifier, drifted_window):
        enc, _ = drifted_window
        ok = []
        trainer = BackgroundTrainer(
            lambda: stream_classifier, lambda c, r: ok.append(c), epochs=1,
        ).start()
        try:
            trainer.request(enc[:10], np.full(10, 999))  # labels never seen
            assert trainer.wait_idle(timeout=30.0)
            assert trainer.failed == 1
            assert trainer.running
            # and it still works afterwards
            trainer.request(enc[:50], drifted_window[1][:50])
            assert trainer.wait_idle(timeout=30.0)
        finally:
            trainer.stop()
        assert trainer.retrains == 1 and len(ok) == 1

    def test_latest_request_wins(self, stream_classifier, drifted_window):
        enc, labels = drifted_window
        reasons = []
        gate = threading.Event()

        def slow_source():
            gate.wait(5.0)
            return stream_classifier

        trainer = BackgroundTrainer(
            slow_source, lambda c, r: reasons.append(r), epochs=1,
        ).start()
        try:
            trainer.request(enc[:50], labels[:50], reason="first")
            time.sleep(0.1)  # let the thread block inside slow_source
            trainer.request(enc[:50], labels[:50], reason="second")
            trainer.request(enc[:50], labels[:50], reason="third")
            gate.set()
            assert trainer.wait_idle(timeout=30.0)
        finally:
            trainer.stop()
        # "first" ran; "second" was overwritten by "third" while queued
        assert "second" not in reasons and "third" in reasons

    def test_bad_init_rejected(self, stream_classifier):
        with pytest.raises(ValueError, match="retrain init"):
            BackgroundTrainer(lambda: stream_classifier, lambda c, r: None,
                              init="cold")
