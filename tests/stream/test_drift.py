"""Drift detector: triggers, baselines, cooldown."""

import numpy as np
import pytest

from repro.stream import DriftConfig, DriftDetector

CFG = dict(window=50, warmup=50, cooldown=50)


def feed(det, n, margin=2.0, correct=True, pred=None, jitter=0.0, seed=0):
    """Feed n samples with the given margin/pred/correctness; return events."""
    gen = np.random.default_rng(seed)
    events = []
    for i in range(n):
        m = margin + (gen.normal(scale=jitter) if jitter else 0.0)
        p = (i % det.n_classes) if pred is None else pred
        label = p if correct else (p + 1) % det.n_classes
        ev = det.observe([m], [p], [label])
        if ev is not None:
            events.append(ev)
    return events


class TestConfig:
    def test_unknown_trigger_rejected(self):
        with pytest.raises(ValueError, match="unknown drift triggers"):
            DriftConfig(triggers=("margin", "entropy"))

    def test_bad_alpha_and_drop_rejected(self):
        with pytest.raises(ValueError):
            DriftConfig(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            DriftConfig(margin_drop=1.0)


class TestMargins:
    def test_top1_top2_gap(self):
        scores = np.array([[0.9, 0.7, 0.1], [0.2, 0.8, 0.75]])
        m = DriftDetector.margins_from_scores(scores)
        assert np.allclose(m, [0.2, 0.05])

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            DriftDetector.margins_from_scores(np.array([[1.0]]))


class TestTriggers:
    def test_stable_stream_never_fires(self):
        det = DriftDetector(4, DriftConfig(**CFG))
        events = feed(det, 500, margin=2.0, jitter=0.1)
        assert events == []
        assert det.drift_score() < 1.0

    def test_margin_collapse_fires(self):
        det = DriftDetector(4, DriftConfig(**CFG, triggers=("margin",)))
        feed(det, 100, margin=2.0)
        events = feed(det, 60, margin=0.2)
        assert len(events) == 1
        assert events[0].reason == "margin"
        assert events[0].score >= 1.0
        assert events[0].window_margin < events[0].baseline_margin

    def test_error_jump_fires(self):
        det = DriftDetector(4, DriftConfig(**CFG, triggers=("error",)))
        feed(det, 100, correct=True)
        events = feed(det, 60, correct=False)
        assert len(events) == 1
        assert events[0].reason == "error"
        assert events[0].window_error > events[0].baseline_error

    def test_prior_shift_fires(self):
        det = DriftDetector(4, DriftConfig(**CFG, triggers=("prior",)))
        feed(det, 100)  # balanced predictions
        events = feed(det, 60, pred=0)  # everything collapses onto class 0
        assert len(events) == 1
        assert events[0].reason == "prior"
        assert events[0].prior_l1 > 0.6

    def test_disabled_trigger_stays_silent(self):
        det = DriftDetector(4, DriftConfig(**CFG, triggers=("error",)))
        feed(det, 100, margin=2.0)
        assert feed(det, 100, margin=0.01) == []  # margin collapsed, no fire

    def test_cooldown_blocks_immediate_refire(self):
        det = DriftDetector(4, DriftConfig(**CFG, triggers=("margin",)))
        feed(det, 100, margin=2.0)
        first = feed(det, 50, margin=0.2)
        assert len(first) == 1
        # the fire re-warmed the detector: the collapsed margin becomes
        # the new baseline, so the same regime change never refires
        assert feed(det, 100, margin=0.2) == []

    def test_refires_on_second_regime_change(self):
        det = DriftDetector(4, DriftConfig(**CFG, triggers=("margin",)))
        feed(det, 100, margin=2.0)
        assert len(feed(det, 60, margin=0.5)) == 1
        feed(det, 100, margin=0.5)  # settle into the new regime
        assert len(feed(det, 60, margin=0.05)) == 1  # drifts again


class TestState:
    def test_warmup_gates_firing(self):
        det = DriftDetector(4, DriftConfig(window=20, warmup=500, cooldown=10,
                                           triggers=("margin",)))
        feed(det, 100, margin=2.0)
        assert feed(det, 100, margin=0.1) == []  # armed only past warmup

    def test_reset_baselines_reseeds(self):
        det = DriftDetector(4, DriftConfig(**CFG, triggers=("margin",)))
        feed(det, 100, margin=2.0)
        det.reset_baselines()
        # low margins become the *new* baseline, so no event fires
        assert feed(det, 120, margin=0.2) == []

    def test_state_snapshot(self):
        det = DriftDetector(4, DriftConfig(**CFG))
        feed(det, 80, margin=1.5)
        s = det.state()
        assert s["samples_seen"] == 80
        assert s["window_margin"] == pytest.approx(1.5)
        assert s["events"] == 0

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            DriftDetector(1)

    def test_shape_mismatch_rejected(self):
        det = DriftDetector(3)
        with pytest.raises(ValueError, match="mismatch"):
            det.observe([1.0, 2.0], [0])

    def test_reset_from_another_thread(self):
        # a stream loop feeds the detector while its trainer thread
        # resets it after a swap; neither may see half-reset baselines
        import sys
        import threading
        import time

        det = DriftDetector(4, DriftConfig(window=8, warmup=8, cooldown=8))
        stop = threading.Event()
        errors = []

        def feeder():
            try:
                while not stop.is_set():
                    det.observe([1.0] * 8, [0, 1, 2, 3] * 2,
                                [0, 1, 2, 3] * 2)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=feeder)
            thread.start()
            end = time.perf_counter() + 0.5
            while time.perf_counter() < end and not errors:
                det.reset_baselines()
                det.drift_score()
            stop.set()
            thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
