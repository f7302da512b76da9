"""Unit tests for the serving metrics: ``server.metrics`` and its instruments.

A server's ``metrics`` is a :class:`repro.obs.registry.Registry` of its
own (namespace ``serve``); the instruments are the obs ones, recorded
into from several worker threads.  The shed policy's recent-p95 window
is :class:`repro.serve.policy.SlidingWindow`.
"""

import json
import threading

import pytest

from repro.obs.registry import Counter, Gauge, Histogram
from repro.serve import InferenceServer, ServeConfig
from repro.serve.policy import SlidingWindow


def _metrics():
    """A fresh (never started) server's metric registry."""
    return InferenceServer(ServeConfig(n_workers=1)).metrics


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_thread_safety(self):
        c = Counter()
        threads = [threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000

    def test_gauge_tracks_max(self):
        g = Gauge()
        g.set(3)
        g.set(7)
        g.set(2)
        assert g.value == 2
        assert g.max == 7


class TestLatencyHistogram:
    """The log-bucketed histogram the server records latencies into."""

    def test_empty(self):
        h = _metrics().histogram("total")
        assert h.count == 0
        assert h.percentile(95) == 0.0
        assert h.mean == 0.0

    def test_percentiles_bracket_samples(self):
        h = Histogram()
        for ms in (1, 2, 3, 4, 100):
            h.record(ms / 1e3)
        # log buckets are approximate: p50 within one growth factor of 3 ms
        assert 2e-3 <= h.percentile(50) <= 3e-3 * 1.35
        # the max lands exactly (overflow tracked as max)
        assert h.percentile(100) == pytest.approx(0.1)
        assert h.count == 5
        assert h.mean == pytest.approx(0.022)

    def test_negative_clamped(self):
        h = Histogram()
        h.record(-1.0)
        assert h.percentile(50) >= 0.0

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_snapshot_keys(self):
        h = Histogram()
        h.record(0.01)
        snap = h.snapshot()
        assert set(snap) == {"count", "mean_s", "p50_s", "p95_s", "p99_s",
                             "min_s", "max_s"}


class TestSlidingWindow:
    def test_empty_is_none(self):
        assert SlidingWindow(4).percentile(95) is None

    def test_exact_percentile(self):
        w = SlidingWindow(100)
        for v in range(1, 101):
            w.record(v)
        assert w.percentile(95) == 95
        assert w.percentile(50) == 50

    def test_window_evicts_old(self):
        w = SlidingWindow(4)
        for v in (100, 100, 1, 1, 1, 1):
            w.record(v)
        assert w.percentile(95) == 1

    def test_bad_size(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)


class TestMetricsHub:
    """``server.metrics``: get-or-create by name, JSON snapshots."""

    def test_get_or_create_is_stable(self):
        hub = _metrics()
        assert hub.counter("a") is hub.counter("a")
        assert hub.gauge("g") is hub.gauge("g")
        assert hub.histogram("h") is hub.histogram("h")

    def test_snapshot_is_json_serializable(self):
        hub = _metrics()
        hub.counter("served").inc(3)
        hub.gauge("depth").set(2)
        hub.histogram("total").record(0.004)
        snap = hub.snapshot()
        parsed = json.loads(json.dumps(snap))
        assert parsed["counters"]["served"] == 3
        assert parsed["gauges"]["depth"]["max"] == 2
        assert parsed["histograms"]["total"]["count"] == 1


class TestThreadHammerRegression:
    """8 writers hammering inc/record must lose nothing.

    ``Counter.inc``/``Histogram.record`` are read-modify-writes; without
    the locked fast path, concurrent workers could drop counts.  Mirrors
    the obs-layer hammer from the server's side (label-less families
    proxy ``inc``/``record`` to their one child).
    """

    N_THREADS = 8
    N_OPS = 2500

    def _run(self, work):
        barrier = threading.Barrier(self.N_THREADS)

        def target():
            barrier.wait()
            work()

        threads = [threading.Thread(target=target)
                   for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_hammer(self):
        c = Counter()
        self._run(lambda: [c.inc() for _ in range(self.N_OPS)])
        assert c.value == self.N_THREADS * self.N_OPS

    def test_histogram_hammer(self):
        h = Histogram()
        self._run(lambda: [h.record(0.002) for _ in range(self.N_OPS)])
        assert h.count == self.N_THREADS * self.N_OPS
        assert h.sum == pytest.approx(self.N_THREADS * self.N_OPS * 0.002)

    def test_hub_instruments_hammer(self):
        hub = _metrics()

        def work():
            for _ in range(self.N_OPS):
                hub.counter("served").inc()
                hub.histogram("total").record(0.001)

        self._run(work)
        snap = hub.snapshot()
        assert snap["counters"]["served"] == self.N_THREADS * self.N_OPS
        assert snap["histograms"]["total"]["count"] == (
            self.N_THREADS * self.N_OPS)


class TestHubRegistryIntegration:
    def test_private_registries_do_not_mix(self):
        a, b = _metrics(), _metrics()
        a.counter("rejected").inc(5)
        assert b.snapshot()["counters"].get("rejected") is None

    def test_injected_registry_is_used(self):
        # the ladder writes its tier gauge into the server's registry
        server = InferenceServer(ServeConfig(n_workers=1))
        server.ladder.force_tier(2)
        snap = server.metrics.snapshot()
        assert snap["gauges"]["degradation_tier"]["value"] == 2

    def test_render_prometheus_namespaced(self):
        server = InferenceServer(ServeConfig(n_workers=1))
        server.metrics.counter("rejected").inc()
        assert "serve_rejected 1" in server.render_prometheus()
