"""End-to-end distributed tracing across the sharded serving fleet.

The acceptance checks for the observability tentpole:

- one ``trace_id`` follows a request from ``submit`` through the
  batcher into a shard *worker process* and back to the response, with
  the worker's ``serve.encode``/``serve.search`` spans re-parented
  under the submitting request's trace in the exported JSONL;
- an injected chaos kill produces a flight-recorder postmortem bundle
  containing the affected trace;
- the SLO engine's burn-rate gauge reacts within one evaluation
  window under load.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.obs import trace as obs_trace
from repro.obs.export import CollectorSink
from repro.obs.lint import lint_records
from repro.obs.recorder import load_bundle
from repro.obs.slo import SLObjective
from repro.serve.resilience import ChaosPolicy
from repro.serve.server import InferenceServer, ServeConfig
from repro.serve.sharded import ShardedServeConfig, ShardedServer

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory not available",
)

HEX_ID = re.compile(r"^[0-9a-f]{16}$")


def _config(**kw):
    base = dict(n_shards=2, max_batch=8, max_wait=0.002,
                max_shed_level=0, default_deadline=None)
    base.update(kw)
    return ShardedServeConfig(**base)


@pytest.fixture(autouse=True)
def _tracing_isolation():
    obs_trace.reset()
    yield
    obs_trace.reset()


def spans_for(sink, trace_id):
    return [s for s in sink.spans if s.get("trace_id") == trace_id]


def run_traced(server, queries, n=6):
    """Serve ``n`` traced single-request batches; return (sink, preds)."""
    sink = CollectorSink()
    obs_trace.enable_tracing(sink)
    preds = []
    with server:
        for x in queries[:n]:
            # sequential submits so every batch is its own trace leader
            preds.append(server.submit("m", x).result(timeout=60.0))
    obs_trace.disable_tracing()
    return sink, preds


def assert_request_tree(sink, pred):
    """One request's span tree: root <- dispatch <- worker spans."""
    assert pred.trace_id is not None and HEX_ID.match(pred.trace_id)
    spans = spans_for(sink, pred.trace_id)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    root = by_name["serve.request"][0]
    assert root.get("parent_span_id") is None
    assert root["span_id"] and HEX_ID.match(root["span_id"])
    dispatch = by_name["serve.dispatch"][0]
    assert dispatch["parent_span_id"] == root["span_id"]
    # worker spans: emitted in another process, re-parented under the
    # dispatch span of this request's batch
    parent_pid = os.getpid()
    for name in ("serve.encode", "serve.search"):
        workers = by_name[name]
        assert workers, f"no {name} spans for trace {pred.trace_id}"
        for span in workers:
            assert span["parent_span_id"] == dispatch["span_id"]
            assert span["pid"] != parent_pid
    # the whole tree lints clean against the trace schema
    findings = lint_records(enumerate(spans, 1))
    assert [f.message for f in findings] == []


class TestReplicaModeTracing:
    def test_trace_follows_request_into_worker_process(
            self, serve_classifier, serve_queries):
        server = ShardedServer(_config(mode="replica"))
        server.register("m", serve_classifier)
        sink, preds = run_traced(server, serve_queries)
        for pred in preds:
            assert_request_tree(sink, pred)
        # every request got its own trace
        assert len({p.trace_id for p in preds}) == len(preds)

    def test_untraced_requests_carry_no_trace_id(
            self, serve_classifier, serve_queries):
        server = ShardedServer(_config(mode="replica"))
        server.register("m", serve_classifier)
        with server:
            pred = server.submit("m", serve_queries[0]).result(timeout=60.0)
        assert pred.trace_id is None


class TestChaosKillBundle:
    def test_kill_dumps_bundle_with_affected_trace(
            self, serve_classifier, serve_queries, tmp_path):
        chaos = ChaosPolicy(kill_rate=1.0, max_kills=1, seed=3)
        server = ShardedServer(
            _config(max_retries=6, retry_backoff=0.02,
                    postmortem_dir=str(tmp_path)),
            chaos=chaos,
        )
        server.register("m", serve_classifier)
        sink, preds = run_traced(server, serve_queries, n=4)
        assert all(p.label is not None for p in preds)  # retried fine
        bundles = sorted(tmp_path.glob("flight-worker_kill-*.json"))
        assert bundles, "chaos kill produced no postmortem bundle"
        bundle = load_bundle(str(bundles[0]))
        assert bundle["trigger"] == "worker_kill"
        assert any(e["kind"] == "worker_kill" for e in bundle["events"])
        # the bundle names the affected trace and leads with its spans
        affected = bundle["trace_id"]
        assert affected is not None and HEX_ID.match(affected)
        assert affected in {p.trace_id for p in preds}
        assert bundle["spans"][0]["trace_id"] == affected


class TestSLOReaction:
    def test_burn_rate_reacts_within_one_window(self, serve_classifier,
                                                serve_queries):
        slo = SLObjective(
            "latency", target=0.9, latency_threshold_s=1e-9,
            windows=(0.5, 2.0), burn_threshold=2.0,
        )
        server = InferenceServer(ServeConfig(
            max_batch=4, n_workers=2, slos=[slo],
        ))
        server.register("m", serve_classifier)
        with server:
            futs = [server.submit("m", x) for x in serve_queries[:20]]
            for f in futs:
                f.result(timeout=30.0)
            snap = server.stats()["slo"]["latency"]
            prom = server.render_prometheus()
        # every request misses a 1 ns latency target: the short window
        # saturates within this (sub-window-length) burst
        assert snap["burn"]["0.5s"] >= 2.0
        assert snap["breaching"] is True
        assert 'serve_slo_burn_rate{slo="latency",window="0.5s"}' in prom
        assert 'serve_slo_breaching{slo="latency"} 1.0' in prom

    def test_healthy_load_does_not_breach(self, serve_classifier,
                                          serve_queries):
        slo = SLObjective("latency", target=0.9,
                          latency_threshold_s=30.0, windows=(0.5, 2.0))
        server = InferenceServer(ServeConfig(
            max_batch=4, n_workers=2, slos=[slo],
        ))
        server.register("m", serve_classifier)
        with server:
            futs = [server.submit("m", x) for x in serve_queries[:10]]
            for f in futs:
                f.result(timeout=30.0)
            snap = server.stats()["slo"]["latency"]
        assert snap["breaching"] is False
        assert snap["burn"]["0.5s"] == 0.0
