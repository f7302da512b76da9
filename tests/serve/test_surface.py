"""Serving-core conformance: both executors, one contract.

The threaded :class:`InferenceServer` and the process-sharded
:class:`ShardedServer` are the same :class:`~repro.serve.server.Server`
over different executors.  Both must emit
:func:`~repro.serve.server.validate_stats`-clean ``stats()`` snapshots
with identical required top-level keys, and keep the counters of
admitted requests reconciled, so consumers (stream loop, benches, fleet
aggregator) can treat them interchangeably.
"""

from __future__ import annotations

import collections
import os
import threading
from concurrent.futures import wait

import numpy as np
import pytest

from repro.serve import (
    STATS_OPTIONAL_KEYS,
    ChaosPolicy,
    STATS_REQUIRED_KEYS,
    Executor,
    InferenceServer,
    ServeConfig,
    Server,
    validate_stats,
)
from repro.serve.sharded import ShardedServeConfig, ShardedServer

needs_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory not available",
)


@pytest.fixture(scope="module")
def thread_server(serve_classifier):
    server = InferenceServer(ServeConfig(n_workers=1, max_batch=8))
    server.register("m", serve_classifier)
    with server:
        yield server


@pytest.fixture(scope="module")
def sharded_server(serve_classifier):
    if not os.path.isdir("/dev/shm"):
        pytest.skip("POSIX shared memory not available")
    server = ShardedServer(ShardedServeConfig(
        n_shards=2, max_batch=8, max_wait=0.002, default_deadline=None,
    ))
    server.register("m", serve_classifier)
    with server:
        yield server


class TestProtocol:
    def test_both_backends_satisfy_the_protocol(self, thread_server,
                                                sharded_server):
        # each executor implements the calls the core cannot default
        for server in (thread_server, sharded_server):
            executor = type(server.executor)
            assert issubclass(executor, Executor)
            for name in ("start", "stop", "busy_seconds"):
                assert getattr(executor, name) is not getattr(Executor, name)

    def test_both_backends_share_the_base(self, thread_server,
                                          sharded_server):
        assert isinstance(thread_server, Server)
        assert isinstance(sharded_server, Server)


class TestStatsSchema:
    def test_thread_stats_validate(self, thread_server):
        thread_server.predict("m", np.zeros(24), timeout=30.0)
        snap = thread_server.stats()
        validate_stats(snap)
        assert set(snap) == STATS_REQUIRED_KEYS

    @needs_shm
    def test_sharded_stats_validate(self, sharded_server):
        sharded_server.predict("m", np.zeros(24), timeout=30.0)
        snap = sharded_server.stats()
        validate_stats(snap)
        assert set(snap) == STATS_REQUIRED_KEYS | STATS_OPTIONAL_KEYS

    @needs_shm
    def test_required_keys_agree_across_backends(self, thread_server,
                                                 sharded_server):
        thread_keys = set(thread_server.stats())
        sharded_keys = set(sharded_server.stats())
        assert thread_keys <= sharded_keys
        assert sharded_keys - thread_keys <= STATS_OPTIONAL_KEYS
        for key in ("queue", "policy", "resilience"):
            assert (set(thread_server.stats()[key])
                    == set(sharded_server.stats()[key]))

    def test_validate_rejects_missing_and_unknown_keys(self, thread_server):
        snap = thread_server.stats()
        broken = dict(snap)
        broken.pop("queue")
        with pytest.raises(ValueError, match="missing required"):
            validate_stats(broken)
        extra = dict(snap)
        extra["workers"] = {}  # the old pre-schema drift key
        with pytest.raises(ValueError, match="unknown top-level"):
            validate_stats(extra)

    def test_validate_rejects_malformed_nested_dicts(self, thread_server):
        snap = thread_server.stats()
        bad = dict(snap)
        bad["policy"] = {"level": 0}
        with pytest.raises(ValueError, match="policy"):
            validate_stats(bad)
        bad = dict(snap)
        bad["deployments"] = {"m": {"kind": "classifier"}}
        with pytest.raises(ValueError, match="deployments"):
            validate_stats(bad)

    def test_illegal_extra_stats_fail_fast(self, serve_classifier):
        rogue = InferenceServer(ServeConfig(n_workers=1))
        rogue.executor.annotate_stats = (
            lambda snap: snap.update(not_in_schema=1))
        rogue.register("m", serve_classifier)
        with pytest.raises(RuntimeError, match="outside the stats schema"):
            rogue.stats()


class TestPredictEncoded:
    def test_thread_parity_with_direct_model(self, thread_server,
                                             serve_classifier,
                                             serve_queries):
        dep = thread_server.registry.get("m")
        encoded = dep.encode(serve_queries[:16])
        via_server = thread_server.predict_encoded("m", encoded)
        direct = serve_classifier.predict_encoded(encoded)
        np.testing.assert_array_equal(via_server, direct)

    def test_thread_dim_reduction_passthrough(self, thread_server,
                                              serve_classifier,
                                              serve_queries):
        dep = thread_server.registry.get("m")
        encoded = dep.encode(serve_queries[:8])
        via_server = thread_server.predict_encoded("m", encoded, dim=256)
        direct = serve_classifier.predict_encoded(encoded, dim=256)
        np.testing.assert_array_equal(via_server, direct)

    @needs_shm
    def test_sharded_parity_with_packed_model(self, sharded_server,
                                              serve_packed, serve_queries):
        dep = sharded_server.registry.get("m")
        encoded = dep.encode(serve_queries[:16])
        via_server = sharded_server.predict_encoded("m", encoded)
        direct = serve_packed.predict_packed(
            serve_packed.encode_packed(serve_queries[:16]))
        np.testing.assert_array_equal(via_server, direct)

    def test_matches_the_submit_path(self, thread_server, serve_queries):
        batch = serve_queries[:8]
        dep = thread_server.registry.get("m")
        side_door = thread_server.predict_encoded("m", dep.encode(batch))
        queued = [p.label for p in
                  thread_server.predict_many("m", batch, timeout=30.0)]
        np.testing.assert_array_equal(side_door, queued)


class TestUtilization:
    def test_thread_worker_utilization_shape(self, thread_server,
                                             serve_queries):
        thread_server.predict_many("m", serve_queries[:8], timeout=30.0)
        util = thread_server.worker_utilization()
        assert set(util) >= {"busy_seconds", "served"}
        assert len(util["busy_seconds"]) == len(util["served"])

    @needs_shm
    def test_sharded_worker_utilization_shape(self, sharded_server,
                                              serve_queries):
        sharded_server.predict_many("m", serve_queries[:8], timeout=60.0)
        util = sharded_server.worker_utilization()
        assert set(util) >= {"busy_seconds", "served"}
        assert len(util["busy_seconds"]) == 2  # one entry per shard


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_counters_reconcile_under_chaos(executor, serve_classifier,
                                        serve_queries):
    """Every admitted request ends exactly once: served, failed or expired.

    Chaos faults, kills and already-spent deadlines exercise the retry,
    failure and expiry paths of either executor; afterwards
    ``submitted == served + errors + deadline_expired`` and every future
    resolved exactly once.
    """
    if executor == "process" and not os.path.isdir("/dev/shm"):
        pytest.skip("POSIX shared memory not available")
    chaos = ChaosPolicy(fault_rate=0.2, kill_rate=0.02, max_kills=2, seed=21)
    knobs = dict(max_batch=8, max_retries=2, retry_backoff=0.001,
                 max_shed_level=0)
    if executor == "thread":
        server = InferenceServer(ServeConfig(n_workers=2, **knobs),
                                 chaos=chaos)
    else:
        server = ShardedServer(ShardedServeConfig(n_shards=2, **knobs),
                               chaos=chaos)
    server.register("m", serve_classifier)
    n = 300
    resolutions = collections.Counter()
    lock = threading.Lock()

    def count(i):
        def done(_):
            with lock:
                resolutions[i] += 1
        return done

    with server:
        futures = []
        for i in range(n):
            fut = server.submit("m", serve_queries[i % len(serve_queries)],
                                deadline=1e-6 if i % 25 == 0 else 60.0)
            fut.add_done_callback(count(i))
            futures.append(fut)
        done, _ = wait(futures, timeout=120.0)
        assert server.wait_idle(30.0)
        counters = server.stats()["counters"]
    assert len(done) == n
    assert counters["submitted"] == n
    assert counters["submitted"] == (counters.get("served", 0)
                                     + counters.get("errors", 0)
                                     + counters.get("deadline_expired", 0))
    assert counters.get("deadline_expired", 0) >= n // 25
    assert sorted(resolutions.values()) == [1] * n
    assert chaos.injected_faults > 0
    assert chaos.injected_kills > 0
