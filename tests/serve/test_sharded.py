"""End-to-end ShardedServer: exactness, swap, crash recovery, zero-copy."""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.core.classifier import HDClassifier
from repro.core.encoders import GenericEncoder
from repro.core.packed import PackedModel
from repro.obs import trace as obs_trace
from repro.obs.export import CollectorSink
from repro.serve import InferenceServer, ServeConfig
from repro.serve.resilience import BreakerConfig, ChaosPolicy, DegradeConfig
from repro.serve.sharded import ShardedServeConfig, ShardedServer, proto
from repro.serve.sharded.server import STATS_TIMEOUT, SWAP_ACK_TIMEOUT
from repro.stream import StreamConfig, StreamLoop

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory not available",
)


def _config(**kw):
    base = dict(n_shards=2, max_batch=8, max_wait=0.002,
                max_shed_level=0, default_deadline=None)
    base.update(kw)
    return ShardedServeConfig(**base)


def _no_leaked_segments(server):
    prefix = server.arena.prefix
    return not [f for f in os.listdir("/dev/shm") if f.startswith(prefix)]


@pytest.fixture(scope="module")
def replica_server(serve_classifier):
    server = ShardedServer(_config(mode="replica"))
    server.register("m", serve_classifier)
    with server:
        yield server
    assert _no_leaked_segments(server)


@pytest.fixture(scope="module")
def busy_model():
    """A D=2048 model on 256 features, and 960 queries to keep it busy.

    A 64-row batch takes a shard several milliseconds, so fifteen of
    them leave batches in flight long enough to kill a shard mid-stream.
    """
    rng = np.random.default_rng(3)
    protos = rng.normal(size=(4, 256))
    y = rng.integers(0, 4, size=320)
    X = protos[y] + rng.normal(scale=0.8, size=(320, 256))
    clf = HDClassifier(GenericEncoder(dim=2048, seed=5), epochs=2,
                       seed=5).fit(X, y)
    return clf, PackedModel.from_classifier(clf), np.concatenate([X, X, X])


class TestReplicaMode:
    def test_bit_exact_vs_single_process(self, replica_server, serve_packed,
                                         serve_queries):
        q = serve_queries[:32]
        ref = serve_packed.predict_packed(serve_packed.encode_packed(q))
        preds = replica_server.predict_many("m", q, timeout=60.0)
        np.testing.assert_array_equal([p.label for p in preds], ref)
        assert {p.shard for p in preds} <= {0, 1}

    def test_asubmit_from_event_loop(self, replica_server, serve_queries):
        async def go():
            preds = await asyncio.gather(*[
                replica_server.asubmit("m", x) for x in serve_queries[:6]
            ])
            return [p.label for p in preds]

        labels = asyncio.run(go())
        assert len(labels) == 6

    def test_shard_stats_and_zero_copy(self, replica_server, serve_queries):
        replica_server.predict_many("m", serve_queries[:8], timeout=60.0)
        stats = replica_server.shard_stats(timeout=10.0)
        assert set(stats) == {0, 1}
        for payload in stats.values():
            assert payload["served"] > 0
            mapping = payload["shm"]["m"]
            # the model mapping carries no private dirty pages: the
            # worker reads the one shared physical copy, it never wrote
            # or duplicated it
            assert mapping.get("private_dirty_kb", 0) == 0
        # absorbed worker series are queryable from the parent
        prom = replica_server.render_prometheus()
        assert "shard_served" in prom

    def test_stats_snapshot_shape(self, replica_server):
        snap = replica_server.stats()
        assert snap["router"]["mode"] == "replica"
        dep = snap["deployments"]["m"]
        assert dep["segment"] is not None and dep["epoch"] >= 1

    def test_no_queue_feeder_threads_in_the_parent(self, replica_server,
                                                   serve_queries):
        # one pipe per shard, written synchronously: no mp.Queue, so no
        # feeder thread pickling behind the dispatcher's back
        replica_server.predict_many("m", serve_queries[:16], timeout=60.0)
        names = [t.name for t in threading.enumerate()]
        assert not [n for n in names if "QueueFeeder" in n], names


class TestPartitionMode:
    def test_bit_exact_vs_single_process(self, serve_classifier,
                                         serve_packed, serve_queries):
        server = ShardedServer(_config(mode="partition"))
        server.register("m", serve_classifier)
        q = serve_queries[:24]
        ref = serve_packed.predict_packed(serve_packed.encode_packed(q))
        with server:
            preds = server.predict_many("m", q, timeout=60.0)
            np.testing.assert_array_equal([p.label for p in preds], ref)
        assert _no_leaked_segments(server)

    def test_partition_requires_registered_model(self):
        server = ShardedServer(_config(mode="partition"))
        with pytest.raises(RuntimeError, match="partition mode"):
            server.start()


def _lose_first_answer(server):
    """Turn the first answering reply into a shard error; returns the log.

    The first PREDICT, or the first SEARCH partial after a successful
    ENCODE, is handled as an ``ERR`` instead, so its requests retry and
    are encoded a second time.
    """
    executor = server.executor
    handle_ok = executor._handle_ok
    failed = []

    def flaky(shard_id, seq, payload):
        if payload[0] in (proto.PREDICT, proto.SEARCH) and not failed:
            failed.append(seq)
            executor._handle_error(shard_id, seq, {
                "kind": "InjectedFault", "message": "reply lost",
            })
            return
        handle_ok(shard_id, seq, payload)

    executor._handle_ok = flaky
    return failed


@pytest.mark.parametrize("fail_first", [False, True],
                         ids=["no-fault", "failed-reply"])
@pytest.mark.parametrize("mode", ["replica", "partition", "thread"])
def test_per_shard_served_sums_to_server_served(mode, fail_first,
                                                serve_classifier,
                                                serve_queries):
    # each request counts once, at the slot that answered it (in
    # partition mode the shard that encoded it; every shard searches
    # it).  On the thread executor the faulty variant injects chaos
    # faults and kills and gives some requests an already-spent
    # deadline, so failed, retried and expired requests must not count.
    if mode == "thread":
        chaos = (ChaosPolicy(fault_rate=0.2, kill_rate=0.05, max_kills=2,
                             seed=0) if fail_first else None)
        server = InferenceServer(
            ServeConfig(n_workers=2, max_batch=8, max_retries=4,
                        retry_backoff=0.001), chaos=chaos)
    else:
        server = ShardedServer(_config(mode=mode, max_retries=4,
                                       retry_backoff=0.01))
    server.register("m", serve_classifier)
    failed = (_lose_first_answer(server)
              if fail_first and mode != "thread" else [])
    n = 120 if mode == "thread" else 20
    with server:
        futures = [server.submit("m", serve_queries[i % len(serve_queries)],
                                 deadline=(1e-6 if fail_first and i % 10 == 0
                                           else 60.0))
                   for i in range(n)]
        done, _ = wait(futures, timeout=60.0)
        assert len(done) == n
        assert server.wait_idle(30.0)
        per_shard = server.worker_utilization()["served"]
        counters = server.stats()["counters"]
    served = sum(f.exception() is None for f in futures)
    assert served == counters["served"]
    if fail_first:
        assert counters.get("retries", 0) >= 1
    else:
        assert served == n
    if mode != "thread":
        assert len(failed) == int(fail_first)
    elif fail_first:
        assert chaos.injected_kills > 0 and chaos.injected_faults > 0
    assert len(per_shard) == 2
    assert sum(per_shard) == counters["served"]


@pytest.mark.parametrize("mode", ["replica", "partition"])
def test_failed_reply_leaves_no_router_load(mode, serve_classifier,
                                            serve_queries):
    # every SEARCH/ERR reply releases its shard's router load, including
    # replies for a batch that an earlier error already failed
    server = ShardedServer(_config(mode=mode, max_retries=4,
                                   retry_backoff=0.01))
    server.register("m", serve_classifier)
    failed = _lose_first_answer(server)
    with server:
        server.predict_many("m", serve_queries[:20], timeout=60.0)
        assert server.wait_idle(30.0)
        deadline = time.monotonic() + 10.0
        while server.router.loads() != [0, 0] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert failed
        assert server.router.loads() == [0, 0]


def _settled_loads(server, timeout=10.0):
    """Router loads once no shard has a reply still to send."""
    deadline = time.monotonic() + timeout
    while (any(server.router.loads())
           and time.monotonic() < deadline):
        time.sleep(0.01)
    return server.router.loads()


@pytest.mark.parametrize("mode", ["replica", "partition"])
def test_router_loads_reconcile_after_a_run(mode, serve_classifier,
                                            serve_queries):
    # shortest-queue routing steers every batch away from a shard whose
    # load leaked, so the in-flight count must return to zero: one
    # release per PREDICT reply (replica), per ENCODE reply and per
    # SEARCH partial of the broadcast (partition)
    server = ShardedServer(_config(mode=mode))
    server.register("m", serve_classifier)
    with server:
        for _ in range(3):
            server.predict_many("m", serve_queries[:40], timeout=60.0)
            assert server.wait_idle(30.0)
            assert server.router.loads() == [0, 0]
        assert all(server.worker_utilization()["served"])


@pytest.mark.parametrize("mode", ["replica", "partition"])
def test_router_loads_reconcile_after_kill_and_respawn(
        mode, serve_classifier, serve_packed, serve_queries):
    # a killed shard's in-flight batches fail over and its load resets
    # to zero (its pipe died with it); its replacement starts on a fresh
    # pipe, and each of its replies releases one
    chaos = ChaosPolicy(kill_rate=0.1, max_kills=2, seed=5)
    server = ShardedServer(
        _config(mode=mode, max_retries=6, retry_backoff=0.02), chaos=chaos,
    )
    server.register("m", serve_classifier)
    q = serve_queries[:40]
    ref = serve_packed.predict_packed(serve_packed.encode_packed(q))
    with server:
        preds = server.predict_many("m", q, timeout=120.0)
        np.testing.assert_array_equal([p.label for p in preds], ref)
        assert server.wait_idle(30.0)
        assert server.stats()["resilience"]["worker_restarts"] >= 1
        assert _settled_loads(server) == [0, 0]
        # and routing still uses both shards afterwards
        server.predict_many("m", q, timeout=60.0)
        assert server.wait_idle(30.0)
        assert _settled_loads(server) == [0, 0]
    assert chaos.injected_kills >= 1


class TestHotSwap:
    def test_swap_under_load_drops_nothing(self, serve_classifier,
                                           serve_queries):
        server = ShardedServer(_config())
        server.register("m", serve_classifier)
        futures, submit_errors = [], []
        stop = threading.Event()

        def pump():
            i = 0
            while not stop.is_set():
                try:
                    futures.append(
                        server.submit("m", serve_queries[i % len(serve_queries)])
                    )
                except Exception as exc:  # noqa: BLE001
                    submit_errors.append(exc)
                i += 1
                time.sleep(0.001)

        with server:
            t = threading.Thread(target=pump)
            t.start()
            while not futures or not futures[0].done():
                time.sleep(0.01)
            dep = server.swap("m", serve_classifier, drain=True)
            time.sleep(0.1)
            stop.set()
            t.join()
            assert server.wait_idle(30.0)
            preds = [f.result(timeout=30.0) for f in futures]
            assert not submit_errors
            assert dep.version == 2
            versions = {p.version for p in preds}
            assert versions == {1, 2}
            stats = server.stats()
            assert stats["counters"].get("errors", 0) == 0
            assert stats["counters"].get("swap_ack_timeouts", 0) == 0
            # the old epoch's segment was unlinked after the all-shard ack
            assert stats["deployments"]["m"]["epoch"] == 2
        assert _no_leaked_segments(server)

    def test_swap_rejects_dim_order(self, serve_classifier):
        server = ShardedServer(_config())
        server.register("m", serve_classifier)
        with pytest.raises(ValueError, match="dim_order"):
            server.swap("m", serve_classifier, dim_order=np.arange(4))
        server.stop()


class TestCrashRecovery:
    def test_killed_shard_respawns_and_requests_retry(
            self, serve_classifier, serve_packed, serve_queries):
        chaos = ChaosPolicy(kill_rate=0.08, max_kills=2, seed=13)
        server = ShardedServer(
            _config(max_retries=6, retry_backoff=0.02), chaos=chaos,
        )
        server.register("m", serve_classifier)
        q = serve_queries[:40]
        ref = serve_packed.predict_packed(serve_packed.encode_packed(q))
        with server:
            preds = server.predict_many("m", q, timeout=120.0)
            np.testing.assert_array_equal([p.label for p in preds], ref)
            stats = server.stats()
            assert stats["counters"].get("worker_kills", 0) >= 1
            assert stats["resilience"]["worker_restarts"] >= 1
        assert _no_leaked_segments(server)


    def test_shard_killed_while_idle_serves_after_respawn(
            self, serve_classifier, serve_queries):
        # an idle worker waits in recv() on its pipe; the replacement
        # starts on a fresh pipe and serves like the one it replaced
        server = ShardedServer(_config(max_retries=6, retry_backoff=0.02))
        server.register("m", serve_classifier)
        with server:
            server.predict_many("m", serve_queries[:16], timeout=30.0)
            assert server.wait_idle(30.0)
            time.sleep(0.2)
            server.executor.kill(0)
            deadline = time.monotonic() + 10.0
            while (server.stats()["resilience"]["worker_restarts"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert server.stats()["resilience"]["worker_restarts"] >= 1
            before = server.worker_utilization()["served"][0]
            server.predict_many("m", serve_queries[:64], timeout=30.0)
            assert server.wait_idle(30.0)
            assert server.worker_utilization()["served"][0] > before
            assert _settled_loads(server) == [0, 0]


    def test_busy_shard_killed_repeatedly(self, busy_model):
        # terminate shard 0 with >= 2 batches in flight, eight times: each
        # kill fails its batches over and respawns it once, on a fresh
        # pipe, and leaves no load, process or segment behind.  The
        # breaker trips only on a window of nothing but failures, and
        # shard 0 answers a batch before each kill, so routing keeps
        # sending it work; the ladder stays put
        clf, packed, queries = busy_model
        ref = packed.predict_packed(packed.encode_packed(queries))
        server = ShardedServer(_config(
            max_batch=64, max_retries=8, retry_backoff=0.01,
            breaker=BreakerConfig(error_threshold=1.0),
            degrade=DegradeConfig(enabled=False)))
        server.register("m", clf)
        others = set(mp.active_children())  # e.g. a module fixture's

        def workers():
            return [p for p in mp.active_children() if p not in others]

        with server:
            for trial in range(8):
                restarts = server.worker_restarts
                served = server.stats()["counters"].get("served", 0)
                answered = server._served_by_slot[0]
                futures = [server.submit("m", x) for x in queries]
                deadline = time.monotonic() + 10.0
                while (server._served_by_slot[0] == answered
                       or server.router.loads()[0] < 2):
                    assert time.monotonic() < deadline, (
                        trial, server.router.loads(),
                        [b.state for b in server.breakers])
                    time.sleep(0.0005)
                server.executor.kill(0)
                labels = [f.result(timeout=30.0).label for f in futures]
                np.testing.assert_array_equal(labels, ref)
                assert server.wait_idle(30.0)
                deadline = time.monotonic() + 10.0
                while (server.worker_restarts == restarts
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                # the replacement answers on its pipe, it is not stalled
                assert set(server.shard_stats(timeout=10.0)) == {0, 1}
                assert server.worker_restarts == restarts + 1, trial
                assert _settled_loads(server) == [0, 0], trial
                counters = server.stats()["counters"]
                assert counters["served"] - served == len(queries)
                assert counters.get("errors", 0) == 0
                assert len(workers()) == 2
        assert not workers()
        assert _no_leaked_segments(server)

    def test_respawned_shard_keeps_the_engine_fallback(
            self, toy_problem, serve_queries):
        # a shard respawned while its deployment is engine-degraded must
        # encode on the fallback engine like the shard it replaced
        X_train, y_train, _, _ = toy_problem
        clf = HDClassifier(GenericEncoder(dim=512, num_levels=16, seed=11),
                           epochs=1, seed=11).fit(X_train, y_train)
        server = ShardedServer(_config(max_retries=6, retry_backoff=0.02,
                                       degrade=DegradeConfig(enabled=False)))
        server.register("m", clf)
        sink = CollectorSink()

        def encode_engines():
            sink.clear()
            server.predict_many("m", serve_queries[:32], timeout=30.0)
            return {s["attrs"]["engine"] for s in sink.spans
                    if s["name"] == "encode"}

        obs_trace.reset()
        try:
            with server:
                obs_trace.enable_tracing(sink)
                assert server.registry.get("m").fallback_engine("reference")
                deadline = time.monotonic() + 10.0
                while (encode_engines() != {"reference"}
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                assert encode_engines() == {"reference"}
                server.executor.kill(0)
                deadline = time.monotonic() + 10.0
                while (server.worker_restarts < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert server.worker_restarts == 1
                before = server.worker_utilization()["served"][0]
                engines = set()
                for _ in range(4):
                    engines |= encode_engines()
                    time.sleep(0.02)
                assert server.worker_utilization()["served"][0] > before
                assert server.registry.get("m").degraded
                assert engines == {"reference"}
        finally:
            obs_trace.reset()

    def test_swap_and_stats_across_a_respawn(self, serve_classifier,
                                             serve_queries):
        server = ShardedServer(_config(max_retries=6, retry_backoff=0.02))
        server.register("m", serve_classifier)
        executor = server.executor
        answer = executor._answer

        def lose_shard0_acks(seq, shard, payload=None):
            # shard 0 never acks: the swap waits until it dies
            if not (shard == 0 and isinstance(payload, str)):
                answer(seq, shard, payload)

        with server:
            server.predict_many("m", serve_queries[:16], timeout=30.0)
            executor._answer = lose_shard0_acks
            swapped = []
            t = threading.Thread(target=lambda: swapped.append(
                server.swap("m", serve_classifier, drain=True)))
            t.start()
            time.sleep(0.3)
            assert t.is_alive()  # waiting on shard 0's ack
            t0 = time.monotonic()
            executor.kill(0)
            t.join(SWAP_ACK_TIMEOUT)
            assert time.monotonic() - t0 < SWAP_ACK_TIMEOUT / 4
            assert swapped[0].version == 2
            assert server.stats()["counters"].get("swap_ack_timeouts", 0) == 0
            assert server.stats()["deployments"]["m"]["epoch"] == 2
            # the replacement maps the new epoch and serves it
            preds = server.predict_many("m", serve_queries[:64], timeout=30.0)
            assert {p.version for p in preds} == {2}
            assert server.shard_stats(timeout=10.0)[0]["epochs"]["m"] == 2
            # a dead shard does not hold stats() for STATS_TIMEOUT
            executor._answer = answer
            dead = executor._procs[1]
            executor.kill(1)
            dead.join(5.0)
            t0 = time.monotonic()
            server.stats()
            assert time.monotonic() - t0 < STATS_TIMEOUT / 2
        assert _no_leaked_segments(server)


class TestStreamLoopIntegration:
    def test_stream_loop_drives_sharded_server(self, serve_classifier,
                                               serve_queries, toy_problem):
        X_train, y_train, _, _ = toy_problem
        server = ShardedServer(_config())
        loop = StreamLoop(server, serve_classifier,
                          StreamConfig(model_name="m", chunk_size=32))
        assert server.registry.get("m").kind == "packed"
        with server, loop:
            report = loop.process(X_train[:32], y_train[:32])
            assert report.model_version == 1
            # a retrain-style swap rides the sharded epoch protocol
            loop._install(serve_classifier, reason="test")
            assert server.registry.get("m").version == 2
            preds = server.predict_many("m", serve_queries[:4], timeout=60.0)
            assert all(p.version == 2 for p in preds)
        assert _no_leaked_segments(server)
