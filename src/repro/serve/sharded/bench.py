"""Open-loop saturation bench: thread workers vs process shards.

The question this harness answers is the one the sharded layer exists
for: *how many predictions per second per core* does the serving stack
sustain once the offered load exceeds capacity?  The thread
:class:`~repro.serve.server.InferenceServer` is GIL-bound -- adding
workers past ~2 buys nothing -- while :class:`~repro.serve.sharded.
ShardedServer` runs one process per shard against a single shared-memory
copy of the packed model.

``saturate`` drives a server with a bounded-window firehose: it keeps
``window`` requests in flight at all times (an open-loop source clamped
only by the admission queue), so the measured throughput is the
service's capacity, not the driver's politeness.  ``run_backends``
trains one packed GENERIC model and pushes the same query stream
through each backend:

- ``thread``  -- InferenceServer, ``n_workers = n_shards`` threads;
- ``replica`` -- ShardedServer, full model per shard process.

Each backend reports throughput, requests/sec/core, latency
percentiles, per-worker utilization and (for the sharded backend) the
zero-copy evidence: per-worker RSS, the model image's mapped size and
its ``Private_Dirty`` bytes -- the pages a worker would only dirty by
*copying* model memory.

Run it as a module::

    python -m repro.serve.sharded.bench --shards 4 --requests 2000

``benchmarks/bench_shard.py`` wraps this with the CI gates.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serve.bench import make_workload, train_model, worker_utilization
from repro.serve.queue import QueueFull
from repro.serve.server import InferenceServer, ServeConfig
from repro.serve.sharded.server import ShardedServeConfig, ShardedServer

__all__ = ["saturate", "run_backends", "main"]

#: the serving backends this harness can saturate
BACKENDS = ("thread", "replica")


def saturate(server, queries: np.ndarray, n_requests: int,
             window: int = 128, model: str = "bench",
             timeout: float = 120.0) -> Dict:
    """Keep ``window`` requests in flight until ``n_requests`` served.

    Returns the load-point report (throughput, rps/core, latency
    percentiles, per-worker utilization).  Backpressure (``QueueFull``)
    is absorbed by draining the oldest in-flight future -- the driver
    never sleeps while the server has room, which is what makes this a
    saturation measurement.
    """
    inflight = collections.deque()
    latencies: List[float] = []
    errors = 0

    def drain_one() -> None:
        nonlocal errors
        fut = inflight.popleft()
        try:
            latencies.append(fut.result(timeout=timeout).latency)
        except Exception:
            errors += 1

    t0 = time.monotonic()
    for i in range(n_requests):
        x = queries[i % len(queries)]
        while True:
            try:
                inflight.append(server.submit(model, x))
                break
            except QueueFull:
                if inflight:
                    drain_one()
                else:  # queue full with nothing of ours in flight
                    time.sleep(0.001)
        if len(inflight) >= window:
            drain_one()
    while inflight:
        drain_one()
    span = max(time.monotonic() - t0, 1e-9)

    lat = np.asarray(latencies) if latencies else np.asarray([0.0])
    completed = len(latencies)
    return {
        "n_requests": n_requests,
        "completed": completed,
        "errors": errors,
        "window": window,
        "span_s": round(span, 4),
        "throughput_rps": round(completed / span, 2),
        "rps_per_core": round(
            completed / span / max(os.cpu_count() or 1, 1), 2
        ),
        "latency_ms": {
            "p50": round(float(np.percentile(lat, 50) * 1e3), 3),
            "p95": round(float(np.percentile(lat, 95) * 1e3), 3),
            "p99": round(float(np.percentile(lat, 99) * 1e3), 3),
        },
        "workers": worker_utilization(server, span),
    }


def _zero_copy_evidence(server: ShardedServer, model: str = "bench") -> Dict:
    """Per-shard RSS + model-mapping page accounting from /proc."""
    stats = server.shard_stats()
    dep = server.stats()["deployments"].get(model, {})
    spec = server.executor.specs.get(model)
    shards = {}
    for shard, payload in sorted(stats.items()):
        mapping = payload.get("shm", {}).get(model, {}) or {}
        shards[shard] = {
            "rss_kb": payload.get("rss_kb", 0),
            "mapping_rss_kb": mapping.get("rss_kb", 0),
            "mapping_private_dirty_kb": mapping.get("private_dirty_kb", 0),
        }
    return {
        "model_bytes": dep.get("model_bytes"),
        "image_bytes": spec.payload_bytes if spec is not None else None,
        "shards": shards,
    }


def run_backends(
    n_shards: int = 4,
    n_requests: int = 2000,
    dim: int = 2048,
    backends: Sequence[str] = BACKENDS,
    window: int = 128,
    max_batch: int = 32,
    seed: int = 7,
) -> Dict:
    """Saturate every backend with the same packed model and queries."""
    _, _, queries = make_workload(seed=seed)
    packed = train_model(dim=dim, packed=True, seed=seed)
    results: List[Dict] = []
    for backend in backends:
        if backend == "thread":
            server = InferenceServer(ServeConfig(
                n_workers=n_shards, max_batch=max_batch,
                max_shed_level=0, default_deadline=None,
            ))
        else:
            server = ShardedServer(ShardedServeConfig(
                n_shards=n_shards, max_batch=max_batch,
                max_shed_level=0, default_deadline=None,
            ))
        server.register("bench", packed)
        with server:
            # let process shards finish booting before the clock starts
            server.predict_many("bench", queries[:n_shards], timeout=60.0)
            point = saturate(server, queries, n_requests,
                             window=window)
            point["backend"] = backend
            point["n_workers"] = n_shards
            if isinstance(server, ShardedServer):
                point["zero_copy"] = _zero_copy_evidence(server)
                point["worker_restarts"] = server.worker_restarts
        results.append(point)
        base = next((r for r in results if r["backend"] == "thread"), None)
        speedup = (point["throughput_rps"] / base["throughput_rps"]
                   if base and base is not point else None)
        print(f"{backend:9s}  {point['throughput_rps']:9.1f} rps  "
              f"{point['rps_per_core']:8.1f} rps/core  "
              f"p95 {point['latency_ms']['p95']:7.2f} ms"
              + (f"  x{speedup:.2f} vs thread" if speedup else ""))
    return {
        "harness": "repro.serve.sharded.bench",
        "dim": dim,
        "n_shards": n_shards,
        "n_requests": n_requests,
        "cpu_count": os.cpu_count(),
        "backends": results,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.sharded.bench",
        description="Saturation throughput: thread pool vs process shards",
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument("--dim", type=int, default=2048)
    parser.add_argument("--window", type=int, default=128)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--backends", default=",".join(BACKENDS),
                        help="comma list of " + "|".join(BACKENDS))
    parser.add_argument("--quick", action="store_true",
                        help="small smoke workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default: stdout)")
    args = parser.parse_args(argv)

    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    bad = [b for b in backends if b not in BACKENDS]
    if bad:
        parser.error(f"unknown backends: {bad}")
    if args.quick:
        args.requests = min(args.requests, 400)
        args.dim = min(args.dim, 1024)
    report = run_backends(
        n_shards=args.shards, n_requests=args.requests, dim=args.dim,
        backends=backends, window=args.window, max_batch=args.max_batch,
        seed=args.seed,
    )
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
