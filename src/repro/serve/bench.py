"""Open-loop Poisson traffic harness for the serving layer.

Drives :class:`~repro.serve.server.InferenceServer` with open-loop
Poisson arrivals (exponential inter-arrival times drawn up front from a
seeded generator; the driver never waits for responses, so a slow
server cannot throttle its own offered load -- the standard way to
expose queueing collapse) and emits a JSON report per load point:
throughput, latency percentiles, shed/reject counts.

Run it as a module::

    python -m repro.serve.bench --rates 200,800 --requests 400 --out report.json

or from code via :func:`run_load_point` / :func:`run_bench` (this is
what ``benchmarks/bench_serve.py`` and the tests do).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.classifier import HDClassifier
from repro.core.config import ComputeConfig
from repro.core.encoders import GenericEncoder
from repro.core.packed import PackedModel
from repro.serve.queue import QueueFull
from repro.serve.server import InferenceServer, ServeConfig


def make_workload(
    n_features: int = 24,
    n_classes: int = 4,
    n_train: int = 240,
    n_queries: int = 512,
    seed: int = 7,
):
    """A learnable Gaussian-prototype problem: (X_train, y_train, queries)."""
    rng = np.random.default_rng(seed)
    protos = rng.normal(scale=1.5, size=(n_classes, n_features))
    y_train = rng.integers(0, n_classes, size=n_train)
    X_train = protos[y_train] + rng.normal(scale=0.6, size=(n_train, n_features))
    y_q = rng.integers(0, n_classes, size=n_queries)
    queries = protos[y_q] + rng.normal(scale=0.6, size=(n_queries, n_features))
    return X_train, y_train, queries


def train_model(
    dim: int = 1024,
    packed: bool = False,
    seed: int = 7,
    n_features: int = 24,
    n_classes: int = 4,
    train_engine: str = "auto",
):
    """Train a small GENERIC model for traffic runs; optionally bit-pack it."""
    X_train, y_train, _ = make_workload(
        n_features=n_features, n_classes=n_classes, seed=seed
    )
    enc = GenericEncoder(dim=dim, num_levels=16, seed=seed)
    clf = HDClassifier(enc, epochs=3, seed=seed,
                       config=ComputeConfig(train_engine=train_engine))
    clf.fit(X_train, y_train)
    return PackedModel.from_classifier(clf) if packed else clf


def worker_utilization(server, span_s: float) -> Dict:
    """Per-worker busy fraction over a ``span_s`` window.

    ``server`` is any :class:`~repro.serve.server.Server`; its
    ``worker_utilization()`` reports
    busy-seconds and served counts per worker (threads) or per shard
    (processes).  Utilization is busy-time divided by the measurement
    span, so 1.0 means a worker never sat idle during the load point.
    """
    util = server.worker_utilization()
    busy: List[float] = [float(b) for b in util.get("busy_seconds", [])]
    served: List[int] = [int(s) for s in util.get("served", [])]
    if not busy:
        return {}
    span = max(span_s, 1e-9)
    return {
        "busy_seconds": [round(b, 6) for b in busy],
        "served": served,
        "utilization": [round(b / span, 4) for b in busy],
    }


def run_load_point(
    server: InferenceServer,
    queries: np.ndarray,
    rate: float,
    n_requests: int,
    model: str = "default",
    seed: int = 0,
) -> Dict:
    """Offer ``n_requests`` at Poisson ``rate`` req/s; return the report.

    The server must already be started with ``model`` registered.  Each
    load point resets nothing: shed level and metrics carry over unless
    the caller uses a fresh server (``run_bench`` does).
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n_requests))

    futures = []
    rejected = 0
    late = 0
    t_start = time.monotonic()
    for i in range(n_requests):
        target = t_start + arrivals[i]
        now = time.monotonic()
        if now < target:
            time.sleep(target - now)
        else:
            late += 1
        x = queries[i % len(queries)]
        try:
            futures.append(server.submit(model, x))
        except QueueFull:
            rejected += 1
    offered_span = time.monotonic() - t_start

    latencies = []
    errors = 0
    for f in futures:
        try:
            latencies.append(f.result(timeout=60.0).latency)
        except Exception:
            errors += 1
    t_done = time.monotonic()

    lat = np.asarray(latencies) if latencies else np.asarray([0.0])
    completed = len(latencies)
    span = max(t_done - t_start, 1e-9)
    return {
        "offered_rate_rps": rate,
        "n_requests": n_requests,
        "completed": completed,
        "rejected": rejected,
        "errors": errors,
        "late_submissions": late,
        "achieved_throughput_rps": completed / span,
        "rps_per_core": completed / span / max(os.cpu_count() or 1, 1),
        "workers": worker_utilization(server, span),
        "offered_span_s": offered_span,
        "latency_ms": {
            "mean": float(lat.mean() * 1e3),
            "p50": float(np.percentile(lat, 50) * 1e3),
            "p95": float(np.percentile(lat, 95) * 1e3),
            "p99": float(np.percentile(lat, 99) * 1e3),
            "max": float(lat.max() * 1e3),
        },
        "shed": {
            "final_level": server.policy.level,
            "max_level_seen": server.policy.max_level_seen,
            "shed_events": server.policy.shed_events,
            "recover_events": server.policy.recover_events,
            "shed_predictions": server.metrics.counter(
                "shed_predictions").value,
        },
    }


def run_bench(
    rates: Sequence[float],
    n_requests: int = 500,
    dim: int = 1024,
    packed: bool = False,
    config: Optional[ServeConfig] = None,
    seed: int = 7,
    train_engine: str = "auto",
) -> Dict:
    """One fresh server per load point; returns the full JSON report.

    ``train_engine`` is the retraining engine of the served model's
    (untimed) training step.
    """
    _, _, queries = make_workload(seed=seed)
    cfg = config or ServeConfig()
    model = train_model(dim=dim, packed=packed, seed=seed,
                        train_engine=train_engine)
    points: List[Dict] = []
    for rate in rates:
        server = InferenceServer(cfg)
        server.register("default", model)
        with server:
            points.append(run_load_point(
                server, queries, rate=rate, n_requests=n_requests, seed=seed,
            ))
            server.wait_idle(timeout=30.0)
        points[-1]["metrics"] = server.stats()
    return {
        "harness": "repro.serve.bench",
        "model": {"kind": "packed" if packed else "classifier", "dim": dim},
        "config": dataclasses.asdict(cfg),
        "train_engine": train_engine,
        "load_points": points,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.bench",
        description="Open-loop Poisson traffic against repro.serve",
    )
    parser.add_argument("--rates", default="200,800",
                        help="comma-separated offered rates (req/s)")
    parser.add_argument("--requests", type=int, default=400,
                        help="requests per load point")
    parser.add_argument("--dim", type=int, default=1024)
    parser.add_argument("--packed", action="store_true",
                        help="serve the bit-packed 1-bit model")
    parser.add_argument("--train-engine", default="auto",
                        choices=("auto", "reference", "gram"),
                        help="retraining engine for the served model")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--queue-high", type=int, default=32)
    parser.add_argument("--p95-target-ms", type=float, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default: stdout)")
    args = parser.parse_args(argv)

    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    if not rates or any(r <= 0 for r in rates):
        parser.error(f"--rates needs positive req/s values, got {args.rates!r}")
    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait=args.max_wait_ms / 1e3,
        n_workers=args.workers,
        queue_high=args.queue_high,
        p95_target=(args.p95_target_ms / 1e3
                    if args.p95_target_ms is not None else None),
    )
    report = run_bench(
        rates, n_requests=args.requests, dim=args.dim,
        packed=args.packed, config=config, seed=args.seed,
        train_engine=args.train_engine,
    )
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        summary = [
            f"{p['offered_rate_rps']:.0f} rps -> "
            f"{p['achieved_throughput_rps']:.0f} served/s, "
            f"p95 {p['latency_ms']['p95']:.2f} ms, "
            f"shed max level {p['shed']['max_level_seen']}"
            for p in report["load_points"]
        ]
        print(f"wrote {args.out}\n" + "\n".join(summary))
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
