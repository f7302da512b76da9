"""Per-layer numbers of a traced run, measured from outside ``src/``.

Counts and busy times come from the servers' public ``stats()``,
``worker_utilization()`` and metric histograms, taken as differences
across the traced phase.  Span times come from the spans the program
already emits (``serve.request``, ``serve.encode``, ``serve.search``,
``serve.dispatch``, ``encode``, ``train``) plus the benchmark's own
(``bench.submit``, ``bench.fit``, ``bench.pack``), collected in memory.

The time of the workload's operation -- a request from the moment it
was due, or a fit plus its packing -- is split into shares that add up
to one:

- ``share.generator``: how late the generator sent the request;
- ``share.admission``: the ``submit()`` call;
- ``share.queue``: queue wait, including the batcher's linger;
- ``share.encode`` / ``share.search``: the request's batch in the encode
  and search stages (each request of a batch waits for all of it);
- ``share.dispatch``: on the sharded server, dispatch-to-resolve time
  not spent encoding or searching in a shard -- IPC both ways and the
  wait in a shard's task queue;
- ``share.retrain``: ``core.training`` retraining inside ``fit``;
- ``unattributed_share``: whatever none of these cover (resolving
  futures, callbacks, class initialisation, packing, scheduling gaps).

A layer off a workload's path has a share of exactly 0.  Absolute layer
times that exist only on some workloads (queue-wait median, IPC per
batch, retrain seconds, ...) go to the run's record instead, so that
every per-layer metric is a measurement on every workload.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from repro.obs.energy import OpEnergyBridge

BRIDGE = OpEnergyBridge()

SHARES = ("generator", "admission", "queue", "encode", "search", "dispatch",
          "retrain")


def self_times(spans: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total and self time (total minus children).

    A child is found by its parent span id when the span carries one,
    and by its nesting path otherwise (spans opened outside any
    distributed trace, such as those under ``bench.fit``).
    """
    names = {s["span_id"]: s["name"] for s in spans if "span_id" in s}
    total: Dict[str, float] = defaultdict(float)
    children: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    for s in spans:
        total[s["name"]] += s["seconds"]
        count[s["name"]] += 1
        parent = names.get(s.get("parent_span_id"))
        if parent is None and "/" in s.get("path", ""):
            parent = s["path"].rsplit("/", 2)[-2]
        if parent is not None:
            children[parent] += s["seconds"]
    return {
        name: {"count": count[name],
               "total_ms": total[name] * 1e3,
               "self_ms": (total[name] - children[name]) * 1e3}
        for name in sorted(total)
    }


def interpolated_median(before: Dict, after: Dict) -> float:
    """Median of the samples a histogram gained between two states.

    Linear interpolation inside the bucket that holds the median, so the
    estimate moves with the data instead of snapping to bucket bounds.
    """
    counts = np.subtract(after["counts"], before["counts"])
    n = counts.sum()
    if n <= 0:
        return 0.0
    bounds = list(after["bounds"]) + [after["max"]]
    target = n / 2.0
    seen = 0
    for i, c in enumerate(counts):
        if c and seen + c >= target:
            lower = bounds[i - 1] if i else 0.0
            return lower + (bounds[i] - lower) * (target - seen) / c
        seen += c
    return float(after["max"])


def _hist(stats: Dict, name: str) -> Tuple[int, float]:
    h = stats["histograms"].get(name)
    return (0, 0.0) if h is None else (h["count"], h["count"] * h["mean_s"])


def _stage(stats: Dict, stage: str) -> Tuple[int, float]:
    """(calls, seconds) of a worker stage on either server."""
    if stage in stats["histograms"]:
        return _hist(stats, stage)
    n, s = 0, 0.0
    hists = (stats.get("shard_metrics") or {}).get("histograms", {})
    for key, h in hists.items():
        if key.startswith(f"stage_seconds{{stage={stage},"):
            n += h["count"]
            s += h["count"] * h["mean_s"]
    return n, s


def _delta(before, after, fn, *args) -> Tuple[int, float]:
    n0, s0 = fn(before.stats, *args)
    n1, s1 = fn(after.stats, *args)
    return n1 - n0, s1 - s0


def _busy_share(before, after) -> float:
    busy = np.subtract(after.util["busy_seconds"], before.util["busy_seconds"])
    span = after.t - before.t
    return float(busy.sum() / (len(busy) * span)) if len(busy) else 0.0


def _encode_energy_uj(spans: List[Dict]) -> float:
    """Encode energy per sample from the ops the ``encode`` spans carry."""
    ops: Dict[str, int] = defaultdict(int)
    samples = 0
    for s in spans:
        if s["name"] == "encode":
            samples += s.get("attrs", {}).get("samples", 0)
            for k, v in s.get("ops", {}).items():
                ops[k] += v
    if not samples:
        return 0.0
    est = BRIDGE.estimate(
        xor_ops=ops["xor_ops"], add_ops=ops["add_ops"],
        mul_ops=ops["mul_ops"], mem_bytes=ops["mem_bytes"], stage="encode")
    return est["total_j"] / samples * 1e6


def _seconds(spans: List[Dict], *names: str) -> float:
    return sum(s["seconds"] for s in spans if s["name"] in names)


def _batch_seconds(spans: List[Dict], name: str) -> float:
    """Request-seconds of a batch stage: batch size x duration, summed."""
    return sum(s["seconds"] * s.get("attrs", {}).get("batch", 1)
               for s in spans if s["name"] == name)


def _shares(parts: Dict[str, float], total_s: float) -> Dict[str, float]:
    shares = {f"share.{k}": parts.get(k, 0.0) / total_s for k in SHARES}
    shares["unattributed_share"] = 1.0 - sum(shares.values())
    return shares


def _encode_counts(spans: List[Dict], encode_ops: Dict[str, int]):
    return {
        "encode.xor_fold_ops_per_sample": float(encode_ops.get("xor_fold", 0)),
        "encode.bundle_ops_per_sample": float(encode_ops.get("bundle", 0)),
        "energy.encode_uj_per_sample": _encode_energy_uj(spans),
    }


def serve_layers(sharded: bool, phase, before, after, spans: List[Dict],
                 encode_ops: Dict[str, int], macs_per_sample: int):
    lat = phase.latencies_s()
    lags = phase.lags_s()
    served = (after.stats["counters"].get("served", 0)
              - before.stats["counters"].get("served", 0))
    enc_calls, enc_s = _delta(before, after, _stage, "encode")
    _, srch_s = _delta(before, after, _stage, "search")
    batches, batch_sum = _delta(before, after, _hist, "batch_size")
    _, queue_s = _delta(before, after, _hist, "queue_wait")
    parts = {
        "generator": float(lags.sum()),
        "admission": _seconds(spans, "bench.submit"),
        "queue": queue_s,
        "encode": _batch_seconds(spans, "serve.encode"),
        "search": _batch_seconds(spans, "serve.search"),
    }
    ipc_ms = 0.0
    if sharded:
        parts["dispatch"] = (_batch_seconds(spans, "serve.dispatch")
                             - parts["encode"] - parts["search"])
        n_dispatch = sum(s["name"] == "serve.dispatch" for s in spans)
        ipc_ms = ((_seconds(spans, "serve.dispatch")
                   - _seconds(spans, "serve.encode", "serve.search"))
                  / max(n_dispatch, 1) * 1e3)
    search_j = BRIDGE.estimate(add_ops=macs_per_sample,
                               mul_ops=macs_per_sample,
                               stage="serve.search")["total_j"]
    busy = _busy_share(before, after)
    metrics = {
        "encode.ms_per_call": enc_s / max(enc_calls, 1) * 1e3,
        "encode.us_per_sample": enc_s / max(served, 1) * 1e6,
        **_encode_counts(spans, encode_ops),
        "energy.search_uj_per_sample": search_j * 1e6,
        "serve.batch_size_mean": batch_sum / max(batches, 1),
        "serve.worker_busy_share": 0.0 if sharded else busy,
        "sharded.worker_busy_share": busy if sharded else 0.0,
        "serve.shed_events": float(after.stats["policy"]["shed_events"]
                                   - before.stats["policy"]["shed_events"]),
        **_shares(parts, float(lat.sum())),
    }
    layers = {
        "generator.lag_p99_ms": float(np.percentile(lags, 99)) * 1e3,
        "serve.queue_wait_p50_ms": interpolated_median(
            before.queue_wait, after.queue_wait) * 1e3,
        "search.us_per_sample": srch_s / max(served, 1) * 1e6,
        "sharded.ipc_ms_per_batch": ipc_ms,
        "mean_latency_ms": float(lat.mean()) * 1e3,
        "mean_ms_by_layer": {k: v / len(lat) * 1e3 for k, v in parts.items()},
        "traced_requests": len(lat),
    }
    return metrics, {"layers": layers, "span_self_time": self_times(spans)}


def train_layers(fits, n_train: int, spans: List[Dict],
                 encode_ops: Dict[str, int]):
    n_encode = sum(s["name"] == "encode" for s in spans)
    enc_s = _seconds(spans, "encode")
    parts = {"encode": enc_s, "retrain": _seconds(spans, "train")}
    metrics = {
        "encode.ms_per_call": enc_s / max(n_encode, 1) * 1e3,
        "encode.us_per_sample": enc_s / max(len(fits) * n_train, 1) * 1e6,
        **_encode_counts(spans, encode_ops),
        "energy.search_uj_per_sample": 0.0,
        "serve.batch_size_mean": 0.0,
        "serve.worker_busy_share": 0.0,
        "sharded.worker_busy_share": 0.0,
        "serve.shed_events": 0.0,
        **_shares(parts, _seconds(spans, "bench.fit", "bench.pack")),
    }
    layers = {
        "train.encode_s": float(np.median([f.fit_s - f.retrain_s for f in fits])),
        "train.retrain_s": float(np.median([f.retrain_s for f in fits])),
        "traced_fits": len(fits),
    }
    return metrics, {"layers": layers, "span_self_time": self_times(spans)}
