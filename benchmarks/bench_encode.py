"""Encoding-kernel benchmark: reference vs. bit-packed engine.

Unlike the ``bench_fig*`` files this regenerates no paper artifact -- it
tracks the hot path the serving stack lives on.  For each
``encoder x dim x window`` point it times batch encoding on the default
synthetic workload with both engines, verifies they are bit-identical,
and writes samples/sec plus peak traced memory to ``BENCH_encode.json``
so later PRs can diff the perf trajectory.

Each point also carries a ``planner`` profile: the plan's decisions
(backend, pair fusion, rows per tile, samples per chunk) and the packed
path's single-thread time without allocation tracing
(``planned_seconds``).  A top-level ``approx`` profile trains a small
prototype classifier and measures the accuracy cost and encode-time
gain of multifold approximate encoding at 50% folds -- the degradation
ladder's ``approx`` tier.  A top-level ``readout`` profile times the
query path's packed sign read-out (``encode_signs_packed``, a
comparator on the carry-save bit planes) against the counts read-out
it replaced (``encode_batch`` -> sign -> ``pack_bits``) at batch 1 and
32 on the served shape (256 features, window 3, D = 2048 and 8192),
records the planner's row tile (each tile folds all its windows and is
bundled in place; a batch spans ``ceil(batch / tile_rows)`` tiles),
and at batch 32 measures two threads
reading out concurrently against one thread doing the same calls --
reported, not gated, since it depends on the host's cores.  Every gated
timing encodes on one thread (``n_jobs=1``); the top-level ``fanout``
field times the default width (all usable CPUs) against one thread at
the training shape (2080 x 256, D = 8192), also reported, not gated.

Usage::

    PYTHONPATH=src python benchmarks/bench_encode.py            # full grid
    PYTHONPATH=src python benchmarks/bench_encode.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_encode.py --quick --check

``--check`` exits non-zero if any point lost bit-identity between the
engines, the packed engine failed to beat the reference engine
(``--min-speedup``, default 1.0), approximate encoding cost more than
``--max-approx-drop`` accuracy
points (default 2.0) or failed to reduce encode time, or the packed
sign read-out lost bit identity with counts + sign + pack or ran slower
than it at any ``readout`` point.  CI runs the quick grid with it so a
kernel regression fails the build.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
import threading
import time
import tracemalloc

import numpy as np

from repro.core.encoders import GenericEncoder, NgramEncoder
from repro.core.hypervector import to_binary
from repro.core.jobs import resolve_jobs, usable_cpus
from repro.core.kernels import pack_bits

OUT_PATH = pathlib.Path("BENCH_encode.json")

#: the default synthetic workload: n_features chosen odd so dim % 64
#: padding and window overhang paths are exercised, not just the fast lane
FULL_GRID = [
    # (encoder, dim, window, n_samples, n_features)
    ("generic", 1024, 3, 256, 617),
    ("generic", 4096, 3, 256, 617),
    ("generic", 4096, 5, 256, 617),
    ("generic", 8192, 3, 256, 617),
    ("ngram", 4096, 3, 256, 617),
]

QUICK_GRID = [
    ("generic", 1024, 3, 96, 128),
    # a dim >= 4096 point, where the planner fuses pair tables
    ("generic", 4096, 3, 96, 128),
]

#: the packed read-out grid (both profiles): the served model's shape
#: (k = 254 folded windows) at single-query and full-batch sizes
READOUT_DIMS = (2048, 8192)
READOUT_BATCHES = (1, 32)
READOUT_FEATURES = 256
#: the batch whose two-thread read-out ratio is measured (the serving
#: batch); reported only -- a 2-core host cannot gate thread scaling
THREAD_BATCH = 32

#: (n_samples, n_features, dim) of the default-width fan-out timing: the
#: training set of the ISOLET-like workload at the trainer's D
FANOUT_SHAPE = (2080, 256, 8192)

ENCODER_CLASSES = {"generic": GenericEncoder, "ngram": NgramEncoder}


def _make_encoder(name: str, dim: int, window: int, engine: str):
    cls = ENCODER_CLASSES[name]
    return cls(dim=dim, num_levels=64, seed=1, window=window, engine=engine)


def _time_encode(encoder, X, repeats: int):
    """Best-of-``repeats`` single-thread wall time and peak traced bytes.

    ``n_jobs=1`` pins one core, so the engine and approx ratios compare
    kernels, not how many cores the host lends a multi-chunk batch.
    """
    encoder.encode_batch(X[: max(1, len(X) // 8)], n_jobs=1)  # warm up
    best = float("inf")
    out = None
    tracemalloc.start()
    for _ in range(repeats):
        tracemalloc.reset_peak()
        t0 = time.perf_counter()
        out = encoder.encode_batch(X, n_jobs=1)
        best = min(best, time.perf_counter() - t0)
        _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return best, peak, out


def _planner_profile(encoder, X, repeats):
    """The plan's decisions and the planned packed path's time.

    Re-timed here *without* tracemalloc -- the engine timings above run
    under allocation tracing, which taxes the span bookkeeping
    unevenly.  One thread (``n_jobs=1``), best of ``max(3, repeats)``.
    """
    plan = encoder.encode_plan()
    encoder.encode_batch(X[: max(1, len(X) // 8)], n_jobs=1)
    planned_seconds = float("inf")
    for _ in range(max(3, repeats)):
        t0 = time.perf_counter()
        encoder.encode_batch(X, n_jobs=1)
        planned_seconds = min(planned_seconds, time.perf_counter() - t0)
    return {
        "backend": plan.backend_name,
        "fuse_pairs": bool(plan.fuse_pairs),
        "tile_rows": int(plan.tile_rows),
        "chunk_samples": int(plan.chunk_samples),
        "planned_seconds": round(planned_seconds, 6),
    }


def run_grid(grid, repeats: int = 3, seed: int = 7):
    rng = np.random.default_rng(seed)
    results = []
    for name, dim, window, n_samples, n_features in grid:
        X = rng.normal(size=(n_samples, n_features))
        point = {
            "encoder": name,
            "dim": dim,
            "window": window,
            "n_samples": n_samples,
            "n_features": n_features,
        }
        outputs = {}
        encoders = {}
        for engine in ("reference", "packed"):
            enc = _make_encoder(name, dim, window, engine).fit(X)
            seconds, peak, out = _time_encode(enc, X, repeats)
            outputs[engine] = out
            encoders[engine] = enc
            point[engine] = {
                "seconds": round(seconds, 6),
                "samples_per_sec": round(n_samples / seconds, 1),
                "peak_traced_mb": round(peak / 2**20, 2),
            }
        point["speedup"] = round(
            point["reference"]["seconds"] / point["packed"]["seconds"], 2
        )
        point["identical"] = bool(
            np.array_equal(outputs["reference"], outputs["packed"])
        )
        point["planner"] = _planner_profile(encoders["packed"], X, repeats)
        results.append(point)
        print(
            f"{name:8s} dim={dim:5d} n={window}  "
            f"ref {point['reference']['samples_per_sec']:9.1f}/s  "
            f"packed {point['packed']['samples_per_sec']:9.1f}/s  "
            f"speedup {point['speedup']:5.2f}x  "
            f"identical={point['identical']}"
        )
    return results


def run_approx_profile(quick: bool, fraction: float = 0.5, seed: int = 11,
                       repeats: int = 3):
    """Accuracy cost and encode-time gain of 50%-fold approximation.

    Trains a small prototype-dataset classifier with exact encoding,
    then re-scores the held-out split with ``approx_folds`` set to
    ``fraction`` of the windows -- exactly what the degradation
    ladder's ``approx`` tier does to a live deployment.
    """
    from repro.core.classifier import HDClassifier
    from repro.datasets.synthetic import make_prototype_dataset

    if quick:
        n_train, n_test, dim, epochs = 240, 120, 1024, 5
    else:
        n_train, n_test, dim, epochs = 480, 240, 2048, 10
    X, y = make_prototype_dataset(
        n_classes=6, n_features=256, n_samples=n_train + n_test, seed=seed,
    )
    X_tr, y_tr = X[:n_train], y[:n_train]
    X_te, y_te = X[n_train:], y[n_train:]

    enc = _make_encoder("generic", dim, 3, "packed")
    clf = HDClassifier(enc, epochs=epochs, seed=0).fit(X_tr, y_tr)
    acc_exact = float(clf.score(X_te, y_te))
    t_exact, _, _ = _time_encode(enc, X_te, repeats)

    folds = max(1, int(round(fraction * enc.n_windows)))
    enc.approx_folds = folds
    try:
        acc_approx = float(clf.score(X_te, y_te))
        t_approx, _, _ = _time_encode(enc, X_te, repeats)
        bound = enc.encode_plan().error_bound
    finally:
        enc.approx_folds = None
    return {
        "fraction": fraction,
        "folds": folds,
        "n_windows": enc.n_windows,
        "dim": dim,
        "accuracy_exact": round(acc_exact, 4),
        "accuracy_approx": round(acc_approx, 4),
        "drop_pts": round((acc_exact - acc_approx) * 100, 2),
        "encode_seconds_exact": round(t_exact, 6),
        "encode_seconds_approx": round(t_approx, 6),
        "encode_time_ratio": round(t_approx / t_exact, 3),
        "error_bound": bound,
    }


def _seconds_per_call(fn, inner: int) -> float:
    t0 = time.perf_counter()
    for _ in range(inner):
        fn()
    return (time.perf_counter() - t0) / inner


def _two_thread_ratio(fn, calls: int, rounds: int) -> float:
    """Throughput of two threads running ``fn`` over one thread's.

    One thread makes ``2 * calls`` calls; then two threads make
    ``calls`` each, started together.  Best time of ``rounds`` each.
    """
    t_one = t_two = float("inf")
    for _ in range(rounds):
        t_one = min(t_one, _seconds_per_call(fn, 2 * calls) * 2 * calls)
        barrier = threading.Barrier(3)

        def worker():
            barrier.wait()
            for _ in range(calls):
                fn()

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        t_two = min(t_two, time.perf_counter() - t0)
    return t_one / t_two


def run_readout_profile(repeats: int = 3, seed: int = 13):
    """Packed sign read-out vs. counts + sign + pack, per query batch.

    Both sides encode the same batch with the same fitted encoder; the
    baseline is the pre-plane query path (int32 counts, then
    ``where``/``to_binary``/``pack_bits``).  Sides are interleaved and
    each keeps its best time over ``5 * repeats`` rounds.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(max(READOUT_BATCHES), READOUT_FEATURES))
    points = []
    for dim in READOUT_DIMS:
        enc = _make_encoder("generic", dim, 3, "packed").fit(X)
        for batch in READOUT_BATCHES:
            Q = X[:batch]

            def packed():
                return enc.encode_signs_packed(Q)

            def via_counts():
                counts = enc.encode_batch(Q)
                return pack_bits(to_binary(np.where(counts >= 0, 1, -1)))

            identical = bool(np.array_equal(packed(), via_counts()))
            inner = max(1, 64 // batch)
            t_packed = t_counts = float("inf")
            for _ in range(5 * repeats):
                t_packed = min(t_packed, _seconds_per_call(packed, inner))
                t_counts = min(t_counts, _seconds_per_call(via_counts, inner))
            plan = enc.encode_plan()
            point = {
                "dim": dim,
                "batch": batch,
                "n_features": READOUT_FEATURES,
                "window": 3,
                "tile_rows": int(plan.tile_rows),
                "folds": int(plan.folds),
                "packed_ms": round(t_packed * 1e3, 4),
                "counts_sign_pack_ms": round(t_counts * 1e3, 4),
                "speedup": round(t_counts / t_packed, 2),
                "identical": identical,
            }
            if batch == THREAD_BATCH:
                point["two_thread_ratio"] = round(
                    _two_thread_ratio(packed, 8, repeats), 2)
            points.append(point)
            print(
                f"readout  dim={dim:5d} batch={batch:3d}  "
                f"tile {point['tile_rows']:4d} rows  "
                f"packed {t_packed * 1e3:7.3f} ms  "
                f"counts+sign+pack {t_counts * 1e3:7.3f} ms  "
                f"speedup {t_counts / t_packed:5.2f}x  identical={identical}"
                + (f"  2 threads {point['two_thread_ratio']:.2f}x"
                   if "two_thread_ratio" in point else "")
            )
    return points


def run_fanout_profile(repeats: int = 3, seed: int = 17):
    """Default-width batch encode vs. one thread at the training shape.

    The default ``n_jobs=None`` fans the batch's chunks over every
    usable CPU; sides are interleaved, best of ``repeats`` each.
    """
    n, d, dim = FANOUT_SHAPE
    X = np.random.default_rng(seed).normal(size=(n, d))
    enc = _make_encoder("generic", dim, 3, "packed").fit(X)
    enc.encode_batch(X[:8])
    t_serial = t_default = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        enc.encode_batch(X, n_jobs=1)
        t_serial = min(t_serial, time.perf_counter() - t0)
        t0 = time.perf_counter()
        enc.encode_batch(X)
        t_default = min(t_default, time.perf_counter() - t0)
    chunks = -(-n // enc.encode_plan().chunk_samples)
    point = {
        "n_samples": n,
        "n_features": d,
        "dim": dim,
        "chunks": chunks,
        "jobs": min(resolve_jobs(None), chunks),
        "serial_seconds": round(t_serial, 6),
        "default_seconds": round(t_default, 6),
        "speedup": round(t_serial / t_default, 2),
    }
    print(
        f"fanout   {n}x{d} dim={dim}  {point['jobs']} jobs over "
        f"{chunks} chunks  serial {t_serial * 1e3:7.1f} ms  "
        f"default {t_default * 1e3:7.1f} ms  speedup {point['speedup']:.2f}x"
    )
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small smoke grid (CI)")
    parser.add_argument("--check", action="store_true",
                        help="fail if packed is slower or not bit-identical")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="--check threshold (default 1.0)")
    parser.add_argument("--max-approx-drop", type=float, default=2.0,
                        help="--check ceiling for the 50%%-fold accuracy "
                             "drop in points (default 2.0)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=pathlib.Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    results = run_grid(grid, repeats=args.repeats)
    approx = run_approx_profile(args.quick, repeats=args.repeats)
    readout = run_readout_profile(repeats=args.repeats)
    fanout = run_fanout_profile(repeats=args.repeats)
    print(
        f"approx@{approx['fraction']:.0%}: "
        f"acc {approx['accuracy_exact']:.4f} -> {approx['accuracy_approx']:.4f} "
        f"(drop {approx['drop_pts']:+.2f} pts)  "
        f"encode time x{approx['encode_time_ratio']:.2f}"
    )
    report = {
        "workload": "synthetic normal(0,1), num_levels=64, seed fixed",
        "profile": "quick" if args.quick else "full",
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "fanout": fanout,
        "ru_maxrss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
        "results": results,
        "approx": approx,
        "readout": readout,
    }
    args.out.write_text(json.dumps(report, indent=2, default=float) + "\n")
    print(f"wrote {args.out}")

    if args.check:
        failures = []
        for r in results:
            tag = f"{r['encoder']} dim={r['dim']} n={r['window']}"
            if not r["identical"]:
                failures.append(f"{tag}: engines not bit-identical")
            if r["speedup"] < args.min_speedup:
                failures.append(
                    f"{tag}: packed speedup {r['speedup']} "
                    f"< {args.min_speedup}"
                )
        if approx["drop_pts"] > args.max_approx_drop:
            failures.append(
                f"approx: accuracy drop {approx['drop_pts']} pts "
                f"> {args.max_approx_drop}"
            )
        if approx["encode_time_ratio"] >= 1.0:
            failures.append(
                f"approx: encode time ratio {approx['encode_time_ratio']} "
                "did not improve on exact encoding"
            )
        for r in readout:
            tag = f"readout dim={r['dim']} batch={r['batch']}"
            if not r["identical"]:
                failures.append(
                    f"{tag}: sign words differ from counts + sign + pack"
                )
            if r["speedup"] < 1.0:
                failures.append(
                    f"{tag}: packed read-out {r['packed_ms']} ms slower "
                    f"than counts + sign + pack {r['counts_sign_pack_ms']} ms"
                )
        for msg in failures:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
