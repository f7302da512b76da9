"""The benchmark's three workloads over the packed GENERIC path.

Every workload serves or trains the ISOLET-like generator of
``repro.datasets`` (256 features, 26 classes, full-profile split of
2080 training and 1040 test samples) drawn with the run's seed.

- ``serve-saturate``: thread server, D=8192, closed loop with a window
  kept below ``queue_high``.  Batches fill, so the linger never waits
  and encode throughput sets the pace; every answer is full-dimension.
- ``serve-sharded``: the same model and window on ``ShardedServer`` in
  replica mode with two shard processes -- the only workload through
  process dispatch, IPC and the shared-memory model mapping.
- ``train``: ``HDClassifier.fit`` (auto engines, D=8192, 10 epochs) on
  the training split, then ``PackedModel.from_classifier``.  The write
  path: batch encode plus retraining, no serving code.

There is no light-load, open-loop workload: on a 2-vCPU virtual machine
the latency of a lightly loaded thread server follows the host's CPU
steal, and its run-to-run spread stayed above any usable bound.

Each workload times its set-up several times and reports the median,
measures for the run's seconds, then checks every result against the
oracle.  With tracing on, the measured time is split into an untraced
half and a traced half; per-layer numbers come from the traced half and
the tracing overhead is the difference between the two.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro import obs
from repro.core.classifier import HDClassifier
from repro.core.config import ComputeConfig
from repro.core.encoders import GenericEncoder
from repro.core.packed import PackedModel
from repro.datasets.registry import CLASSIFICATION_DATASETS
from repro.datasets.synthetic import make_prototype_dataset
from repro.obs import trace as obs_trace
from repro.serve import (InferenceServer, ServeConfig, ShardedServeConfig,
                         ShardedServer)

from oracle import AnswerOracle, packed_rows_match
from load import Phase, closed_loop
import layers

MODEL = "isolet"
EPOCHS = 10
TRAIN_DIM = 8192
#: queries the servers are asked about (drawn from the test split)
POOL = 512
#: closed-loop outstanding requests: one batch in each of the two
#: workers (or shards) and a full one waiting, so every batch fills
#: without lingering; below QUEUE_HIGH so nothing sheds
WINDOW = 96
QUEUE_HIGH = 128
MAX_BATCH = 32
#: warm-up at the end of each set-up: rounds of a few requests, enough
#: that every worker (or shard) has served a batch and built its lazy
#: kernel tables, and never enough queued to trip load shedding
WARMUP_ROUNDS = 4
WARMUP_BATCH = 8
SERVE_SETUPS = 9
SHARDED_SETUPS = 3
TRAIN_SETUPS = 9
#: seconds the sharded server waits after tracing is switched on, so
#: the supervisor has forwarded the switch to every shard
TRACE_PROPAGATION_S = 0.3


@dataclass
class Inputs:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray


def make_inputs(seed: int) -> Inputs:
    """The ISOLET-like full-profile split, drawn with ``seed``."""
    spec = CLASSIFICATION_DATASETS["ISOLET"]
    n_train, n_test, n_features = spec.sizes("full")
    X, y = make_prototype_dataset(
        n_classes=spec.n_classes, n_features=n_features,
        n_samples=n_train + n_test, seed=seed, **dict(spec.params),
    )
    return Inputs(X[:n_train], y[:n_train], X[n_train:])


@dataclass
class Outcome:
    """Everything a workload hands back to the runner."""

    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    counts: Dict[str, int] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)


def _median(values) -> float:
    return float(np.median(values))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = 0
    for proc in multiprocessing.active_children():
        try:
            with open(f"/proc/{proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        child_kb += int(line.split()[1])
        except OSError:
            pass
    return (own_kb + child_kb) / 1024.0


# -- serving --------------------------------------------------------------


SERVE_DIM = 8192
#: latency figures are taken over windows of this many seconds (see
#: Phase.windowed); at 1.5k-2.5k answers/s each window's p99 has well
#: over ten requests beyond it
WINDOW_S = 1.0
#: serve workload -> served by ShardedServer (else the thread server)
SERVE = {"serve-saturate": False, "serve-sharded": True}


def train_served_model(inputs: Inputs, dim: int, seed: int) -> HDClassifier:
    """The classifier every serve workload deploys (an input, untimed)."""
    clf = HDClassifier(GenericEncoder(dim=dim, seed=seed), epochs=EPOCHS,
                       seed=seed)
    return clf.fit(inputs.X_train, inputs.y_train)


def _start_server(sharded: bool, clf: HDClassifier, pool: np.ndarray):
    """Pack, deploy, start and warm one server; returns (server, warm-up)."""
    model = PackedModel.from_classifier(clf)
    if sharded:
        server = ShardedServer(ShardedServeConfig(
            n_shards=2, mode="replica", max_batch=MAX_BATCH,
            queue_high=QUEUE_HIGH))
    else:
        server = InferenceServer(ServeConfig(max_batch=MAX_BATCH,
                                             queue_high=QUEUE_HIGH))
    try:
        server.register(MODEL, model)
        server.start()
        warm = []
        for r in range(WARMUP_ROUNDS):
            queries = range(r * WARMUP_BATCH, (r + 1) * WARMUP_BATCH)
            futures = [server.submit(MODEL, pool[q]) for q in queries]
            for q, f in zip(queries, futures):
                pred = f.result(timeout=60.0)
                warm.append((q, pred.label, pred.dim, pred.version))
    except BaseException:
        server.stop()
        raise
    return server, warm


class _Snapshot:
    """Counters a phase is measured between."""

    def __init__(self, server):
        server.wait_idle(timeout=30.0)
        self.stats = server.stats()
        self.util = server.worker_utilization()
        self.queue_wait = server.metrics.histogram("queue_wait").state()
        self.t = time.perf_counter()


def run_serve(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    sharded = SERVE[name]
    inputs = make_inputs(seed)
    clf = train_served_model(inputs, SERVE_DIM, seed)
    pool = inputs.X_test[:POOL]
    rng = np.random.default_rng(seed)

    reps = SHARDED_SETUPS if sharded else SERVE_SETUPS
    setups: List[float] = []
    warm: list = []
    server = None
    try:
        for _ in range(reps):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            server, answers = _start_server(sharded, clf, pool)
            setups.append(time.perf_counter() - t0)
            warm.extend(answers)

        phases: List[Phase] = []
        if trace:
            phases.append(
                closed_loop(server, MODEL, pool, WINDOW, seconds / 2, rng))
            sink = obs.CollectorSink()
            obs.enable_tracing(sink)
            if sharded:
                time.sleep(TRACE_PROPAGATION_S)
            before = _Snapshot(server)
            try:
                phases.append(closed_loop(server, MODEL, pool, WINDOW,
                                          seconds / 2, rng))
                after = _Snapshot(server)
            finally:
                obs.disable_tracing()
        else:
            before = _Snapshot(server)
            phases.append(
                closed_loop(server, MODEL, pool, WINDOW, seconds, rng))
            after = _Snapshot(server)
        rss = peak_rss_mb()
        # per-sample logical ops of the planned encode, by primitive
        encode_ops = (server.registry.get(MODEL).model.encoder
                      .encode_plan().primitive_ops(1))
    finally:
        if server is not None:
            server.stop()

    # -- verification (after timing, so peak memory is the system's) ------
    ref = GenericEncoder(dim=SERVE_DIM, seed=seed, engine="reference")
    ref.fit(inputs.X_train)
    oracle = AnswerOracle(ref.encode_batch(pool), clf.model_, clf.classes_)
    verdicts = [(oracle.right(*answer), answer[2] < SERVE_DIM)
                for ph in phases for answer in ph.answers()]
    wrong = sum(not right for right, _ in verdicts)
    wrong_warm = oracle.check(warm)
    shed = sum(is_shed for _, is_shed in verdicts)

    attempted = sum(ph.attempted for ph in phases)
    rejected = sum(ph.rejected for ph in phases)
    errored = sum(ph.errored for ph in phases)
    unresolved = sum(ph.unresolved for ph in phases)
    # the window is sized never to shed; an answer served below full
    # dimension means the run did less work than asked
    shed_failures = sum(right and is_shed for right, is_shed in verdicts)
    failed = rejected + errored + unresolved + wrong + shed_failures

    measured = phases[0]
    windows = measured.windowed(WINDOW_S)
    e2e = {
        "setup_s": _median(setups),
        "latency_p50_ms": windows["latency_p50_ms"],
        "latency_p99_ms": windows["latency_p99_ms"],
        "throughput_per_s": windows["throughput_per_s"],
        "peak_rss_mb": rss,
    }
    per_layer: Dict[str, float] = {}
    details: Dict[str, object] = {
        "setup_reps_s": setups,
        "latency_samples": len(measured.latencies_s()),
        "window_s": WINDOW_S,
        "window_p50_ms": windows["window_p50_ms"],
        "window_p99_ms": windows["window_p99_ms"],
        "run_p50_ms": windows["run_p50_ms"],
        "run_p99_ms": windows["run_p99_ms"],
        "model_dim": SERVE_DIM,
        "server": "sharded-replica-2" if sharded else "thread",
        "load": f"closed loop, window {WINDOW}",
    }
    if trace:
        untraced, traced = phases
        per_layer, layer_details = layers.serve_layers(
            sharded, traced, before, after, sink.spans, encode_ops,
            macs_per_sample=len(clf.classes_) * SERVE_DIM,
        )
        p50 = lambda ph: float(np.percentile(ph.latencies_s(), 50))
        per_layer["tracing.overhead_share"] = p50(traced) / p50(untraced) - 1
        details.update(layer_details)
    return Outcome(
        end_to_end=e2e,
        per_layer=per_layer,
        attempted=attempted,
        failed=failed,
        correct=(wrong == 0 and wrong_warm == 0 and unresolved == 0
                 and errored == 0),
        counts={
            "sent": attempted - rejected,
            "succeeded": len(verdicts) - wrong - shed_failures,
            "failed": failed,
            "rejected": rejected,
            "errored": errored,
            "unresolved": unresolved,
            "wrong": wrong,
            "wrong_warmup": wrong_warm,
            "shed": shed,
        },
        details=details,
    )


# -- training ---------------------------------------------------------------


@dataclass
class Fit:
    fit_s: float
    pack_s: float
    retrain_s: float
    model: np.ndarray
    classes: np.ndarray
    class_words: np.ndarray
    engine: str


def _train_setup(inputs: Inputs, seed: int) -> GenericEncoder:
    """Level tables, ids, plan and packed kernel: all before the first fit."""
    enc = GenericEncoder(dim=TRAIN_DIM, seed=seed)
    enc.fit(inputs.X_train)
    enc.encode_plan()
    enc.encode_batch(inputs.X_train[:8])
    return enc


def _fit_loop(enc: GenericEncoder, inputs: Inputs, seed: int,
              seconds: float) -> List[Fit]:
    fits: List[Fit] = []
    end = time.perf_counter() + seconds
    while not fits or time.perf_counter() < end:
        clf = HDClassifier(enc, epochs=EPOCHS, seed=seed)
        t0 = time.perf_counter()
        with obs_trace.span("bench.fit"):
            clf.fit(inputs.X_train, inputs.y_train)
        t1 = time.perf_counter()
        with obs_trace.span("bench.pack"):
            packed = PackedModel.from_classifier(clf)
        t2 = time.perf_counter()
        fits.append(Fit(t1 - t0, t2 - t1, clf.report_.seconds, clf.model_,
                        clf.classes_, packed.class_words,
                        clf.train_plan_.engine))
    return fits


def run_train(seed: int, seconds: float, trace: bool) -> Outcome:
    inputs = make_inputs(seed)
    setups: List[float] = []
    for _ in range(TRAIN_SETUPS):
        t0 = time.perf_counter()
        enc = _train_setup(inputs, seed)
        setups.append(time.perf_counter() - t0)

    if trace:
        untraced = _fit_loop(enc, inputs, seed, seconds / 2)
        sink = obs.CollectorSink()
        obs.enable_tracing(sink)
        try:
            traced = _fit_loop(enc, inputs, seed, seconds / 2)
        finally:
            obs.disable_tracing()
        fits = untraced + traced
        measured = untraced
    else:
        fits = measured = _fit_loop(enc, inputs, seed, seconds)
    rss = peak_rss_mb()
    encode_ops = enc.encode_plan().primitive_ops(1)

    # -- verification: the reference engines must give the same model ----
    ref = HDClassifier(
        GenericEncoder(dim=TRAIN_DIM, seed=seed, engine="reference"),
        epochs=EPOCHS, seed=seed,
        config=ComputeConfig(train_engine="reference"),
    ).fit(inputs.X_train, inputs.y_train)
    wrong = sum(
        1 for f in fits
        if not (np.array_equal(f.model, ref.model_)
                and np.array_equal(f.classes, ref.classes_)
                and packed_rows_match(f.class_words, ref.model_))
    )

    n = len(inputs.X_train)
    # a run holds about ten fits, so the p99 is close to the slowest one
    op_ms = [(f.fit_s + f.pack_s) * 1e3 for f in measured]
    e2e = {
        "setup_s": _median(setups),
        "latency_p50_ms": float(np.percentile(op_ms, 50)),
        "latency_p99_ms": float(np.percentile(op_ms, 99)),
        "throughput_per_s": n / _median([f.fit_s for f in measured]),
        "peak_rss_mb": rss,
    }
    per_layer: Dict[str, float] = {}
    details: Dict[str, object] = {
        "setup_reps_s": setups,
        "latency_samples": len(op_ms),
        "fits": len(fits),
        "train_samples": n,
        "train_engine": sorted({f.engine for f in fits}),
    }
    if trace:
        per_layer, layer_details = layers.train_layers(
            traced, n, sink.spans, encode_ops)
        per_layer["tracing.overhead_share"] = (
            _median([f.fit_s for f in traced])
            / _median([f.fit_s for f in untraced]) - 1)
        details.update(layer_details)
    return Outcome(
        end_to_end=e2e,
        per_layer=per_layer,
        attempted=len(fits),
        failed=wrong,
        correct=wrong == 0,
        counts={"sent": len(fits), "succeeded": len(fits) - wrong,
                "failed": wrong, "wrong": wrong},
        details=details,
    )


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    **{name: (lambda seed, seconds, trace, name=name:
              run_serve(name, seed, seconds, trace)) for name in SERVE},
    "train": run_train,
}
