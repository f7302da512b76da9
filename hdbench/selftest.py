"""Self-tests of the benchmark itself: its oracle and its metric names.

Run from the repository root::

    python3 hdbench/selftest.py

Checks that the answer oracle flags a planted wrong label, a wrong
model version and an impossible dimension; that it accepts answers a
real server shed to a shorter prefix, checked at the dimension they
report; that the packed-row check catches one flipped bit; that span
self times subtract children; and that every workload, traced and
untraced, answers correctly and prints exactly the metric names and
units of ``BENCHMARK.json``.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

run.import_program()

import numpy as np  # noqa: E402

from repro.core.encoders import GenericEncoder  # noqa: E402
from repro.core.packed import PackedModel  # noqa: E402
from repro.serve import InferenceServer, ServeConfig  # noqa: E402

import layers  # noqa: E402
from oracle import AnswerOracle, packed_rows_match  # noqa: E402
from workloads import (MODEL, WORKLOADS, make_inputs,  # noqa: E402
                       train_served_model)


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def oracle_for(clf, X_train, pool, seed):
    ref = GenericEncoder(dim=clf.encoder.dim, seed=seed, engine="reference")
    ref.fit(X_train)
    return AnswerOracle(ref.encode_batch(pool), clf.model_, clf.classes_)


def test_oracle_against_a_shedding_server() -> None:
    seed = 5
    inputs = make_inputs(seed)
    clf = train_served_model(inputs, 2048, seed)
    pool = inputs.X_test
    oracle = oracle_for(clf, inputs.X_train, pool, seed)

    server = InferenceServer(ServeConfig())
    server.register(MODEL, PackedModel.from_classifier(clf))
    with server:
        # the whole test split at once overruns queue_high: most answers
        # come back shed to shorter prefixes
        futures = [server.submit(MODEL, x) for x in pool]
        answers = [(q, f.result(timeout=120.0)) for q, f in enumerate(futures)]
    rows = [(q, p.label, p.dim, p.version) for q, p in answers]
    shed = [r for r in rows if r[2] < 2048]
    check(len(shed) > 0, f"a burst of {len(pool)} sheds answers ({len(shed)} shed)")
    check(oracle.check(rows) == 0,
          "oracle accepts every answer, shed ones checked at their dimension")
    differs = [r for r in shed if r[1] != oracle.labels_at(2048)[r[0]]]
    if differs:
        q, label, _, version = differs[0]
        check(oracle.check([(q, label, 2048, version)]) == 1,
              "a shed label reported as full-dimension is flagged")

    q, label, dim, version = rows[0]
    wrong = next(c for c in clf.classes_ if c != label)
    check(oracle.check([(q, wrong, dim, version)]) == 1,
          "oracle flags a planted wrong label")
    check(oracle.check([(q, label, dim, version + 1)]) == 1,
          "oracle flags a wrong model version")
    check(oracle.check([(q, label, dim + 1, version)]) == 1,
          "oracle flags a dimension that is not a whole number of words")


def test_oracle_matches_packed_prefix_search() -> None:
    seed = 6
    inputs = make_inputs(seed)
    clf = train_served_model(inputs, 1024, seed)
    model = PackedModel.from_classifier(clf)
    pool = inputs.X_test[:128]
    oracle = oracle_for(clf, inputs.X_train, pool, seed)
    words = model.encode_packed(pool)
    same = all(
        np.array_equal(model.predict_packed(words, dim=d), oracle.labels_at(d))
        for d in range(64, 1025, 64)
    )
    check(same, "oracle equals predict_packed at every 64-bit prefix")
    check(packed_rows_match(model.class_words, clf.model_),
          "packed class words hold the model's sign bits")
    flipped = model.class_words.copy()
    flipped[3, 2] ^= np.uint64(1 << 17)
    check(not packed_rows_match(flipped, clf.model_),
          "one flipped class bit is caught")


def test_self_times() -> None:
    spans = [
        {"name": "root", "path": "root", "seconds": 1.0, "span_id": "a"},
        {"name": "child", "path": "child", "seconds": 0.25, "span_id": "b",
         "parent_span_id": "a"},
        {"name": "bench.fit", "path": "bench.fit", "seconds": 2.0},
        {"name": "encode", "path": "bench.fit/encode", "seconds": 1.5},
    ]
    table = layers.self_times(spans)
    check(abs(table["root"]["self_ms"] - 750.0) < 1e-9
          and abs(table["bench.fit"]["self_ms"] - 500.0) < 1e-9,
          "self time subtracts children found by id and by path")


def _run(workload: str, trace: str) -> dict:
    """The result a short run of ``workload`` prints last."""
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "2", "--trace", trace],
        capture_output=True, text=True, check=True, timeout=180,
    ).stdout.strip().splitlines()
    return json.loads(out[-1])


def test_metric_names_match_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "workload names match BENCHMARK.json")
    end_to_end = run.load_catalogue("end_to_end")
    per_layer = run.load_catalogue("per_layer")
    for workload in sorted(WORKLOADS):
        for trace, declared in (("0", end_to_end), ("1", per_layer)):
            printed = _run(workload, trace)
            check(set(printed) == {"correct", "attempted", "failed", "metrics"}
                  and printed["correct"] and printed["failed"] == 0
                  and {k: v["unit"] for k, v in printed["metrics"].items()}
                  == declared,
                  f"{workload} --trace {trace} is correct and prints exactly "
                  "the declared metrics")


if __name__ == "__main__":
    test_self_times()
    test_oracle_matches_packed_prefix_search()
    test_oracle_against_a_shedding_server()
    test_metric_names_match_benchmark_json()
    print("all self-tests passed")
