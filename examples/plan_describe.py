"""Inspect what the kernel planner decided for an encoding shape.

Every encode runs through a :class:`~repro.core.ir.KernelPlan`: the
planner resolves the engine to one of two backends (``numpy-reference``
or ``packed-uint64``), decides pair fusion / row tiles / chunk sizes per
shape class, and counts the logical ops per primitive.
``plan.describe()`` renders those decisions; this example walks a few
regimes where they change:

1. a small-dim shape (fusion off -- the tables are cache-resident);
2. a large-dim shape (pair fusion on, ~2x the gather+XOR throughput);
3. the reference engine (no packing, no fusion, readable ground truth);
4. multifold approximate encoding (``approx_folds=``), with the plan's
   hard error bound on the counts.

Run with::

    PYTHONPATH=src python examples/plan_describe.py
"""

from __future__ import annotations

import numpy as np

from repro import GenericEncoder
from repro.core.ir import BACKENDS


def show(title: str, enc: GenericEncoder, X: np.ndarray) -> None:
    plan = enc.fit(X).encode_plan()
    print(f"--- {title} ---")
    print(plan.describe())
    if plan.error_bound is not None:
        print(f"  error bound: {plan.error_bound}")
    print()


def main() -> None:
    rng = np.random.default_rng(0)
    X = rng.normal(size=(64, 617))

    print(f"backends: {BACKENDS.names()}\n")

    show("D=1024, packed (fusion off: tables stay cache-resident)",
         GenericEncoder(dim=1024, num_levels=64, seed=1, window=3,
                        engine="packed"), X)
    show("D=8192, packed (pair fusion + row tiles)",
         GenericEncoder(dim=8192, num_levels=64, seed=1, window=3,
                        engine="packed"), X)
    show("D=4096, reference (bipolar ground truth)",
         GenericEncoder(dim=4096, num_levels=64, seed=1, window=3,
                        engine="reference"), X)
    show("D=4096, packed, approx_folds=300 of 615 windows",
         GenericEncoder(dim=4096, num_levels=64, seed=1, window=3,
                        engine="packed", approx_folds=300), X)

    # the per-primitive logical op totals feed the obs layer: encode
    # spans carry them, and `python -m repro.obs report` breaks a
    # trace down per primitive
    enc = GenericEncoder(dim=2048, num_levels=64, seed=1, window=3).fit(X)
    ops = enc.encode_plan().primitive_ops(len(X))
    width = max(len(k) for k in ops)
    print(f"--- per-primitive logical ops for one {len(X)}-sample batch ---")
    for name, count in ops.items():
        print(f"  {name:<{width}}  {count:>14,}")


if __name__ == "__main__":
    main()
