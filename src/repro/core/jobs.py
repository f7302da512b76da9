"""One worker-count resolver for every fan-out in the package.

Batch encoding fans chunks out over threads
(:meth:`Encoder.encode_batch <repro.core.encoders.base.Encoder.encode_batch>`)
and the evaluation harness fans experiment cells out over processes
(:func:`~repro.eval.harness.parallel_map`); both turn their ``n_jobs``
request into a worker count here.  Cores are counted as the CPUs this
process may run on -- its affinity mask -- not the machine's total, so
a run pinned to fewer cores (``taskset``, a container CPU set) does not
start more workers than it can schedule.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["resolve_jobs", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on (affinity mask, else ``cpu_count``)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no affinity API (macOS, Windows)
        return max(1, os.cpu_count() or 1)


def resolve_jobs(n_jobs: Optional[int], default: int = -1) -> int:
    """Worker count for an ``n_jobs`` request.

    ``None`` takes ``default`` (``-1``: the encoders' "all usable
    CPUs"; the harness passes ``1`` so experiments stay serial unless
    asked); ``0`` and ``1`` mean serial; any negative value means all
    :func:`usable_cpus`; a positive ``n`` is taken as given.  Callers
    cap the result by their number of tasks.
    """
    n = default if n_jobs is None else int(n_jobs)
    if n < 0:
        return usable_cpus()
    return max(1, n)
