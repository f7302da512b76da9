"""Experiment result container and shared harness helpers."""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.jobs import resolve_jobs
from repro.eval.tables import format_table
from repro.obs import distributed as obs_distributed
from repro.obs import trace as obs_trace


class _Shipped:
    """A job result plus the span records the worker produced for it."""

    __slots__ = ("result", "spans")

    def __init__(self, result, spans):
        self.result = result
        self.spans = spans


class _TracedJob:
    """Picklable wrapper adding an ``eval.job`` span per mapped item.

    Only installed when tracing is enabled in the submitting process, so
    the untraced ``parallel_map`` path is byte-identical to before.

    The wrapper also fixes the old "process workers trace nothing"
    hole: it pickles the parent's tracing state (``ship=True``) and the
    submitting thread's :class:`~repro.obs.distributed.TraceContext`.
    In a pool *worker* process (detected by pid) it enables tracing
    into a local buffer, runs the job under the shipped context so the
    ``eval.job`` span parents into the submitting trace, and returns a
    :class:`_Shipped` carrying the finished records; the parent unwraps
    and re-emits them (:func:`repro.obs.trace.emit_foreign`) into its
    own sinks and registry.  Thread pools and the serial path hit the
    in-process branch and behave exactly as before.
    """

    __slots__ = ("fn", "task", "ship", "wire_ctx", "parent_pid")

    def __init__(self, fn: Callable, task: str):
        self.fn = fn
        self.task = task
        self.ship = obs_trace.tracing_enabled()
        ctx = obs_distributed.current_context()
        self.wire_ctx = None if ctx is None else ctx.to_wire()
        self.parent_pid = os.getpid()

    def __call__(self, indexed_item):
        index, item = indexed_item
        if os.getpid() == self.parent_pid or not self.ship:
            with obs_trace.span("eval.job", task=self.task, index=index):
                return self.fn(item)
        # pool-worker process: trace locally, ship the records home
        buf = []

        class _Sink:
            def emit(self, record):
                buf.append(record)

        # a fork-started worker inherits the parent's sinks (e.g. its
        # JSONL file handle); drop them so records reach the parent
        # exactly once, via the shipped buffer
        obs_trace.reset()
        sink = _Sink()
        obs_trace.enable_tracing(sink)
        try:
            ctx = obs_distributed.TraceContext.from_wire(self.wire_ctx)
            with obs_distributed.use_context(ctx):
                with obs_trace.span("eval.job", task=self.task,
                                    index=index):
                    result = self.fn(item)
        finally:
            obs_trace.remove_sink(sink)
        return _Shipped(result, buf)


def _unwrap_shipped(out):
    """Re-emit worker-shipped spans; return the bare results."""
    results = []
    for entry in out:
        if isinstance(entry, _Shipped):
            for record in entry.spans:
                # aggregate=True: the worker's registry dies with the
                # pool, so span_seconds/ops must fold in here
                obs_trace.emit_foreign(record, aggregate=True)
            results.append(entry.result)
        else:
            results.append(entry)
    return results


def parallel_map(
    fn: Callable,
    items: Iterable,
    n_jobs: Optional[int] = None,
    mode: str = "process",
) -> List:
    """Map ``fn`` over ``items``, optionally fanned out across workers.

    Results come back in input order, and every task is independent (the
    experiment runners seed each cell separately), so the output is
    identical for any ``n_jobs`` (``None`` = serial, ``-1`` = all usable
    CPUs, see :func:`repro.core.jobs.resolve_jobs`).  ``mode="process"``
    (default) uses a process pool -- ``fn`` and the items must then be
    picklable, i.e. module-level functions over plain tuples;
    ``mode="thread"`` suits tasks that release the GIL.  Falls back to a
    serial map when the platform refuses to spawn workers (e.g.
    sandboxed CI).
    """
    if mode not in ("process", "thread"):
        raise ValueError(f"unknown parallel mode {mode!r}")
    items = list(items)
    jobs = min(resolve_jobs(n_jobs, default=1), len(items))
    if obs_trace.tracing_enabled():
        task = getattr(fn, "__name__", type(fn).__name__)
        traced = _TracedJob(fn, task)
        with obs_trace.span(
            "eval.map", task=task, items=len(items), jobs=jobs, mode=mode,
        ):
            if jobs <= 1:
                return [traced(pair) for pair in enumerate(items)]
            pool_cls = (ProcessPoolExecutor if mode == "process"
                        else ThreadPoolExecutor)
            try:
                with pool_cls(max_workers=jobs) as pool:
                    return _unwrap_shipped(
                        list(pool.map(traced, enumerate(items)))
                    )
            except (OSError, PermissionError):
                return [traced(pair) for pair in enumerate(items)]
    if jobs <= 1:
        return [fn(item) for item in items]
    pool_cls = ProcessPoolExecutor if mode == "process" else ThreadPoolExecutor
    try:
        with pool_cls(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    except (OSError, PermissionError):
        return [fn(item) for item in items]


@dataclass
class ExperimentResult:
    """Output of one table/figure reproduction.

    ``data`` holds the raw numbers keyed exactly like the paper's rows
    and series; ``claims`` records shape assertions (claim text ->
    bool) so benchmarks can fail loudly when the reproduction drifts.
    """

    experiment: str
    description: str
    headers: Sequence[str]
    rows: List[Sequence]
    data: Dict = field(default_factory=dict)
    claims: Dict[str, bool] = field(default_factory=dict)

    def render(self, float_fmt: str = "{:.3f}") -> str:
        body = format_table(
            self.headers, self.rows, title=f"{self.experiment}: {self.description}",
            float_fmt=float_fmt,
        )
        if self.claims:
            checks = "\n".join(
                f"  [{'ok' if ok else 'FAIL'}] {claim}" for claim, ok in self.claims.items()
            )
            body += f"\n\nshape claims:\n{checks}"
        return body

    def assert_claims(self) -> None:
        """Raise if any recorded shape claim does not hold."""
        failed = [claim for claim, ok in self.claims.items() if not ok]
        if failed:
            raise AssertionError(
                f"{self.experiment}: shape claims failed: {failed}"
            )

    @property
    def all_claims_hold(self) -> bool:
        return all(self.claims.values())

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "description": self.description,
                "headers": list(self.headers),
                "rows": [list(r) for r in self.rows],
                "data": self.data,
                "claims": self.claims,
            },
            indent=2,
            default=float,
        )
