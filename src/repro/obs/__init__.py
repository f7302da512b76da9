"""repro.obs -- unified tracing, metrics and op/energy accounting.

One observability layer across the whole stack:

- :mod:`repro.obs.registry` -- process-global (and instantiable)
  registry of counter/gauge/histogram families with labels; every
  serving backend's ``server.metrics`` is one.
- :mod:`repro.obs.trace` -- nestable spans (``with span("encode",
  engine="packed"):`` or ``@traced``) recording wall time, logical op
  counts and bytes moved; near-zero overhead while disabled (the
  default -- see ``benchmarks/bench_obs.py``).
- :mod:`repro.obs.distributed` -- 64-bit trace/span ids and the
  :class:`TraceContext` that follows a request across threads and
  processes (sharded workers, eval jobs); spans carry the ids so
  multi-process JSONL traces reassemble into per-request trees.
- :mod:`repro.obs.recorder` -- :class:`FlightRecorder`: always-on
  bounded ring of recent spans + structured resilience events, dumped
  as a trace-linked postmortem JSON bundle when a trigger fires.
- :mod:`repro.obs.slo` -- declarative latency/availability objectives
  with multi-window burn-rate evaluation (:class:`SLOEngine`),
  surfaced via ``stats()["slo"]``/Prometheus and optionally driving
  the serve degradation ladder.
- :mod:`repro.obs.export` -- JSONL trace sink, in-memory collector,
  Prometheus text exposition (+ optional HTTP endpoint).
- :mod:`repro.obs.energy` -- folds traced op counts through the
  paper-calibrated :mod:`repro.hardware.energy` model so a traced run
  emits a per-stage ASIC energy estimate.
- ``python -m repro.obs report trace.jsonl`` -- console per-stage
  summary (time, ops, energy, per-trace critical path);
  ``python -m repro.obs lint trace.jsonl`` -- trace schema validator;
  ``python -m repro.obs top`` -- live terminal dashboard over a
  server's stats.

Quickstart::

    from repro import obs
    sink = obs.JsonlSink("trace.jsonl")
    obs.enable_tracing(sink)
    clf.fit(X, y)                    # encode/train spans land in the sink
    obs.disable_tracing(); sink.close()
    # then: python -m repro.obs report trace.jsonl
"""

from repro.obs.distributed import (
    TraceContext,
    current_context,
    new_trace,
    use_context,
)
from repro.obs.export import (
    CollectorSink,
    JsonlSink,
    PrometheusEndpoint,
    load_trace,
    render_prometheus,
    serve_prometheus,
    summarize,
)
from repro.obs.registry import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    Registry,
    get_registry,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLObjective, SLOEngine
from repro.obs.trace import (
    Span,
    add_sink,
    current_span,
    disable_tracing,
    emit_foreign,
    enable_tracing,
    remove_sink,
    span,
    traced,
    tracing_enabled,
    tracing_state,
)

__all__ = [
    "CollectorSink",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "PrometheusEndpoint",
    "REGISTRY",
    "Registry",
    "SLOEngine",
    "SLObjective",
    "Span",
    "TraceContext",
    "add_sink",
    "current_context",
    "current_span",
    "disable_tracing",
    "emit_foreign",
    "enable_tracing",
    "get_registry",
    "load_trace",
    "new_trace",
    "remove_sink",
    "render_prometheus",
    "serve_prometheus",
    "span",
    "summarize",
    "traced",
    "tracing_enabled",
    "tracing_state",
    "use_context",
    # lazy: OpEnergyBridge, trace_report, render_trace_report
    "OpEnergyBridge",
    "trace_report",
    "render_trace_report",
]


def __getattr__(name):
    # the energy bridge and report pull in repro.hardware / repro.eval;
    # load them on first use so `import repro.core` (which imports
    # repro.obs.trace for instrumentation) stays lightweight.
    if name == "OpEnergyBridge":
        from repro.obs.energy import OpEnergyBridge
        return OpEnergyBridge
    if name in ("trace_report", "render_trace_report"):
        from repro.obs import report
        return getattr(report, name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
