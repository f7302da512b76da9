"""Trace sinks and exposition helpers.

Three exporters cover the repo's needs:

- :class:`JsonlSink` -- append each finished span as one JSON line
  (machine-readable; what ``--trace out.jsonl`` on the eval CLI and the
  obs benchmark write);
- :class:`CollectorSink` -- keep spans in memory (tests, ad-hoc
  analysis, the report tool's in-process mode);
- :func:`render_prometheus` -- the Prometheus text exposition of a
  :class:`~repro.obs.registry.Registry` (also available as a tiny HTTP
  endpoint via :func:`serve_prometheus`, which the serve server mounts).

:func:`load_trace` and :func:`summarize` turn a JSONL trace back into
the per-stage aggregate the console report and the energy bridge
consume.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.obs.registry import REGISTRY, Registry

__all__ = [
    "JsonlSink",
    "CollectorSink",
    "render_prometheus",
    "serve_prometheus",
    "PrometheusEndpoint",
    "load_trace",
    "summarize",
]

OP_KEYS = ("xor_ops", "add_ops", "mul_ops", "mem_bytes")


class JsonlSink:
    """Append finished spans to ``path``, one JSON object per line."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")
        self.emitted = 0

    def emit(self, record: Dict) -> None:
        line = json.dumps(record, default=str)
        with self._lock:
            self._fh.write(line + "\n")
            self.emitted += 1

    def flush(self) -> None:
        with self._lock:
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CollectorSink:
    """Keep finished spans in an in-memory list (bounded if asked)."""

    def __init__(self, maxlen: Optional[int] = None):
        self.spans: List[Dict] = []
        self.maxlen = maxlen
        self.emitted = 0
        self._lock = threading.Lock()

    def emit(self, record: Dict) -> None:
        with self._lock:
            self.emitted += 1
            if self.maxlen is None or len(self.spans) < self.maxlen:
                self.spans.append(record)

    def clear(self) -> None:
        with self._lock:
            self.spans = []
            self.emitted = 0


# -- Prometheus exposition ---------------------------------------------------


def render_prometheus(registry: Optional[Registry] = None) -> str:
    """Text-format exposition of ``registry`` (default: the global one)."""
    return (registry or REGISTRY).render_prometheus()


class PrometheusEndpoint:
    """A daemon-thread HTTP server exposing one registry at ``/metrics``."""

    def __init__(self, registry: Registry, host: str = "127.0.0.1",
                 port: int = 0):
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (stdlib API)
                if self.path.split("?")[0] not in ("/metrics", "/"):
                    self.send_error(404)
                    return
                body = endpoint.registry.render_prometheus().encode()
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-request stderr spam
                pass

        self.registry = registry
        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="obs-prometheus",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)


def serve_prometheus(registry: Optional[Registry] = None,
                     host: str = "127.0.0.1",
                     port: int = 0) -> PrometheusEndpoint:
    """Expose ``registry`` over HTTP; returns the live endpoint handle."""
    return PrometheusEndpoint(registry or REGISTRY, host=host, port=port)


# -- trace loading / aggregation --------------------------------------------


def load_trace(path: Union[str, Path]) -> List[Dict]:
    """Read a JSONL trace back into a list of span records."""
    spans = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def summarize(spans: Iterable[Dict]) -> Dict[str, Dict]:
    """Aggregate spans by name: counts, wall time, op totals.

    Nested spans keep their own rows (``train`` and ``train.epoch`` both
    appear); ``wall_s`` is the sum over spans of that name, so a
    parent's wall time already contains its children's.

    Spans carrying primitive labels (a ``primitives`` attr mapping
    primitive name -> logical ops, attached by planned encoders)
    additionally aggregate into a ``primitives`` sub-dict per stage, so
    reports can attribute work per primitive, not only per stage.
    """
    stages: Dict[str, Dict] = {}
    for rec in spans:
        name = rec.get("name", "?")
        agg = stages.get(name)
        if agg is None:
            agg = stages[name] = {
                "spans": 0, "wall_s": 0.0, "errors": 0,
                **{k: 0 for k in OP_KEYS},
            }
        agg["spans"] += 1
        agg["wall_s"] += float(rec.get("seconds", 0.0))
        if rec.get("error"):
            agg["errors"] += 1
        ops = rec.get("ops") or {}
        for key in OP_KEYS:
            agg[key] += int(ops.get(key, 0))
        prims = (rec.get("attrs") or {}).get("primitives")
        if isinstance(prims, dict):
            pagg = agg.setdefault("primitives", {})
            for prim, count in prims.items():
                try:
                    pagg[prim] = pagg.get(prim, 0) + int(count)
                except (TypeError, ValueError):
                    continue
    return stages
