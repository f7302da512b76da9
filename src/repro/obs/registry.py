"""Process-wide metric registry: counters, gauges, histograms, families.

This is the one metrics implementation in the repo.  Every serving
backend's ``server.metrics`` is a :class:`Registry`, the
tracing layer (:mod:`repro.obs.trace`) aggregates finished spans here,
and :func:`Registry.render_prometheus` exposes everything in the
Prometheus text format.

Design constraints, in order:

1. **Thread-safe.**  Every instrument is hammered from worker threads
   (the serve :class:`~repro.serve.server.ThreadExecutor`, encode thread
   pools), so every read-modify-write holds a per-instrument lock.
2. **Lock-cheap.**  The locks are plain uncontended
   :class:`threading.Lock` acquisitions around a handful of scalar ops
   -- tens of nanoseconds -- and family/child lookup after creation is
   a dict hit cached by the caller.  Nothing global serializes two
   different instruments.
3. **Labeled families.**  ``registry.counter("encode_samples",
   labels=("engine",)).labels(engine="packed").inc()`` keeps one time
   series per label combination, mirroring the Prometheus data model
   without the dependency.

All snapshots are plain JSON-serializable dicts.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "Registry",
    "REGISTRY",
    "get_registry",
]


# -- instruments (the per-label-set children) --------------------------------


class Counter:
    """Monotonically increasing event counter (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        # locked fast path: one add under an uncontended lock.  A bare
        # ``self._value += n`` is a read-modify-write that loses counts
        # under concurrent workers (and CPython only makes it atomic by
        # accident of the eval loop, not by contract).
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def state(self) -> Dict[str, float]:
        """Serializable full state (see :meth:`Registry.state`)."""
        with self._lock:
            return {"value": self._value}

    def load_state(self, state: Dict[str, float]) -> None:
        """Replace this instrument's state with a serialized one."""
        with self._lock:
            self._value = int(state["value"])


class Gauge:
    """A point-in-time value (queue depth, shed level); tracks its max."""

    __slots__ = ("_lock", "_value", "_max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._max = 0.0

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += float(n)
            if self._value > self._max:
                self._max = self._value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    def state(self) -> Dict[str, float]:
        with self._lock:
            return {"value": self._value, "max": self._max}

    def load_state(self, state: Dict[str, float]) -> None:
        with self._lock:
            self._value = float(state["value"])
            self._max = float(state.get("max", self._value))


class Histogram:
    """Log-bucketed histogram over non-negative values (thread-safe).

    Buckets grow geometrically from ``least`` by ``growth`` per bucket
    (the defaults cover 1 us .. ~100 s at ~24 buckets per decade);
    values above the top bucket land in a final overflow bucket whose
    reported bound is the largest recorded value.  ``record`` sits
    under every enabled span (the ``span_seconds`` aggregate), so the
    bucket index is computed in O(1) from the geometric structure --
    one ``math.log`` plus a float-error fix-up against the real bounds
    -- instead of a Python-loop binary search.  Percentile queries
    never retain raw samples.
    """

    def __init__(self, least: float = 1e-6, growth: float = 1.35,
                 buckets: int = 64) -> None:
        self._lock = threading.Lock()
        self._bounds = [least * growth ** i for i in range(buckets)]
        self._counts = [0] * (buckets + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0
        self._log_least = math.log(least)
        self._log_growth = math.log(growth)

    def record(self, value: float) -> None:
        s = max(0.0, float(value))
        # first bucket whose bound >= s: log-estimate, then nudge to
        # absorb float error (and stay correct for load_state'd bounds
        # that only approximately follow the geometric formula)
        bounds = self._bounds
        n = len(bounds)
        if s <= bounds[0]:
            lo = 0
        else:
            lo = int((math.log(s) - self._log_least) / self._log_growth)
            if lo > n - 1:
                lo = n - 1
            while lo > 0 and bounds[lo - 1] >= s:
                lo -= 1
            while lo < n and bounds[lo] < s:
                lo += 1
        with self._lock:
            self._counts[lo] += 1
            self._count += 1
            self._sum += s
            self._min = min(self._min, s)
            self._max = max(self._max, s)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile (0..100) from bucket bounds."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = p / 100.0 * self._count
            seen = 0.0
            for i, c in enumerate(self._counts):
                seen += c
                if seen >= rank and c:
                    upper = (self._bounds[i] if i < len(self._bounds)
                             else self._max)
                    return min(upper, self._max)
            return self._max

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_s": self.mean,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
            "min_s": 0.0 if self.count == 0 else self._min,
            "max_s": self._max,
        }

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs for exposition.

        Prometheus-style: counts are cumulative and the final pair has
        bound ``math.inf`` (rendered as ``+Inf``) carrying the total
        count.  Empty buckets that do not change the cumulative count
        are skipped -- for a 64-bucket log histogram with a handful of
        occupied buckets this keeps exposition near-minimal while
        remaining valid (Prometheus only requires the ``+Inf`` bucket
        and monotone cumulative counts).
        """
        with self._lock:
            pairs: List[Tuple[float, int]] = []
            running = 0
            for i, c in enumerate(self._counts):
                if c:
                    running += c
                    bound = (self._bounds[i] if i < len(self._bounds)
                             else math.inf)
                    if bound is not math.inf:
                        pairs.append((bound, running))
            pairs.append((math.inf, self._count))
            return pairs

    def state(self) -> Dict[str, object]:
        """Full bucket state, enough to reconstruct the histogram."""
        with self._lock:
            return {
                "bounds": list(self._bounds),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": None if self._count == 0 else self._min,
                "max": self._max,
            }

    def load_state(self, state: Dict[str, object]) -> None:
        with self._lock:
            self._bounds = [float(b) for b in state["bounds"]]
            self._counts = [int(c) for c in state["counts"]]
            self._count = int(state["count"])
            self._sum = float(state["sum"])
            mn = state.get("min")
            self._min = math.inf if mn is None else float(mn)
            self._max = float(state["max"])
            # re-derive the log-index estimate from the loaded bounds;
            # record()'s fix-up loops keep it exact even if they only
            # approximately follow a geometric progression
            if self._bounds and self._bounds[0] > 0:
                self._log_least = math.log(self._bounds[0])
                if len(self._bounds) > 1 and self._bounds[1] > self._bounds[0]:
                    self._log_growth = math.log(
                        self._bounds[1] / self._bounds[0]
                    )


# -- families ----------------------------------------------------------------


def _label_key(label_names: Tuple[str, ...], labels: Dict[str, str]) -> Tuple[str, ...]:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Family:
    """One named metric with zero or more label dimensions.

    ``labels(**kv)`` returns (creating on first use) the child
    instrument for that label combination; with no label names the
    family has a single default child and the instrument methods
    (``inc``/``set``/``record`` ...) proxy straight to it.
    """

    _child_cls: type = Counter
    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 label_names: Iterable[str] = (), **child_kwargs):
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._child_kwargs = child_kwargs
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.label_names:
            self._children[()] = self._child_cls(**child_kwargs)

    def labels(self, **labels):
        key = _label_key(self.label_names, labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(
                    key, self._child_cls(**self._child_kwargs)
                )
        return child

    @property
    def default(self):
        """The unlabeled child (only valid for label-less families)."""
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} has labels {self.label_names}; "
                "use .labels(...)"
            )
        return self._children[()]

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return list(self._children.items())

    def __getattr__(self, attr):
        # proxy instrument methods/properties of label-less families
        # (families store only private/_-prefixed state, so this only
        # triggers for instrument API names like inc/set/record/value)
        return getattr(self.default, attr)


class CounterFamily(_Family):
    _child_cls = Counter
    kind = "counter"


class GaugeFamily(_Family):
    _child_cls = Gauge
    kind = "gauge"


class HistogramFamily(_Family):
    _child_cls = Histogram
    kind = "histogram"


# -- registry ----------------------------------------------------------------


def _sanitize(name: str) -> str:
    """Make a metric name legal for the Prometheus text format."""
    out = [c if (c.isalnum() or c in "_:") else "_" for c in name]
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out)


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


class Registry:
    """Named collection of metric families.

    ``counter``/``gauge``/``histogram`` get-or-create a family; asking
    again with the same name returns the same family (label names must
    match).  The process-global instance is :data:`REGISTRY`; the serve
    layer instantiates private registries per server so concurrent
    servers do not mix their metrics.
    """

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        #: bumped by :meth:`clear`; callers that cache family/child
        #: lookups (the span aggregation fast path) compare this to
        #: invalidate without re-doing the dict walk per event
        self.generation = 0

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Iterable[str], **child_kwargs):
        labels = tuple(labels)
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = cls(name, help=help, label_names=labels, **child_kwargs)
                self._families[name] = fam
                return fam
        if not isinstance(fam, cls):
            raise ValueError(
                f"metric {name!r} already registered as a {fam.kind}"
            )
        if labels and fam.label_names != labels:
            raise ValueError(
                f"metric {name!r} registered with labels {fam.label_names}, "
                f"requested {labels}"
            )
        return fam

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> CounterFamily:
        return self._get_or_create(CounterFamily, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> GaugeFamily:
        return self._get_or_create(GaugeFamily, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Iterable[str] = (), **hist_kwargs) -> HistogramFamily:
        return self._get_or_create(
            HistogramFamily, name, help, labels, **hist_kwargs
        )

    def families(self) -> List[_Family]:
        with self._lock:
            return list(self._families.values())

    def clear(self) -> None:
        """Drop every family (test isolation helper)."""
        with self._lock:
            self._families.clear()
            self.generation += 1

    # -- export -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict dump of every metric (JSON-serializable).

        Label-less children appear under the bare family name; labeled
        children under ``name{k=v,...}``.
        """
        out: Dict[str, Dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for fam in self.families():
            section = out[fam.kind + "s"]
            for key, child in fam.children():
                if key:
                    label_str = ",".join(
                        f"{k}={v}" for k, v in zip(fam.label_names, key)
                    )
                    cname = f"{fam.name}{{{label_str}}}"
                else:
                    cname = fam.name
                if fam.kind == "counter":
                    section[cname] = child.value
                elif fam.kind == "gauge":
                    section[cname] = {"value": child.value, "max": child.max}
                else:
                    section[cname] = child.snapshot()
        return out

    # -- cross-process aggregation -------------------------------------------

    def state(self) -> Dict[str, object]:
        """Full serializable state of every family and child.

        Unlike :meth:`snapshot` (a human/JSON summary), ``state``
        round-trips exactly: histogram bucket counts travel whole, so a
        parent process can :meth:`absorb_state` a worker's registry and
        still answer percentile queries.  Used by the sharded serving
        layer, where each worker process keeps a local registry and the
        parent periodically pulls and re-labels it.
        """
        fams = []
        for fam in self.families():
            children = [
                {"labels": list(key), "state": child.state()}
                for key, child in fam.children()
            ]
            fams.append({
                "name": fam.name, "kind": fam.kind, "help": fam.help,
                "label_names": list(fam.label_names), "children": children,
            })
        return {"namespace": self.namespace, "families": fams}

    def absorb_state(self, state: Dict[str, object],
                     extra_labels: Optional[Dict[str, str]] = None) -> None:
        """Merge another registry's :meth:`state` into this one.

        ``extra_labels`` (e.g. ``{"shard": "2"}``) are appended as
        label dimensions, keeping each source process's series
        distinct.  Semantics are **replacement**, not accumulation: a
        child series from the source overwrites the same-labeled child
        here, so absorbing successive snapshots from a live worker is
        idempotent and never double-counts.
        """
        extra = {k: str(v) for k, v in (extra_labels or {}).items()}
        extra_names = tuple(extra)
        extra_values = tuple(extra.values())
        cls_by_kind = {"counter": CounterFamily, "gauge": GaugeFamily,
                       "histogram": HistogramFamily}
        for fstate in state.get("families", []):
            cls = cls_by_kind[fstate["kind"]]
            label_names = tuple(fstate.get("label_names", ())) + extra_names
            fam = self._get_or_create(
                cls, fstate["name"], fstate.get("help", ""), label_names
            )
            for cstate in fstate.get("children", []):
                key = tuple(str(v) for v in cstate["labels"]) + extra_values
                with fam._lock:
                    child = fam._children.get(key)
                    if child is None:
                        child = fam._child_cls(**fam._child_kwargs)
                        fam._children[key] = child
                child.load_state(cstate["state"])

    def render_prometheus(self) -> str:
        """Prometheus text-format exposition of every family.

        Counters and gauges render directly.  Histograms render as
        proper ``TYPE histogram`` families: cumulative ``_bucket``
        series with ``le`` upper bounds (ending at ``le="+Inf"``) plus
        ``_sum`` and ``_count`` -- the scrape-conformant shape
        ``histogram_quantile()`` expects.  Empty log buckets are elided
        (cumulative counts are unchanged by them), keeping the output
        compact for 64-bucket histograms.
        """
        prefix = _sanitize(self.namespace) + "_" if self.namespace else ""
        lines: List[str] = []
        for fam in self.families():
            name = prefix + _sanitize(fam.name)
            if fam.help:
                lines.append(f"# HELP {name} {fam.help}")
            lines.append(f"# TYPE {name} {fam.kind}")
            for key, child in fam.children():
                pairs = [
                    f'{_sanitize(k)}="{_escape_label(v)}"'
                    for k, v in zip(fam.label_names, key)
                ]

                def fmt(extra: str = "", value: float = 0.0,
                        metric: str = name) -> str:
                    all_pairs = pairs + ([extra] if extra else [])
                    label_str = "{" + ",".join(all_pairs) + "}" if all_pairs else ""
                    return f"{metric}{label_str} {value}"

                if fam.kind == "counter":
                    lines.append(fmt(value=child.value))
                elif fam.kind == "gauge":
                    lines.append(fmt(value=child.value))
                else:
                    for bound, cum in child.cumulative_buckets():
                        le = "+Inf" if bound == math.inf else repr(bound)
                        lines.append(
                            fmt(f'le="{le}"', cum, metric=name + "_bucket")
                        )
                    lines.append(fmt(value=child.sum, metric=name + "_sum"))
                    lines.append(fmt(value=child.count, metric=name + "_count"))
        return "\n".join(lines) + ("\n" if lines else "")


#: the process-global default registry (tracing aggregates land here)
REGISTRY = Registry()


def get_registry() -> Registry:
    return REGISTRY
