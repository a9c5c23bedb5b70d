"""The labeled metric registry: counters, gauges, log2 histograms.

:class:`MetricRegistry` generalises the per-stage accumulator
(:class:`repro.instrument.PipelineMetrics`) into a process-wide store
of **named, labeled** series::

    from repro.obs import get_registry

    reg = get_registry()
    reg.counter("repro.docs.processed", corpus="D2", status="ok").inc()
    reg.gauge("repro.process.rss_max_bytes", worker="main").set_max(rss)
    reg.histogram("repro.stage.latency", stage="segment").observe(0.021)

Names are a closed vocabulary (:mod:`repro.obs.names`): a strict
registry rejects undeclared names at runtime, and a tier-1 test
matches every literal emission against the declarations.  Labels are
free-form string pairs; series are keyed by the sorted label set, so
emission order never matters.

**Merge semantics** follow the declaration kind — counters add, gauges
take the maximum (the high-water convention that makes RSS/CPU
readings order-independent), histograms add bucket-wise (widening to
the longer bucket array, never raising).  A histogram series holds a
:class:`repro.instrument.HistogramValue`, the type a stage's
``latency`` already is, so :func:`ingest_pipeline_metrics` folds each
stage's histogram in through the public :meth:`Histogram.merge`.  Merge is associative and
commutative, which is what lets the parallel
:class:`~repro.perf.runner.CorpusRunner` fold per-worker registries
back into one in any completion order; the hypothesis property test in
``tests/test_obs.py`` locks this in.

**Cross-process travel** uses the same plain-dict wire format as
:class:`PipelineMetrics` and the tracer's spans: workers
:meth:`drain` their process registry per chunk, the dump rides the
existing chunk-return path, and the parent merges.  After
:meth:`normalized_dump` — deterministic metrics only, ``worker``
labels folded away — a serial and a ``--workers N`` run of the same
corpus are **byte-identical**.  ``repro extract --observe DIR`` (and
``serve``) writes the run registry to ``DIR/metrics.prom`` and
``DIR/metrics.jsonl``.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.instrument import HistogramValue
from repro.obs.names import METRIC_NAMES, NORMALIZED_DROPPED_LABELS, declared

#: Bumped when the serialised registry layout changes incompatibly.
SCHEMA = "repro.obs.registry/1"

#: Canonical series key: labels as a sorted tuple of (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def label_key(labels: Dict[str, Any]) -> LabelKey:
    """Canonical, hashable form of a label set (values stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Handle:
    """Base of the bound series handles ``counter()``/``gauge()``/
    ``histogram()`` return: (registry, name, label key)."""

    __slots__ = ("_registry", "_name", "_key")

    def __init__(self, registry: "MetricRegistry", name: str, key: LabelKey):
        self._registry = registry
        self._name = name
        self._key = key


class Counter(_Handle):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        self._registry._add(self._name, self._key, amount)

    @property
    def value(self) -> float:
        return float(self._registry._get_scalar(self._name, self._key))


class Gauge(_Handle):
    __slots__ = ()

    def set(self, value: float) -> None:
        self._registry._set(self._name, self._key, value)

    def set_max(self, value: float) -> None:
        """High-water update: keep the larger of current and ``value``
        (the merge rule, applied locally)."""
        self._registry._set_max(self._name, self._key, value)

    @property
    def value(self) -> float:
        return float(self._registry._get_scalar(self._name, self._key))


class Histogram(_Handle):
    __slots__ = ()

    def observe(self, value: float) -> None:
        self._registry._observe(self._name, self._key, value)

    def merge(self, value: HistogramValue) -> None:
        """Fold a whole histogram (a copy of it) into this series."""
        with self._registry._lock:
            self._registry._merge_histogram(self._name, self._key, value)

    @property
    def value(self) -> HistogramValue:
        return self._registry._get_histogram(self._name, self._key)


class MetricRegistry:
    """Process-wide store of labeled metric series.

    ``strict=True`` (the default) accepts only names declared in
    :data:`repro.obs.names.METRIC_NAMES` and enforces the declared
    kind; tests exploring the serialisation layer may pass
    ``strict=False`` and invent names, whose kind is then inferred from
    the first emission.  Thread-safe: one lock guards the series maps
    (emission is two dict lookups plus an add — contention is not a
    concern at pipeline rates).
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self._lock = threading.Lock()
        #: name -> kind ("counter" | "gauge" | "histogram")
        self._kinds: Dict[str, str] = {}
        #: name -> label key -> float | HistogramValue
        self._series: Dict[str, Dict[LabelKey, Any]] = {}

    # ------------------------------------------------------------------
    # Emission handles
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        self._declare(name, "counter")
        return Counter(self, name, label_key(labels))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        self._declare(name, "gauge")
        return Gauge(self, name, label_key(labels))

    def histogram(self, name: str, **labels: Any) -> Histogram:
        self._declare(name, "histogram")
        return Histogram(self, name, label_key(labels))

    def _declare(self, name: str, kind: str) -> None:
        if self.strict:
            decl = declared(name)
            if decl.kind != kind:
                raise TypeError(
                    f"metric {name!r} is declared as a {decl.kind}, not a {kind}"
                )
        with self._lock:
            known = self._kinds.get(name)
            if known is None:
                self._kinds[name] = kind
            elif known != kind:
                raise TypeError(f"metric {name!r} already used as a {known}, not a {kind}")

    # ------------------------------------------------------------------
    # Storage primitives (called by the handles)
    # ------------------------------------------------------------------
    def _add(self, name: str, key: LabelKey, amount: float) -> None:
        with self._lock:
            series = self._series.setdefault(name, {})
            series[key] = series.get(key, 0.0) + amount

    def _set(self, name: str, key: LabelKey, value: float) -> None:
        with self._lock:
            self._series.setdefault(name, {})[key] = float(value)

    def _set_max(self, name: str, key: LabelKey, value: float) -> None:
        with self._lock:
            series = self._series.setdefault(name, {})
            if float(value) > series.get(key, float("-inf")):
                series[key] = float(value)

    def _observe(self, name: str, key: LabelKey, value: float) -> None:
        with self._lock:
            series = self._series.setdefault(name, {})
            hist = series.get(key)
            if hist is None:
                hist = series[key] = HistogramValue()
            hist.observe(value)

    def _merge_histogram(self, name: str, key: LabelKey, value: HistogramValue) -> None:
        """Fold ``value`` into one histogram series; the caller holds
        ``_lock``."""
        series = self._series.setdefault(name, {})
        hist = series.get(key)
        if hist is None:
            series[key] = value.copy()
        else:
            hist.merge_from(value)

    def _get_scalar(self, name: str, key: LabelKey) -> float:
        with self._lock:
            return float(self._series.get(name, {}).get(key, 0.0))

    def _get_histogram(self, name: str, key: LabelKey) -> HistogramValue:
        with self._lock:
            hist = self._series.get(name, {}).get(key)
            return hist.copy() if hist is not None else HistogramValue()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def kind_of(self, name: str) -> Optional[str]:
        with self._lock:
            if name in self._kinds:
                return self._kinds[name]
        decl = METRIC_NAMES.get(name)
        return decl.kind if decl is not None else None

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def samples(self, name: str) -> List[Tuple[Dict[str, str], Any]]:
        """``(labels, value)`` pairs of one metric, sorted by label key;
        histogram values are copies."""
        with self._lock:
            series = dict(self._series.get(name, {}))
        out = []
        for key in sorted(series):
            value = series[key]
            out.append((dict(key), value.copy() if isinstance(value, HistogramValue) else value))
        return out

    def __len__(self) -> int:
        with self._lock:
            return sum(len(s) for s in self._series.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricRegistry):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge(self, other: "MetricRegistry") -> "MetricRegistry":
        """Fold ``other`` into this registry (in place) under the
        per-kind merge rules.  Associative and commutative."""
        with other._lock:
            kinds = dict(other._kinds)
            series = {
                name: dict(per_name) for name, per_name in other._series.items()
            }
        for name, per_name in series.items():
            kind = kinds.get(name, "counter")
            self._declare(name, kind)
            for key, value in per_name.items():
                if kind == "gauge":
                    self._set_max(name, key, value)
                elif kind == "histogram":
                    with self._lock:
                        self._merge_histogram(name, key, value)
                else:
                    self._add(name, key, value)
        return self

    def drain(self) -> "MetricRegistry":
        """Snapshot the current series into a new registry and reset
        this one — the per-chunk handoff of the parallel runner."""
        snapshot = MetricRegistry(strict=self.strict)
        with self._lock:
            snapshot._kinds = dict(self._kinds)
            snapshot._series = self._series
            self._series = {}
        return snapshot

    def clear(self) -> None:
        with self._lock:
            self._series = {}

    # ------------------------------------------------------------------
    # Serialisation (lossless round-trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            names = sorted(self._series)
            metrics: Dict[str, Any] = {}
            for name in names:
                kind = self._kinds.get(name, "counter")
                rows = []
                for key in sorted(self._series[name]):
                    value = self._series[name][key]
                    row: Dict[str, Any] = {"labels": dict(key)}
                    if isinstance(value, HistogramValue):
                        row["hist"] = value.to_dict()
                    else:
                        row["value"] = value
                    rows.append(row)
                metrics[name] = {"kind": kind, "series": rows}
        return {"schema": SCHEMA, "metrics": metrics}

    @staticmethod
    def from_dict(data: Dict[str, Any], strict: bool = True) -> "MetricRegistry":
        if data.get("schema") != SCHEMA:
            raise ValueError(f"unknown registry schema {data.get('schema')!r}")
        registry = MetricRegistry(strict=strict)
        for name, payload in data.get("metrics", {}).items():
            kind = str(payload.get("kind", "counter"))
            registry._declare(name, kind)
            series = registry._series.setdefault(name, {})
            for row in payload.get("series", []):
                key = label_key(dict(row.get("labels", {})))
                if kind == "histogram":
                    series[key] = HistogramValue.from_dict(dict(row.get("hist", {})))
                else:
                    series[key] = float(row.get("value", 0.0))
        return registry

    # ------------------------------------------------------------------
    # Normalisation (the determinism surface)
    # ------------------------------------------------------------------
    def normalized(self) -> "MetricRegistry":
        """A new registry holding only the **deterministic** declared
        metrics, with scheduling labels (``worker``) folded away under
        the per-kind merge rule — the serial-vs-parallel parity view."""
        out = MetricRegistry(strict=True)
        with self._lock:
            names = sorted(self._series)
            series = {name: dict(self._series[name]) for name in names}
        for name in names:
            decl = METRIC_NAMES.get(name)
            if decl is None or not decl.deterministic:
                continue
            out._declare(name, decl.kind)
            for key, value in series[name].items():
                folded = tuple(
                    (k, v) for k, v in key if k not in NORMALIZED_DROPPED_LABELS
                )
                if decl.kind == "gauge":
                    out._set_max(name, folded, value)
                elif decl.kind == "histogram":
                    out._merge_histogram(name, folded, value)
                else:
                    out._add(name, folded, value)
        return out

    def normalized_dump(self) -> str:
        """Canonical JSON of :meth:`normalized` — byte-identical
        between a serial and a parallel run of the same corpus."""
        return json.dumps(self.normalized().to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Ingesting the per-stage accumulator
# ----------------------------------------------------------------------
def ingest_pipeline_metrics(metrics, registry: "MetricRegistry") -> "MetricRegistry":
    """Fold a :class:`repro.instrument.PipelineMetrics` into metric
    series, one label set per stage.

    Call counts and item counts are deterministic (they mirror the
    pipeline's decisions); wall seconds, CPU seconds and the latency
    histogram are environment metrics.  Histogram ``sum`` carries the
    stage's total seconds (aggregate records included), so
    ``_sum/_count`` in the exposition stays meaningful even for stages
    that only ever recorded aggregates.
    """
    for name in metrics.ordered_names():
        stats = metrics.stages[name]
        if stats.calls:
            registry.counter("repro.stage.calls", stage=name).inc(stats.calls)
        if stats.items:
            registry.counter("repro.stage.items", stage=name).inc(stats.items)
        if stats.seconds:
            registry.counter("repro.stage.seconds", stage=name).inc(stats.seconds)
        if stats.cpu_seconds:
            registry.counter("repro.stage.cpu_seconds", stage=name).inc(stats.cpu_seconds)
        latency = stats.latency
        if latency.count:
            registry.histogram("repro.stage.latency", stage=name).merge(
                HistogramValue(latency.buckets, latency.count, stats.seconds, latency.max)
            )
    return registry


# ----------------------------------------------------------------------
# The process-default registry
# ----------------------------------------------------------------------
_DEFAULT = MetricRegistry()


def get_registry() -> MetricRegistry:
    """The process-wide default registry.

    Worker processes each see their own copy (they are separate
    processes); the parallel runner drains it per chunk and merges the
    dumps parent-side, so the parent's run registry ends up covering
    the whole corpus either way.
    """
    return _DEFAULT
