"""Per-stage instrumentation for the VS2 pipeline.

This module sits at the *base* of the layering order — it imports
nothing from the rest of :mod:`repro` — so every layer (``core``, the
harness, the perf runner) can record into the same accumulator without
bending the dependency rules that ``repro.analysis.lint`` enforces
(``LAYER001``: ``core`` never imports ``repro.perf``).

:class:`PipelineMetrics` is a lightweight accumulator of wall-time,
call counts and item counts per named stage.  :class:`StageTimer` is
the context manager that feeds it::

    metrics = PipelineMetrics()
    with metrics.stage("segment") as t:
        tree = segmenter.segment(doc)
        t.items = len(tree.logical_blocks())
    print(metrics.format_table())

Stage names are free-form, but the pipeline uses a fixed vocabulary
(``ocr``, ``deskew``, ``segment``, ``select`` and dotted sub-stages
such as ``segment.cuts``) so tables from different runs line up; see
``docs/PROFILING.md``.  Recording costs two ``perf_counter`` calls,
two ``getrusage`` reads (for :attr:`StageStats.cpu_seconds`) and a
dict lookup, so instrumentation stays on in production paths.

Each stage additionally keeps a **bounded log-scale latency
histogram** (:class:`HistogramValue`, :data:`HIST_BUCKETS` doubling
buckets from 1 µs up) of its individually timed samples, so tables
report p50/p95/max — a mean hides exactly the straggler documents the
parallel runner exists for.  The metric registry
(:mod:`repro.obs.registry`) stores its histogram series in the same
type, so a stage's histogram folds into ``repro.stage.latency`` as is.

``repro extract --observe DIR`` writes :meth:`PipelineMetrics.format_table`
of the run to ``DIR/profile.txt`` (docs/PROFILING.md).

Accumulators merge (:meth:`PipelineMetrics.merge`), which is how the
parallel :class:`repro.perf.runner.CorpusRunner` folds per-worker
timings back into one table, and they serialise to plain dicts
(:meth:`PipelineMetrics.to_dict`), which is how worker timings cross
the pool's pipe; the dict round-trip is lossless
(``from_dict(m.to_dict()) == m``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover - windows
    _resource = None  # type: ignore[assignment]

#: Canonical ordering of the pipeline's stage vocabulary; stages not
#: listed here render after these, in first-recorded order.
STAGE_ORDER: List[str] = [
    "corpus",
    "ocr",
    "ocr.cache_hit",
    "deskew",
    "segment",
    "segment.cuts",
    "segment.cluster",
    "segment.merge",
    "select",
    "select.search",
    "select.disambiguate",
    "select.form_fields",
    "rotate_back",
]

#: Latency histogram shape: bucket 0 holds samples ≤ 1 µs, bucket *i*
#: holds samples in ``(2^(i-1) µs, 2^i µs]``, and the last bucket is
#: open-ended (≈ 33 s and beyond).  26 ints per stage — bounded memory
#: no matter how many samples arrive.
HIST_BUCKETS = 26
_HIST_MIN_SECONDS = 1e-6


def hist_bucket(seconds: float) -> int:
    """Histogram bucket index for one sample duration."""
    if seconds <= _HIST_MIN_SECONDS:
        return 0
    bucket = int(math.log2(seconds / _HIST_MIN_SECONDS)) + 1
    return min(bucket, HIST_BUCKETS - 1)


def bucket_upper_seconds(bucket: int) -> float:
    """Upper edge (seconds) of a histogram bucket."""
    return _HIST_MIN_SECONDS * (2.0 ** bucket)


class HistogramValue:
    """One log2 latency histogram: buckets plus count, sum and max.

    The one histogram type of the program: a stage's
    :attr:`StageStats.latency` and every ``histogram`` series of
    :class:`repro.obs.registry.MetricRegistry` hold one.  Buckets have
    the :data:`HIST_BUCKETS` shape; :meth:`merge_from` widens to the
    longer bucket array instead of raising on mismatched widths.
    """

    __slots__ = ("buckets", "count", "sum", "max")

    def __init__(self, buckets: Optional[List[int]] = None, count: int = 0,
                 sum_: float = 0.0, max_: float = 0.0):
        self.buckets: List[int] = list(buckets) if buckets is not None else [0] * HIST_BUCKETS
        self.count = count
        self.sum = sum_
        self.max = max_

    def observe(self, value: float) -> None:
        bucket = hist_bucket(value)
        if bucket >= len(self.buckets):
            self.buckets.extend([0] * (bucket + 1 - len(self.buckets)))
        self.buckets[bucket] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def merge_from(self, other: "HistogramValue") -> None:
        if len(other.buckets) > len(self.buckets):
            self.buckets.extend([0] * (len(other.buckets) - len(self.buckets)))
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.count += other.count
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max

    def quantile(self, q: float) -> Optional[float]:
        """Quantile estimate in seconds: the upper edge of the bucket
        holding the ``q``-th sample, clipped to the observed max;
        ``None`` without samples."""
        total = sum(self.buckets)
        if total == 0:
            return None
        target = q * total
        cumulative = 0
        for bucket, n in enumerate(self.buckets):
            cumulative += n
            if cumulative >= target:
                upper = bucket_upper_seconds(bucket)
                return min(upper, self.max) if self.max else upper
        return self.max  # pragma: no cover - cumulative covers total

    def copy(self) -> "HistogramValue":
        return HistogramValue(self.buckets, self.count, self.sum, self.max)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"count": self.count, "sum": self.sum}
        sparse = {str(i): n for i, n in enumerate(self.buckets) if n}
        if sparse:
            out["buckets"] = sparse
        if self.max:
            out["max"] = self.max
        return out

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "HistogramValue":
        hist = HistogramValue(
            count=int(data.get("count", 0)),
            sum_=float(data.get("sum", 0.0)),
            max_=float(data.get("max", 0.0)),
        )
        for key, n in dict(data.get("buckets", {})).items():
            bucket = int(key)
            if bucket < 0:
                continue
            if bucket >= len(hist.buckets):  # widen, never drop samples
                hist.buckets.extend([0] * (bucket + 1 - len(hist.buckets)))
            hist.buckets[bucket] = int(n)
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistogramValue):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HistogramValue(count={self.count}, sum={self.sum:.6f})"


@dataclass
class StageStats:
    """Accumulated statistics of one named stage.

    ``calls``/``seconds``/``items`` aggregate everything recorded;
    ``latency`` covers only *individually observed* samples
    (:meth:`observe`), because an aggregate record of N calls carries
    no per-call distribution to bucket.  ``cpu_seconds`` accumulates
    the CPU (user+sys) time the stage consumed — zero when the
    recorder did not measure it (platforms without ``resource``, or
    aggregates).
    """

    calls: int = 0
    seconds: float = 0.0
    items: int = 0
    cpu_seconds: float = 0.0
    latency: HistogramValue = field(default_factory=HistogramValue)

    def observe(self, seconds: float, items: int = 0, cpu_seconds: float = 0.0) -> None:
        """Record one timed sample (updates the latency histogram)."""
        self.calls += 1
        self.seconds += seconds
        self.items += items
        self.cpu_seconds += cpu_seconds
        self.latency.observe(seconds)

    def add(
        self, seconds: float, items: int = 0, calls: int = 1, cpu_seconds: float = 0.0
    ) -> None:
        """Fold in an aggregate (no per-sample distribution known)."""
        self.calls += calls
        self.seconds += seconds
        self.items += items
        self.cpu_seconds += cpu_seconds

    def merge_from(self, other: "StageStats") -> None:
        """Fold ``other`` into this accumulator, histogram included."""
        self.calls += other.calls
        self.seconds += other.seconds
        self.items += other.items
        self.cpu_seconds += other.cpu_seconds
        self.latency.merge_from(other.latency)

    @property
    def ms_per_call(self) -> float:
        return (self.seconds / self.calls) * 1000.0 if self.calls else 0.0

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "calls": self.calls,
            "seconds": self.seconds,
            "items": self.items,
        }
        if self.cpu_seconds:
            out["cpu_seconds"] = self.cpu_seconds
        if self.latency.count:
            out["latency"] = self.latency.to_dict()
        return out

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "StageStats":
        return StageStats(
            calls=int(data.get("calls", 0)),
            seconds=float(data.get("seconds", 0.0)),
            items=int(data.get("items", 0)),
            cpu_seconds=float(data.get("cpu_seconds", 0.0)),
            latency=HistogramValue.from_dict(dict(data.get("latency", {}))),
        )


def _cpu_now() -> float:
    """This process's cumulative CPU (user+sys) seconds, or ``0.0``
    on platforms without ``resource``."""
    if _resource is None:  # pragma: no cover - windows
        return 0.0
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class StageTimer:
    """Times one ``with`` block and reports into a :class:`PipelineMetrics`.

    Set :attr:`items` inside the block to attach a work count (blocks
    produced, words transcribed, extractions emitted …) to the sample.
    The sample is recorded even when the block raises, so failed
    documents still show up in the per-stage table.  Alongside the
    wall clock, the block's CPU (user+sys) consumption is charged to
    :attr:`StageStats.cpu_seconds` via ``getrusage`` deltas — like the
    wall time, nested stage timers each charge their own span, so
    dotted sub-stages overlap their parents.
    """

    __slots__ = ("_metrics", "name", "items", "_start", "_cpu_start")

    def __init__(self, metrics: "PipelineMetrics", name: str):
        self._metrics = metrics
        self.name = name
        self.items = 0
        self._start = 0.0
        self._cpu_start = 0.0

    # The CPU reads sit outside the wall window: ``getrusage`` is a
    # system call the scheduler may preempt, and a preemption inside
    # the window would charge the CPU wait to the stage's wall time.
    def __enter__(self) -> "StageTimer":
        self._cpu_start = _cpu_now()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        seconds = time.perf_counter() - self._start
        cpu = max(_cpu_now() - self._cpu_start, 0.0)
        self._metrics.record(self.name, seconds, items=self.items, cpu_seconds=cpu)


@dataclass
class PipelineMetrics:
    """Wall-time / call-count / item-count accumulator, keyed by stage."""

    stages: Dict[str, StageStats] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def stage(self, name: str) -> StageTimer:
        """A context manager timing one occurrence of ``name``."""
        return StageTimer(self, name)

    def record(
        self,
        name: str,
        seconds: float,
        items: int = 0,
        calls: int = 1,
        cpu_seconds: float = 0.0,
    ) -> None:
        """Record into ``name``: a single call (``calls == 1``) is a
        histogram sample; anything else is an aggregate fold-in."""
        stats = self._stats(name)
        if calls == 1:
            stats.observe(seconds, items=items, cpu_seconds=cpu_seconds)
        else:
            stats.add(seconds, items=items, calls=calls, cpu_seconds=cpu_seconds)

    def count(self, name: str, items: int = 0) -> None:
        """Record an instantaneous event (a call with no duration —
        kept out of the latency histogram)."""
        self._stats(name).add(0.0, items=items)

    def _stats(self, name: str) -> StageStats:
        stats = self.stages.get(name)
        if stats is None:
            stats = self.stages[name] = StageStats()
        return stats

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge(self, other: "PipelineMetrics") -> "PipelineMetrics":
        """Fold ``other``'s samples into this accumulator (in place),
        histograms included."""
        for name, stats in other.stages.items():
            self._stats(name).merge_from(stats)
        return self

    def drain(self) -> "PipelineMetrics":
        """Return a snapshot holding the current samples and reset this
        accumulator — the per-chunk handoff of the parallel runner."""
        snapshot = PipelineMetrics(stages=self.stages)
        self.stages = {}
        return snapshot

    def clear(self) -> None:
        self.stages = {}

    # ------------------------------------------------------------------
    # Access / serialisation
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> StageStats:
        return self.stages[name]

    def __contains__(self, name: str) -> bool:
        return name in self.stages

    def ordered_names(self) -> Iterator[str]:
        known = [n for n in STAGE_ORDER if n in self.stages]
        extra = [n for n in self.stages if n not in STAGE_ORDER]
        return iter(known + extra)

    def total_seconds(self) -> float:
        """Sum of the top-level (undotted) stage times.  Dotted
        sub-stages are nested inside their parents and excluded so the
        total is not double-counted."""
        return sum(
            s.seconds for n, s in self.stages.items() if "." not in n and n != "corpus"
        )

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        return {name: self.stages[name].to_dict() for name in self.ordered_names()}

    @staticmethod
    def from_dict(data: Dict[str, Dict[str, object]]) -> "PipelineMetrics":
        """Inverse of :meth:`to_dict` — field-for-field, so round-trips
        are lossless even for degenerate stats (``calls: 0`` with
        nonzero seconds survives unchanged rather than being replayed
        through :meth:`record`'s sample/aggregate split)."""
        metrics = PipelineMetrics()
        for name, stats in data.items():
            metrics.stages[name] = StageStats.from_dict(stats)
        return metrics

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def format_table(self, title: str = "Per-stage timing") -> str:
        """An aligned text table of every recorded stage.

        Dotted sub-stages are indented under their parent stage; the
        trailing total row sums top-level stages only.  p50/p95/max
        come from the per-stage latency histograms (dashes for stages
        that only ever recorded aggregates or instantaneous counts).
        """
        headers = ["stage", "calls", "total s", "ms/call", "p50 ms", "p95 ms", "max ms", "items"]

        def ms_cell(seconds: Optional[float]) -> str:
            return "-" if seconds is None else f"{seconds * 1000.0:.2f}"

        rows: List[List[str]] = []
        for name in self.ordered_names():
            stats = self.stages[name]
            latency = stats.latency
            label = ("  " + name) if "." in name else name
            rows.append(
                [
                    label,
                    str(stats.calls),
                    f"{stats.seconds:.3f}",
                    f"{stats.ms_per_call:.2f}",
                    ms_cell(latency.quantile(0.50)),
                    ms_cell(latency.quantile(0.95)),
                    ms_cell(latency.max if latency.count else None),
                    str(stats.items),
                ]
            )
        rows.append(
            ["total (top-level)", "", f"{self.total_seconds():.3f}", "", "", "", "", ""]
        )
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))
        ]
        lines = [title, "=" * len(title)]
        lines.append(
            " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
        )
        lines.append("-+-".join("-" * w for w in widths))
        for r in rows:
            lines.append(
                " | ".join(
                    cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                    for i, cell in enumerate(r)
                )
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format_table()
