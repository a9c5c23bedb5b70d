"""Unified metrics: the ``repro.obs`` subsystem.

Where :mod:`repro.instrument` times pipeline stages and
:mod:`repro.trace` records per-document decisions, ``repro.obs`` is
the layer that makes a whole *run* observable:

* :mod:`repro.obs.registry` — a process-wide
  :class:`~repro.obs.registry.MetricRegistry` of labeled counters,
  gauges and log2 histograms, with merge semantics chosen so worker
  registries fold into the parent's and a serial run's normalized dump
  is byte-identical to a ``--workers N`` run's;
* :mod:`repro.obs.names` — the closed metric vocabulary
  (:data:`~repro.obs.names.METRIC_NAMES`), matched both ways against
  the emitting call sites by a tier-1 test;
* :mod:`repro.obs.export` — Prometheus text exposition and JSONL
  exporters (plus the round-trip parser that validates them);
* :mod:`repro.obs.resources` — RSS / CPU / tracemalloc high-water
  gauges per worker process;
* :mod:`repro.obs.flame` — collapsed-stack flamegraph and
  critical-path aggregation over :class:`repro.trace.Span` forests.

The CLI writes every view of one run through one flag: ``--observe
DIR`` on ``extract``, ``explain``, ``serve`` and ``table`` puts
``profile.txt``, ``trace.json``, ``trace.jsonl``, ``flame.txt``,
``metrics.prom`` and ``metrics.jsonl`` in DIR — each view the command
has a source for.

Layering: ``repro.obs`` imports only the base layers
(:mod:`repro.instrument`, :mod:`repro.trace`); the perf runner, the
resilience fault sites and the CLI import *it*, never the reverse.
See ``docs/OBSERVABILITY.md`` for the which-tool-when map.
"""

from repro.obs.export import (
    JSONL_SCHEMA,
    exposition_samples,
    parse_prometheus,
    prometheus_name,
    read_metrics_jsonl,
    to_prometheus,
    validate_prometheus,
    write_metrics_jsonl,
    write_prometheus,
)
from repro.obs.flame import (
    collapsed_stacks,
    critical_path,
    critical_path_lines,
    flamegraph_lines,
    write_flamegraph,
)
from repro.obs.names import KINDS, METRIC_NAMES, MetricDecl, declared
from repro.instrument import HistogramValue
from repro.obs.registry import (
    SCHEMA,
    MetricRegistry,
    get_registry,
    ingest_pipeline_metrics,
    label_key,
)
from repro.obs.resources import rss_bytes, sample_resources

__all__ = [
    "HistogramValue",
    "JSONL_SCHEMA",
    "KINDS",
    "METRIC_NAMES",
    "MetricDecl",
    "MetricRegistry",
    "SCHEMA",
    "collapsed_stacks",
    "critical_path",
    "critical_path_lines",
    "declared",
    "exposition_samples",
    "flamegraph_lines",
    "get_registry",
    "ingest_pipeline_metrics",
    "label_key",
    "parse_prometheus",
    "prometheus_name",
    "read_metrics_jsonl",
    "rss_bytes",
    "sample_resources",
    "to_prometheus",
    "validate_prometheus",
    "write_flamegraph",
    "write_metrics_jsonl",
    "write_prometheus",
]
