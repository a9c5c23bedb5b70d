"""The metric-name registry: every metric ``repro.obs`` may emit.

Mirrors the trace-event schema (:data:`repro.trace.tracer.EVENT_NAMES`)
for the metrics layer: downstream consumers — the Prometheus
exposition, the tests' metric asserts, dashboards built on the JSONL
dump — key on these strings, so the set is closed.  A tier-1 test
(``tests/test_analysis_lint.py``) scans ``src/repro`` for literal
``.counter("…")`` / ``.gauge("…")`` / ``.histogram("…")`` names and
checks them both ways against this table: every emitted name is
declared, and every declared name is emitted.  At runtime a strict
:class:`~repro.obs.registry.MetricRegistry` rejects undeclared names
with a :class:`KeyError`.  Register new metrics here first.

Each declaration records the metric's **kind** (``counter`` — merge by
sum; ``gauge`` — merge by max, the high-water convention; ``histogram``
— merge bucket-wise) and whether it is **deterministic**: a pure
function of the run's inputs, identical between a serial and a
``--workers N`` run.  Wall-clock timings, resource readings and
worker-scheduling counts are *environment* metrics
(``deterministic=False``); :meth:`MetricRegistry.normalized_dump`
excludes them, which is what makes the serial-vs-parallel registry
byte-identity testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: The metric kinds a declaration may carry.
KINDS = ("counter", "gauge", "histogram")


@dataclass(frozen=True)
class MetricDecl:
    """One declared metric: kind, label vocabulary, determinism, help."""

    kind: str
    labels: Tuple[str, ...] = ()
    deterministic: bool = True
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r} (expected one of {KINDS})")


def _decl(kind: str, labels: Tuple[str, ...] = (), deterministic: bool = True, help: str = "") -> MetricDecl:
    return MetricDecl(kind=kind, labels=labels, deterministic=deterministic, help=help)


#: name -> declaration.  Keys are the closed metric vocabulary.
METRIC_NAMES: Dict[str, MetricDecl] = {
    # -- corpus execution ------------------------------------------------
    "repro.docs.processed": _decl(
        "counter", ("corpus", "status"),
        help="documents run through the pipeline, by outcome (ok|failed)",
    ),
    "repro.doc.failures": _decl(
        "counter", ("corpus", "error_type"),
        help="per-document pipeline failures by exception type",
    ),
    "repro.doc.degradations": _decl(
        "counter", ("corpus", "stage"),
        help="per-stage degradation-ladder activations (merge->visual, select->ner)",
    ),
    # -- stage accounting (ingested from PipelineMetrics) ----------------
    "repro.stage.calls": _decl(
        "counter", ("stage",),
        help="recorded calls per pipeline stage",
    ),
    "repro.stage.items": _decl(
        "counter", ("stage",),
        help="work items (blocks, words, extractions) per pipeline stage",
    ),
    "repro.stage.seconds": _decl(
        "counter", ("stage",), deterministic=False,
        help="wall-clock seconds per pipeline stage",
    ),
    "repro.stage.cpu_seconds": _decl(
        "counter", ("stage",), deterministic=False,
        help="CPU (user+sys) seconds per pipeline stage, from getrusage deltas",
    ),
    "repro.stage.latency": _decl(
        "histogram", ("stage",), deterministic=False,
        help="per-call latency histogram (log2 buckets) per pipeline stage",
    ),
    # -- resilience (the SupervisionReport ledger, as metrics) -----------
    "repro.resilience.retries": _decl(
        "counter", ("error_type",),
        help="supervised retry decisions by failing exception type",
    ),
    "repro.resilience.quarantines": _decl(
        "counter", ("error_type",),
        help="documents quarantined after exhausting the attempt budget",
    ),
    "repro.resilience.timeouts": _decl(
        "counter", (), deterministic=False,
        help="watchdog document timeouts (parallel supervision only)",
    ),
    "repro.resilience.worker_replacements": _decl(
        "counter", (), deterministic=False,
        help="supervised workers killed and replaced (scheduling-dependent)",
    ),
    "repro.resilience.resumes": _decl(
        "counter", (),
        help="documents restored from a checkpoint instead of re-run",
    ),
    "repro.resilience.backoff_seconds": _decl(
        "counter", (),
        help="virtual backoff charged between retry attempts",
    ),
    "repro.faults.injected": _decl(
        "counter", ("site", "kind"),
        help="deterministic fault injections by site and fault kind",
    ),
    # -- ocr cache (serial shares one cache, workers each own one) -------
    "repro.ocr.cache": _decl(
        "counter", ("outcome",), deterministic=False,
        help="transcription-cache lookups by outcome (hit|miss)",
    ),
    # -- serving (repro.serve admission / batching / overload) -----------
    "repro.serve.requests": _decl(
        "counter", ("status",),
        help="requests resolved by final status (200|429|504)",
    ),
    "repro.serve.admitted": _decl(
        "counter", (),
        help="requests accepted into the admission queue",
    ),
    "repro.serve.shed": _decl(
        "counter", ("reason",),
        help="requests shed with 429 by reason (queue_full|draining|fault)",
    ),
    "repro.serve.timeouts": _decl(
        "counter", ("where",),
        help="request deadline expiries (504) by where they were caught (queue|batch|result)",
    ),
    "repro.serve.queue_depth": _decl(
        "gauge", (), deterministic=False,
        help="admission-queue depth high-water mark",
    ),
    "repro.serve.batches": _decl(
        "counter", ("outcome",),
        help="micro-batches dispatched by outcome (ok|degraded|fault)",
    ),
    "repro.serve.batched_docs": _decl(
        "counter", (),
        help="documents dispatched to the pipeline inside micro-batches",
    ),
    "repro.serve.request_latency": _decl(
        "histogram", (), deterministic=False,
        help="admission-to-resolution request latency histogram (log2 buckets)",
    ),
    "repro.serve.breaker_transitions": _decl(
        "counter", ("stage", "state"),
        help="circuit-breaker state transitions per pipeline stage (open|half_open|closed)",
    ),
    # -- resource accounting (per worker process) ------------------------
    "repro.process.rss_max_bytes": _decl(
        "gauge", ("worker",), deterministic=False,
        help="resident-set high-water mark per process (getrusage ru_maxrss)",
    ),
    "repro.process.cpu_user_seconds": _decl(
        "gauge", ("worker",), deterministic=False,
        help="cumulative user CPU seconds per process (high-water gauge)",
    ),
    "repro.process.cpu_sys_seconds": _decl(
        "gauge", ("worker",), deterministic=False,
        help="cumulative system CPU seconds per process (high-water gauge)",
    ),
    "repro.process.tracemalloc_peak_bytes": _decl(
        "gauge", ("worker",), deterministic=False,
        help="tracemalloc peak traced allocation per process (when tracing)",
    ),
}

#: Labels :meth:`MetricRegistry.normalized_dump` folds away before the
#: serial-vs-parallel comparison (worker identity is scheduling, not
#: pipeline behaviour).
NORMALIZED_DROPPED_LABELS = frozenset({"worker"})


def declared(name: str) -> MetricDecl:
    """The declaration for ``name``; raises ``KeyError`` when the name
    was never registered."""
    try:
        return METRIC_NAMES[name]
    except KeyError:
        raise KeyError(
            f"metric {name!r} is not declared in repro.obs.names.METRIC_NAMES; "
            "register it there first"
        ) from None
