"""Hierarchical tracing and decision events for the VS2 pipeline.

This package is the repo's observability layer: where
:mod:`repro.instrument` answers *how long* each stage took in
aggregate, :mod:`repro.trace` answers *what happened* to one document —
which candidate cuts Algorithm 1 accepted, which sibling blocks merged
under θ_h, which interest points survived the Pareto front, which
transcriptions came from cache.

Like :mod:`repro.instrument`, it sits at the *base* of the layering
order — it imports nothing from the rest of :mod:`repro` — so
``repro.core`` can emit spans and decision events without violating
the ``LAYER001`` rule, and the perf runner can ship span buffers
across process boundaries without cycles.

Four modules:

* :mod:`repro.trace.tracer` — :class:`Tracer` (hierarchical spans +
  decision events, thread-safe buffer) and :data:`NULL_TRACER` (the
  no-op handle hot paths run against when tracing is off);
* :mod:`repro.trace.export` — JSONL event-log and Chrome
  ``trace_event`` exporters (loadable in Perfetto /
  ``chrome://tracing``), both with deterministic timestamp
  normalisation for byte-identity tests;
* :mod:`repro.trace.explain` — the human-readable decision report
  behind ``python -m repro explain`` (cut ledger, merge ledger,
  Pareto table);
* :mod:`repro.trace.ledger` — the canonical ledger of named decision
  events (``cut.decision`` by default) and its diff, the
  byte-equivalence oracle of the ``segment.cuts`` fast path and of the
  matrix form of semantic merging (docs/PERFORMANCE.md).

See ``docs/TRACING.md`` for the span model and event schema.
"""

from repro.trace.explain import collect_events, explain_report
from repro.trace.ledger import cut_ledger, ledger_diff, ledger_lines
from repro.trace.export import (
    chrome_trace_events,
    jsonl_lines,
    validate_chrome_trace,
    validate_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.trace.tracer import (
    EVENT_NAMES,
    NULL_TRACER,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
)

__all__ = [
    "EVENT_NAMES",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceEvent",
    "Tracer",
    "chrome_trace_events",
    "collect_events",
    "cut_ledger",
    "explain_report",
    "jsonl_lines",
    "ledger_diff",
    "ledger_lines",
    "validate_chrome_trace",
    "validate_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]
