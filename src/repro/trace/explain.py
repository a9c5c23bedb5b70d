"""The ``repro explain`` decision report: ledgers rendered from a trace.

Given the span forest of one traced document run, render the chain of
per-document decisions the paper's pipeline makes:

* the **cut ledger** — every candidate cut set Algorithm 1 scored,
  with its normalised width, prefix correlation, and verdict;
* the **merge ledger** — every semantic-merge comparison (Eq. 1
  contribution vs the θ_h schedule) plus the per-pass fixpoint rows;
* the **Pareto table** — the §5.3.1 objective vector of every block,
  marking which survived non-dominated sorting as interest points;
* the **selection ledger** — per entity, how many candidates matched
  and which block won;
* the caller-supplied **extraction rows** (the CLI passes the final
  extractions with their source blocks);
* the **resilience ledger** — injected faults, degradation-ladder
  fallbacks and supervision decisions (retries, timeouts, quarantines),
  rendered only when such events occurred (docs/RESILIENCE.md).

Everything here is plain text formatting over :class:`~repro.trace.
tracer.Span` trees — no imports from the rest of ``repro`` — so the
report can be rendered from a live tracer or from a deserialised
worker buffer alike.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.trace.tracer import Span, TraceEvent


def collect_events(
    roots: Sequence[Span], name: Optional[str] = None
) -> List[Tuple[str, TraceEvent]]:
    """``(span_path, event)`` pairs, depth-first; ``name`` filters (a
    trailing ``.`` matches the whole event family, e.g. ``"merge."``)."""

    out: List[Tuple[str, TraceEvent]] = []

    def matches(event_name: str) -> bool:
        if name is None:
            return True
        if name.endswith("."):
            return event_name.startswith(name)
        return event_name == name

    def walk(span: Span, prefix: str) -> None:
        path = f"{prefix}/{span.label()}" if prefix else span.label()
        for event in span.events:
            if matches(event.name):
                out.append((path, event))
        for child in span.children:
            walk(child, path)

    for root in roots:
        walk(root, "")
    return out


def _format_value(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _table(title: str, headers: List[str], rows: List[List[Any]]) -> str:
    if not rows:
        return f"{title}\n{'-' * len(title)}\n  (no events recorded)"
    cells = [[_format_value(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) for i in range(len(headers))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  " + " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  " + "-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(
            "  "
            + " | ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            )
        )
    return "\n".join(lines)


def cut_table(roots: Sequence[Span]) -> str:
    """Algorithm 1's verdict on every candidate cut set."""
    rows = []
    for path, event in collect_events(roots, "cut.decision"):
        a = event.attrs
        rows.append(
            [
                a.get("orientation", "?"),
                a.get("position"),
                a.get("span_units"),
                a.get("normalized_width"),
                a.get("correlation"),
                a.get("floor"),
                bool(a.get("accepted")),
                a.get("reason", ""),
            ]
        )
    return _table(
        "Cut ledger (Algorithm 1)",
        ["orient", "pos", "span", "norm w", "corr", "floor", "accepted", "reason"],
        rows,
    )


def merge_ledger(roots: Sequence[Span]) -> str:
    """Semantic-merge comparisons (Eq. 1) and fixpoint passes."""
    rows = []
    for path, event in collect_events(roots, "merge."):
        a = event.attrs
        if event.name == "merge.pass":
            rows.append(
                ["pass", a.get("height"), a.get("theta"), None, None,
                 f"{a.get('merges', 0)} merge(s)", ""]
            )
        else:
            rows.append(
                [
                    "node",
                    a.get("height"),
                    a.get("theta"),
                    a.get("sc"),
                    a.get("sim"),
                    a.get("node", ""),
                    "merged with " + str(a.get("partner"))
                    if a.get("merged")
                    else a.get("reason", "kept"),
                ]
            )
    return _table(
        "Merge ledger (Eq. 1, θ_h schedule)",
        ["kind", "h", "θ_h", "SC", "sim", "node", "outcome"],
        rows,
    )


def pareto_table(roots: Sequence[Span]) -> str:
    """Objective vectors behind the interest-point Pareto front."""
    rows = []
    for path, event in collect_events(roots, "pareto.front"):
        for block in event.attrs.get("blocks", []):
            rows.append(
                [
                    block.get("index"),
                    block.get("height"),
                    block.get("coherence"),
                    block.get("density"),
                    bool(block.get("selected")),
                ]
            )
    return _table(
        "Pareto front (§5.3.1 objectives)",
        ["block", "height", "coherence", "density", "interest point"],
        rows,
    )


def selection_ledger(roots: Sequence[Span]) -> str:
    """Per-entity search-and-select outcomes."""
    rows = []
    for path, event in collect_events(roots, "select.decision"):
        a = event.attrs
        rows.append(
            [
                a.get("entity", "?"),
                a.get("candidates"),
                bool(a.get("matched")),
                a.get("block"),
                a.get("text", ""),
            ]
        )
    return _table(
        "Selection ledger",
        ["entity", "candidates", "matched", "block", "text"],
        rows,
    )


def resilience_ledger(roots: Sequence[Span]) -> str:
    """Every fault injected and every supervision decision taken:
    ``fault.injected``, ``pipeline.degrade`` and the ``runner.*``
    family (retry / timeout / quarantine / worker_replace / resume /
    degrade) rendered as one chronology."""
    rows = []
    for _path, event in collect_events(roots):
        a = event.attrs
        if event.name == "fault.injected":
            rows.append(
                ["fault", a.get("doc_id", ""), a.get("attempt"),
                 f"{a.get('kind', '?')} @ {a.get('site', '?')}"]
            )
        elif event.name == "pipeline.degrade":
            rows.append(
                ["degrade", "", None,
                 f"{a.get('stage', '?')} -> {a.get('fallback', '?')} "
                 f"({a.get('error_type', '?')})"]
            )
        elif event.name.startswith("runner."):
            kind = event.name[len("runner."):]
            detail = a.get("error_type") or a.get("reason") or ""
            rows.append([kind, a.get("doc_id", ""), a.get("attempt"), detail])
    return _table(
        "Resilience ledger (faults & supervision)",
        ["kind", "doc", "attempt", "detail"],
        rows,
    )


def explain_report(
    roots: Sequence[Span],
    extraction_rows: Optional[List[Dict[str, Any]]] = None,
    title: str = "Decision report",
) -> str:
    """The full human-readable report for one traced document run.

    ``extraction_rows`` (optional) are the final extractions with
    their source blocks — free-form dicts whose keys become columns.
    """
    cache_events = collect_events(roots, "ocr.cache")
    hits = sum(1 for _, e in cache_events if e.attrs.get("hit"))
    sections = [
        title,
        "=" * len(title),
        f"spans: {sum(1 for r in roots for _ in r.walk())}  "
        f"decision events: {len(collect_events(roots))}  "
        f"ocr cache: {hits} hit(s) / {len(cache_events) - hits} miss(es)",
        "",
        cut_table(roots),
        "",
        merge_ledger(roots),
        "",
        pareto_table(roots),
        "",
        selection_ledger(roots),
    ]
    resilience_events = [
        e for _p, e in collect_events(roots)
        if e.name in ("fault.injected", "pipeline.degrade")
        or e.name.startswith("runner.")
    ]
    if resilience_events:
        sections += ["", resilience_ledger(roots)]
    if extraction_rows is not None:
        headers = sorted({k for row in extraction_rows for k in row})
        rows = [[row.get(h) for h in headers] for row in extraction_rows]
        sections += ["", _table("Final extractions", headers, rows)]
    return "\n".join(sections)
