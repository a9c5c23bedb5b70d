"""Result containers and text formatting for experiment runners."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.instrument import PipelineMetrics


@dataclass
class TableResult:
    """One reproduced table: header, rows, free-form notes.

    ``rows`` map column name → value; ``None`` values render as a dash
    (method not applicable), matching the paper's table typography.
    """

    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def row_for(self, key_column: str, key: object) -> Optional[Dict[str, object]]:
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        return None

    def value(self, key_column: str, key: object, column: str) -> Optional[object]:
        row = self.row_for(key_column, key)
        return None if row is None else row.get(column)

    def format(self) -> str:
        widths = {
            c: max(len(c), *(len(_cell(r.get(c))) for r in self.rows)) if self.rows else len(c)
            for c in self.columns
        }
        lines = [self.title, "=" * len(self.title)]
        header = " | ".join(c.ljust(widths[c]) for c in self.columns)
        lines.append(header)
        lines.append("-+-".join("-" * widths[c] for c in self.columns))
        for row in self.rows:
            lines.append(
                " | ".join(_cell(row.get(c)).ljust(widths[c]) for c in self.columns)
            )
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value * 100:.2f}" if -1.0 <= value <= 1.0 else f"{value:.2f}"
    return str(value)


def percent(value: Optional[float]) -> Optional[float]:
    """Identity passthrough kept for call-site readability: metric
    fractions render as percentages via :func:`_cell`."""
    return value


def timing_table(
    metrics: "PipelineMetrics", title: str = "Per-stage timing"
) -> TableResult:
    """A :class:`TableResult` view of a per-stage metrics accumulator,
    so profiling output renders with the same typography as the paper
    tables (``repro bench`` and the bench-smoke snapshot use it)."""
    table = TableResult(
        title=title,
        columns=[
            "stage", "calls", "total s", "ms/call",
            "p50 ms", "p95 ms", "max ms", "items",
        ],
    )

    def ms_cell(value: Optional[float]) -> str:
        # Preformatted: _cell renders floats in [-1, 1] as percentages.
        return "-" if value is None else f"{value:.2f}"

    for name in metrics.ordered_names():
        stats = metrics[name]
        table.add_row(**{
            "stage": ("  " + name) if "." in name else name,
            "calls": stats.calls,
            "total s": f"{stats.seconds:.3f}",
            "ms/call": f"{stats.ms_per_call:.2f}",
            "p50 ms": ms_cell(stats.p50_ms),
            "p95 ms": ms_cell(stats.p95_ms),
            "max ms": ms_cell(stats.max_ms),
            "items": stats.items,
        })
    table.notes.append(
        f"summed top-level stage time {metrics.total_seconds():.3f}s; "
        "dotted sub-stages nest inside their parents (excluded from the "
        "sum), and the sum exceeds the corpus wall-time when workers overlap"
    )
    table.notes.append(
        "p50/p95/max come from bounded log-scale latency histograms of "
        "individually timed calls; dashes mean a stage only recorded "
        "aggregate or instantaneous samples"
    )
    return table
