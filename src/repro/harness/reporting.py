"""Result containers and text formatting for experiment runners."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


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

