"""Span-derived aggregations: collapsed flamegraph stacks, critical path.

The tracer already records where the time went — every span carries
``t0``/``t1`` — but a span forest is hard to eyeball at corpus scale.
Two standard aggregations fix that:

* :func:`collapsed_stacks` — Brendan Gregg's collapsed-stack format
  (``corpus;doc[0];segment;segment.cuts 8123``): one line per unique
  span *path*, value = summed **self time** in integer microseconds
  (children's time excluded, so a flamegraph renderer reconstructs the
  hierarchy exactly).  ``repro extract --observe DIR`` writes this to
  ``DIR/flame.txt``; feed it to ``flamegraph.pl`` or speedscope.
* :func:`critical_path` — the chain of slowest children from the root
  down: the sequence of spans an infinitely parallel machine would
  still have to wait for.  ``--observe`` prints it after listing the
  files it wrote.

Both are pure functions of the span forest; values are wall-clock and
therefore environment data (never part of the determinism surface).
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Tuple, Union

from repro.trace import Span


def _self_seconds(span: Span) -> float:
    """Span duration minus the time covered by its children (clamped
    at zero — overlapping child spans cannot drive self time negative)."""
    child_time = sum(c.duration for c in span.children)
    return max(span.duration - child_time, 0.0)


def collapsed_stacks(roots: List[Span]) -> Dict[str, float]:
    """``path -> self seconds`` over the whole forest, paths joined
    with ``;`` from each root down."""
    totals: Dict[str, float] = {}

    def walk(span: Span, prefix: str) -> None:
        path = f"{prefix};{span.label()}" if prefix else span.label()
        totals[path] = totals.get(path, 0.0) + _self_seconds(span)
        for child in span.children:
            walk(child, path)

    for root in roots:
        walk(root, "")
    return totals


def flamegraph_lines(roots: List[Span]) -> List[str]:
    """Collapsed-stack lines (``path value_us``), sorted by path —
    byte-stable for a given span forest."""
    totals = collapsed_stacks(roots)
    return [
        f"{path} {int(round(seconds * 1e6))}"
        for path, seconds in sorted(totals.items())
    ]


def write_flamegraph(path: Union[str, pathlib.Path], roots: List[Span]) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = flamegraph_lines(roots)
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


def critical_path(roots: List[Span]) -> List[Tuple[str, float]]:
    """The slowest-child chain from the slowest root down, as
    ``(path, duration seconds)`` pairs.

    Ties break toward the earlier-starting span (then by label) so the
    result is deterministic even for equal durations.
    """
    if not roots:
        return []
    out: List[Tuple[str, float]] = []
    span = max(roots, key=lambda s: (s.duration, -s.t0, s.label()))
    prefix = ""
    while span is not None:
        path = f"{prefix};{span.label()}" if prefix else span.label()
        out.append((path, span.duration))
        prefix = path
        if not span.children:
            break
        span = max(span.children, key=lambda s: (s.duration, -s.t0, s.label()))
    return out


def critical_path_lines(roots: List[Span]) -> List[str]:
    """The critical path rendered as indented report lines."""
    chain = critical_path(roots)
    lines = []
    for depth, (path, seconds) in enumerate(chain):
        label = path.rsplit(";", 1)[-1]
        lines.append(f"{'  ' * depth}{label:<24s} {seconds * 1000.0:9.2f} ms")
    return lines
