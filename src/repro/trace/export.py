"""Trace exporters: JSONL event log and Chrome ``trace_event`` JSON.

Two output formats, one span forest in:

* **JSONL** — one JSON object per line, depth-first:
  ``span_start`` / ``event`` / ``span_end`` records, each carrying the
  full span path (``corpus/doc[0]/segment/segment.cuts``).  Greppable,
  streamable, and the format the determinism tests byte-compare.
* **Chrome trace_event** — ``{"traceEvents": [...]}`` with complete
  (``ph: "X"``) events for spans and instant (``ph: "i"``) events for
  decisions, loadable in Perfetto or ``chrome://tracing``.  Every
  ``doc`` subtree is assigned its own track (``tid = doc index + 1``,
  the corpus shell on ``tid 0``) so re-parented worker spans — whose
  raw ``perf_counter`` readings come from different process epochs —
  stay readable side by side.

Both exporters accept ``normalize=True``, which replaces every
timestamp by a deterministic depth-first sequence number (and zeroes
the pid).  Normalised output depends only on the *decisions* the run
took, so a serial and a ``--workers 2`` run of the same seed produce
byte-identical files — the property ``tests/test_determinism.py``
locks in.

The ``validate_*`` helpers are the schema checks ``make trace-smoke``
and the tracing tests run against fresh output; they raise
``ValueError`` with a pointed message rather than returning False, so
failures name the offending record.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Iterator, List, Sequence, Tuple, Union

from repro.trace.tracer import EVENT_NAMES, Span

#: Bumped when either export layout changes incompatibly.
EXPORT_SCHEMA = "repro.trace/1"

_MICRO = 1_000_000.0


class _Clock:
    """Timestamp source for one export pass: real microseconds, or a
    deterministic counter when normalising."""

    __slots__ = ("normalize", "_next")

    def __init__(self, normalize: bool):
        self.normalize = normalize
        self._next = 0

    def stamp(self, t_seconds: float) -> int:
        if self.normalize:
            tick = self._next
            self._next += 1
            return tick
        return int(round(t_seconds * _MICRO))


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------


def _jsonl_records(
    span: Span, prefix: str, clock: _Clock
) -> Iterator[Dict[str, Any]]:
    path = f"{prefix}/{span.label()}" if prefix else span.label()
    start = clock.stamp(span.t0)
    yield {
        "type": "span_start",
        "name": span.name,
        "path": path,
        "t": start,
        "attrs": span.attrs,
    }
    for event in span.events:
        yield {
            "type": "event",
            "name": event.name,
            "path": path,
            "t": clock.stamp(event.t),
            "attrs": event.attrs,
        }
    for child in span.children:
        yield from _jsonl_records(child, path, clock)
    end = clock.stamp(span.t1 if span.t1 else span.t0)
    yield {
        "type": "span_end",
        "name": span.name,
        "path": path,
        "t": end,
        "dur": end - start,
    }


def jsonl_lines(roots: Sequence[Span], normalize: bool = False) -> List[str]:
    """The event log as JSON lines (no trailing newline per entry).

    Keys are sorted so the byte stream is a pure function of the trace
    content; with ``normalize=True`` it is a pure function of the
    *decisions*, independent of wall time and process layout.
    """
    clock = _Clock(normalize)
    lines = [json.dumps({"schema": EXPORT_SCHEMA, "type": "header"}, sort_keys=True)]
    for root in roots:
        for record in _jsonl_records(root, "", clock):
            lines.append(json.dumps(record, sort_keys=True))
    return lines


def write_jsonl(
    path: Union[str, pathlib.Path], roots: Sequence[Span], normalize: bool = False
) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(jsonl_lines(roots, normalize=normalize)) + "\n")
    return path


# ----------------------------------------------------------------------
# Chrome trace_event format
# ----------------------------------------------------------------------


def _chrome_walk(
    span: Span, tid: int, clock: _Clock, out: List[Dict[str, Any]]
) -> None:
    if span.name == "doc" and span.attrs.get("index") is not None:
        # One track per document: worker perf_counter epochs differ, but
        # within a doc subtree all readings share one process.
        tid = int(span.attrs["index"]) + 1
    start = clock.stamp(span.t0)
    events: List[Tuple[int, Dict[str, Any]]] = []
    for event in span.events:
        events.append(
            (
                clock.stamp(event.t),
                {
                    "name": event.name,
                    "ph": "i",
                    "s": "t",
                    "pid": 0,
                    "tid": tid,
                    "cat": "decision",
                    "args": event.attrs,
                },
            )
        )
    for child in span.children:
        _chrome_walk(child, tid, clock, out)
    end = clock.stamp(span.t1 if span.t1 else span.t0)
    out.append(
        {
            "name": span.label(),
            "ph": "X",
            "ts": start,
            "dur": max(end - start, 0),
            "pid": 0,
            "tid": tid,
            "cat": "span",
            "args": span.attrs,
        }
    )
    for ts, record in events:
        record["ts"] = ts
        out.append(record)


def chrome_trace_events(
    roots: Sequence[Span], normalize: bool = False
) -> List[Dict[str, Any]]:
    """The span forest as Chrome ``trace_event`` records."""
    clock = _Clock(normalize)
    out: List[Dict[str, Any]] = []
    for root in roots:
        _chrome_walk(root, 0, clock, out)
    return out


def write_chrome_trace(
    path: Union[str, pathlib.Path], roots: Sequence[Span], normalize: bool = False
) -> pathlib.Path:
    """Write a ``chrome://tracing`` / Perfetto loadable JSON file."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": EXPORT_SCHEMA,
        "displayTimeUnit": "ms",
        "traceEvents": chrome_trace_events(roots, normalize=normalize),
    }
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# Validation (the trace-smoke schema checks)
# ----------------------------------------------------------------------

_JSONL_TYPES = {"header", "span_start", "event", "span_end"}


def validate_chrome_trace(
    path: Union[str, pathlib.Path], strict_names: bool = False
) -> int:
    """Check a Chrome trace file's structure; returns the event count.

    Raises ``ValueError`` naming the first malformed record.  Checks:
    top-level shape, required keys per phase, numeric timestamps, and
    that at least one complete (``X``) span event exists.  With
    ``strict_names=True``, every decision (instant) event must also use
    a name registered in :data:`repro.trace.tracer.EVENT_NAMES` — the
    runtime complement of the test that matches every literal
    ``.event(...)`` name against the registry.
    """
    data = json.loads(pathlib.Path(path).read_text())
    if not isinstance(data, dict) or not isinstance(data.get("traceEvents"), list):
        raise ValueError(f"{path}: not a trace_event file (traceEvents missing)")
    spans = 0
    for i, record in enumerate(data["traceEvents"]):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(record, dict):
            raise ValueError(f"{where}: not an object")
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in record:
                raise ValueError(f"{where}: missing {key!r}")
        if not isinstance(record["ts"], (int, float)):
            raise ValueError(f"{where}: ts must be numeric")
        if record["ph"] == "X":
            spans += 1
            if not isinstance(record.get("dur"), (int, float)) or record["dur"] < 0:
                raise ValueError(f"{where}: complete event needs dur >= 0")
        elif record["ph"] == "i":
            if record.get("s") not in ("t", "p", "g"):
                raise ValueError(f"{where}: instant event needs scope s")
            if strict_names and record["name"] not in EVENT_NAMES:
                raise ValueError(
                    f"{where}: unregistered event name {record['name']!r} "
                    "(see repro.trace.tracer.EVENT_NAMES)"
                )
        else:
            raise ValueError(f"{where}: unexpected phase {record['ph']!r}")
    if spans == 0:
        raise ValueError(f"{path}: no span (ph=X) events")
    return len(data["traceEvents"])


def validate_jsonl(
    path: Union[str, pathlib.Path], strict_names: bool = False
) -> int:
    """Check a JSONL event log's structure; returns the record count.

    ``strict_names=True`` additionally requires every ``event`` record
    to use a registered :data:`~repro.trace.tracer.EVENT_NAMES` name.
    """
    lines = pathlib.Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty event log")
    open_paths: List[str] = []
    for i, line in enumerate(lines):
        where = f"{path}:{i + 1}"
        record = json.loads(line)
        kind = record.get("type")
        if kind not in _JSONL_TYPES:
            raise ValueError(f"{where}: unexpected record type {kind!r}")
        if kind == "header":
            continue
        for key in ("name", "path", "t"):
            if key not in record:
                raise ValueError(f"{where}: missing {key!r}")
        if kind == "span_start":
            open_paths.append(record["path"])
        elif kind == "span_end":
            if not open_paths or open_paths[-1] != record["path"]:
                raise ValueError(f"{where}: unbalanced span_end for {record['path']!r}")
            open_paths.pop()
        elif kind == "event":
            if record["path"] not in open_paths:
                raise ValueError(f"{where}: event outside its span {record['path']!r}")
            if strict_names and record["name"] not in EVENT_NAMES:
                raise ValueError(
                    f"{where}: unregistered event name {record['name']!r} "
                    "(see repro.trace.tracer.EVENT_NAMES)"
                )
    if open_paths:
        raise ValueError(f"{path}: unclosed span(s) {open_paths!r}")
    return len(lines)
