"""Hierarchical spans, decision events, and the tracer handle.

The model is deliberately small:

* a :class:`Span` is a named interval with attributes, child spans and
  :class:`TraceEvent` records — the tree ``corpus > doc[i] > segment >
  segment.cuts`` mirrors the pipeline's call structure;
* a :class:`TraceEvent` is one *decision* the pipeline took (a cut
  accepted or rejected, a merge comparison, a Pareto front), attached
  to whichever span was open when it happened;
* a :class:`Tracer` owns a thread-safe buffer of finished root spans
  and a per-thread stack of open ones.

Timestamps come from ``time.perf_counter`` and are therefore only
meaningful *within* one process; the exporters
(:mod:`repro.trace.export`) can normalise them away, which is how the
determinism tests compare serial and multi-process runs byte for byte.

``NULL_TRACER`` is the no-op twin every traced code path defaults to:
its ``span()`` hands back a shared do-nothing context manager and
``event()`` returns immediately, so tracing-off overhead is one
attribute lookup and a method call.  Sites that would compute event
attributes eagerly should guard on :attr:`Tracer.enabled`::

    if tracer.enabled:
        tracer.event("cut.decision", accepted=True, width=w)
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

#: Bumped when the serialised span layout changes incompatibly.
SPAN_SCHEMA_VERSION = 1

#: The trace-event schema: every decision-event name the pipeline may
#: emit.  Downstream consumers (the explain report, trace diffing) key
#: on these strings, so the set is closed.  A tier-1 test
#: (``tests/test_analysis_lint.py``) scans ``src/repro`` for literal
#: ``.event("…")`` names and checks that each is registered here and
#: that every registered name still has an emitter.  Register new
#: events here first.
EVENT_NAMES = frozenset(
    {
        "cut.decision",
        "fault.injected",
        "merge.decision",
        "merge.pass",
        "ocr.cache",
        "pareto.front",
        "pipeline.degrade",
        "runner.degrade",
        "runner.quarantine",
        "runner.resume",
        "runner.retry",
        "runner.timeout",
        "runner.worker_replace",
        "select.decision",
        "serve.admit",
        "serve.deadline",
        "serve.drain",
        "serve.shed",
    }
)


class TraceEvent:
    """One decision event: a name, a timestamp, free-form attributes.

    Attribute values must be JSON-serialisable (numbers, strings,
    bools, lists/dicts of those) — the exporters write them verbatim.
    """

    __slots__ = ("name", "t", "attrs")

    def __init__(self, name: str, t: float, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.t = t
        self.attrs = attrs if attrs is not None else {}

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "t": self.t, "attrs": self.attrs}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "TraceEvent":
        return TraceEvent(
            str(data["name"]), float(data.get("t", 0.0)), dict(data.get("attrs", {}))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.name!r}, attrs={self.attrs!r})"


class Span:
    """A named interval in the trace tree.

    ``t0``/``t1`` are ``perf_counter`` readings (process-relative
    seconds); ``t1 == 0.0`` means the span never closed (a crash, or a
    buffer drained mid-flight).  ``attrs`` set at creation identify the
    span (``doc`` spans carry ``index`` and ``doc_id``).
    """

    __slots__ = ("name", "attrs", "t0", "t1", "events", "children")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None, t0: float = 0.0):
        self.name = name
        self.attrs = attrs if attrs is not None else {}
        self.t0 = t0
        self.t1 = 0.0
        self.events: List[TraceEvent] = []
        self.children: List["Span"] = []

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        return max(self.t1 - self.t0, 0.0) if self.t1 else 0.0

    def label(self) -> str:
        """Path segment for this span: ``doc`` spans render as
        ``doc[3]`` so paths distinguish documents."""
        index = self.attrs.get("index")
        return f"{self.name}[{index}]" if index is not None else self.name

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every descendant span (including self) with ``name``."""
        return [s for s in self.walk() if s.name == name]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (recursive) — the cross-process wire format."""
        return {
            "name": self.name,
            "attrs": self.attrs,
            "t0": self.t0,
            "t1": self.t1,
            "events": [e.to_dict() for e in self.events],
            "children": [c.to_dict() for c in self.children],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Span":
        span = Span(str(data["name"]), dict(data.get("attrs", {})))
        span.t0 = float(data.get("t0", 0.0))
        span.t1 = float(data.get("t1", 0.0))
        span.events = [TraceEvent.from_dict(e) for e in data.get("events", [])]
        span.children = [Span.from_dict(c) for c in data.get("children", [])]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.label()!r}, events={len(self.events)}, "
            f"children={len(self.children)})"
        )


class _SpanContext:
    """The ``with`` handle one ``tracer.span(...)`` call returns."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.t1 = self._tracer._clock()
        if exc is not None:
            # Deepest failing span wins: record the full path once and
            # let outer frames of the same exception leave it alone.
            self._tracer._note_error(exc)
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Produces hierarchical spans and decision events.

    Thread-safe: each thread keeps its own open-span stack (so spans
    nest per call stack), while the finished-roots buffer is guarded by
    a lock.  The parallel runner serialises drained buffers from worker
    processes and re-parents them here via :meth:`adopt`.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: List[Span] = []
        self._orphans: List[TraceEvent] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a child span of whatever span is current on this
        thread (a new root when none is)."""
        return _SpanContext(self, Span(name, attrs, t0=self._clock()))

    def event(self, name: str, **attrs: Any) -> None:
        """Record a decision event on the current span.

        Events fired outside any span are kept as orphans and exported
        under a synthetic ``detached`` root rather than dropped.
        """
        ev = TraceEvent(name, self._clock(), attrs)
        stack = self._stack()
        if stack:
            stack[-1].events.append(ev)
        else:
            with self._lock:
                self._orphans.append(ev)

    def adopt(self, span: Span) -> None:
        """Attach an externally produced span (a worker's drained doc
        span) under the current span — or as a root if none is open."""
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def current_path(self) -> str:
        """``corpus/doc[3]/segment``-style path of the open span stack."""
        return "/".join(s.label() for s in self._stack())

    def consume_error_path(self, exc: BaseException) -> Optional[str]:
        """The span path at the *deepest* frame where ``exc`` unwound —
        set once per exception, cleared by this call."""
        noted = getattr(self._local, "error", None)
        self._local.error = None
        if noted is not None and noted[0] is exc:
            return noted[1]
        return None

    def drain(self) -> List[Span]:
        """Snapshot and reset the finished-roots buffer.

        Open spans stay on their thread stacks; orphan events are
        wrapped in a synthetic ``detached`` root so nothing is lost.
        """
        with self._lock:
            roots, self._roots = self._roots, []
            orphans, self._orphans = self._orphans, []
        if orphans:
            detached = Span("detached")
            detached.events = orphans
            roots.append(detached)
        return roots

    # ------------------------------------------------------------------
    # Stack plumbing
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - unbalanced exit guard
            stack.remove(span)

    def _note_error(self, exc: BaseException) -> None:
        noted = getattr(self._local, "error", None)
        if noted is None or noted[0] is not exc:
            self._local.error = (exc, self.current_path())


class _NullSpanContext:
    """Shared do-nothing ``with`` handle (returns a throwaway span so
    callers may set attributes without branching)."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = Span("null")
_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """The tracing-off handle: every operation is a no-op.

    Hot paths hold one of these by default, so the cost of *not*
    tracing is a method call — no buffers, no clock reads, no
    allocation beyond the ignored kwargs dict.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:
        return _NULL_CONTEXT

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def adopt(self, span: Span) -> None:
        return None

    def current_path(self) -> str:
        return ""

    def consume_error_path(self, exc: BaseException) -> Optional[str]:
        return None

    def drain(self) -> List[Span]:
        return []


#: The shared tracing-off handle (stateless, safe to share everywhere).
NULL_TRACER = NullTracer()
