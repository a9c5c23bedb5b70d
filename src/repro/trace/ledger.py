"""Decision ledgers — canonical form and diffing.

Algorithm 1 emits one ``cut.decision`` event per candidate cut set (in
topological order) carrying the orientation, position, normalised
width, physical floor and the verdict with its reason.  Serialised
canonically, the sequence of those events is a complete record of every
separator decision of a run — the **ledger**.  The same canonical form
records any other decision events by name: ``("merge.decision",
"merge.pass")`` is the ledger of the semantic-merging fixpoint.

The ledger is the equivalence oracle of the ``segment.cuts`` fast path:
the prefix-sum projection profiles (:mod:`repro.geometry.profiles`)
must make *byte-identical* decisions to the naive grid rescan, so
``make bench-smoke`` runs the same corpus twice — fast and
``--naive-cuts`` — and requires :func:`ledger_diff` to come back empty
(see ``docs/PERFORMANCE.md`` for the protocol).

Like the rest of :mod:`repro.trace`, this module imports nothing from
the rest of :mod:`repro`, so any layer may use it.
"""

from __future__ import annotations

import difflib
import json
from typing import Dict, List, Sequence, Tuple

from repro.trace.explain import collect_events
from repro.trace.tracer import Span

#: Event name the ledger records by default.
CUT_DECISION = "cut.decision"


def cut_ledger(
    roots: Sequence[Span], events: Sequence[str] = (CUT_DECISION,)
) -> List[Tuple[str, Dict[str, object]]]:
    """The events of a span forest named in ``events``, depth-first, as
    ``(span_path, attrs)`` pairs; ``attrs`` carries the event name under
    ``"event"``.

    Depth-first order is the emission order (the recursion visits
    areas deterministically), so two runs over the same corpus produce
    comparable ledgers row for row.
    """
    wanted = frozenset(events)
    return [
        (path, {"event": event.name, **event.attrs})
        for path, event in collect_events(roots)
        if event.name in wanted
    ]


def ledger_lines(roots: Sequence[Span], events: Sequence[str] = (CUT_DECISION,)) -> List[str]:
    """The ledger of ``events`` serialised canonically — one compact
    JSON object per decision, keys sorted, no timestamps.
    Byte-comparable across runs: equality of the default (cut) lines is
    the fast-vs-naive acceptance gate.
    """
    return [
        json.dumps({"span": path, **attrs}, sort_keys=True)
        for path, attrs in cut_ledger(roots, events)
    ]


def ledger_diff(
    expected: Sequence[str],
    actual: Sequence[str],
    expected_label: str = "expected",
    actual_label: str = "actual",
    context: int = 2,
) -> List[str]:
    """Unified diff between two canonical ledgers (:func:`ledger_lines`).

    Empty ⇔ the runs made byte-identical cut decisions.  Non-empty
    output is printable as-is and names the first diverging decision —
    the debugging entry point when an optimisation breaks equivalence.
    """
    return list(
        difflib.unified_diff(
            list(expected),
            list(actual),
            fromfile=expected_label,
            tofile=actual_label,
            n=context,
            lineterm="",
        )
    )
