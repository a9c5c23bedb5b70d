"""Supervision: the policy and the report of a supervised corpus run.

``CorpusRunner(..., supervision=SupervisionPolicy(...))`` runs its one
dispatch loop (:mod:`repro.perf.runner`) under this policy:

* **per-document timeout** — pool tasks carry one document each; the
  loop's watchdog kills any worker past its per-document deadline and
  replaces it, so the pool stays alive;
* **crash containment** — a worker that dies mid-document (an injected
  ``crash``, a segfault) is detected via its pipe's EOF, the document
  is re-queued or quarantined, and a replacement worker boots;
* **deterministic retry** — transient
  :class:`~repro.perf.runner.DocumentFailure`\\ s are
  retried up to :attr:`SupervisionPolicy.max_attempts` with capped
  exponential backoff charged to a virtual
  :class:`~repro.resilience.budget.BackoffClock` (no sleeping);
* **quarantine** — documents that exhaust the budget (or fail
  permanently) land in a machine-readable
  :class:`~repro.resilience.quarantine.QuarantineReport`;
* **checkpoint/resume** — with a
  :attr:`~SupervisionPolicy.checkpoint_path`, every resolved document
  is appended to a JSONL log and a rerun skips completed documents,
  reproducing the uninterrupted result byte-identically.

Every supervision decision emits a registered trace event
(``runner.retry`` / ``runner.timeout`` / ``runner.quarantine`` /
``runner.worker_replace`` / ``runner.resume`` / ``runner.degrade``),
counts into ``PipelineMetrics`` under the ``resilience.*`` stages and
into the run's :class:`repro.obs.registry.MetricRegistry` as
``repro.resilience.*`` counters (the metric mirror of the ledger), and
is recorded as a :class:`SupervisionEvent` whose canonical
:meth:`~SupervisionReport.ledger` is byte-identical between serial and
parallel runs of the same plan seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.resilience.quarantine import QuarantineReport


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of supervised execution.

    ``timeout_s`` is the per-document wall-clock budget enforced by the
    pool watchdog (``None`` disables it; in-process tasks cannot be
    preempted and ignore it).  ``max_attempts`` bounds tries per
    document; backoff between attempt *k* and *k+1* is
    ``min(cap, base * 2**(k-1))`` virtual seconds.
    ``boot_timeout_s`` bounds a worker's boot, and
    ``max_worker_replacements`` caps how many replacement workers one
    run may boot before degrading to in-process execution; runs without
    a policy (and :meth:`~repro.perf.runner.WarmProcessPool.boot`) use
    the defaults of these two.
    """

    timeout_s: Optional[float] = 60.0
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    boot_timeout_s: float = 60.0
    max_worker_replacements: int = 8
    checkpoint_path: Optional[str] = None
    quarantine_report_path: Optional[str] = None


@dataclass(frozen=True)
class SupervisionEvent:
    """One supervision decision, in machine-readable form."""

    kind: str  # retry | timeout | quarantine | worker_replace | resume | degrade_serial
    doc_index: int
    doc_id: str
    attempt: int
    error_type: str = ""
    message: str = ""
    backoff_s: float = 0.0


@dataclass
class SupervisionReport:
    """Everything the supervisor decided during one run."""

    events: List[SupervisionEvent] = field(default_factory=list)
    quarantine: QuarantineReport = field(default_factory=QuarantineReport)
    attempts: Dict[str, int] = field(default_factory=dict)
    worker_replacements: int = 0
    resumed_docs: int = 0
    backoff_s: float = 0.0
    degrade_reason: Optional[str] = None

    def ledger(self) -> List[Dict[str, Any]]:
        """Canonical per-document decision ledger: deterministic order,
        no timestamps, no process identity — the serial-vs-parallel
        parity surface.  ``worker_replace`` events are excluded (worker
        scheduling is inherently parallel-only)."""
        rows = [
            asdict(e)
            for e in self.events
            if e.kind not in {"worker_replace", "degrade_serial"}
        ]
        rows.sort(key=lambda r: (r["doc_index"], r["attempt"], r["kind"], r["doc_id"]))
        return rows
