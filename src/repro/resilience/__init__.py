"""repro.resilience — deterministic fault injection + supervised execution.

Two halves, importable independently:

* :mod:`repro.resilience.faults` — the seeded fault-injection plan.
  :class:`FaultPlan` decides, per ``(site, doc, attempt)``, whether a
  named fault site raises a typed error, hangs, crashes, charges
  virtual latency or corrupts OCR output — deterministically, from the
  plan seed alone.  Core pipeline code only ever calls the free
  function :func:`fault_site`, which is a no-op unless a plan is
  installed.
* :mod:`repro.resilience.supervisor` — the policy and report of
  supervised execution, ``CorpusRunner(...,
  supervision=SupervisionPolicy(...))``: per-document timeouts with
  worker replacement, deterministic retry with a virtual backoff
  budget, quarantine, and JSONL checkpoint/resume.  The loop that
  applies it is the corpus runner's own (:mod:`repro.perf.runner`).
"""

from __future__ import annotations

from repro.resilience.budget import BackoffClock, backoff_seconds
from repro.resilience.checkpoint import CHECKPOINT_SCHEMA, CheckpointLog, run_fingerprint
from repro.resilience.faults import (
    FAULT_SITES,
    ISOLATION_SITES,
    FaultAction,
    FaultPlan,
    FaultRule,
    InjectedFault,
    PermanentFault,
    TransientFault,
    active_plan,
    doc_scope,
    drain_virtual_latency,
    fault_site,
    install,
    is_installed,
    uninstall,
)
from repro.resilience.quarantine import (
    QUARANTINE_SCHEMA,
    AttemptRecord,
    QuarantineEntry,
    QuarantineReport,
)
from repro.resilience.supervisor import (
    SupervisionEvent,
    SupervisionPolicy,
    SupervisionReport,
)

__all__ = [
    "BackoffClock",
    "backoff_seconds",
    "CHECKPOINT_SCHEMA",
    "CheckpointLog",
    "run_fingerprint",
    "FAULT_SITES",
    "ISOLATION_SITES",
    "FaultAction",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "PermanentFault",
    "TransientFault",
    "active_plan",
    "doc_scope",
    "drain_virtual_latency",
    "fault_site",
    "install",
    "is_installed",
    "uninstall",
    "QUARANTINE_SCHEMA",
    "AttemptRecord",
    "QuarantineEntry",
    "QuarantineReport",
    "SupervisionPolicy",
    "SupervisionEvent",
    "SupervisionReport",
]
