"""Deterministic fault injection for the VS2 hot path.

A :class:`FaultPlan` is a seeded schedule of failures: each
:class:`FaultRule` names an **injection site** (one of
:data:`FAULT_SITES`, threaded through the pipeline and the corpus
runner), a fault **kind**, and optional qualifiers (probability,
document filter, attempt window).  Whether a given ``(site, doc,
attempt)`` fires is decided by a private ``np.random.default_rng``
keyed on exactly those coordinates plus the plan seed — never on
process identity, scheduling order or wall clock — so a serial run, a
parallel run and a resumed run all see the *same* faults.

Kinds
-----
``flaky``    raise :class:`TransientFault` (retryable)
``fail``     raise :class:`PermanentFault` (quarantined immediately)
``hang``     block forever inside a supervised worker (the watchdog
             kills it); outside one, simulated as a transient raise
``crash``    ``os._exit`` inside a supervised worker (the parent
             replaces it); outside one, simulated as a transient raise
``slow``     charge virtual latency to the doc (clock-free; shows up
             in the ``fault.injected`` event, never in real time)
``corrupt``  return a :class:`FaultAction` whose
             :meth:`~FaultAction.corrupt_words` garbles OCR output
             deterministically

Plans come from :meth:`FaultPlan.from_spec` (the compact CLI grammar,
e.g. ``"ocr:flaky@0.1,worker:crash@doc=7"``) or a JSON file via
:meth:`FaultPlan.from_file` (``--faults plan.json``); see
``docs/RESILIENCE.md`` for the full grammar.

The ambient state (:func:`install` / :func:`doc_scope` /
:func:`fault_site`) is module-global per process: the corpus runner
installs the plan (in the parent for serial runs, in each worker for
parallel ones) and brackets every document attempt in a
:func:`doc_scope`.  With no plan installed, :func:`fault_site` is a
single ``None`` check — the hot path pays nothing.
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.registry import get_registry
from repro.resilience.budget import block_forever
from repro.trace import NULL_TRACER

#: Every named injection site threaded through the hot path.  The site
#: string is part of the fault-decision RNG key, so renaming one
#: reschedules every plan that targets it — treat these as API.
FAULT_SITES = frozenset(
    {
        "ocr.transcribe",
        "segment.cuts",
        "segment.merge",
        "select.match",
        "serve.admit",
        "serve.batch",
        "worker.boot",
        "worker.chunk",
    }
)

#: Spec-grammar shorthands for the full site names.
_SITE_ALIASES = {
    "ocr": "ocr.transcribe",
    "cuts": "segment.cuts",
    "merge": "segment.merge",
    "select": "select.match",
    "worker": "worker.chunk",
    "chunk": "worker.chunk",
    "boot": "worker.boot",
    "admit": "serve.admit",
    "batch": "serve.batch",
}

_KIND_ALIASES = {
    "flaky": "flaky",
    "transient": "flaky",
    "fail": "fail",
    "permanent": "fail",
    "poison": "fail",
    "hang": "hang",
    "crash": "crash",
    "slow": "slow",
    "latency": "slow",
    "corrupt": "corrupt",
}

#: Function qualnames whose broad ``except`` handlers are *registered
#: isolation sites*: places whose whole job is converting arbitrary
#: failures into recorded outcomes (degradations, boot reports).  The
#: RES002 lint rule exempts exactly these.
ISOLATION_SITES = frozenset(
    {
        "repro.core.pipeline.VS2Pipeline.run",
        "repro.perf.runner._worker_main",
    }
)


def _stable_hash(text: str) -> int:
    """Process-stable 31-bit hash (crc32, like the OCR engine's seed
    derivation) — ``hash()`` is salted per process and would make the
    fault schedule depend on ``PYTHONHASHSEED``."""
    return zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF


class InjectedFault(RuntimeError):
    """Base of every typed error a fault plan raises."""

    def __init__(self, site: str, message: str):
        super().__init__(f"{message} [site={site}]")
        self.site = site


class TransientFault(InjectedFault):
    """Retryable: the supervised runner backs off and tries again."""


class PermanentFault(InjectedFault):
    """Not retryable: the supervised runner quarantines the document."""


@dataclass(frozen=True)
class FaultRule:
    """One line of a plan: *at this site, do this, under these filters*.

    ``p`` is the per-(doc, attempt) firing probability; ``doc`` filters
    to one document index; ``attempts`` fires only while the current
    attempt number is ``<=`` it (so ``attempts=1`` models a fault that
    a retry clears); ``latency_s`` / ``severity`` parameterise the
    ``slow`` / ``corrupt`` kinds.
    """

    site: str
    kind: str
    p: float = 1.0
    doc: Optional[int] = None
    attempts: Optional[int] = None
    latency_s: float = 0.25
    severity: float = 0.3

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"site": self.site, "kind": self.kind, "p": self.p}
        if self.doc is not None:
            out["doc"] = self.doc
        if self.attempts is not None:
            out["attempts"] = self.attempts
        if self.kind == "slow":
            out["latency_s"] = self.latency_s
        if self.kind == "corrupt":
            out["severity"] = self.severity
        return out

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FaultRule":
        site = _SITE_ALIASES.get(str(data["site"]), str(data["site"]))
        kind = _KIND_ALIASES.get(str(data["kind"]))
        if site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {data['site']!r}; one of {sorted(FAULT_SITES)}")
        if kind is None:
            raise ValueError(f"unknown fault kind {data['kind']!r}; one of {sorted(set(_KIND_ALIASES))}")
        return FaultRule(
            site=site,
            kind=kind,
            p=float(data.get("p", 1.0)),
            doc=None if data.get("doc") is None else int(data["doc"]),
            attempts=None if data.get("attempts") is None else int(data["attempts"]),
            latency_s=float(data.get("latency_s", 0.25)),
            severity=float(data.get("severity", 0.3)),
        )


@dataclass(frozen=True)
class FaultAction:
    """A fired rule, bound to its deterministic RNG key."""

    site: str
    kind: str
    rule: FaultRule
    seed: Tuple[int, ...]

    def corrupt_words(self, words: Sequence[Any]) -> List[Any]:
        """Garble OCR words deterministically: each word is replaced by
        ``#`` noise with probability ``rule.severity``.  Works on any
        element exposing ``.text`` / ``.with_text`` (duck-typed so this
        module stays below the doc layer)."""
        rng = np.random.default_rng(self.seed)
        out: List[Any] = []
        for word in words:
            if rng.random() < self.rule.severity:
                garbled = "".join("#" if ch.isalnum() else ch for ch in word.text)
                out.append(word.with_text(garbled))
            else:
                out.append(word)
        return out


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, order-independent schedule of injected faults."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse the compact grammar: comma-separated
        ``site:kind[@qualifier]...`` rules.  A bare-float qualifier is
        the probability; ``doc=N`` / ``attempts=N`` / ``latency=S`` /
        ``severity=F`` / ``p=F`` are named."""
        rules: List[FaultRule] = []
        for chunk in (part.strip() for part in spec.split(",")):
            if not chunk:
                continue
            head, *quals = chunk.split("@")
            site_s, sep, kind_s = head.partition(":")
            if not sep:
                raise ValueError(f"fault rule {chunk!r} must look like site:kind[@qualifier]")
            data: Dict[str, Any] = {"site": site_s.strip(), "kind": kind_s.strip()}
            for qual in (q.strip() for q in quals):
                if "=" in qual:
                    key, value = qual.split("=", 1)
                    key = {"latency": "latency_s"}.get(key.strip(), key.strip())
                    if key not in {"doc", "attempts", "latency_s", "severity", "p"}:
                        raise ValueError(f"unknown qualifier {qual!r} in fault rule {chunk!r}")
                    data[key] = value
                else:
                    data["p"] = qual
            rules.append(FaultRule.from_dict(data))
        return cls(seed=seed, rules=tuple(rules))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(r) for r in data.get("rules", [])),
        )

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "rules": [r.to_dict() for r in self.rules]}

    def spec_key(self) -> str:
        """Canonical serialisation — part of the checkpoint fingerprint,
        so resuming under a different plan is refused."""
        return json.dumps(self.to_dict(), sort_keys=True)

    # ------------------------------------------------------------------
    # The deterministic decision
    # ------------------------------------------------------------------
    def decide(
        self, site: str, doc_id: Optional[str], doc_index: int, attempt: int
    ) -> Optional[FaultAction]:
        """First matching rule that fires wins; the draw is keyed on
        ``(plan seed, rule, doc, attempt)`` only."""
        for i, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if rule.doc is not None and rule.doc != doc_index:
                continue
            if rule.attempts is not None and attempt > rule.attempts:
                continue
            key = (
                self.seed,
                _stable_hash(f"{site}:{rule.kind}:{i}"),
                _stable_hash(doc_id or ""),
                max(int(attempt), 0),
            )
            if rule.p >= 1.0 or np.random.default_rng(key).random() < rule.p:
                return FaultAction(site=site, kind=rule.kind, rule=rule, seed=key + (1,))
        return None


# ----------------------------------------------------------------------
# Ambient per-process injection state
# ----------------------------------------------------------------------
class _FaultState:
    __slots__ = (
        "plan", "tracer", "preemptible",
        "doc_id", "doc_index", "attempt",
        "decided", "charged", "virtual_s",
    )

    def __init__(self):
        self.plan: Optional[FaultPlan] = None
        self.tracer = NULL_TRACER
        self.preemptible = False
        self._reset_doc()
        self.virtual_s = 0.0

    def _reset_doc(self) -> None:
        self.doc_id: Optional[str] = None
        self.doc_index = -1
        self.attempt = 1
        self.decided: Dict[str, Optional[FaultAction]] = {}
        self.charged: set = set()


# The fault registry is per-process by design: install() arms each
# supervised worker separately, and doc_scope/fault_site mutate only this
# process's copy.
_STATE = _FaultState()


def install(plan: FaultPlan, tracer=NULL_TRACER, preemptible: bool = False) -> None:
    """Arm ``plan`` for this process.  ``preemptible=True`` means the
    process is a supervised worker the parent can kill, so ``hang`` /
    ``crash`` faults execute for real instead of simulating."""
    _STATE.plan = plan
    _STATE.tracer = tracer
    _STATE.preemptible = preemptible
    _STATE._reset_doc()
    _STATE.virtual_s = 0.0


def uninstall() -> None:
    _STATE.plan = None
    _STATE.tracer = NULL_TRACER
    _STATE.preemptible = False
    _STATE._reset_doc()


def is_installed() -> bool:
    return _STATE.plan is not None


def active_plan() -> Optional[FaultPlan]:
    return _STATE.plan


def drain_virtual_latency() -> float:
    """Virtual seconds charged by ``slow`` faults since the last drain."""
    out, _STATE.virtual_s = _STATE.virtual_s, 0.0
    return out


@contextmanager
def doc_scope(doc_id: str, doc_index: int, attempt: int = 1):
    """Bracket one document *attempt*: fault decisions made inside are
    memoised per site (a site hit twice in one attempt behaves
    consistently) and keyed on exactly this ``(doc, attempt)``."""
    state = _STATE
    if state.plan is None:
        yield
        return
    previous = (state.doc_id, state.doc_index, state.attempt, state.decided, state.charged)
    state.doc_id = doc_id
    state.doc_index = doc_index
    state.attempt = attempt
    state.decided = {}
    state.charged = set()
    try:
        yield
    finally:
        state.doc_id, state.doc_index, state.attempt, state.decided, state.charged = previous


def fault_site(
    name: str, doc_id: Optional[str] = None, attempt: Optional[int] = None
) -> Optional[FaultAction]:
    """The hook every injection site calls.

    Returns ``None`` (no fault, or a ``slow`` fault whose latency was
    charged), raises a typed error, blocks, or exits — or returns a
    ``corrupt`` :class:`FaultAction` for the caller to apply.  The
    explicit ``doc_id`` / ``attempt`` overrides exist for sites outside
    any document (``worker.boot``).
    """
    state = _STATE
    plan = state.plan
    if plan is None:
        return None
    override = doc_id is not None or attempt is not None
    if not override and name in state.decided:
        action = state.decided[name]
    else:
        effective_doc = doc_id if doc_id is not None else state.doc_id
        effective_attempt = attempt if attempt is not None else state.attempt
        action = plan.decide(name, effective_doc, state.doc_index, effective_attempt)
        if not override:
            state.decided[name] = action
        if action is not None:
            state.tracer.event(
                "fault.injected",
                site=name,
                kind=action.kind,
                doc_id=effective_doc or "",
                doc_index=state.doc_index,
                attempt=effective_attempt,
                latency_s=action.rule.latency_s if action.kind == "slow" else 0.0,
            )
            # Out-of-document override sites (worker.boot) exist only on
            # the parallel path; keeping them out preserves the counter's
            # serial-vs-parallel parity (repro.obs.names: deterministic).
            if not override:
                get_registry().counter(
                    "repro.faults.injected", site=name, kind=action.kind
                ).inc()
    if action is None:
        return None
    return _apply(name, action, state)


def _apply(name: str, action: FaultAction, state: _FaultState) -> Optional[FaultAction]:
    kind = action.kind
    if kind == "flaky":
        raise TransientFault(name, "injected transient fault")
    if kind == "fail":
        raise PermanentFault(name, "injected permanent fault")
    if kind == "hang":
        if state.preemptible:  # pragma: no cover - killed by the watchdog
            block_forever()
        raise TransientFault(
            name, "injected hang (simulated as a transient fault outside a supervised worker)"
        )
    if kind == "crash":
        if state.preemptible:  # pragma: no cover - exits the worker
            os._exit(86)
        raise TransientFault(
            name, "injected crash (simulated as a transient fault outside a supervised worker)"
        )
    if kind == "slow":
        if name not in state.charged:
            state.charged.add(name)
            state.virtual_s += action.rule.latency_s
        return None
    if kind == "corrupt":
        return action
    raise ValueError(f"unknown fault kind {kind!r}")  # pragma: no cover - parser rejects
