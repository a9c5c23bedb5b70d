"""The sans-IO extraction service: admission, batching, deadlines.

:class:`ExtractionService` is the server's whole state machine with
the transport and the clock factored out: every method takes an
explicit ``now`` (seconds on whatever clock the caller runs).  The
asyncio HTTP front-end (:mod:`repro.serve.http`) drives it with
``time.monotonic``; the deterministic load generator
(:mod:`repro.serve.loadgen`) drives it with a **virtual clock**, which
is what makes overload behaviour — shedding, deadline expiry, breaker
trips — seeded and byte-for-byte reproducible, independent of worker
count and machine speed.

Request lifecycle (full accounting — every submitted request resolves
as exactly one of these, nothing lost, nothing hung)::

    submit ──▶ admit ──▶ queue ──▶ batch ──▶ resolve ──▶ 200
                 │          │         │          │
                 │ draining │ expired │ fault /  │ completed past
                 │ full     │         │ transient│ deadline, or
                 │ fault    │         ▼ failure  │ attempts exhausted
                 ▼          ▼      re-enqueue    ▼
                429        504    (while budget 504
             Retry-After          and deadline
                                  allow)

A batch is whatever queued while the previous batch ran (at most
``batch_max`` requests; the HTTP dispatcher takes one on arrival), and
the heavy lifting of a batch is one
:class:`repro.perf.runner.CorpusRunner` call.  With ``workers > 1``
every batch, a lone request included, runs on the shared
:class:`~repro.perf.runner.WarmProcessPool` whose workers booted the
pipeline (embeddings, pattern tables, holdout mining) once at server
start.  While a stage's circuit breaker is open, batches run serially
through a cached degraded pipeline variant instead
(``docs/SERVING.md`` walks through the ladder).
"""

from __future__ import annotations

import copy
import json
import os
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, FrozenSet, List, Optional, Tuple

from repro.core.config import VS2Config
from repro.obs.registry import MetricRegistry
from repro.perf.runner import CorpusRunner, CorpusRunResult, WarmProcessPool
from repro.resilience import faults as _faults
from repro.serve.breaker import CircuitBreaker
from repro.serve.config import ServeConfig
from repro.synth import generate_corpus
from repro.trace import NULL_TRACER

#: Schema tag of the drain checkpoint written on graceful shutdown.
CHECKPOINT_SCHEMA = "repro.serve.checkpoint/1"

#: The only statuses a submitted request may resolve to.
STATUS_OK = 200
STATUS_SHED = 429
STATUS_TIMEOUT = 504

#: The two degradable stages (names as recorded on ``Degradation``).
BREAKER_STAGES = ("segment", "select")


@dataclass(frozen=True)
class UncachedPipelineFactory:
    """Builds serve-path pipelines with the transcription cache off.

    A service replays the same warm-corpus documents across many
    requests; with per-process caches, *which* repeat lands on an
    already-warm worker is scheduling, so cache-hit patterns (and the
    ocr/deskew stage counters fed from them) would differ between a
    1-worker and an N-worker server.  Serving uncached keeps every
    deterministic stage counter a pure function of the request
    schedule — the determinism the loadgen harness pins byte-for-byte.
    Picklable (a frozen dataclass) so it travels to pool workers.
    """

    dataset: str
    config: Optional[VS2Config] = None

    def __call__(self):
        from repro.core.pipeline import VS2Pipeline

        return VS2Pipeline(self.dataset, config=self.config, cache=None)


@dataclass
class ServeRequest:
    """One admitted request: a ticket through the queue and batches."""

    request_id: str
    doc: Any  # repro.doc.Document
    doc_index: int
    submitted_at: float
    deadline: float
    attempt: int = 1


@dataclass
class ServeResponse:
    """One resolved request.  ``body`` is JSON-serialisable; dumping it
    with ``sort_keys=True`` (see :meth:`payload`) is the byte-stable
    form the determinism tests compare."""

    request_id: str
    status: int
    body: Dict[str, Any]
    finished_at: float = 0.0
    latency_s: float = 0.0
    retry_after_s: Optional[float] = None

    def payload(self) -> bytes:
        return json.dumps(self.body, sort_keys=True).encode("utf-8")


@dataclass
class BatchOutcome:
    """What one dispatched batch produced: either a corpus-run result
    or a whole-batch injected fault (``serve.batch`` site)."""

    batch_id: str
    result: Optional[CorpusRunResult]
    fault: Optional[str] = None
    open_stages: FrozenSet[str] = frozenset()


class ExtractionService:
    """Admission control, micro-batching and degradation for one server.

    Not thread-safe by itself: the owner serialises calls (the HTTP
    layer funnels everything through one event loop; the load
    generator is single-threaded).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        registry: Optional[MetricRegistry] = None,
        tracer=NULL_TRACER,
        fault_plan: Optional["_faults.FaultPlan"] = None,
    ):
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer
        self.fault_plan = fault_plan
        self.corpus = generate_corpus(
            self.config.dataset, self.config.corpus_n, self.config.corpus_seed
        )
        self.queue: Deque[ServeRequest] = deque()
        self.draining = False
        self.breakers: Dict[str, CircuitBreaker] = {
            stage: CircuitBreaker(stage, self.config.breaker, registry=self.registry)
            for stage in BREAKER_STAGES
        }
        self.accounting: Dict[str, int] = {
            "submitted": 0, "ok": 0, "shed": 0, "timeout": 0,
        }
        self.pool: Optional[WarmProcessPool] = None
        self._runners: Dict[FrozenSet[str], CorpusRunner] = {}
        self._seq = 0
        self._batch_seq = 0
        self._installed_faults = False
        self._booted = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def boot(self) -> "ExtractionService":
        """Pay every warm-up cost now: synthesise nothing further, arm
        the fault plan, and boot the process pool so the first request
        meets already-initialised workers.  Pool boot failure degrades
        to in-process serving instead of failing the server."""
        if self._booted:
            return self
        if self.fault_plan is not None and not _faults.is_installed():
            _faults.install(self.fault_plan, tracer=self.tracer)
            self._installed_faults = True
        if self.config.workers > 1:
            pool = WarmProcessPool(
                self.config.dataset,
                config=self.config.pipeline,
                workers=self.config.workers,
                pipeline_factory=UncachedPipelineFactory(
                    self.config.dataset, self.config.pipeline
                ),
                trace_enabled=self.tracer.enabled,
                fault_plan=self.fault_plan,
            )
            try:
                pool.boot()
                self.pool = pool
            except (OSError, ValueError):
                self.pool = None  # CorpusRunner serves serially
        self._booted = True
        return self

    @property
    def ready(self) -> bool:
        return self._booted and not self.draining

    def shutdown(self) -> None:
        """Release the pool and the ambient fault plan.  Idempotent."""
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self._installed_faults and _faults.is_installed():
            _faults.uninstall()
            self._installed_faults = False
        self._booted = False

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(
        self,
        doc_index: int,
        now: float,
        request_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> Tuple[Optional[ServeRequest], Optional[ServeResponse]]:
        """Try to accept one request at time ``now``.

        Returns ``(ticket, None)`` when admitted — the caller owns the
        ticket until a later :meth:`resolve` (or queue expiry) produces
        its response — or ``(None, response)`` when resolved
        immediately (shed with 429).
        """
        self._seq += 1
        rid = request_id or f"req-{self._seq:06d}"
        self.accounting["submitted"] += 1
        if self.draining:
            return None, self._shed(rid, "draining", now)
        try:
            _faults.fault_site("serve.admit", doc_id=rid, attempt=1)
        except (_faults.TransientFault, _faults.PermanentFault):
            return None, self._shed(rid, "fault", now)
        if len(self.queue) >= self.config.queue_limit:
            return None, self._shed(rid, "queue_full", now)
        ticket = ServeRequest(
            request_id=rid,
            doc=self.corpus[doc_index % len(self.corpus)],
            doc_index=doc_index,
            submitted_at=now,
            deadline=now + (deadline_s if deadline_s is not None else self.config.deadline_s),
        )
        self.queue.append(ticket)
        self.registry.counter("repro.serve.admitted").inc()
        self.registry.gauge("repro.serve.queue_depth").set_max(len(self.queue))
        self.tracer.event(
            "serve.admit", request_id=rid, queue_depth=len(self.queue)
        )
        return ticket, None

    def pending(self) -> int:
        return len(self.queue)

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def take_batch(self, now: float) -> Tuple[List[ServeRequest], List[ServeResponse]]:
        """Pop the next micro-batch.  Requests whose deadline already
        passed while queued resolve to 504 here — expiry is checked at
        every dequeue, so a request can wait at most one dispatch cycle
        past its deadline and never occupies a batch slot."""
        batch: List[ServeRequest] = []
        expired: List[ServeResponse] = []
        while self.queue and len(batch) < self.config.batch_max:
            ticket = self.queue.popleft()
            if now >= ticket.deadline:
                expired.append(self._timeout(ticket, "queue", now))
            else:
                batch.append(ticket)
        return batch, expired

    def run_batch(self, batch: List[ServeRequest]) -> BatchOutcome:
        """Execute one batch through the pipeline (the blocking part —
        the HTTP layer runs it in an executor).  A ``serve.batch``
        fault fails the whole batch; :meth:`resolve` decides between
        re-enqueue and 504 per ticket."""
        self._batch_seq += 1
        bid = f"batch-{self._batch_seq:05d}"
        open_stages = frozenset(
            stage for stage, breaker in self.breakers.items() if breaker.degrade
        )
        try:
            _faults.fault_site(
                "serve.batch", doc_id=bid, attempt=max(t.attempt for t in batch)
            )
        except (_faults.TransientFault, _faults.PermanentFault) as exc:
            self.registry.counter("repro.serve.batches", outcome="fault").inc()
            return BatchOutcome(bid, None, fault=type(exc).__name__, open_stages=open_stages)
        result = self._runner(open_stages).run([t.doc for t in batch])
        self.registry.counter(
            "repro.serve.batches", outcome="degraded" if open_stages else "ok"
        ).inc()
        self.registry.counter("repro.serve.batched_docs").inc(len(batch))
        return BatchOutcome(bid, result, open_stages=open_stages)

    def _runner(self, open_stages: FrozenSet[str]) -> CorpusRunner:
        """The cached runner for this degradation variant.  The healthy
        variant shares the warm pool; degraded variants run serially
        through their own warm in-process pipeline (built lazily once
        per variant, kept for the breaker's open window)."""
        runner = self._runners.get(open_stages)
        if runner is None:
            if open_stages:
                cfg = copy.deepcopy(
                    self.config.pipeline or VS2Config.for_dataset(self.config.dataset)
                )
                if "segment" in open_stages:
                    cfg.segment.use_semantic_merging = False
                if "select" in open_stages:
                    cfg.select.ner_only = True
                runner = CorpusRunner(
                    self.config.dataset,
                    config=cfg,
                    workers=1,
                    pipeline_factory=UncachedPipelineFactory(self.config.dataset, cfg),
                    tracer=self.tracer,
                    fault_plan=self.fault_plan,
                    registry=self.registry,
                )
            else:
                runner = CorpusRunner(
                    self.config.dataset,
                    config=self.config.pipeline,
                    workers=1 if self.pool is None else self.pool.workers,
                    pipeline_factory=UncachedPipelineFactory(
                        self.config.dataset, self.config.pipeline
                    ),
                    tracer=self.tracer,
                    fault_plan=self.fault_plan,
                    registry=self.registry,
                    pool=self.pool,
                )
            self._runners[open_stages] = runner
        return runner

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(
        self, batch: List[ServeRequest], outcome: BatchOutcome, now: float
    ) -> List[ServeResponse]:
        """Turn one finished batch into responses at completion time
        ``now``.  Tickets with attempt budget and deadline left after a
        transient failure re-enqueue (front of queue, order preserved)
        and resolve in a later batch."""
        responses: List[ServeResponse] = []
        requeue: List[ServeRequest] = []
        if outcome.result is None:
            for ticket in batch:
                if ticket.attempt < self.config.max_attempts and now < ticket.deadline:
                    requeue.append(ticket)
                else:
                    responses.append(self._timeout(ticket, "batch", now))
        else:
            stage_failed = {stage: 0 for stage in BREAKER_STAGES}
            failures = {f.doc_index: f for f in outcome.result.failures}
            for i, ticket in enumerate(batch):
                result = outcome.result.results[i]
                if result is None:
                    failure = failures.get(i)
                    transient = failure is not None and failure.transient
                    if (
                        transient
                        and ticket.attempt < self.config.max_attempts
                        and now < ticket.deadline
                    ):
                        requeue.append(ticket)
                    else:
                        responses.append(self._timeout(ticket, "result", now))
                    continue
                for degradation in result.degradations:
                    if degradation.stage in stage_failed:
                        stage_failed[degradation.stage] += 1
                if now >= ticket.deadline:
                    responses.append(self._timeout(ticket, "result", now))
                else:
                    responses.append(self._ok(ticket, result, now))
            for stage, breaker in self.breakers.items():
                breaker.record_batch(
                    stage_failed[stage],
                    len(batch),
                    degraded=stage in outcome.open_stages,
                )
        for ticket in reversed(requeue):
            ticket.attempt += 1
            self.queue.appendleft(ticket)
        if requeue:
            self.registry.gauge("repro.serve.queue_depth").set_max(len(self.queue))
        return responses

    def _ok(self, ticket: ServeRequest, result, now: float) -> ServeResponse:
        self.accounting["ok"] += 1
        latency = max(now - ticket.submitted_at, 0.0)
        self.registry.counter("repro.serve.requests", status="200").inc()
        self.registry.histogram("repro.serve.request_latency").observe(latency)
        body = {
            "request_id": ticket.request_id,
            "status": STATUS_OK,
            "doc_id": result.doc_id,
            "doc_index": ticket.doc_index,
            "attempt": ticket.attempt,
            "extractions": result.as_key_values(),
            "degradations": [d.to_dict() for d in result.degradations],
        }
        return ServeResponse(
            ticket.request_id, STATUS_OK, body, finished_at=now, latency_s=latency
        )

    def _shed(self, rid: str, reason: str, now: float) -> ServeResponse:
        self.accounting["shed"] += 1
        retry_after = self.config.retry_after_s
        self.registry.counter("repro.serve.shed", reason=reason).inc()
        self.registry.counter("repro.serve.requests", status="429").inc()
        self.tracer.event("serve.shed", request_id=rid, reason=reason)
        body = {
            "request_id": rid,
            "status": STATUS_SHED,
            "reason": reason,
            "retry_after_s": retry_after,
        }
        return ServeResponse(
            rid, STATUS_SHED, body, finished_at=now, retry_after_s=retry_after
        )

    def _timeout(self, ticket: ServeRequest, where: str, now: float) -> ServeResponse:
        self.accounting["timeout"] += 1
        latency = max(now - ticket.submitted_at, 0.0)
        self.registry.counter("repro.serve.timeouts", where=where).inc()
        self.registry.counter("repro.serve.requests", status="504").inc()
        self.registry.histogram("repro.serve.request_latency").observe(latency)
        self.tracer.event(
            "serve.deadline", request_id=ticket.request_id, where=where
        )
        body = {
            "request_id": ticket.request_id,
            "status": STATUS_TIMEOUT,
            "where": where,
            "attempt": ticket.attempt,
        }
        return ServeResponse(
            ticket.request_id, STATUS_TIMEOUT, body, finished_at=now, latency_s=latency
        )

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def begin_drain(self, now: float) -> None:
        """Stop admitting (new requests shed as ``draining``); queued
        and in-flight work keeps resolving until :meth:`pending` is 0."""
        if not self.draining:
            self.draining = True
            self.tracer.event("serve.drain", phase="begin", queued=len(self.queue))

    def finish_drain(self, now: float) -> Dict[str, Any]:
        """Called once the queue is empty and no batch is in flight:
        checkpoint the final accounting and release resources."""
        snapshot = self.accounting_snapshot()
        self.tracer.event("serve.drain", phase="finish", queued=len(self.queue))
        if self.config.checkpoint_path:
            record = {
                "schema": CHECKPOINT_SCHEMA,
                "accounting": snapshot,
                "batches": self._batch_seq,
                "pending": len(self.queue),
            }
            tmp = f"{self.config.checkpoint_path}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(record, fh, sort_keys=True, indent=2)
                fh.write("\n")
            os.replace(tmp, self.config.checkpoint_path)
        self.shutdown()
        return snapshot

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def accounting_snapshot(self) -> Dict[str, int]:
        """Every submitted request must be exactly one of ok/shed/
        timeout once the queue is empty; ``unaccounted`` is the
        invariant the chaos-under-load acceptance test pins to zero."""
        out = dict(self.accounting)
        out["pending"] = len(self.queue)
        out["unaccounted"] = (
            out["submitted"] - out["ok"] - out["shed"] - out["timeout"] - out["pending"]
        )
        return out
