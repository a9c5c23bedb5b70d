"""Corpus execution: one worker pool, one dispatch loop.

:class:`CorpusRunner` runs the full VS2 pipeline over a corpus.  Every
run is one loop over ``(doc index, attempt)`` tasks:

* **in-process or pooled** — ``workers <= 1`` (or a call with at most
  one task) runs the tasks in-process; otherwise they are dispatched in
  contiguous chunks (default ``ceil(n / (workers * 4))`` documents per
  task) to a :class:`WarmProcessPool` — the caller's, or a private one
  booted for the call — so scheduling overhead amortises while
  stragglers still rebalance;
* **deterministic ordering** — results come back aligned with the
  input order regardless of which worker finished first, so a parallel
  run is byte-identical to a serial one (the pipeline itself is fully
  seeded);
* **error isolation** — a document that raises mid-pipeline becomes a
  :class:`DocumentFailure` in :attr:`CorpusRunResult.failures` (and a
  ``None`` at its slot in :attr:`CorpusRunResult.results`) instead of
  killing the run; a pool worker that dies fails only its in-flight
  documents (transient ``WorkerCrash`` failures) and is replaced;
* **instrumentation** — every worker drains its
  :class:`~repro.instrument.PipelineMetrics`, trace spans and metric
  registry into each task reply and the parent merges them, so the
  ``profile.txt``, trace and metric files that ``repro extract
  --observe DIR`` writes cover the whole run;
* **supervision** — a
  :class:`~repro.resilience.supervisor.SupervisionPolicy` makes the
  same loop send one document per task under a per-document watchdog,
  retry transient failures with virtual backoff, quarantine what keeps
  failing and checkpoint every resolved document (docs/RESILIENCE.md).
  Each decision is recorded once per view: its trace event, its
  ``repro.resilience.*`` counter and its ``SupervisionEvent``.

When the platform cannot spawn processes (restricted sandboxes), a
private pool would fork beside another live thread, or a run exhausts
its :data:`MAX_WORKER_REPLACEMENTS` replacement workers, the remaining
tasks run in-process and the run records why
(:attr:`CorpusRunResult.degrade_reason`).
"""

from __future__ import annotations

import builtins
import logging
import math
import os
import threading
import time
import traceback as _traceback
from collections import deque
from dataclasses import asdict, dataclass, field
from multiprocessing import Pipe, get_context
from multiprocessing.connection import wait as _wait
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.instrument import PipelineMetrics
from repro.obs.registry import (
    MetricRegistry,
    get_registry,
    ingest_pipeline_metrics,
)
from repro.obs.resources import sample_resources
from repro.ocr.cache import TranscriptionCache
from repro.resilience import faults as _faults
from repro.resilience.budget import backoff_seconds
from repro.resilience.checkpoint import CheckpointLog, run_fingerprint
from repro.resilience.quarantine import AttemptRecord, QuarantineEntry
from repro.resilience.supervisor import (
    SupervisionEvent,
    SupervisionPolicy,
    SupervisionReport,
)
from repro.trace import NULL_TRACER, Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids core import cycle)
    from repro.core.config import VS2Config
    from repro.core.pipeline import PipelineResult, VS2Pipeline
    from repro.doc import Document
    from repro.resilience.faults import FaultPlan

_LOG = logging.getLogger("repro.perf.runner")

#: Builds the pipeline a worker runs; must be picklable (a module-level
#: function) when ``workers > 1``.
PipelineFactory = Callable[[], "VS2Pipeline"]

#: ``(doc index, attempt)`` — the unit the dispatch loop schedules.
Task = Tuple[int, int]

#: Seconds a worker may take to boot before it is killed and replaced.
BOOT_TIMEOUT_S = 60.0

#: Replacement workers one run (or one :meth:`WarmProcessPool.boot`)
#: may start before it degrades to in-process execution (or raises).
MAX_WORKER_REPLACEMENTS = 8


@dataclass(frozen=True)
class DocumentFailure:
    """One document that raised mid-pipeline, with enough context to
    reproduce it (``python -m repro extract`` on the same seed/doc).

    ``doc_index`` is the document's position in the submitted corpus
    (``-1`` when unknown); ``ocr_seed`` the engine seed the failing
    pipeline was built with; ``span_path`` the deepest open trace span
    at the moment the exception unwound (empty when tracing was off);
    ``transient`` marks failures worth retrying (an injected
    :class:`~repro.resilience.faults.TransientFault`, a watchdog
    timeout, a worker crash) — a supervised run's retry budget applies
    only to these.
    """

    doc_id: str
    error_type: str
    message: str
    traceback: str
    doc_index: int = -1
    span_path: str = ""
    ocr_seed: Optional[int] = None
    transient: bool = False

    def __str__(self) -> str:
        where = f"doc[{self.doc_index}] {self.doc_id}" if self.doc_index >= 0 else self.doc_id
        out = f"{where}: {self.error_type}: {self.message}"
        if self.span_path:
            out += f" (at {self.span_path})"
        if self.ocr_seed is not None:
            out += f" [ocr_seed={self.ocr_seed}]"
        return out


class CorpusRunError(RuntimeError):
    """A corpus run's first per-document failure, re-raised.

    Carries the full :class:`DocumentFailure` (``.failure``) and the
    original exception class name (``.error_type``) so callers of the
    fail-fast path can still dispatch on what actually went wrong.
    """

    def __init__(self, failure: DocumentFailure):
        super().__init__(
            f"pipeline failed on {failure.doc_id}: "
            f"{failure.error_type}: {failure.message}\n{failure.traceback}"
        )
        self.failure = failure
        self.error_type = failure.error_type


@dataclass
class CorpusRunResult:
    """Everything one corpus run produces.

    ``results[i]`` corresponds to ``docs[i]`` of the input — ``None``
    where that document failed (its :class:`DocumentFailure` is in
    ``failures``, in input order).  ``degrade_reason`` is non-``None``
    when a parallel run fell back to in-process execution (no process
    support, replacement workers exhausted).  ``supervision`` is
    populated only by supervised runs (see
    :mod:`repro.resilience.supervisor`).
    """

    results: List[Optional["PipelineResult"]]
    failures: List[DocumentFailure] = field(default_factory=list)
    metrics: PipelineMetrics = field(default_factory=PipelineMetrics)
    degrade_reason: Optional[str] = None
    supervision: Optional[SupervisionReport] = None
    registry: MetricRegistry = field(default_factory=MetricRegistry)

    @property
    def ok(self) -> List["PipelineResult"]:
        """The successful results, input order preserved."""
        return [r for r in self.results if r is not None]

    def raise_first(self) -> None:
        """Re-raise the first failure (for callers that want the old
        fail-fast ``run_corpus`` semantics).  The raised
        :class:`CorpusRunError` is chained ``from`` an instance of the
        original exception type when that type is resolvable, so
        ``except`` clauses and logs see the real cause."""
        if not self.failures:
            return
        f = self.failures[0]
        cause_type = getattr(builtins, f.error_type, None)
        if isinstance(cause_type, type) and issubclass(cause_type, BaseException):
            raise CorpusRunError(f) from cause_type(f.message)
        raise CorpusRunError(f)


# ----------------------------------------------------------------------
# Per-document execution (in-process and inside pool workers)
# ----------------------------------------------------------------------
def _default_factory(
    dataset: str, config: Optional["VS2Config"], tracer=NULL_TRACER
) -> "VS2Pipeline":
    from repro.core.pipeline import VS2Pipeline

    return VS2Pipeline(
        dataset, config=config, cache=TranscriptionCache(), tracer=tracer
    )


def _run_one(
    pipeline: "VS2Pipeline",
    index: int,
    doc: "Document",
    tracer=NULL_TRACER,
    attempt: int = 1,
) -> Tuple[Optional["PipelineResult"], Optional[DocumentFailure]]:
    attrs: Dict[str, Any] = {"index": index, "doc_id": doc.doc_id}
    if attempt > 1:
        attrs["attempt"] = attempt
    corpus = getattr(pipeline, "dataset", "?")
    registry = get_registry()
    try:
        with _faults.doc_scope(doc.doc_id, index, attempt):
            with tracer.span("doc", **attrs):
                _faults.fault_site("worker.chunk")
                result = pipeline.run(doc)
        registry.counter("repro.docs.processed", corpus=corpus, status="ok").inc()
        for degradation in getattr(result, "degradations", ()):
            registry.counter(
                "repro.doc.degradations", corpus=corpus, stage=degradation.stage
            ).inc()
        return result, None
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        failure = DocumentFailure(
            doc_id=doc.doc_id,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=_traceback.format_exc(),
            doc_index=index,
            span_path=tracer.consume_error_path(exc) or "",
            ocr_seed=getattr(getattr(pipeline, "config", None), "ocr_seed", None),
            transient=isinstance(exc, _faults.TransientFault),
        )
        registry.counter("repro.docs.processed", corpus=corpus, status="failed").inc()
        registry.counter(
            "repro.doc.failures", corpus=corpus, error_type=failure.error_type
        ).inc()
        return None, failure


def _emit_cache_counters(pipeline: "VS2Pipeline", before: Tuple[int, int]) -> None:
    """Record transcription-cache hits/misses accrued since ``before``
    into the ambient registry (cumulative cache counters need delta
    accounting so repeated tasks never double-count)."""
    cache = getattr(pipeline, "cache", None)
    if cache is None:
        return
    registry = get_registry()
    hits = getattr(cache, "hits", 0) - before[0]
    misses = getattr(cache, "misses", 0) - before[1]
    if hits:
        registry.counter("repro.ocr.cache", outcome="hit").inc(hits)
    if misses:
        registry.counter("repro.ocr.cache", outcome="miss").inc(misses)


def _cache_counts(pipeline: "VS2Pipeline") -> Tuple[int, int]:
    cache = getattr(pipeline, "cache", None)
    return (getattr(cache, "hits", 0), getattr(cache, "misses", 0))


def _worker_main(
    wid: int, conn, dataset, config, factory, trace_enabled: bool, plan
) -> None:
    """Entry point of every pool worker process.

    Protocol (over the duplex pipe): sends ``("ready", wid)`` after a
    successful boot or ``("boot_failed", wid, type, msg)``; then for
    every ``(preemptible, [(index, doc, attempt), ...])`` task
    received, replies ``("done", wid, outcomes, metrics, spans,
    registry)`` — one ``(result, failure)`` outcome per document plus
    the metrics, trace spans and metric-registry dump accumulated *by
    this task* (all drained, so successive tasks never double-count).
    ``None`` means shut down.

    The fault plan is re-armed per task: ``preemptible`` tasks come
    from supervised runs whose watchdog can kill this process, so
    ``hang``/``crash`` faults execute for real; otherwise they simulate
    as transient raises.  Boot is always preemptible — the pool kills
    and replaces a worker that hangs or dies while booting.
    """
    tracer = Tracer() if trace_enabled else NULL_TRACER
    get_registry().drain()  # fork-inherited ambient samples belong to the parent
    try:
        if plan is not None:
            _faults.install(plan, tracer=tracer, preemptible=True)
        _faults.fault_site("worker.boot", doc_id=f"worker:{wid}", attempt=1)
        pipeline = (
            factory() if factory is not None else _default_factory(dataset, config, tracer=tracer)
        )
        pipeline.metrics.drain()
    except Exception as exc:
        conn.send(("boot_failed", wid, type(exc).__name__, str(exc)))
        conn.close()
        return
    conn.send(("ready", wid))
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent died
            break
        if task is None:
            break
        preemptible, items = task
        if plan is not None:
            _faults.install(plan, tracer=tracer, preemptible=preemptible)
        cache_before = _cache_counts(pipeline)
        outcomes = [
            _run_one(pipeline, index, doc, tracer, attempt=attempt)
            for index, doc, attempt in items
        ]
        _emit_cache_counters(pipeline, cache_before)
        sample_resources(get_registry(), worker=f"pid{os.getpid()}")
        spans = [span.to_dict() for span in tracer.drain()]
        metrics = pipeline.metrics.drain().to_dict()
        registry_dump = get_registry().drain().to_dict()
        try:
            conn.send(("done", wid, outcomes, metrics, spans, registry_dump))
        except (OSError, ValueError):  # pragma: no cover - parent died mid-send
            break
    conn.close()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class _Worker:
    """Parent-side handle of one pool worker."""

    __slots__ = ("wid", "proc", "conn", "ready", "task", "deadline")

    def __init__(self, wid: int, proc, conn, deadline: float):
        self.wid = wid
        self.proc = proc
        self.conn = conn
        self.ready = False
        self.task: Optional[List[Task]] = None  # in flight
        self.deadline: Optional[float] = deadline  # boot or watchdog (monotonic)


def _lost_reason(worker: _Worker, message: tuple) -> str:
    """Why a worker left the pool, for logs and ``runner.worker_replace``."""
    if message[0] == "boot_failed":
        return f"worker boot failed: {message[2]}: {message[3]}"
    if message[0] == "overdue":
        return "worker killed after document timeout" if worker.task else "worker boot timed out"
    if worker.task:
        return "worker crashed mid-document"
    return "worker exited while idle" if worker.ready else "worker died during boot"


def _fork_hazard() -> Optional[str]:
    """Why forking from the calling thread is unsafe right now, or
    ``None``: a fork copies every lock another live thread may hold."""
    if threading.active_count() == 1:
        return None
    me = threading.current_thread()
    others = sorted(t.name for t in threading.enumerate() if t is not me)
    return f"would fork with other threads alive ({', '.join(others)})"


class WarmProcessPool:
    """The process engine: forked workers that build the pipeline once.

    Each worker is a ``fork`` child of the process that spawns it (so
    it stays a direct child) driven over a duplex pipe by
    :func:`_worker_main`.  :meth:`boot` spawns every worker and waits
    until each has reported ready; hand the pool to any number of
    :class:`CorpusRunner` instances via ``pool=`` and the same
    initialised workers serve every run until :meth:`close`.  A worker
    that fails to boot, dies or overruns its deadline is killed and
    replaced — by :meth:`boot` (up to :data:`MAX_WORKER_REPLACEMENTS`,
    then ``ChildProcessError``) or by the run that noticed, within that
    run's replacement cap; every run first tops the pool back up.

    The pool owns the worker-side boot arguments (dataset, config,
    factory, tracing, fault plan) — runners sharing the pool must be
    built consistently with them.  Task replies drain the worker-side
    tracer/metrics/registry, so successive runs never double-count.

    :meth:`boot` refuses to fork while any other thread is alive: a
    fork copies every lock such a thread may hold, so boot first (the
    serve layer does); a runner's private pool runs serially instead.
    Replacements fork from whichever thread runs the dispatch loop,
    threads or not; that child only builds its own
    pipeline and talks over its pipe, and CPython re-initialises the
    import and logging locks in a forked child.  Not thread-safe: one
    run at a time.
    """

    def __init__(
        self,
        dataset: str,
        config: Optional["VS2Config"] = None,
        workers: int = 2,
        pipeline_factory: Optional[PipelineFactory] = None,
        trace_enabled: bool = False,
        fault_plan: Optional["FaultPlan"] = None,
    ):
        self.dataset = dataset.upper()
        self.config = config
        self.workers = max(1, int(workers))
        self.pipeline_factory = pipeline_factory
        self.trace_enabled = bool(trace_enabled)
        self.fault_plan = fault_plan
        self._workers: Dict[int, _Worker] = {}
        self._seq = 0

    def boot(self) -> "WarmProcessPool":
        """Spawn every missing worker now and wait until all are ready.

        Raises ``OSError``/``ValueError`` when the platform cannot fork
        (``ChildProcessError`` when workers keep failing to boot);
        callers degrade exactly as for a run that cannot spawn.  Raises
        ``RuntimeError`` naming the live threads when the caller is not
        the only thread.  The pool is closed before the error
        propagates."""
        spare = MAX_WORKER_REPLACEMENTS
        try:
            hazard = _fork_hazard()
            if hazard:
                raise RuntimeError(
                    f"WarmProcessPool.boot() {hazard}; boot the pool before starting threads"
                )
            while True:
                self._fill()
                if all(w.ready for w in self._workers.values()):
                    return self
                for worker, message in self._poll():  # no tasks in flight: all losses
                    if spare == 0:
                        raise ChildProcessError(
                            f"worker pool could not boot: {_lost_reason(worker, message)}"
                        )
                    spare -= 1
        except BaseException:
            self.close()
            raise

    @property
    def booted(self) -> bool:
        return bool(self._workers)

    def pids(self) -> List[int]:
        """PIDs of the live worker processes."""
        return [w.proc.pid for w in self._workers.values() if w.proc.is_alive()]

    def close(self) -> None:
        """Shut every worker down and join it.  Idempotent; the pool can
        boot again afterwards."""
        workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:  # already gone
                pass
        for worker in workers:
            worker.proc.join(timeout=2)
            self._retire(worker)

    def __enter__(self) -> "WarmProcessPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- engine internals (driven by boot() and CorpusRunner) -----------
    def _spawn(self) -> None:
        self._seq += 1
        parent_conn, child_conn = Pipe()
        proc = get_context("fork").Process(
            target=_worker_main,
            args=(
                self._seq,
                child_conn,
                self.dataset,
                self.config,
                self.pipeline_factory,
                self.trace_enabled,
                self.fault_plan,
            ),
            daemon=True,
        )
        try:
            proc.start()
        except BaseException:
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        self._workers[self._seq] = _Worker(
            self._seq, proc, parent_conn, time.monotonic() + BOOT_TIMEOUT_S
        )

    def _fill(self) -> None:
        while len(self._workers) < self.workers:
            self._spawn()

    def _poll(self) -> List[Tuple[_Worker, tuple]]:
        """Wait for worker messages (at most until the nearest deadline)
        and return ``(worker, message)`` pairs.  ``ready`` is consumed
        here; a pipe EOF reads as ``("died",)`` and a passed deadline as
        ``("overdue",)``.  Every message but ``done`` means the worker
        has left the pool (killed if need be)."""
        deadlines = [w.deadline for w in self._workers.values() if w.deadline is not None]
        timeout = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
        by_conn = {w.conn: w for w in self._workers.values()}
        events: List[Tuple[_Worker, tuple]] = []
        for conn in _wait(list(by_conn), timeout):
            worker = by_conn[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = ("died",)
            if message[0] in ("ready", "done"):
                worker.ready, worker.deadline = True, None
                if message[0] == "ready":
                    continue
            else:
                self._retire(worker)
            events.append((worker, message))
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if worker.deadline is not None and now > worker.deadline:
                self._retire(worker)
                events.append((worker, ("overdue",)))
        return events

    def _retire(self, worker: _Worker) -> None:
        """Drop ``worker`` from the pool, killing it if it still runs."""
        self._workers.pop(worker.wid, None)
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(timeout=2)
            if worker.proc.is_alive():  # pragma: no cover - SIGTERM ignored
                worker.proc.kill()
                worker.proc.join(timeout=2)
        worker.conn.close()


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class CorpusRunner:
    """Run the VS2 pipeline over a corpus, in-process or on a pool.

    Parameters
    ----------
    dataset:
        ``"D1"`` / ``"D2"`` / ``"D3"`` — which pipeline wiring to build.
    config:
        Optional :class:`~repro.core.config.VS2Config` override.
    workers:
        Process count.  ``<= 1`` runs in-process.
    chunk_size:
        Documents per dispatched task; default balances ~4 tasks per
        worker.  Supervised runs always send one document per task.
    cache:
        A :class:`TranscriptionCache` for the in-process path (workers
        own private caches — transcription is deterministic, so this
        only affects speed, never results).
    pipeline_factory:
        Custom pipeline builder (e.g. for tests or alternative
        configs).  Workers are forked, so it travels without pickling.
    tracer:
        A :class:`repro.trace.Tracer` receiving the run's hierarchical
        spans (``corpus > doc[i] > stage``) and decision events.
        Workers trace into private buffers that are re-parented here in
        deterministic document order, so a normalised export of a
        parallel run is byte-identical to the serial one.
    fault_plan:
        A :class:`~repro.resilience.faults.FaultPlan` to install for
        the run (this process for in-process tasks, each worker of a
        private pool).  The plan's schedule is seeded per document, so
        serial and parallel runs see identical faults.
    supervision:
        A :class:`~repro.resilience.supervisor.SupervisionPolicy`.
        When set, the run is supervised: per-document timeouts with
        worker replacement, retry of transient failures, quarantine and
        checkpoint/resume.
    registry:
        A :class:`repro.obs.registry.MetricRegistry` receiving the
        run's labeled metrics (doc outcomes, stage accounting,
        resilience decisions, resource high-water marks).  Workers emit
        into their process-local registry; drained dumps ride each task
        reply and fold in here, so a serial and a parallel run produce
        the same normalized dump (docs/OBSERVABILITY.md).  A fresh
        registry is created when not given.
    pool:
        A booted :class:`WarmProcessPool` to run on instead of booting
        (and tearing down) a private one per call.  The pool's worker
        count governs ``workers``; its boot arguments govern the
        worker-side pipelines, so build the runner consistently with
        them.  The runner never closes a shared pool — its owner does.
    """

    def __init__(
        self,
        dataset: str,
        config: Optional["VS2Config"] = None,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        cache: Optional[TranscriptionCache] = None,
        pipeline_factory: Optional[PipelineFactory] = None,
        tracer: Optional[Tracer] = None,
        fault_plan: Optional["FaultPlan"] = None,
        supervision: Optional[SupervisionPolicy] = None,
        registry: Optional[MetricRegistry] = None,
        pool: Optional[WarmProcessPool] = None,
    ):
        self.dataset = dataset.upper()
        self.config = config
        self.pool = pool
        self.workers = max(1, int(workers if pool is None else pool.workers))
        self.chunk_size = chunk_size
        self.cache = cache
        self.pipeline_factory = pipeline_factory
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.fault_plan = fault_plan
        self.supervision = supervision
        self.registry = registry if registry is not None else MetricRegistry()
        self._serial_pipeline: Optional["VS2Pipeline"] = None

    def run(self, docs: Sequence["Document"]) -> CorpusRunResult:
        """Process every document; never raises for a per-document
        pipeline error (see :class:`CorpusRunResult`)."""
        get_registry().drain()  # discard ambient samples stranded by earlier runs
        return _Run(self, list(docs)).execute()

    def _serial(self) -> "VS2Pipeline":
        if self._serial_pipeline is None:
            from repro.core.pipeline import VS2Pipeline

            if self.pipeline_factory is not None:
                self._serial_pipeline = self.pipeline_factory()
            else:
                self._serial_pipeline = VS2Pipeline(
                    self.dataset,
                    config=self.config,
                    cache=self.cache if self.cache is not None else TranscriptionCache(),
                    tracer=self.tracer,
                )
        return self._serial_pipeline


class _Run:
    """One :meth:`CorpusRunner.run` call: the task loop and its books."""

    def __init__(self, runner: CorpusRunner, docs: List["Document"]):
        self.runner = runner
        self.docs = docs
        self.policy = runner.supervision
        self.tracer = runner.tracer
        self.registry = runner.registry
        self.metrics = PipelineMetrics()
        self.slots: List[Optional["PipelineResult"]] = [None] * len(docs)
        self.failures: List[DocumentFailure] = []
        self.open: Set[int] = set()
        self.adopted: List[Span] = []
        self.degrade_reason: Optional[str] = None
        self.replacements = 0
        self.report = SupervisionReport() if self.policy is not None else None
        self.attempt_log: Dict[int, List[AttemptRecord]] = {}
        self.checkpoint: Optional[CheckpointLog] = None

    def execute(self) -> CorpusRunResult:
        todo = list(range(len(self.docs)))
        if self.policy is not None and self.policy.checkpoint_path:
            todo = self._resume()
        self.open = set(todo)
        tasks = [(index, 1) for index in todo]
        with self.metrics.stage("corpus") as t, self.tracer.span(
            "corpus", dataset=self.runner.dataset, docs=len(self.docs)
        ):
            t.items = len(self.docs)
            if self.runner.workers > 1 and len(tasks) > 1:
                self._on_pool(tasks)
            elif tasks:
                self._in_process(tasks)
            # Tasks complete in whichever order the pool schedules them;
            # re-parent worker spans sorted by document index so a traced
            # parallel run is structurally identical to the serial one.
            self.adopted.sort(
                key=lambda s: (s.attrs.get("index", -1), s.attrs.get("attempt", 1), s.name)
            )
            for span in self.adopted:
                self.tracer.adopt(span)
        if self.report is not None:
            backoff_s = self.report.backoff_s
            if backoff_s:
                self.registry.counter("repro.resilience.backoff_seconds").inc(backoff_s)
            if self.policy.quarantine_report_path:
                self.report.quarantine.write(self.policy.quarantine_report_path)
        if self.checkpoint is not None:
            self.checkpoint.close()
        self.failures.sort(key=lambda f: (f.doc_index, f.doc_id))
        # In-process emissions (serial docs, parent-side faults) sit in
        # the ambient registry; fold them plus the stage accounting and
        # this process's resource high-water marks into the run registry.
        self.registry.merge(get_registry().drain())
        ingest_pipeline_metrics(self.metrics, self.registry)
        sample_resources(self.registry, worker="main")
        return CorpusRunResult(
            results=self.slots,
            failures=self.failures,
            metrics=self.metrics,
            degrade_reason=self.degrade_reason,
            supervision=self.report,
            registry=self.registry,
        )

    # -- where tasks run -------------------------------------------------
    def _in_process(self, tasks: Sequence[Task]) -> None:
        """Run ``tasks`` here.  Nothing can preempt them, so ``hang`` /
        ``crash`` faults simulate as transient raises; a retry runs
        right after the attempt it follows."""
        runner = self.runner
        pipeline = runner._serial()
        pipeline.metrics.drain()  # only this run's samples
        installed = runner.fault_plan is not None and not _faults.is_installed()
        if installed:
            _faults.install(runner.fault_plan, tracer=self.tracer)
        cache_before = _cache_counts(pipeline)
        pending: Deque[Task] = deque(tasks)
        try:
            while pending:
                index, attempt = pending.popleft()
                result, failure = _run_one(
                    pipeline, index, self.docs[index], self.tracer, attempt=attempt
                )
                self._settle(index, attempt, result, failure, pending)
        finally:
            if installed:
                _faults.uninstall()
        _emit_cache_counters(pipeline, cache_before)
        self.metrics.merge(pipeline.metrics.drain())

    def _on_pool(self, tasks: List[Task]) -> None:
        runner = self.runner
        chunk = 1 if self.policy is not None else (
            runner.chunk_size or max(1, math.ceil(len(tasks) / (runner.workers * 4)))
        )
        pending: Deque[Task] = deque(tasks)
        hazard = None if runner.pool is not None else _fork_hazard()
        if hazard:  # a private pool would fork beside another thread
            self._degrade(hazard, pending)
            return
        pool = runner.pool or WarmProcessPool(
            runner.dataset,
            config=runner.config,
            workers=min(runner.workers, math.ceil(len(tasks) / chunk)),
            pipeline_factory=runner.pipeline_factory,
            trace_enabled=self.tracer.enabled,
            fault_plan=runner.fault_plan,
        )
        try:
            try:
                pool._fill()
            except (OSError, ValueError) as exc:  # no process support: degrade, don't die
                self._degrade(f"{type(exc).__name__}: {exc}", pending)
                return
            while self.open:
                self._dispatch(pool, pending, chunk)
                if not pool._workers:
                    self._degrade("worker pool exhausted (replacement cap reached)", pending)
                    return
                for worker, message in pool._poll():
                    if message[0] == "done":
                        self._absorb(worker, message, pending)
                    else:
                        self._lose(pool, worker, message, pending)
        finally:
            if runner.pool is None:
                pool.close()
            else:  # an interrupted run must not leave replies for the next
                for worker in [w for w in pool._workers.values() if w.task]:
                    pool._retire(worker)

    def _dispatch(self, pool: WarmProcessPool, pending: Deque[Task], chunk: int) -> None:
        timeout_s = self.policy.timeout_s if self.policy is not None else None
        for worker in list(pool._workers.values()):
            if not pending:
                return
            if not worker.ready or worker.task:
                continue
            task = [pending.popleft() for _ in range(min(chunk, len(pending)))]
            items = [(index, self.docs[index], attempt) for index, attempt in task]
            try:
                worker.conn.send((self.policy is not None, items))
            except OSError:  # died while idle: the task never started
                pending.extendleft(reversed(task))
                pool._retire(worker)
                self._replace(pool, "worker exited while idle")
                continue
            worker.task = task
            if timeout_s is not None:
                worker.deadline = time.monotonic() + timeout_s

    def _absorb(self, worker: _Worker, message: tuple, pending: Deque[Task]) -> None:
        _, _wid, outcomes, metrics, spans, registry_dump = message
        task, worker.task = worker.task, None
        self.metrics.merge(PipelineMetrics.from_dict(metrics))
        self.registry.merge(MetricRegistry.from_dict(registry_dump))
        self.adopted.extend(Span.from_dict(s) for s in spans)
        for (index, attempt), (result, failure) in zip(task, outcomes):
            self._settle(index, attempt, result, failure, pending)

    def _lose(
        self, pool: WarmProcessPool, worker: _Worker, message: tuple, pending: Deque[Task]
    ) -> None:
        """A worker left the pool: each in-flight document fails
        transiently (a ``DocumentTimeout`` when the watchdog killed it,
        else a ``WorkerCrash``), then a replacement boots."""
        kind = "timeout" if message[0] == "overdue" else "crash"
        for index, attempt in worker.task or ():
            doc = self.docs[index]
            if kind == "timeout":  # only supervised tasks carry a watchdog deadline
                timeout_s = self.policy.timeout_s
                self.registry.counter("repro.resilience.timeouts").inc()
                self.tracer.event(
                    "runner.timeout", doc_id=doc.doc_id, doc_index=index,
                    attempt=attempt, timeout_s=timeout_s,
                )
                failure = DocumentFailure(
                    doc.doc_id, "DocumentTimeout",
                    f"document exceeded the {timeout_s}s supervision timeout "
                    f"(attempt {attempt})",
                    "", index, transient=True,
                )
            else:
                failure = DocumentFailure(
                    doc.doc_id, "WorkerCrash",
                    f"worker process died while running the document (attempt {attempt})",
                    "", index, transient=True,
                )
            self._settle(index, attempt, None, failure, pending, kind)
        self._replace(pool, _lost_reason(worker, message))

    def _replace(self, pool: WarmProcessPool, reason: str) -> None:
        """Boot a replacement worker within the run's replacement cap (the
        next run tops the pool up otherwise).  A private pool closes
        with the run, so it only replaces while documents remain open."""
        if self.replacements >= MAX_WORKER_REPLACEMENTS:
            return
        if not self.open and self.runner.pool is None:
            return
        self.replacements += 1
        _LOG.warning("replacing pool worker: %s", reason)
        self.tracer.event("runner.worker_replace", reason=reason)
        if self.report is not None:
            self.report.events.append(
                SupervisionEvent("worker_replace", -1, "", 0, message=reason)
            )
            self.registry.counter("repro.resilience.worker_replacements").inc()
        try:
            pool._spawn()
        except (OSError, ValueError) as exc:  # the loop degrades once the pool empties
            _LOG.warning("could not spawn a replacement worker: %s", exc)

    def _degrade(self, reason: str, pending: Deque[Task]) -> None:
        _LOG.warning("parallel corpus run degraded to serial: %s", reason)
        self.degrade_reason = reason
        self.tracer.event("runner.degrade", reason=reason, to="serial")
        if self.report is not None:
            self.report.events.append(
                SupervisionEvent("degrade", -1, "", 0, message=reason)
            )
        self._in_process(sorted(pending))

    # -- outcomes --------------------------------------------------------
    def _settle(
        self,
        index: int,
        attempt: int,
        result: Optional["PipelineResult"],
        failure: Optional[DocumentFailure],
        pending: Deque[Task],
        kind: str = "fault",
    ) -> None:
        """Record one attempt.  Under a policy a transient failure with
        budget left is retried (queued first, at ``attempt + 1``) and
        anything else that failed is quarantined."""
        doc = self.docs[index]
        if failure is None:
            self.slots[index] = result
            self.open.discard(index)
            if self.report is not None:
                self.report.attempts[doc.doc_id] = attempt
            if self.checkpoint is not None:
                self.checkpoint.record_result(index, doc.doc_id, result)
            return
        if self.policy is None:
            self.failures.append(failure)
            self.open.discard(index)
            return
        record_kind = kind if kind != "fault" else (
            "transient" if failure.transient else "permanent"
        )
        self.attempt_log.setdefault(index, []).append(
            AttemptRecord(attempt, record_kind, failure.error_type, failure.message)
        )
        if not failure.transient or attempt >= self.policy.max_attempts:
            self._quarantine(index, attempt, failure)
            return
        backoff = backoff_seconds(
            attempt, self.policy.backoff_base_s, self.policy.backoff_cap_s
        )
        self.report.events.append(
            SupervisionEvent(
                "retry", index, doc.doc_id, attempt,
                failure.error_type, failure.message, backoff,
            )
        )
        self.registry.counter(
            "repro.resilience.retries", error_type=failure.error_type
        ).inc()
        self.tracer.event(
            "runner.retry",
            doc_id=doc.doc_id,
            doc_index=index,
            attempt=attempt,
            error_type=failure.error_type,
            backoff_s=backoff,
        )
        pending.appendleft((index, attempt + 1))

    def _quarantine(self, index: int, attempt: int, failure: DocumentFailure) -> None:
        doc = self.docs[index]
        entry = QuarantineEntry(
            doc_id=doc.doc_id,
            doc_index=index,
            error_type=failure.error_type,
            message=failure.message,
            attempts=tuple(self.attempt_log.get(index, [])),
            traceback=failure.traceback,
        )
        self.report.quarantine.entries.append(entry)
        self.failures.append(failure)
        self.report.attempts[doc.doc_id] = attempt
        self.report.events.append(
            SupervisionEvent(
                "quarantine", index, doc.doc_id, attempt,
                failure.error_type, failure.message,
            )
        )
        self.open.discard(index)
        self.registry.counter(
            "repro.resilience.quarantines", error_type=failure.error_type
        ).inc()
        self.tracer.event(
            "runner.quarantine",
            doc_id=doc.doc_id,
            doc_index=index,
            attempts=attempt,
            error_type=failure.error_type,
        )
        if self.checkpoint is not None:
            self.checkpoint.record_quarantine(
                index, doc.doc_id, asdict(failure), entry.to_dict()
            )

    def _resume(self) -> List[int]:
        """Open the policy's checkpoint; return the indices still to run
        after restoring every document it already resolved."""
        plan = self.runner.fault_plan
        fingerprint = run_fingerprint(
            self.runner.dataset,
            [d.doc_id for d in self.docs],
            plan.spec_key() if plan is not None else None,
            self.policy.max_attempts,
        )
        self.checkpoint = CheckpointLog.open(self.policy.checkpoint_path, fingerprint)
        todo: List[int] = []
        for index, doc in enumerate(self.docs):
            if index in self.checkpoint.completed:
                self.slots[index] = self.checkpoint.completed[index]
            elif index in self.checkpoint.quarantined:
                record = self.checkpoint.quarantined[index]
                self.failures.append(DocumentFailure(**record["failure"]))
                self.report.quarantine.entries.append(
                    QuarantineEntry.from_dict(record["entry"])
                )
            else:
                todo.append(index)
                continue
            self.report.events.append(SupervisionEvent("resume", index, doc.doc_id, 0))
            self.registry.counter("repro.resilience.resumes").inc()
            self.tracer.event("runner.resume", doc_id=doc.doc_id, doc_index=index)
        return todo
