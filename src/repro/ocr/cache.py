"""Memoisation of the expensive clean step (OCR transcription + deskew).

Transcription is the slowest stage of the pipeline and — being seeded
by ``(engine.seed, doc_id)`` — perfectly repeatable, so re-running it
for every algorithm/table/benchmark is pure waste.
:class:`TranscriptionCache` memoises the full clean step keyed by
``(engine seed, doc_id)`` and is shared between :class:`~repro.core.
pipeline.VS2Pipeline` and the experiment harness: hand the same cache
to both and a corpus is transcribed exactly once per process.

The cache lives in :mod:`repro.ocr` — the layer that owns the clean
step — so the pipeline can import it without depending on
``repro.perf`` (layering rule ``LAYER001``).

The cache is thread-safe (a lock guards the dict) but intentionally
per-process: the parallel :class:`repro.perf.runner.CorpusRunner`
gives each worker its own cache, which is correct because transcription
is deterministic — two processes transcribing the same document produce
identical results, they just don't share the saved work.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.ocr.deskew import deskew
from repro.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.doc import Document
    from repro.instrument import PipelineMetrics
    from repro.ocr import OcrEngine, OcrResult

#: What the clean step produces for one document: the raw transcription,
#: the deskewed observed view, and the estimated skew angle (degrees).
CleanedView = Tuple["OcrResult", "Document", float]


def transcribe_and_clean(
    engine: "OcrEngine",
    doc: "Document",
    metrics: Optional["PipelineMetrics"] = None,
    tracer: Optional[Tracer] = None,
) -> CleanedView:
    """The uncached clean step: transcribe then deskew, instrumented.

    This is the single implementation both the cache's miss path and
    the cache-less pipeline call, so the two paths cannot drift.
    """
    if tracer is None:
        tracer = NULL_TRACER
    if metrics is None:
        with tracer.span("ocr"):
            ocr = engine.transcribe(doc)
        with tracer.span("deskew"):
            observed, angle = deskew(ocr.as_document(doc))
        return ocr, observed, angle
    with metrics.stage("ocr") as t, tracer.span("ocr") as sp:
        ocr = engine.transcribe(doc)
        t.items = len(ocr.words)
        sp.attrs["words"] = len(ocr.words)
    with metrics.stage("deskew"), tracer.span("deskew"):
        observed, angle = deskew(ocr.as_document(doc))
    return ocr, observed, angle


class TranscriptionCache:
    """Process-local memo of the clean step, keyed ``(seed, doc_id)``.

    ``seed`` is part of the key so one cache may serve engines with
    different noise seeds (e.g. the pipeline's configured engine and a
    test's ad-hoc engine) without cross-talk.

    By default at most 32 documents stay resident: a pool worker lives
    for many runs and sees each document once per run, so an unbounded
    memo would grow with every document the process ever cleaned.
    :class:`repro.harness.ExperimentContext` owns whole corpora — it
    cleans every document and then runs the pipeline over the same
    ones — and is the one owner that passes ``max_entries=None``.
    """

    def __init__(self, max_entries: Optional[int] = 32):
        #: Bound on resident entries; ``None`` means unbounded.
        #: Eviction is FIFO — corpora are processed in passes, so the
        #: oldest entry is also the least likely to be needed again.
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[int, str], CleanedView] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def cleaned(
        self,
        engine: "OcrEngine",
        doc: "Document",
        metrics: Optional["PipelineMetrics"] = None,
        tracer: Optional[Tracer] = None,
    ) -> CleanedView:
        """Return the (memoised) cleaned view of ``doc``.

        On a hit the stored view is returned as-is and an
        ``ocr.cache_hit`` event is counted; on a miss the clean step
        runs under its ``ocr``/``deskew`` timers and the result is
        stored.  Either way an ``ocr.cache`` trace event records the
        outcome.
        """
        if tracer is None:
            tracer = NULL_TRACER
        key = (engine.seed, doc.doc_id)
        with self._lock:
            cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            if metrics is not None:
                metrics.count("ocr.cache_hit")
            if tracer.enabled:
                tracer.event("ocr.cache", hit=True, doc_id=doc.doc_id)
            return cached
        if tracer.enabled:
            tracer.event("ocr.cache", hit=False, doc_id=doc.doc_id)
        view = transcribe_and_clean(engine, doc, metrics, tracer=tracer)
        with self._lock:
            self.misses += 1
            if self.max_entries is not None and len(self._entries) >= self.max_entries:
                oldest = next(iter(self._entries), None)
                if oldest is not None:
                    del self._entries[oldest]
            self._entries[key] = view
        return view

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._entries)}
