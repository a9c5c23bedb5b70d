"""The end-to-end VS2 pipeline (Fig. 2).

Input: a visually rich document.  Stages, in order:

1. **clean** — simulated OCR transcription (:mod:`repro.ocr`) followed
   by skew correction (§1's Example 1.1, :mod:`repro.ocr.deskew`);
2. **VS2-Segment** — hierarchical segmentation of the cleaned view
   into logical blocks (:mod:`repro.core.segment`);
3. **VS2-Select** — distantly supervised search-and-select of the
   dataset's named entities over those blocks
   (:mod:`repro.core.select`).

Output: key-value extractions, localised in the *original* document
frame so they compare directly against annotations.

Coordinate frames
-----------------
Two frames appear throughout (``docs/ARCHITECTURE.md`` has the full
contract):

* the **original frame** — the coordinates of the input ``Document``
  exactly as authored/captured, possibly skewed;
* the **observed frame** — the deskewed OCR view the pipeline actually
  reasons in: every box produced by segmentation and selection starts
  life here.

``deskew`` maps original → observed (returning the estimated angle);
``rotate_back`` maps observed boxes → original.  The pipeline applies
``rotate_back`` to its extractions as the last step, so *callers only
ever see original-frame extractions*, while the intermediate artefacts
kept on :class:`PipelineResult` (``tree``, ``blocks``, ``observed``)
stay in the observed frame for inspection and figures.

Usage
-----
>>> from repro.core import VS2Pipeline
>>> from repro.synth import generate_corpus
>>> doc = generate_corpus("D2", n=1, seed=42)[0]
>>> result = VS2Pipeline("D2").run(doc)
>>> sorted(result.as_key_values())           # doctest: +ELLIPSIS
['event_description', 'event_organizer', ...]

Each run builds one :class:`~repro.core.textview.TextView` — the
document's block texts, parses and vectors, each derived once and shared
by merging, pattern search and Eq. 2 — and drops it with the document:
nothing in a :class:`PipelineResult` refers to it.

Instrumentation (:mod:`repro.perf`) is always on: every run records
per-stage wall-time into :attr:`VS2Pipeline.metrics`, and an optional
:class:`~repro.ocr.cache.TranscriptionCache` memoises the clean step.
For whole corpora, prefer :meth:`VS2Pipeline.run_corpus` (or
:class:`repro.perf.runner.CorpusRunner` directly) which adds process
parallelism and per-document error isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import VS2Config
from repro.core.segment import VS2Segmenter
from repro.core.select import Extraction, VS2Selector
from repro.core.textview import TextView
from repro.doc import Document
from repro.doc.layout_tree import LayoutNode, LayoutTree
from repro.embeddings import WordEmbedding, default_embedding
from repro.ocr import OcrEngine, OcrResult
from repro.ocr.deskew import rotate_back
from repro.instrument import PipelineMetrics
from repro.ocr.cache import TranscriptionCache, transcribe_and_clean
from repro.resilience.faults import TransientFault
from repro.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class Degradation:
    """One rung of the degradation ladder a run had to take.

    ``stage`` is the pipeline stage that failed (``segment`` or
    ``select``); ``fallback`` names the substitute strategy that
    produced the stage's output instead (``visual_only`` merging,
    ``ner_fallback`` extraction); ``error_type`` / ``message`` describe
    the original failure.
    """

    stage: str
    fallback: str
    error_type: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        return {
            "stage": self.stage,
            "fallback": self.fallback,
            "error_type": self.error_type,
            "message": self.message,
        }


@dataclass
class PipelineResult:
    """Everything one run produces (kept for inspection/figures).

    Field semantics — and, crucially, which coordinate frame each bbox
    lives in:

    ``doc_id``
        The input document's id (ground truth is never consulted).
    ``extractions``
        The deliverable: one :class:`~repro.core.select.Extraction` per
        resolved entity.  Both ``bbox`` (the owning logical block) and
        ``span_bbox`` (the tight box of the matched words) are in the
        **original frame** — already rotated back, comparable directly
        against the document's annotations.
    ``tree`` / ``blocks``
        The layout tree and its logical-block leaves, in the
        **observed (deskewed) frame**.  To compare a block box against
        original-frame annotations, map it with
        :func:`repro.ocr.deskew.rotate_back` using ``skew_angle`` and
        ``observed``.
    ``ocr``
        The raw :class:`~repro.ocr.OcrResult` (noisy words, *original*
        frame, pre-deskew).
    ``observed``
        The cleaned document view the pipeline reasoned over —
        deskewed OCR words, no ground truth attached.
    ``skew_angle``
        Estimated skew in degrees; ``0.0`` means the observed and
        original frames coincide (and ``extractions`` needed no
        rotation).
    ``degradations``
        The rungs of the degradation ladder this run took (empty on a
        healthy run): each records a stage failure that was absorbed by
        a documented fallback instead of failing the document.
    """

    doc_id: str
    extractions: List[Extraction]
    tree: LayoutTree
    blocks: List[LayoutNode]
    ocr: OcrResult
    observed: Document
    skew_angle: float
    degradations: List[Degradation] = field(default_factory=list)

    def as_key_values(self) -> Dict[str, str]:
        """The paper's deliverable: a loadable list of key-value pairs."""
        return {e.entity_type: e.text for e in self.extractions}


class VS2Pipeline:
    """clean → OCR → VS2-Segment → VS2-Select, wired per dataset.

    ``metrics`` (a shared :class:`~repro.instrument.PipelineMetrics`)
    accumulates per-stage timings across every :meth:`run`; ``cache``
    (a :class:`~repro.ocr.cache.TranscriptionCache`) memoises the
    clean step so repeated runs over the same corpus — benchmarks,
    table regenerations — transcribe each document once.
    """

    def __init__(
        self,
        dataset: str,
        config: Optional[VS2Config] = None,
        ocr_engine: Optional[OcrEngine] = None,
        embedding: Optional[WordEmbedding] = None,
        cache: Optional[TranscriptionCache] = None,
        metrics: Optional[PipelineMetrics] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.dataset = dataset.upper()
        self.config = config or VS2Config.for_dataset(self.dataset)
        self.embedding = embedding or default_embedding()
        self.ocr = ocr_engine or OcrEngine(seed=self.config.ocr_seed)
        self.cache = cache
        self.metrics = metrics or PipelineMetrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.segmenter = VS2Segmenter(
            self.config.segment, self.embedding, metrics=self.metrics,
            tracer=self.tracer,
        )
        self.selector = VS2Selector(
            self.dataset,
            self.config.select,
            embedding=self.embedding,
            metrics=self.metrics,
            tracer=self.tracer,
        )

    def run(self, doc: Document) -> PipelineResult:
        """Extract every named entity of the dataset's vocabulary from
        one document.  ``doc`` ground truth is never consulted.

        Per-stage failures degrade rather than abort where a documented
        fallback exists (the *degradation ladder*, recorded on
        :attr:`PipelineResult.degradations`): a semantic-merge failure
        falls back to visual-only segmentation; a pattern-match failure
        falls back to dictionary/NER extraction.  Transient faults are
        re-raised untouched — those belong to the supervised runner's
        retry budget, not to degradation.
        """
        degradations: List[Degradation] = []
        # Filled lazily by the stages that read it; lives for this
        # document only.
        view = TextView(self.embedding)
        if self.cache is not None:
            ocr, observed, angle = self.cache.cleaned(
                self.ocr, doc, self.metrics, tracer=self.tracer
            )
        else:
            ocr, observed, angle = transcribe_and_clean(
                self.ocr, doc, self.metrics, tracer=self.tracer
            )
        with self.metrics.stage("segment") as t, self.tracer.span("segment") as sp:
            try:
                tree = self.segmenter.segment(observed, view=view)
            except Exception as exc:  # registered isolation site (RES002)
                if isinstance(exc, TransientFault):
                    raise
                self._note_degradation(
                    degradations, "segment", "visual_only", exc
                )
                tree = self.segmenter.segment(
                    observed, semantic_merging=False, view=view
                )
            blocks = tree.logical_blocks()
            t.items = len(blocks)
            sp.attrs["blocks"] = len(blocks)
        with self.metrics.stage("select") as t, self.tracer.span("select") as sp:
            try:
                if self.config.select.ner_only:
                    # Proactive last rung: the caller (a serve-layer
                    # circuit breaker, an ablation) asked for NER-only
                    # extraction up front rather than after a failure.
                    extractions = self._ner_fallback(blocks)
                else:
                    extractions = self.selector.extract(observed, blocks, view=view)
            except Exception as exc:  # registered isolation site (RES002)
                if isinstance(exc, TransientFault):
                    raise
                self._note_degradation(
                    degradations, "select", "ner_fallback", exc
                )
                extractions = self._ner_fallback(blocks)
            t.items = len(extractions)
            sp.attrs["extractions"] = len(extractions)
        if angle != 0.0:
            with self.metrics.stage("rotate_back") as t, self.tracer.span(
                "rotate_back"
            ):
                t.items = len(extractions)
                extractions = [
                    Extraction(
                        e.entity_type,
                        e.text,
                        rotate_back(e.bbox, angle, observed),
                        rotate_back(e.span_bbox, angle, observed),
                        e.score,
                    )
                    for e in extractions
                ]
        return PipelineResult(
            doc.doc_id, extractions, tree, blocks, ocr, observed, angle, degradations
        )

    def _note_degradation(
        self,
        degradations: List[Degradation],
        stage: str,
        fallback: str,
        exc: BaseException,
    ) -> None:
        degradations.append(
            Degradation(stage, fallback, type(exc).__name__, str(exc))
        )
        self.tracer.event(
            "pipeline.degrade",
            stage=stage,
            fallback=fallback,
            error_type=type(exc).__name__,
        )

    def _ner_fallback(self, blocks: Sequence[LayoutNode]) -> List[Extraction]:
        """Last-rung extraction: generic dictionary/NER recognition over
        the block transcriptions when pattern matching is unavailable.
        Entity types carry an ``ner:`` prefix so scoring code can tell
        a degraded extraction from a pattern-matched one."""
        from repro.nlp.ner import recognize_entities

        picked: Dict[str, Extraction] = {}
        for block in blocks:
            text = block.text()
            if not text.strip():
                continue
            for entity in recognize_entities(text):
                key = f"ner:{entity.label.lower()}"
                best = picked.get(key)
                if best is None or entity.confidence > best.score:
                    picked[key] = Extraction(
                        key, entity.text, block.bbox, block.bbox, entity.confidence
                    )
        return [picked[key] for key in sorted(picked)]

    def run_corpus(
        self, docs: Sequence[Document], workers: int = 1
    ) -> List[PipelineResult]:
        """Run the pipeline over a document collection.

        ``workers > 1`` fans the corpus out across a process pool via
        :class:`repro.perf.runner.CorpusRunner` (results stay in input
        order and are identical to the serial path).  This method keeps
        the historical fail-fast contract — the first per-document
        error is re-raised; use :class:`CorpusRunner` directly for
        error isolation and per-run metrics.
        """
        from repro.perf.runner import CorpusRunner

        runner = CorpusRunner(
            self.dataset, config=self.config, workers=workers, cache=self.cache
        )
        outcome = runner.run(docs)
        outcome.raise_first()
        self.metrics.merge(outcome.metrics)
        return list(outcome.ok)
