"""Shared experiment plumbing.

:class:`ExperimentContext` owns the corpora, the OCR engine and the
cleaned (deskewed) views, cached so the same transcription feeds every
algorithm — the paper's protocol of evaluating all competitors on
identical inputs.

The context rides on the :mod:`repro.perf` layer: a shared
:class:`~repro.ocr.cache.TranscriptionCache` memoises the clean step
(so harness *and* pipeline transcribe each document exactly once per
process), a :class:`~repro.instrument.PipelineMetrics` accumulator
records where the wall-time goes, and :meth:`ExperimentContext.
run_pipeline` fans a dataset out across a
:class:`~repro.perf.runner.CorpusRunner` process pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.select import Extraction
from repro.doc import Document
from repro.geometry import BBox
from repro.instrument import PipelineMetrics
from repro.ocr import OcrEngine
from repro.ocr.cache import TranscriptionCache
from repro.ocr.deskew import rotate_back
from repro.perf.runner import CorpusRunner, CorpusRunResult
from repro.synth import Corpus, generate_corpus, train_test_split

#: A segmentation algorithm: cleaned document → block proposals (or
#: ``None`` when not applicable to this document).
SegmentationFn = Callable[[Document], Optional[List[BBox]]]


@dataclass
class CleanedDoc:
    """One document with its cleaned OCR view."""

    original: Document
    observed: Document  # deskewed OCR view (no ground truth)
    angle: float

    def to_original_frame(self, box: BBox) -> BBox:
        return rotate_back(box, self.angle, self.observed)

    def extraction_to_original(self, e: Extraction) -> Extraction:
        if self.angle == 0.0:
            return e
        return Extraction(
            e.entity_type,
            e.text,
            self.to_original_frame(e.bbox),
            self.to_original_frame(e.span_bbox),
            e.score,
        )


class ExperimentContext:
    """Corpus + transcription cache shared by the table runners."""

    def __init__(
        self,
        n_docs: Dict[str, int],
        seed: int = 0,
        ocr_seed: int = 7,
        cache: Optional[TranscriptionCache] = None,
        metrics: Optional[PipelineMetrics] = None,
    ):
        self.n_docs = dict(n_docs)
        self.seed = seed
        self.engine = OcrEngine(seed=ocr_seed)
        #: Clean-step memo shared with any pipeline built over this
        #: context (pass it to ``VS2Pipeline(cache=ctx.cache)``).
        #: Unbounded: ``cleaned()`` and ``run_pipeline()`` each visit
        #: the whole corpus, so every document is transcribed once.
        self.cache = cache if cache is not None else TranscriptionCache(max_entries=None)
        #: Per-stage wall-time accumulated by everything this context runs.
        self.metrics = metrics or PipelineMetrics()
        self._corpora: Dict[str, Corpus] = {}
        self._cleaned: Dict[str, List[CleanedDoc]] = {}

    @staticmethod
    def default(scale: int = 1, seed: int = 0) -> "ExperimentContext":
        """A context sized for bench runs (``scale`` multiplies the
        per-dataset document counts)."""
        # D1 needs enough documents that the 60% split covers most of
        # the 20 form faces (the trained baselines learn per-face).
        return ExperimentContext(
            {"D1": 100 * scale, "D2": 40 * scale, "D3": 40 * scale}, seed=seed
        )

    # ------------------------------------------------------------------
    def corpus(self, dataset: str) -> Corpus:
        dataset = dataset.upper()
        if dataset not in self._corpora:
            self._corpora[dataset] = generate_corpus(
                dataset, self.n_docs.get(dataset, 0), self.seed
            )
        return self._corpora[dataset]

    def cleaned(self, dataset: str) -> List[CleanedDoc]:
        dataset = dataset.upper()
        if dataset not in self._cleaned:
            cleaned: List[CleanedDoc] = []
            for doc in self.corpus(dataset):
                _, observed, angle = self.cache.cleaned(self.engine, doc, self.metrics)
                cleaned.append(CleanedDoc(doc, observed, angle))
            self._cleaned[dataset] = cleaned
        return self._cleaned[dataset]

    def split(self, dataset: str, train_fraction: float = 0.6) -> Tuple[List[CleanedDoc], List[CleanedDoc]]:
        """Train/test split over the cleaned views (same shuffle as the
        corpus-level split so annotations stay aligned)."""
        cleaned = self.cleaned(dataset)
        corpus = self.corpus(dataset)
        train_corpus, _ = train_test_split(corpus, train_fraction, seed=self.seed)
        train_ids = {d.doc_id for d in train_corpus}
        train = [c for c in cleaned if c.original.doc_id in train_ids]
        test = [c for c in cleaned if c.original.doc_id not in train_ids]
        return train, test

    # ------------------------------------------------------------------
    def run_pipeline(
        self,
        dataset: str,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        tracer=None,
        config=None,
        registry=None,
    ) -> CorpusRunResult:
        """Run the full VS2 pipeline over one dataset's corpus through
        the instrumented :class:`CorpusRunner`.

        ``workers > 1`` uses a process pool; results keep corpus order
        either way, per-document failures are isolated, and the run's
        per-stage metrics are folded into :attr:`metrics`.  An optional
        ``tracer`` (:class:`repro.trace.Tracer`) receives the run's
        span tree and decision events; an optional ``config``
        (:class:`repro.core.config.VS2Config`) overrides the pipeline
        configuration.  An optional ``registry``
        (:class:`repro.obs.registry.MetricRegistry`) receives the run's
        labeled metrics; the outcome always carries one either way.
        """
        runner = CorpusRunner(
            dataset,
            workers=workers,
            chunk_size=chunk_size,
            cache=self.cache,
            tracer=tracer,
            config=config,
            registry=registry,
        )
        outcome = runner.run(list(self.corpus(dataset)))
        self.metrics.merge(outcome.metrics)
        return outcome

    # ------------------------------------------------------------------
    def run_segmentation(
        self, dataset: str, algorithm: SegmentationFn
    ) -> Optional[List[Tuple[List[BBox], Document]]]:
        """Apply a segmentation algorithm to every cleaned document.

        Returns per-doc ``(proposals_in_original_frame, original)``, or
        ``None`` when the algorithm is inapplicable to the dataset.
        """
        out: List[Tuple[List[BBox], Document]] = []
        for c in self.cleaned(dataset):
            boxes = algorithm(c.observed)
            if boxes is None:
                return None
            out.append(([c.to_original_frame(b) for b in boxes], c.original))
        return out

    def run_extractor(
        self,
        extractor,
        docs: Sequence[CleanedDoc],
        source_filter: Optional[str] = None,
    ) -> List[Tuple[List[Extraction], Document]]:
        """Apply an extractor (``extract(observed)``) to cleaned docs."""
        results = []
        for c in docs:
            if source_filter is not None and c.original.source != source_filter:
                continue
            extractions = [c.extraction_to_original(e) for e in extractor.extract(c.observed)]
            results.append((extractions, c.original))
        return results
