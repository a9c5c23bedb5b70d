"""Timers installed inside the processes that run the pipeline.

Every benchmark pool builds its workers' pipelines through
:class:`BenchPipelineFactory`, which builds them exactly as the program
does and then wraps ``VS2Pipeline.run``: the wrapper stamps each
``PipelineResult`` with the document's run time (attribute
``perfbench_doc_s``), which is how batch workloads see per-document
latency.  That costs two clock reads per document.

With ``layers=True`` (traced runs only) the factory also wraps the
public functions of every pipeline layer.  Each wrapper is a span: it
measures its wall time and subtracts the time of wrapped calls made
inside it, so the *self* times of all layers of one document partition
that document's ``VS2Pipeline.run`` time exactly.  When the document
finishes, the root span folds the self times and work counts into the
pipeline's own ``PipelineMetrics`` under the ``perfbench.`` prefix; the
program's corpus runner drains that accumulator back to the parent
after every chunk, so the numbers travel with no extra channel.

Every wrapper returns its callee's result unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: Prefix of every stage name the wrappers record.  All names carry a
#: dot, so ``PipelineMetrics.total_seconds`` never counts them.
PREFIX = "perfbench."

#: Self-time rows of one document, in report order.  Their sum is the
#: document's ``VS2Pipeline.run`` wall time.
TIME_ROWS = (
    "ocr.transcribe",
    "ocr.deskew",
    "segment.cuts",
    "segment.cluster",
    "segment.merge",
    "segment.self",
    "select.form_fields",
    "select.search",
    "select.disambiguate",
    "select.self",
    "pipeline.self",
)

#: Work counts recorded per document (summed over documents).
COUNT_ROWS = (
    "docs",
    "ocr.words",
    "ocr.cache_hits",
    "ocr.cache_misses",
    "segment.blocks",
    "segment.profile_windows",
    "segment.profile_rebuilds",
    "select.attempts",
    "select.extractions",
)


class Recorder:
    """Span stack and per-layer accumulators of one process."""

    def __init__(self, layers: bool) -> None:
        self.layers = layers
        self.stack: List[float] = []  # time of wrapped children, per open span
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Optional[Callable[[Any, tuple], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``; ``after(result, args)`` records
        work counts once the call returned."""

        def timed(*args, **kwargs):
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self.stack.pop()
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - inner
                if self.stack:
                    self.stack[-1] += elapsed
            if after is not None:
                after(result, args)
            return result

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    def wrap_root(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``VS2Pipeline.run``: stamp the result with its run time and,
        when tracing layers, fold this document's rows into the
        pipeline's ``metrics``."""
        if not self.layers:

            def run(pipeline, doc, *args, **kwargs):
                start = time.perf_counter()
                result = fn(pipeline, doc, *args, **kwargs)
                result.perfbench_doc_s = time.perf_counter() - start
                return result

            return run

        def traced_run(pipeline, doc, *args, **kwargs):
            cache = pipeline.cache
            before = (cache.hits, cache.misses) if cache is not None else (0, 0)
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(pipeline, doc, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self.stack.pop()
                self.self_s["pipeline.self"] = (
                    self.self_s.get("pipeline.self", 0.0) + elapsed - inner
                )
                if cache is not None:
                    self.add("ocr.cache_hits", cache.hits - before[0])
                    self.add("ocr.cache_misses", cache.misses - before[1])
                self.add("docs", 1)
            self.add("segment.blocks", len(result.blocks))
            self.add("select.extractions", len(result.extractions))
            self.flush(pipeline.metrics, elapsed)
            result.perfbench_doc_s = elapsed
            return result

        return traced_run

    def flush(self, metrics, doc_seconds: float) -> None:
        metrics.record(PREFIX + "doc", doc_seconds)
        for name, seconds in self.self_s.items():
            metrics.record(PREFIX + name, seconds, calls=0)
        for name, value in self.counts.items():
            metrics.record(PREFIX + "count." + name, 0.0, items=value, calls=0)
        self.self_s = {}
        self.counts = {}


_RECORDER: Optional[Recorder] = None


def install(layers: bool) -> Recorder:
    """Wrap the timed functions of this process, once.  A process is
    either traced or not: pools are built per mode."""
    global _RECORDER
    if _RECORDER is not None:
        if _RECORDER.layers != layers:
            raise RuntimeError("a process cannot switch tracing mode")
        return _RECORDER
    rec = Recorder(layers)
    from repro.core.pipeline import VS2Pipeline

    if layers:
        _wrap_layers(rec)
    VS2Pipeline.run = rec.wrap_root(VS2Pipeline.run)
    _RECORDER = rec
    return rec


def _wrap_layers(rec: Recorder) -> None:
    """Module attributes are patched where the caller looks them up."""
    import repro.core.formfields as formfields
    import repro.core.segment as segment
    import repro.core.select as select
    import repro.ocr.cache as ocr_cache
    from repro.core.patterns import SyntacticPattern
    from repro.ocr import OcrEngine

    def words(result, args):
        rec.add("ocr.words", len(result.words))

    def profile_counts(result, args):
        profiles = args[0].profiles
        if profiles is not None:
            rec.add("segment.profile_windows", profiles.windows)
            rec.add("segment.profile_rebuilds", profiles.rebuilds)

    def matches(result, args):
        rec.add("select.attempts", len(result))

    def descriptor_attempt(result, args):
        rec.add("select.attempts", 1)

    OcrEngine.transcribe = rec.wrap("ocr.transcribe", OcrEngine.transcribe, words)
    ocr_cache.deskew = rec.wrap("ocr.deskew", ocr_cache.deskew)
    segment.VS2Segmenter.segment = rec.wrap(
        "segment.self", segment.VS2Segmenter.segment, profile_counts
    )
    segment.interior_cut_sets = rec.wrap("segment.cuts", segment.interior_cut_sets)
    segment.identify_visual_delimiters = rec.wrap(
        "segment.cuts", segment.identify_visual_delimiters
    )
    segment.cluster_elements = rec.wrap("segment.cluster", segment.cluster_elements)
    segment.semantic_merge = rec.wrap("segment.merge", segment.semantic_merge)
    select.VS2Selector.extract = rec.wrap("select.self", select.VS2Selector.extract)
    select.VS2Selector._identify_face = rec.wrap(
        "select.form_fields", select.VS2Selector._identify_face
    )
    formfields.find_descriptor_span = rec.wrap(
        "select.form_fields", formfields.find_descriptor_span, descriptor_attempt
    )
    SyntacticPattern.find = rec.wrap("select.search", SyntacticPattern.find, matches)
    select.select_interest_points = rec.wrap(
        "select.disambiguate", select.select_interest_points
    )
    select.distance_to_interest_points = rec.wrap(
        "select.disambiguate", select.distance_to_interest_points
    )


@dataclass(frozen=True)
class BenchPipelineFactory:
    """Builds a worker's pipeline the way the program does, with the
    timers installed first.  ``cached`` selects the batch wiring (a
    private transcription cache, as ``CorpusRunner`` builds it) or the
    serve wiring (uncached).  Picklable, so pools can ship it."""

    dataset: str
    config: Any = None
    cached: bool = False
    layers: bool = False

    def __call__(self):
        install(self.layers)
        from repro.core.pipeline import VS2Pipeline
        from repro.ocr.cache import TranscriptionCache

        cache = TranscriptionCache() if self.cached else None
        return VS2Pipeline(self.dataset, config=self.config, cache=cache)


def layer_rows(metrics) -> Dict[str, float]:
    """``{row: seconds or count}`` of the ``perfbench.`` stages of a
    merged ``PipelineMetrics``; absent rows read 0."""
    out: Dict[str, float] = {"doc": 0.0}
    out.update({name: 0.0 for name in TIME_ROWS})
    out.update({"count." + name: 0 for name in COUNT_ROWS})
    for name, stats in metrics.stages.items():
        if name.startswith(PREFIX):
            key = name[len(PREFIX):]
            out[key] = stats.items if key.startswith("count.") else stats.seconds
    return out
