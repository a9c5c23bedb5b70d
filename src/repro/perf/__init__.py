"""Performance layer: parallel corpus execution and bench snapshots.

* :mod:`repro.perf.runner` — :class:`CorpusRunner` and
  :class:`WarmProcessPool`, the one corpus execution engine: a
  persistent pool of forked workers that build the pipeline once, a
  single dispatch loop with chunked tasks, deterministic result
  ordering, per-document error isolation, worker replacement and
  (under a :class:`~repro.resilience.supervisor.SupervisionPolicy`)
  watchdog, retry, quarantine and checkpoint/resume;
* :mod:`repro.perf.snapshot` — ``BENCH_*.json`` timing snapshots and
  their comparison.

The instrumentation it builds on lives below it and is re-exported
here for convenience: :class:`PipelineMetrics` / :class:`StageTimer`
(:mod:`repro.instrument`), :class:`TranscriptionCache`
(:mod:`repro.ocr.cache`) and the ``segment.cuts`` projection profiles
(:mod:`repro.geometry.profiles`, see ``docs/PERFORMANCE.md``).

See ``docs/ARCHITECTURE.md`` for where each hooks into the pipeline and
``docs/PROFILING.md`` for the operator's view (``--workers`` /
``--profile`` and ``BENCH_*.json`` snapshots).
"""

from repro.geometry.profiles import ProfileStore, RegionProfile
from repro.instrument import PipelineMetrics, StageStats, StageTimer, merge_all
from repro.ocr.cache import TranscriptionCache, transcribe_and_clean
from repro.perf.runner import (
    CorpusRunError,
    CorpusRunner,
    CorpusRunResult,
    DocumentFailure,
    WarmProcessPool,
)
from repro.perf.snapshot import compare, delta_line, load_snapshot, write_snapshot

__all__ = [
    "ProfileStore",
    "RegionProfile",
    "compare",
    "delta_line",
    "load_snapshot",
    "write_snapshot",
    "CorpusRunError",
    "CorpusRunner",
    "CorpusRunResult",
    "DocumentFailure",
    "PipelineMetrics",
    "StageStats",
    "StageTimer",
    "TranscriptionCache",
    "WarmProcessPool",
    "merge_all",
    "transcribe_and_clean",
]
