"""Performance layer: parallel corpus execution.

:mod:`repro.perf.runner` holds :class:`CorpusRunner` and
:class:`WarmProcessPool`, the one corpus execution engine: a persistent
pool of forked workers that build the pipeline once, a single dispatch
loop with chunked tasks, deterministic result ordering, per-document
error isolation, worker replacement and (under a
:class:`~repro.resilience.supervisor.SupervisionPolicy`) watchdog,
retry, quarantine and checkpoint/resume.

See ``docs/ARCHITECTURE.md`` for where it hooks into the pipeline and
``docs/PROFILING.md`` for the operator's view (``--workers`` /
``--profile``).  Speed is measured by the repo benchmark
(``perfbench/``, ``BENCHMARK.json``).
"""

from repro.perf.runner import (
    CorpusRunError,
    CorpusRunner,
    CorpusRunResult,
    DocumentFailure,
    WarmProcessPool,
)

__all__ = [
    "CorpusRunError",
    "CorpusRunner",
    "CorpusRunResult",
    "DocumentFailure",
    "WarmProcessPool",
]
