"""``repro.serve`` — the long-lived extraction service.

The paper frames the pipeline as a service for heterogeneous document
traffic; this package is the always-on form of the repo's batch
machinery.  One :class:`~repro.serve.service.ExtractionService` owns a
warm :class:`~repro.perf.runner.WarmProcessPool` (pipeline, embedding
tables, pattern library and holdout corpus booted once), a bounded
admission queue with 429 load-shedding, per-request deadlines (504,
never a hung slot), dispatch on arrival into
:class:`~repro.perf.runner.CorpusRunner` calls, per-stage circuit
breakers that trip to the degradation ladder, and graceful SIGTERM
drain.  :mod:`repro.serve.http` is the stdlib-asyncio HTTP front-end
(``/health``, ``/ready``, ``/extract``, ``/metrics``);
:mod:`repro.serve.loadgen` the seeded load generator the tests drive
it with (a deterministic virtual clock, or a live server over HTTP).

See ``docs/SERVING.md`` for the lifecycle and overload semantics.
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.config import BreakerConfig, ServeConfig
from repro.serve.http import ServeHTTP, run_server
from repro.serve.loadgen import LoadSpec, arrival_schedule, run_http, run_virtual
from repro.serve.service import (
    BatchOutcome,
    ExtractionService,
    ServeRequest,
    ServeResponse,
)

__all__ = [
    "BatchOutcome",
    "BreakerConfig",
    "CircuitBreaker",
    "ExtractionService",
    "LoadSpec",
    "ServeConfig",
    "ServeHTTP",
    "ServeRequest",
    "ServeResponse",
    "arrival_schedule",
    "run_http",
    "run_server",
    "run_virtual",
]
