"""Configuration of the long-lived extraction service.

Every knob of the robustness envelope lives here so a server's whole
behaviour — capacity, overload policy, degradation thresholds — is one
reproducible value, mirroring how :class:`repro.core.config.VS2Config`
captures the pipeline.  ``docs/SERVING.md`` documents the semantics of
each group (admission, batching, deadlines, circuit breakers, drain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import VS2Config


@dataclass
class BreakerConfig:
    """Per-stage circuit-breaker tuning.

    The breaker watches degradation-ladder activations per dispatched
    batch: once at least ``window`` documents have been observed and
    the failure fraction reaches ``threshold``, it opens and the stage
    is degraded *proactively* (merge → visual-only, select → NER
    fallback) for ``cooldown_batches`` batches, after which one trial
    batch runs un-degraded (half-open) and decides between closing and
    re-opening.
    """

    window: int = 8
    threshold: float = 0.5
    cooldown_batches: int = 2


@dataclass
class ServeConfig:
    """Top-level server configuration."""

    #: Which dataset wiring to serve (``D1`` | ``D2`` | ``D3``).
    dataset: str = "D2"
    #: Pipeline workers in the warm pool; ``1`` serves in-process.
    workers: int = 2
    #: Optional pipeline-config override shared by every request.
    pipeline: Optional[VS2Config] = None
    #: The warm corpus: synthesised once at boot; ``/extract`` requests
    #: reference documents by index into it.
    corpus_n: int = 32
    corpus_seed: int = 0
    #: Bounded admission queue: requests beyond this depth are shed
    #: with 429 + ``Retry-After`` instead of queuing without bound.
    queue_limit: int = 16
    #: Default per-request deadline (seconds from admission; callers
    #: may override per request).  Expiry anywhere — in queue, during a
    #: batch, at resolution — yields 504, never a hung slot.
    deadline_s: float = 30.0
    #: Seconds a caller shed with 429 should wait before retrying.
    retry_after_s: float = 1.0
    #: Micro-batching: the dispatcher takes a request on arrival, and a
    #: batch is whatever queued while the previous one ran, at most
    #: ``batch_max`` requests per pipeline dispatch.
    batch_max: int = 4
    #: Attempts per request across batch retries (transient per-doc
    #: failures and whole-batch faults re-enqueue until exhausted).
    max_attempts: int = 2
    #: Circuit breakers for the two degradable stages.
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Where the drain checkpoint (final accounting snapshot) goes;
    #: ``None`` skips it.
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        self.dataset = self.dataset.upper()
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
