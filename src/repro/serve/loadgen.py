"""Deterministic load generation for the extraction service.

Two modes share one seeded arrival schedule
(:func:`arrival_schedule` — exponential inter-arrival gaps plus a
document index per request, both drawn from ``np.random.default_rng``
on the spec's seed):

* :func:`run_virtual` — the deterministic harness.  It drives a
  :class:`~repro.serve.service.ExtractionService` directly on a
  **virtual clock** as a discrete-event simulation: the serving engine
  is busy for ``doc_service_s × len(batch)`` virtual seconds per
  dispatched batch, arrivals that land inside that window join (or are
  shed from) the queue behind it, and deadlines expire in virtual
  time.  Every quantity in the resulting accounting — shed set, 504
  set, breaker trips, extraction payloads — is a pure function of
  ``(spec, serve config, fault plan)``, independent of worker count
  and machine speed, which is what the determinism and
  chaos-under-load tests pin down.

* :func:`run_http` — the same schedule fired at a live server over
  real sockets (stdlib asyncio, bounded concurrency, no threads).
  Used by the end-to-end tests (``make serve-smoke``); accounting
  still must close (every request resolves 200/429/504), latencies are
  real.

The virtual service cost is deliberately **capacity-normalised**: a
batch costs the same regardless of pool width, so a 1-worker and an
N-worker server replay identical schedules (the worker count changes
only real wall time).  Real-clock serving speed is measured by the
repo benchmark's ``posters-serve`` workload (``perfbench/``).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.service import ExtractionService, ServeResponse


@dataclass(frozen=True)
class LoadSpec:
    """One load-generation run: who arrives when, and what it costs."""

    n_requests: int = 64
    #: Offered load, requests per (virtual) second.  Capacity is
    #: ``1 / doc_service_s`` docs/s, so ``rate * doc_service_s`` is the
    #: overload factor (the chaos test runs it at >= 2).
    rate: float = 8.0
    seed: int = 0
    #: Per-request deadline handed to the server.
    deadline_s: float = 4.0
    #: Virtual service cost per document inside a batch.
    doc_service_s: float = 0.25
    #: Socket concurrency in HTTP mode.
    http_concurrency: int = 8

    @property
    def overload_factor(self) -> float:
        return self.rate * self.doc_service_s


def arrival_schedule(spec: LoadSpec) -> List[Tuple[float, int]]:
    """The seeded schedule: ``[(arrival_time, doc_index), ...]`` in
    non-decreasing time order."""
    rng = np.random.default_rng(spec.seed)
    gaps = rng.exponential(1.0 / max(spec.rate, 1e-9), spec.n_requests)
    times = np.cumsum(gaps)
    indices = rng.integers(0, 1 << 20, spec.n_requests)
    return [(float(t), int(i)) for t, i in zip(times, indices)]


# ----------------------------------------------------------------------
# Virtual-clock mode
# ----------------------------------------------------------------------
def run_virtual(
    service: ExtractionService, spec: LoadSpec
) -> Tuple[List[ServeResponse], Dict[str, Any]]:
    """Replay the schedule against ``service`` on a virtual clock and
    drain it; returns every response plus the accounting snapshot.

    The simulation loop: while requests remain, either (a) the queue is
    empty — jump to the next arrival and admit it — or (b) dispatch the
    next micro-batch at ``max(engine_free, now)``, admitting every
    arrival that lands before dispatch and before batch completion at
    its true arrival time.
    """
    service.boot()
    arrivals = arrival_schedule(spec)
    responses: List[ServeResponse] = []
    t_free = 0.0
    now = 0.0
    k = 0

    def admit(at: float, index: int) -> None:
        _, resp = service.admit(index, now=at, deadline_s=spec.deadline_s)
        if resp is not None:
            responses.append(resp)

    while k < len(arrivals) or service.pending():
        if not service.pending():
            at, index = arrivals[k]
            k += 1
            now = max(now, at)
            admit(at, index)
            continue
        dispatch_t = max(t_free, now)
        while k < len(arrivals) and arrivals[k][0] <= dispatch_t:
            admit(*arrivals[k])
            k += 1
        batch, expired = service.take_batch(dispatch_t)
        responses.extend(expired)
        now = dispatch_t
        if not batch:
            continue
        outcome = service.run_batch(batch)
        done_t = dispatch_t + spec.doc_service_s * len(batch)
        while k < len(arrivals) and arrivals[k][0] <= done_t:
            admit(*arrivals[k])
            k += 1
        responses.extend(service.resolve(batch, outcome, done_t))
        t_free = done_t
        now = done_t

    service.begin_drain(now)
    snapshot = service.finish_drain(now)
    return responses, snapshot


# ----------------------------------------------------------------------
# HTTP mode
# ----------------------------------------------------------------------
def run_http(host: str, port: int, spec: LoadSpec) -> Dict[str, int]:
    """Fire the schedule at a live server over real sockets; returns
    the status histogram (``{"200": n, "429": n, "504": n}``)."""
    return asyncio.run(_run_http(host, port, spec))


async def _http_request(
    host: str, port: int, method: str, path: str, body: Optional[bytes] = None
) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        writer.write(head + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # peer already gone
            pass
    status_line = raw.split(b"\r\n", 1)[0]
    status = int(status_line.split(b" ")[1])
    _, _, resp_body = raw.partition(b"\r\n\r\n")
    return status, resp_body


async def _run_http(host: str, port: int, spec: LoadSpec) -> Dict[str, int]:
    arrivals = arrival_schedule(spec)
    limiter = asyncio.Semaphore(max(1, spec.http_concurrency))
    counts: Dict[str, int] = {}

    async def one(index: int) -> None:
        async with limiter:
            body = json.dumps(
                {"index": index, "deadline_s": spec.deadline_s}
            ).encode("utf-8")
            status, _ = await _http_request(host, port, "POST", "/extract", body)
            counts[str(status)] = counts.get(str(status), 0) + 1

    await asyncio.gather(*(one(index) for _, index in arrivals))
    return dict(sorted(counts.items()))
