"""The asyncio HTTP front-end: transport + clock for the service.

A deliberately small HTTP/1.1 server on stdlib ``asyncio`` only (the
repo's zero-dependency rule): request parsing handles exactly what the
endpoints need — a request line, headers, an optional
``Content-Length`` body.  All service state lives in the sans-IO
:class:`~repro.serve.service.ExtractionService`; this module adds the
event loop, the wall clock (``time.monotonic``), the micro-batch
dispatcher, and signal-driven graceful drain.

Endpoints
---------
``GET /health``
    Liveness: always 200 while the process serves, with drain state.
``GET /ready``
    Readiness: 200 once the warm pool is booted and the server is not
    draining; 503 otherwise (load balancers stop routing here first).
``POST /extract``
    Body ``{"index": int, "deadline_s"?: float, "request_id"?: str}``
    — extract from the warm corpus document at ``index``.  Resolves as
    200 (extractions + degradations), 429 + ``Retry-After`` (shed), or
    504 (deadline).  A malformed body is a 400, a ``request_id`` that
    is already in flight a 409, and a body over
    :data:`MAX_BODY_BYTES` a 413 — all answered before admission, so
    the service's accounting never sees them.
``GET /metrics``
    Prometheus text exposition of the server's metric registry.

Concurrency model: admission, queue and resolution bookkeeping run on
the event loop only; the single dispatcher task takes queued requests
as soon as they arrive (a batch is whatever queued while the previous
batch ran, up to ``batch_max``) and runs each blocking batch in the
default thread-pool executor (the metric registry is the one structure
both threads touch, and it locks internally).  The process pool is
booted before the loop starts; only a replacement for a dead worker
forks later, from the dispatcher's executor thread (see
:class:`~repro.perf.runner.WarmProcessPool` for why that is safe).

Graceful drain: SIGTERM/SIGINT flips the service into draining (new
requests shed with 429), the dispatcher finishes queued and in-flight
batches, the final accounting is checkpointed, the pool workers are
joined, and the process exits 0 — no orphan workers, no lost request.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.export import to_prometheus
from repro.serve.service import ExtractionService, ServeResponse

#: Extra seconds a handler waits past the request deadline before
#: answering defensively — covers dispatcher scheduling latency.  The
#: service resolves the ticket authoritatively either way.
_HANDLER_GRACE_S = 10.0

#: Largest request body the server reads.  A longer ``Content-Length``
#: is answered 413 without reading the body.
MAX_BODY_BYTES = 64 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class RequestRejected(Exception):
    """A request answered with a 4xx before it reaches the service."""

    def __init__(self, status: int, error: str):
        super().__init__(error)
        self.status = status


def parse_extract_body(body: bytes) -> Tuple[int, Optional[str], Optional[float]]:
    """``(index, request_id, deadline_s)`` from a ``POST /extract`` body.

    Raises :class:`RequestRejected` (400) unless the body is a JSON
    object whose ``index`` is an integer, whose ``deadline_s`` (if
    present) is a finite number > 0 and whose ``request_id`` (if
    present) is a string.  An empty ``request_id`` counts as absent.
    """
    try:
        request = json.loads(body.decode("utf-8")) if body else {}
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        raise RequestRejected(400, "body must be a JSON object") from None
    if not isinstance(request, dict):
        raise RequestRejected(400, "body must be a JSON object")
    index = request.get("index")
    if not isinstance(index, int) or isinstance(index, bool):
        raise RequestRejected(400, "'index' must be an integer")
    deadline_s = request.get("deadline_s")
    if deadline_s is not None:
        try:
            valid = (
                isinstance(deadline_s, (int, float))
                and not isinstance(deadline_s, bool)
                and math.isfinite(deadline_s)
                and deadline_s > 0
            )
        except OverflowError:  # an int too large for a float
            valid = False
        if not valid:
            raise RequestRejected(400, "'deadline_s' must be a finite number > 0")
    request_id = request.get("request_id")
    if request_id is not None and not isinstance(request_id, str):
        raise RequestRejected(400, "'request_id' must be a string")
    return index, request_id or None, None if deadline_s is None else float(deadline_s)


class ServeHTTP:
    """One listening server bound to one :class:`ExtractionService`."""

    def __init__(self, service: ExtractionService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._futures: Dict[str, asyncio.Future] = {}
        self._assigned_ids = 0
        self._wake: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    def request_drain(self) -> None:
        """Signal-handler entry: stop admitting, let the dispatcher
        finish the queue, then shut down.  Safe to call repeatedly."""
        self.service.begin_drain(time.monotonic())
        if self._wake is not None:
            self._wake.set()

    async def serve_until_drained(self) -> None:
        """Block until a drain request has been fully honoured: queue
        empty, last batch resolved, listener closed."""
        assert self._dispatcher is not None and self._server is not None
        await self._dispatcher
        self._server.close()
        await self._server.wait_closed()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Take queued requests on arrival: a batch is whatever queued
        while the previous batch ran, up to ``batch_max``.  With the
        queue empty the loop sleeps until admission or a drain request
        sets the wake event."""
        assert self._wake is not None
        loop = asyncio.get_running_loop()
        while True:
            if self.service.pending() == 0:
                if self.service.draining:
                    return
                await self._wake.wait()
                self._wake.clear()
                continue
            batch, expired = self.service.take_batch(time.monotonic())
            self._publish(expired)
            if not batch:
                continue
            outcome = await loop.run_in_executor(None, self.service.run_batch, batch)
            responses = self.service.resolve(batch, outcome, time.monotonic())
            self._publish(responses)

    def _publish(self, responses: List[ServeResponse]) -> None:
        for response in responses:
            future = self._futures.pop(response.request_id, None)
            if future is not None and not future.done():
                future.set_result(response)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                parsed = await self._read_request(reader)
            except RequestRejected as exc:
                reply = self._json(exc.status, {"error": str(exc)})
            else:
                if parsed is None:
                    return
                reply = await self._route(*parsed)
            await self._write_response(writer, *reply)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; the service accounting is unaffected
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        """``(method, path, body)``, or ``None`` when there is no request
        line to answer.  A ``Content-Length`` that is not a non-negative
        integer raises :class:`RequestRejected` (400); one above
        :data:`MAX_BODY_BYTES` raises it (413) before the body is read."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        length = 0
        for line in header_lines:
            name, sep, value = line.partition(":")
            if sep and name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = -1
                if length < 0:
                    raise RequestRejected(400, "Content-Length must be a non-negative integer")
                if length > MAX_BODY_BYTES:
                    raise RequestRejected(413, f"body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        headers: Dict[str, str],
        payload: bytes,
    ) -> None:
        reason = _REASONS.get(status, "OK" if status < 400 else "Error")
        lines = [f"HTTP/1.1 {status} {reason}"]
        base = {
            "Content-Length": str(len(payload)),
            "Connection": "close",
        }
        base.update(headers)
        lines.extend(f"{k}: {v}" for k, v in base.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        if method == "GET" and path == "/health":
            return self._json(200, {
                "status": "ok",
                "draining": self.service.draining,
                "pending": self.service.pending(),
            })
        if method == "GET" and path == "/ready":
            if self.service.ready:
                return self._json(200, {"ready": True})
            return self._json(503, {"ready": False, "draining": self.service.draining})
        if method == "GET" and path == "/metrics":
            text = to_prometheus(self.service.registry).encode("utf-8")
            return 200, {"Content-Type": "text/plain; version=0.0.4"}, text
        if method == "POST" and path == "/extract":
            return await self._extract(body)
        return self._json(404, {"error": f"no route for {method} {path}"})

    async def _extract(self, body: bytes) -> Tuple[int, Dict[str, str], bytes]:
        try:
            index, request_id, deadline_s = parse_extract_body(body)
        except RequestRejected as exc:
            return self._json(exc.status, {"error": str(exc)})
        # Responses find their waiting handler by request id, so two
        # in-flight requests must never share one.
        if request_id is None:
            request_id = self._unused_request_id()
        elif request_id in self._futures:
            return self._json(
                409, {"error": f"request_id {request_id!r} is already in flight"}
            )
        now = time.monotonic()
        ticket, response = self.service.admit(
            index, now=now, request_id=request_id, deadline_s=deadline_s
        )
        if response is None:
            assert ticket is not None
            loop = asyncio.get_running_loop()
            future: asyncio.Future = loop.create_future()
            self._futures[ticket.request_id] = future
            assert self._wake is not None
            self._wake.set()
            budget = (ticket.deadline - now) + _HANDLER_GRACE_S
            try:
                response = await asyncio.wait_for(future, timeout=budget)
            except asyncio.TimeoutError:
                # Defensive: the dispatcher answers every ticket, but a
                # slot is never allowed to hang past its budget.  The
                # accounting entry lands when the service resolves the
                # ticket; this socket just stops waiting for it.  The
                # (now cancelled) future stays registered until then,
                # so the id counts as in flight and a retry under it
                # cannot receive this ticket's late answer.
                return self._json(
                    504, {"request_id": ticket.request_id, "status": 504, "where": "handler"}
                )
        return self._response_to_http(response)

    def _unused_request_id(self) -> str:
        """A server-assigned id that no in-flight request holds (a client
        may have picked one of this form for itself)."""
        while True:
            self._assigned_ids += 1
            request_id = f"req-{self._assigned_ids:06d}"
            if request_id not in self._futures:
                return request_id

    def _response_to_http(self, response: ServeResponse) -> Tuple[int, Dict[str, str], bytes]:
        headers = {"Content-Type": "application/json"}
        if response.retry_after_s is not None:
            headers["Retry-After"] = f"{response.retry_after_s:g}"
        return response.status, headers, response.payload()

    def _json(self, status: int, body: Dict[str, Any]) -> Tuple[int, Dict[str, str], bytes]:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        return status, {"Content-Type": "application/json"}, payload


# ----------------------------------------------------------------------
# Process entry
# ----------------------------------------------------------------------
def run_server(service: ExtractionService, host: str = "127.0.0.1", port: int = 0) -> int:
    """Boot, serve until drained (SIGTERM/SIGINT), exit 0.

    Boot order matters: the warm process pool is created *before* the
    event loop (and therefore before any thread) starts, and is joined
    by :meth:`ExtractionService.finish_drain` before this returns — a
    clean exit leaves no orphan worker processes.
    """
    service.boot()
    return asyncio.run(_serve_main(service, host, port))


async def _serve_main(service: ExtractionService, host: str, port: int) -> int:
    http = ServeHTTP(service, host, port)
    await http.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, http.request_drain)
        except NotImplementedError:  # pragma: no cover - non-posix loops
            pass
    print(
        f"repro serve: listening on {http.host}:{http.port} "
        f"(dataset={service.config.dataset}, workers={service.config.workers}, "
        f"queue_limit={service.config.queue_limit})",
        flush=True,
    )
    await http.serve_until_drained()
    snapshot = service.finish_drain(time.monotonic())
    print("repro serve: drained " + json.dumps(snapshot, sort_keys=True), flush=True)
    return 0
