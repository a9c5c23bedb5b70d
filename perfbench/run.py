"""The VS2 repository benchmark.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a human-readable report.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` reports the per-layer
metrics, from a traced run made after an untraced run over the same
inputs (their difference is the tracing overhead).

Workloads (why each exists is recorded in ``BENCHMARK.json``):

``forms-batch``
    Fresh D1 tax forms (~370 atoms each) through ``CorpusRunner`` on a
    booted 2-worker ``WarmProcessPool``: the heavy-document case, where
    pipeline hot paths (form fields, semantic merge) dominate.
``posters-batch``
    Fresh D2 posters (~52 atoms, many skewed) on the same kind of pool:
    the small-document case, where per-document dispatch and pickling
    show next to cuts, clustering and pattern search.
``posters-serve``
    A real ``repro serve`` subprocess (D2, 2 workers, uncached) driven
    over HTTP by an open-loop Poisson schedule at a fixed rate of about
    half its capacity, from one single-threaded client process.

Every input comes from ``--seed`` and is generated before the timed
calls that use it.  Outputs are checked three ways: a fixed check
corpus must reproduce the extraction digest and F1 recorded in
``expected.json``; every timed document must succeed (batch); and every
served response must equal the library's extractions for its document.

Batch latency is each document's ``VS2Pipeline.run`` time on a warm
worker (dispatch and IPC excluded; ``docs_per_s`` carries them).  Serve
latency runs from when a request was due on the schedule until its
response arrived; a refused or failed request counts as the server's
30 s deadline.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import pickle
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Workers per pool: the reference machine's nproc.
WORKERS = 2
#: The fixed check corpus: seed and size per dataset.
CHECK_SEED = 1905
CHECK_DOCS = {"D1": 4, "D2": 8}
#: Open-loop generator lag (mean) beyond this share of the p50 latency
#: means the client, not the server, shaped the latencies: run invalid.
MAX_LAG_SHARE = 0.25
#: Traced layer totals must agree with the program's own stage table
#: within this share of the program's time plus this much per document.
AGREE_REL = 0.10
AGREE_ABS_S = 0.0005
#: Latency charged to a refused or failed request: the server's default
#: deadline, so it misses any latency limit and stays a finite number.
FAILED_LATENCY_MS = 30_000.0
#: Environment switches that make a run measure the contract layer.
GUARDED_ENV = ("REPRO_CONTRACTS", "REPRO_PROOF_LEDGER")

@dataclass(frozen=True)
class Batch:
    dataset: str
    call_docs: int  # documents per CorpusRunner.run call
    f1_docs: int  # F1 covers this many first documents, always run
    setups: int = 3  # set-ups per run; setup_s is their median


@dataclass(frozen=True)
class Serve:
    dataset: str
    rate: float  # requests per second on the schedule
    corpus_n: int  # the server's warm corpus; F1 covers the served documents
    setups: int = 3  # server boots per run; setup_s is their median


WORKLOADS = {
    "forms-batch": Batch("D1", call_docs=16, f1_docs=40),
    "posters-batch": Batch("D2", call_docs=64, f1_docs=256),
    "posters-serve": Serve("D2", rate=8.0, corpus_n=256),
}
SMOKE = {
    "forms-batch": Batch("D1", call_docs=4, f1_docs=4, setups=1),
    "posters-batch": Batch("D2", call_docs=8, f1_docs=8, setups=1),
    "posters-serve": Serve("D2", rate=6.0, corpus_n=8, setups=1),
}


class BenchError(Exception):
    """The program's outputs or the measurement failed a check."""


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (an observed sample)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` quantile."""
    return n - math.ceil(q * n)


def subprocess_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def kill_group(proc: subprocess.Popen) -> None:
    """Kill a child started in its own session, with everything it
    spawned, unless it already exited; then reap it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def first_line(proc: subprocess.Popen, timeout: float = 120.0) -> str:
    """The child's first output line; a child silent for ``timeout``
    seconds is a failed start."""
    if not select.select([proc.stdout], [], [], timeout)[0]:
        raise BenchError(f"child printed nothing within {timeout:.0f} s")
    return proc.stdout.readline()


def golden(workload: str) -> dict:
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check_docs(dataset: str) -> list:
    from bench_common import make_docs

    return make_docs(dataset, CHECK_SEED, 0, CHECK_DOCS[dataset], "check")


def check_golden(workload: str, docs: list, results: list) -> Tuple[str, float]:
    """Digest and F1 of the check corpus; raises on any mismatch."""
    from bench_common import canonical, digest, f1_score

    if any(r is None for r in results):
        raise BenchError("a check-corpus document failed")
    got_digest = digest(canonical(r.doc_id, r.as_key_values()) for r in results)
    got_f1 = f1_score([(r.extractions, d) for r, d in zip(results, docs)])
    want = golden(workload)
    if got_digest != want["digest"] or abs(got_f1 - want["f1"]) > 1e-9:
        raise BenchError(
            f"check corpus changed: digest {got_digest[:12]} f1 {got_f1:.6f}, "
            f"expected {want['digest'][:12]} f1 {want['f1']:.6f}"
        )
    return got_digest, got_f1


def agreement(rows: Dict[str, float], program, docs: int) -> List[str]:
    """Compare traced layer totals with the program's stage table;
    returns report lines, raises when a layer disagrees."""
    def stage(*names):
        return sum(program[n].seconds for n in names if n in program)

    pairs = [
        ("ocr", rows["ocr.transcribe"] + rows["ocr.deskew"], stage("ocr", "deskew")),
        (
            "segment",
            sum(rows[k] for k in ("segment.cuts", "segment.cluster", "segment.merge", "segment.self")),
            stage("segment"),
        ),
        (
            "select",
            sum(rows[k] for k in ("select.form_fields", "select.search", "select.disambiguate", "select.self")),
            stage("select"),
        ),
        ("segment.merge", rows["segment.merge"], stage("segment.merge")),
    ]
    lines = []
    for name, mine, theirs in pairs:
        limit = AGREE_REL * theirs + AGREE_ABS_S * docs
        ok = abs(mine - theirs) <= limit
        lines.append(
            f"  agree {name:14s} traced {mine * 1e3:10.1f} ms  program {theirs * 1e3:10.1f} ms"
            f"  {'ok' if ok else 'MISMATCH'}"
        )
        if not ok:
            raise BenchError("\n".join(lines))
    return lines


def layer_metrics(rows: Dict[str, float], docs: int) -> Dict[str, float]:
    """Per-document pipeline rows (worker time) from summed rows."""
    per = 1000.0 / max(docs, 1)
    hits, misses = rows["count.ocr.cache_hits"], rows["count.ocr.cache_misses"]
    windows = rows["count.segment.profile_windows"]
    rebuilds = rows["count.segment.profile_rebuilds"]
    return {
        "ocr.transcribe_ms": rows["ocr.transcribe"] * per,
        "ocr.deskew_ms": rows["ocr.deskew"] * per,
        "ocr.words": rows["count.ocr.words"] / max(docs, 1),
        "ocr.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "segment.cuts_ms": rows["segment.cuts"] * per,
        "segment.cluster_ms": rows["segment.cluster"] * per,
        "segment.merge_ms": rows["segment.merge"] * per,
        "segment.self_ms": rows["segment.self"] * per,
        "segment.blocks": rows["count.segment.blocks"] / max(docs, 1),
        "segment.profile_window_ratio": (
            windows / (windows + rebuilds) if windows + rebuilds else 0.0
        ),
        "select.form_fields_ms": rows["select.form_fields"] * per,
        "select.search_ms": rows["select.search"] * per,
        "select.disambiguate_ms": rows["select.disambiguate"] * per,
        "select.self_ms": rows["select.self"] * per,
        "select.extractions_per_candidate": (
            rows["count.select.extractions"] / rows["count.select.attempts"]
            if rows["count.select.attempts"]
            else 0.0
        ),
        "pipeline.self_ms": rows["pipeline.self"] * per,
        "pipeline.doc_ms": rows["doc"] * per,
    }


def check_partition(rows: Dict[str, float]) -> None:
    from probe import TIME_ROWS

    total = sum(rows[k] for k in TIME_ROWS)
    if any(rows[k] < -1e-9 for k in TIME_ROWS) or abs(total - rows["doc"]) > 1e-6 * max(rows["doc"], 1e-3):
        raise BenchError(
            f"layer self times do not partition document time: "
            f"sum {total:.6f}s vs doc {rows['doc']:.6f}s"
        )


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
@dataclass
class BatchRun:
    wall_s: float = 0.0
    attempted: int = 0
    ok: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    cache_hits: int = 0
    f1_pairs: List[tuple] = field(default_factory=list)
    outputs: Dict[str, list] = field(default_factory=dict)
    calls: List[dict] = field(default_factory=list)
    batches: List[list] = field(default_factory=list)
    metrics: object = None


def setup_probe(dataset: str) -> float:
    """Seconds from spawning a fresh process to ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), dataset, str(WORKERS)],
        stdout=subprocess.PIPE,
        env=subprocess_env(),
        text=True,
        start_new_session=True,
    )
    try:
        line = first_line(proc)
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        kill_group(proc)
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe failed (exit {code})")
    return elapsed


def run_batches(runner, spec: Batch, seed: int, seconds: float, pids, replay=None) -> BatchRun:
    """Timed ``CorpusRunner.run`` calls until ``seconds`` of timed wall
    and at least ``spec.f1_docs`` documents.  ``replay`` re-runs the
    document batches of an earlier run instead of generating new ones.
    Each call records its wall time and the CPU time of the parent and
    of the pool workers ``pids``."""
    from bench_common import canonical, cpu_seconds, make_docs
    from repro.instrument import PipelineMetrics
    from probe import PREFIX

    def cpu_now() -> float:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime + sum(cpu_seconds(p) for p in pids)

    run = BatchRun(metrics=PipelineMetrics())
    index = 0
    while True:
        if replay is not None:
            if len(run.batches) == len(replay):
                break
            docs = replay[len(run.batches)]
        else:
            if run.wall_s >= seconds and run.attempted >= spec.f1_docs:
                break
            docs = make_docs(spec.dataset, seed, index, spec.call_docs, f"s{seed}")
            index += len(docs)
        cpu0 = cpu_now()
        start = time.perf_counter()
        outcome = runner.run(docs)
        wall = time.perf_counter() - start
        cpu = cpu_now() - cpu0
        run.wall_s += wall
        run.batches.append(docs)
        run.metrics.merge(outcome.metrics)
        if "ocr.cache_hit" in outcome.metrics:
            run.cache_hits += outcome.metrics["ocr.cache_hit"].calls
        doc_s = outcome.metrics[PREFIX + "doc"].seconds if PREFIX + "doc" in outcome.metrics else 0.0
        run.calls.append(
            {
                "wall_s": wall,
                "cpu_s": cpu,
                "docs": len(docs),
                "doc_s": doc_s,
                "result_bytes": [len(pickle.dumps(r)) for r in outcome.ok]
                if replay is not None
                else [],
            }
        )
        for doc, result in zip(docs, outcome.results):
            run.attempted += 1
            if result is None:
                run.latencies_ms.append(math.inf)
            else:
                run.ok += 1
                run.latencies_ms.append(result.perfbench_doc_s * 1000.0)
                run.outputs[doc.doc_id] = canonical(doc.doc_id, result.as_key_values())[1]
            if len(run.f1_pairs) < spec.f1_docs:
                run.f1_pairs.append((result.extractions if result else [], doc))
    return run


def boot_pool(spec: Batch, layers: bool):
    """A booted, warmed pool and its runner; returns (pool, runner, boot_s)."""
    from bench_common import warmup_docs
    from probe import BenchPipelineFactory
    from repro.perf.runner import CorpusRunner, WarmProcessPool

    pool = WarmProcessPool(
        spec.dataset,
        workers=WORKERS,
        pipeline_factory=BenchPipelineFactory(spec.dataset, cached=True, layers=layers),
    )
    start = time.perf_counter()
    pool.boot()
    boot_s = time.perf_counter() - start
    warm = CorpusRunner(spec.dataset, pool=pool, chunk_size=1).run(
        warmup_docs(spec.dataset, WORKERS)
    )
    if warm.failures:
        pool.close()
        raise BenchError(f"warm-up failed: {warm.failures[0]}")
    return pool, CorpusRunner(spec.dataset, pool=pool), boot_s


def batch_checks(workload: str, spec: Batch, runner, run: BatchRun, report: List[str]) -> None:
    docs = check_docs(spec.dataset)
    outcome = runner.run(docs)
    got_digest, got_f1 = check_golden(workload, docs, outcome.results)
    report.append(f"check corpus: digest {got_digest[:16]} f1 {got_f1:.6f} (matches expected.json)")
    if run.ok != run.attempted:
        raise BenchError(f"{run.attempted - run.ok} of {run.attempted} documents failed")
    if run.cache_hits:
        raise BenchError(f"{run.cache_hits} transcription-cache hits on fresh documents")


def batch_e2e(workload: str, spec: Batch, seed: int, seconds: float, report: List[str]):
    from bench_common import child_pids, f1_score, peak_rss_mb

    setups = [setup_probe(spec.dataset) for _ in range(spec.setups)]
    report.append("set-up runs (s): " + " ".join(f"{s:.3f}" for s in setups))
    pool, runner, _ = boot_pool(spec, layers=False)
    try:
        pids = child_pids(os.getpid())
        run = run_batches(runner, spec, seed, seconds, pids)
        rss = peak_rss_mb(os.getpid()) + sum(peak_rss_mb(p) for p in pids)
        batch_checks(workload, spec, runner, run, report)
    finally:
        pool.close()
    n = len(run.latencies_ms)
    report.append(
        f"timed: {len(run.calls)} calls, {run.attempted} docs in {run.wall_s:.2f}s; "
        f"latency samples {n} ({beyond(n, 0.95)} beyond p95)"
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "docs_per_s": run.ok / run.wall_s,
        "latency_p50_ms": quantile(run.latencies_ms, 0.50),
        "latency_p95_ms": quantile(run.latencies_ms, 0.95),
        "ok_frac": run.ok / run.attempted,
        "f1": f1_score(run.f1_pairs),
        "cpu_ms_per_doc": sum(c["cpu_s"] for c in run.calls) * 1000.0 / max(run.ok, 1),
        "rss_peak_mb": rss,
    }
    return metrics, run.attempted, run.attempted - run.ok


def batch_traced(workload: str, spec: Batch, seed: int, seconds: float, report: List[str]):
    from bench_common import child_pids
    from probe import TIME_ROWS, layer_rows

    half = seconds / 2.0
    pool, runner, boot_s = boot_pool(spec, layers=False)
    try:
        plain = run_batches(runner, spec, seed, half, child_pids(os.getpid()))
    finally:
        pool.close()
    pool, runner, _ = boot_pool(spec, layers=True)
    try:
        traced = run_batches(runner, spec, seed, half, child_pids(os.getpid()), replay=plain.batches)
        batch_checks(workload, spec, runner, traced, report)
    finally:
        pool.close()
    if traced.outputs != plain.outputs:
        raise BenchError("traced run extracted differently from the untraced run")

    docs = traced.attempted
    rows = layer_rows(traced.metrics)
    check_partition(rows)
    report.extend(agreement(rows, traced.metrics, docs))
    covered = sum(call["doc_s"] / min(WORKERS, call["docs"]) for call in traced.calls)
    unattributed = (traced.wall_s - covered) * 1000.0 / docs
    if unattributed < 0:
        raise BenchError(f"negative unattributed runner time {unattributed:.3f} ms/doc")
    sizes = [b for call in traced.calls for b in call["result_bytes"]]
    out = layer_metrics(rows, docs)
    out.update(
        {
            "runner.boot_ms": boot_s * 1000.0,
            "runner.unattributed_ms": unattributed,
            "runner.result_kb_per_doc": sum(sizes) / len(sizes) / 1024.0,
            "serve.wait_ms": 0.0,
            "serve.run_batch_ms": 0.0,
            "serve.batch_size": 0.0,
            "serve.shed": 0.0,
            "serve.timeouts": 0.0,
            "serve.gen_lag_ms": 0.0,
            "unattributed_ms": unattributed,
            "traced_wall_ms": traced.wall_s * 1000.0 / docs,
            "trace.overhead_pct": (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0,
            "latency.samples": float(len(plain.latencies_ms)),
        }
    )
    wall_ms = traced.wall_s * 1000.0 / docs
    report.append(
        f"breakdown, wall ms per document ({docs} docs, {WORKERS} workers; "
        f"worker time / {WORKERS}):"
    )
    for name in TIME_ROWS:
        share = rows[name] * 1000.0 / docs / WORKERS
        report.append(f"  {name:22s} {share:9.3f}  {share / wall_ms * 100:5.1f}%")
    report.append(f"  {'unattributed':22s} {unattributed:9.3f}  {unattributed / wall_ms * 100:5.1f}%")
    report.append(f"  {'= traced wall':22s} {wall_ms:9.3f}")
    report.append(
        f"tracing overhead: traced {traced.wall_s:.3f}s vs untraced {plain.wall_s:.3f}s "
        f"on the same {docs} documents"
    )
    return out, traced.attempted, traced.attempted - traced.ok


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------
@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    setup_s: float

    def get(self, path: str) -> Tuple[int, bytes]:
        try:
            with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}", timeout=10) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def stop(self) -> str:
        """SIGTERM (graceful drain) and collect the remaining output."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            kill_group(self.proc)
            raise BenchError("server did not drain within 60 s")
        return rest


def start_server(spec: Serve, seed: int, traced: bool) -> Server:
    entry = [str(BENCH_DIR / "serve_traced.py")] if traced else ["-m", "repro", "serve"]
    start = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, *entry,
            "--dataset", spec.dataset,
            "--workers", str(WORKERS),
            "--corpus-n", str(spec.corpus_n),
            "--seed", str(seed),
            "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=subprocess_env(),
        text=True,
        start_new_session=True,
    )
    try:
        line = first_line(proc)
        if "listening on" not in line:
            raise BenchError(f"server did not start: {line.strip()!r}")
        server = Server(proc, int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1]), 0.0)
        while server.get("/ready")[0] != 200:
            time.sleep(0.005)
        server.setup_s = time.perf_counter() - start
        return server
    except BaseException:
        kill_group(proc)
        raise


def schedule(spec: Serve, seed: int, seconds: float) -> List[Tuple[float, int]]:
    """Open-loop Poisson arrivals: a fixed count spread uniformly over
    the window (a Poisson process conditioned on its count), each for a
    seeded random document of the warm corpus."""
    import numpy as np

    rng = np.random.default_rng(seed)
    count = max(1, round(spec.rate * seconds))
    due = np.sort(rng.uniform(0.0, seconds, size=count))
    docs = rng.integers(0, spec.corpus_n, size=count)
    return [(float(t), int(i)) for t, i in zip(due, docs)]


async def _post(port: int, body: dict) -> Tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps(body).encode()
        writer.write(
            b"POST /extract HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, data = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(data) if data else {}


async def _fire(port: int, plan: List[Tuple[float, int]], tag: str) -> List[dict]:
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05

    async def one(i: int, due: float, index: int) -> dict:
        await asyncio.sleep(max(0.0, start + due - loop.time()))
        sent = loop.time()
        try:
            status, body = await asyncio.wait_for(
                _post(port, {"index": index, "request_id": f"{tag}-{i:05d}"}), 120
            )
        except (OSError, asyncio.TimeoutError, ValueError):
            status, body = 0, {}
        done = loop.time()
        return {
            "id": f"{tag}-{i:05d}",
            "index": index,
            "status": status,
            "body": body,
            "lag_s": sent - (start + due),
            "latency_s": done - (start + due),
            "done_s": done - start,
        }

    tasks = [asyncio.create_task(one(i, due, index)) for i, (due, index) in enumerate(plan)]
    return list(await asyncio.gather(*tasks))


def prometheus_totals(text: str) -> Dict[str, float]:
    """Sum of every sample per metric name (labels folded)."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def serve_counter(totals: Dict[str, float], stem: str) -> float:
    return sum(v for k, v in totals.items() if k in (stem, stem + "_total"))


@dataclass
class ServeRun:
    setups: List[float]
    responses: List[dict]
    metrics_before: Dict[str, float]
    metrics_after: Dict[str, float]
    cpu_s: float
    rss_mb: float
    drain_tail: str


def serve_session(spec: Serve, seed: int, plan, tag: str, traced: bool, setups: int) -> ServeRun:
    """Boot ``setups`` servers (keeping the last), warm it, fire ``plan``."""
    from bench_common import child_pids, cpu_seconds, peak_rss_mb

    times = []
    server: Optional[Server] = None
    try:
        for attempt in range(setups):
            server = start_server(spec, seed, traced)
            times.append(server.setup_s)
            if attempt < setups - 1:
                server.stop()
                server = None
        # One warm-up request per worker, twice, so lazy set-up in every
        # worker is done before the schedule starts.
        for _ in range(2):
            warm = asyncio.run(_fire(server.port, [(0.0, 0), (0.0, 1 % spec.corpus_n)], "warmup"))
            if any(r["status"] != 200 for r in warm):
                raise BenchError("serve warm-up request failed")
        before = prometheus_totals(server.get("/metrics")[1].decode())
        pids = [server.proc.pid, *child_pids(server.proc.pid)]
        cpu0 = sum(cpu_seconds(p) for p in pids)
        responses = asyncio.run(_fire(server.port, plan, tag))
        cpu1 = sum(cpu_seconds(p) for p in pids)
        rss = sum(peak_rss_mb(p) for p in pids)
        after = prometheus_totals(server.get("/metrics")[1].decode())
        tail = server.stop()
        server = None
    finally:
        if server is not None:
            server.stop()
    return ServeRun(times, responses, before, after, cpu1 - cpu0, rss, tail)


def serve_checks(workload: str, spec: Serve, seed: int, runs: Sequence[ServeRun], report: List[str]) -> float:
    """Served outputs against the library; returns the F1 of the
    library's extractions over the documents the schedule requested."""
    from bench_common import canonical, f1_score
    from repro.perf.runner import CorpusRunner
    from repro.synth import generate_corpus

    for run in runs:
        drained = [l for l in run.drain_tail.splitlines() if l.startswith("repro serve: drained ")]
        if not drained or json.loads(drained[-1].split("drained ", 1)[1]).get("unaccounted") != 0:
            raise BenchError("server drain did not account for every request")
    corpus = generate_corpus(spec.dataset, spec.corpus_n, seed).documents
    requested = sorted({r["index"] for run in runs for r in run.responses})
    served_docs = [corpus[i] for i in requested]
    docs = check_docs(spec.dataset)
    outcome = CorpusRunner(spec.dataset, workers=WORKERS).run(served_docs + docs)
    results = outcome.results[: len(served_docs)]
    got_digest, got_f1 = check_golden(workload, docs, outcome.results[len(served_docs):])
    report.append(f"check corpus: digest {got_digest[:16]} f1 {got_f1:.6f} (matches expected.json)")
    if any(r is None for r in results):
        raise BenchError("the library failed on a served document")
    expected = {i: canonical(r.doc_id, r.as_key_values())[1] for i, r in zip(requested, results)}
    served = 0
    for run in runs:
        for resp in run.responses:
            if resp["status"] != 200:
                continue
            got = canonical("", resp["body"]["extractions"])[1]
            if got != expected[resp["index"]]:
                raise BenchError(f"request {resp['id']} (doc {resp['index']}) differs from the library")
            served += 1
    report.append(f"served outputs: {served} responses equal the library's extractions")
    return f1_score([(r.extractions, d) for r, d in zip(results, served_docs)])


def serve_latencies(run: ServeRun) -> List[float]:
    return [
        r["latency_s"] * 1000.0 if r["status"] == 200 else FAILED_LATENCY_MS
        for r in run.responses
    ]


def gen_lag_ms(run: ServeRun) -> float:
    return statistics.fmean(max(r["lag_s"], 0.0) for r in run.responses) * 1000.0


def check_lag(run: ServeRun, p50_ms: float, report: List[str]) -> None:
    lag = gen_lag_ms(run)
    report.append(f"generator lag: mean {lag:.2f} ms ({lag / p50_ms * 100:.1f}% of p50; limit {MAX_LAG_SHARE:.0%})")
    if lag > MAX_LAG_SHARE * p50_ms:
        raise BenchError("open-loop generator ran late: latencies measure the client")


def serve_e2e(workload: str, spec: Serve, seed: int, seconds: float, report: List[str]):
    plan = schedule(spec, seed, seconds)
    run = serve_session(spec, seed, plan, f"s{seed}", traced=False, setups=spec.setups)
    report.append("set-up runs (s): " + " ".join(f"{s:.3f}" for s in run.setups))
    f1 = serve_checks(workload, spec, seed, [run], report)
    latencies = serve_latencies(run)
    ok = sum(1 for r in run.responses if r["status"] == 200)
    p50 = quantile(latencies, 0.50)
    check_lag(run, p50, report)
    last_done = max(r["done_s"] for r in run.responses)
    report.append(
        f"timed: {len(plan)} requests at {spec.rate} rps over {seconds:.0f}s; "
        f"latency samples {len(latencies)} ({beyond(len(latencies), 0.95)} beyond p95)"
    )
    metrics = {
        "setup_s": statistics.median(run.setups),
        "docs_per_s": ok / last_done,
        "latency_p50_ms": p50,
        "latency_p95_ms": quantile(latencies, 0.95),
        "ok_frac": ok / len(plan),
        "f1": f1,
        "cpu_ms_per_doc": run.cpu_s * 1000.0 / max(ok, 1),
        "rss_peak_mb": run.rss_mb,
    }
    return metrics, len(plan), len(plan) - ok


def serve_traced_rows(run: ServeRun) -> dict:
    from serve_traced import TRACE_TAG

    lines = [l for l in run.drain_tail.splitlines() if l.startswith(TRACE_TAG + " ")]
    if not lines:
        raise BenchError("traced server wrote no trace record")
    return json.loads(lines[-1][len(TRACE_TAG) + 1:])


def serve_traced(workload: str, spec: Serve, seed: int, seconds: float, report: List[str]):
    from probe import TIME_ROWS, layer_rows
    from repro.instrument import PipelineMetrics

    half = seconds / 2.0
    plan = schedule(spec, seed, half)
    plain = serve_session(spec, seed, plan, f"s{seed}", traced=False, setups=1)
    traced = serve_session(spec, seed, plan, f"s{seed}", traced=True, setups=1)
    serve_checks(workload, spec, seed, [plain, traced], report)
    record = serve_traced_rows(traced)
    # Only batches of the timed schedule: warm-up requests carry
    # first-document set-up costs.
    timed = f"s{seed}-"
    batches = [b for b in record["batches"] if b["ids"][0].startswith(timed)]
    program = PipelineMetrics()
    for batch in batches:
        program.merge(PipelineMetrics.from_dict(batch["metrics"]))
    rows = layer_rows(program)
    docs = int(rows["count.docs"])
    check_partition(rows)
    report.extend(agreement(rows, program, docs))

    batch_of = {rid: b for b in batches for rid in b["ids"]}
    ok = [r for r in traced.responses if r["status"] == 200]
    wait_ms = statistics.fmean(record["wait_s"][r["id"]] for r in ok) * 1000.0
    run_batch_ms = statistics.fmean(batch_of[r["id"]]["wall_s"] for r in ok) * 1000.0
    latency_ms = statistics.fmean(r["latency_s"] for r in ok) * 1000.0
    unattributed = latency_ms - wait_ms - run_batch_ms
    if unattributed < -1.0:
        raise BenchError(f"request latency below server time by {-unattributed:.2f} ms")
    runner_unattributed = sum(
        b["wall_s"] - layer_rows(PipelineMetrics.from_dict(b["metrics"]))["doc"]
        / min(b["workers"], len(b["ids"]))
        for b in batches
    ) * 1000.0 / docs
    sizes = [size for b in batches for size in b["result_bytes"]]

    def delta(stem: str) -> float:
        return serve_counter(traced.metrics_after, stem) - serve_counter(traced.metrics_before, stem)

    dispatches = delta("repro_serve_batches")
    plain_latency = statistics.fmean(r["latency_s"] for r in plain.responses if r["status"] == 200) * 1000.0
    out = layer_metrics(rows, docs)
    out.update(
        {
            "runner.boot_ms": record["boot_s"][0] * 1000.0,
            "runner.unattributed_ms": runner_unattributed,
            "runner.result_kb_per_doc": sum(sizes) / len(sizes) / 1024.0,
            "serve.wait_ms": wait_ms,
            "serve.run_batch_ms": run_batch_ms,
            "serve.batch_size": delta("repro_serve_batched_docs") / dispatches if dispatches else 0.0,
            "serve.shed": delta("repro_serve_shed"),
            "serve.timeouts": delta("repro_serve_timeouts"),
            "serve.gen_lag_ms": gen_lag_ms(plain),
            "unattributed_ms": unattributed,
            "traced_wall_ms": latency_ms,
            "trace.overhead_pct": (latency_ms - plain_latency) / plain_latency * 100.0,
            "latency.samples": float(len(plain.responses)),
        }
    )
    report.append(f"breakdown, mean ms per OK request ({len(ok)} requests):")
    report.append(f"  {'serve.wait':22s} {wait_ms:9.3f}  (admission to dispatch, batch window included)")
    report.append(f"  {'serve.run_batch':22s} {run_batch_ms:9.3f}")
    report.append(f"  {'unattributed':22s} {unattributed:9.3f}  (generator lag, HTTP, resolution)")
    report.append(f"  {'= request latency':22s} {latency_ms:9.3f}")
    report.append(f"inside run_batch, worker ms per document ({docs} docs):")
    for name in TIME_ROWS:
        report.append(f"  {name:22s} {rows[name] * 1000.0 / docs:9.3f}")
    report.append(f"  {'runner.unattributed':22s} {runner_unattributed:9.3f}  (per document, wall)")
    report.append(
        f"tracing overhead: mean latency traced {latency_ms:.2f} ms vs untraced "
        f"{plain_latency:.2f} ms on the same schedule"
    )
    attempted = len(traced.responses)
    return out, attempted, attempted - len(ok)


# ----------------------------------------------------------------------
# Entry
# ----------------------------------------------------------------------
def environment() -> str:
    import numpy

    return (
        f"nproc {os.cpu_count()}  python {platform.python_version()}  "
        f"numpy {numpy.__version__}  contracts off  workers {WORKERS}"
    )


def record_expected() -> None:
    """Rewrite ``expected.json`` from the current program (run this only
    when a change of extraction behaviour is intended)."""
    from bench_common import canonical, digest, f1_score
    from repro.perf.runner import CorpusRunner

    out = {}
    for name, spec in WORKLOADS.items():
        docs = check_docs(spec.dataset)
        results = CorpusRunner(spec.dataset, workers=WORKERS).run(docs).results
        out[name] = {
            "check_seed": CHECK_SEED,
            "check_docs": len(docs),
            "digest": digest(canonical(r.doc_id, r.as_key_values()) for r in results),
            "f1": f1_score([(r.extractions, d) for r, d in zip(results, docs)]),
        }
    with open(BENCH_DIR / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up (self-test)")
    parser.add_argument("--record-expected", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    guarded = [name for name in GUARDED_ENV if os.environ.get(name)]
    if guarded:
        print(f"refusing to measure with {', '.join(guarded)} set: that measures the contract layer", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    os.environ["PYTHONPATH"] = subprocess_env()["PYTHONPATH"]

    if args.record_expected:
        record_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = (SMOKE if args.smoke else WORKLOADS)[args.workload]

    report = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}", environment()]
    try:
        if isinstance(spec, Batch):
            fn = batch_traced if args.trace else batch_e2e
        else:
            fn = serve_traced if args.trace else serve_e2e
        values, attempted, failed = fn(args.workload, spec, args.seed, args.seconds, report)
    except BenchError as exc:
        report.append(f"CHECK FAILED: {exc}")
        print("\n".join(report))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    for name in units:
        report.append(f"  {name:34s} {values[name]:14.4f} {units[name]}")
    print("\n".join(report))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - any crash exits non-zero without a result
        traceback.print_exc()
        sys.exit(1)
