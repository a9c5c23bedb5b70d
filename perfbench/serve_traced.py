"""``repro serve`` with the benchmark's layer timers installed.

Usage: ``python3 perfbench/serve_traced.py <repro serve arguments>``

Runs the program's own ``serve`` command after wrapping:

* the pool workers' pipelines (:mod:`probe` layer spans);
* ``WarmProcessPool.boot`` (pool boot time);
* ``ExtractionService.take_batch`` (per request: admission to dispatch,
  which includes the batch window);
* ``ExtractionService.run_batch`` (per batch: its requests, run time,
  pickled result sizes and the layer rows its workers reported).

When the server has drained, one line ``perfbench-serve-trace {json}``
goes to standard output with all of it.
"""

from __future__ import annotations

import functools
import json
import pickle
import sys
import time

import probe
import repro.serve.service as service_mod
from repro.__main__ import main as repro_main
from repro.perf.runner import WarmProcessPool

TRACE_TAG = "perfbench-serve-trace"


def install() -> None:
    record = {"boot_s": [], "wait_s": {}, "batches": []}

    service_mod.UncachedPipelineFactory = functools.partial(
        probe.BenchPipelineFactory, layers=True
    )

    boot = WarmProcessPool.boot

    def timed_boot(self):
        start = time.perf_counter()
        try:
            return boot(self)
        finally:
            record["boot_s"].append(time.perf_counter() - start)

    take_batch = service_mod.ExtractionService.take_batch

    def timed_take_batch(self, now):
        batch, expired = take_batch(self, now)
        for ticket in batch:
            record["wait_s"][ticket.request_id] = now - ticket.submitted_at
        return batch, expired

    run_batch = service_mod.ExtractionService.run_batch

    def timed_run_batch(self, batch):
        start = time.perf_counter()
        outcome = run_batch(self, batch)
        elapsed = time.perf_counter() - start
        result = outcome.result
        record["batches"].append(
            {
                "ids": [ticket.request_id for ticket in batch],
                "wall_s": elapsed,
                "workers": self.pool.workers if self.pool is not None else 1,
                "metrics": result.metrics.to_dict() if result else {},
                # Pickled at drain, so measuring sizes delays no response.
                "result_bytes": list(result.ok) if result else [],
            }
        )
        return outcome

    finish_drain = service_mod.ExtractionService.finish_drain

    def dumping_finish_drain(self, now):
        for batch in record["batches"]:
            batch["result_bytes"] = [len(pickle.dumps(r)) for r in batch["result_bytes"]]
        print(TRACE_TAG + " " + json.dumps(record), flush=True)
        return finish_drain(self, now)

    WarmProcessPool.boot = timed_boot
    service_mod.ExtractionService.take_batch = timed_take_batch
    service_mod.ExtractionService.run_batch = timed_run_batch
    service_mod.ExtractionService.finish_drain = dumping_finish_drain


if __name__ == "__main__":
    install()
    sys.exit(repro_main(["serve", *sys.argv[1:]]))
