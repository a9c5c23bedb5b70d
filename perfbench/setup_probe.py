"""One set-up of a batch workload, timed by the parent from process start.

Usage: ``python3 perfbench/setup_probe.py DATASET WORKERS``

Imports the program, boots a ``WarmProcessPool`` and runs one warm-up
document per worker through ``CorpusRunner`` -- everything a batch user
pays before the first document of real work can run.  Prints ``ready``
at that point, then shuts the pool down and exits.
"""

from __future__ import annotations

import sys

from bench_common import warmup_docs
from probe import BenchPipelineFactory
from repro.perf.runner import CorpusRunner, WarmProcessPool


def main() -> int:
    dataset, workers = sys.argv[1], int(sys.argv[2])
    pool = WarmProcessPool(
        dataset,
        workers=workers,
        pipeline_factory=BenchPipelineFactory(dataset, cached=True),
    )
    try:
        pool.boot()
        runner = CorpusRunner(dataset, pool=pool, chunk_size=1)
        outcome = runner.run(warmup_docs(dataset, workers))
        if outcome.failures:
            print(f"warm-up failed: {outcome.failures[0]}", file=sys.stderr)
            return 1
        print("ready", flush=True)
    finally:
        pool.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
