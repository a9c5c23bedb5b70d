"""Fast self-test of the benchmark at tiny sizes (about a minute).

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout.

Checks that every workload runs untraced and traced, that each run
prints every metric named in ``BENCHMARK.json`` with its unit, that the
digest check catches a perturbed extraction, that contract-mode
environments are refused, and that a directory holding only the
benchmark exits non-zero without a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_bench(workload: str, trace: int, env=None, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, str(Path("perfbench") / "run.py"),
            "--workload", workload, "--seed", "2", "--seconds", "2",
            "--trace", str(trace), "--smoke",
        ],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300,
    )


def check_outputs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, f"{workload} trace {trace}:\n{proc.stdout}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: metrics {got} != {want}"
            print(f"ok  {workload} trace {trace}: {len(got)} metrics")


def check_digest_catches_perturbation() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import run
    from repro.core.pipeline import VS2Pipeline

    docs = run.check_docs("D2")
    pipeline = VS2Pipeline("D2")
    results = [pipeline.run(doc) for doc in docs]
    run.check_golden("posters-batch", docs, results)
    first = results[0]
    wrong = dataclasses.replace(first.extractions[0], text=first.extractions[0].text + "x")
    results[0] = dataclasses.replace(first, extractions=[wrong, *first.extractions[1:]])
    try:
        run.check_golden("posters-batch", docs, results)
    except run.BenchError:
        print("ok  digest check rejects a perturbed extraction")
        return
    raise AssertionError("digest check accepted a perturbed extraction")


def check_refusals() -> None:
    env = dict(os.environ, REPRO_CONTRACTS="1")
    proc = run_bench("posters-batch", 0, env=env)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  contract mode refused")
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("posters-batch", 0, cwd=Path(bare))
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  bare benchmark directory exits non-zero without a result")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_digest_catches_perturbation()
    check_refusals()
    check_outputs(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
