"""The benchmark's own self-test, as part of tier 1.

``perfbench/selftest.py`` runs every workload untraced and traced at
tiny sizes and checks the golden digests, the metric names, the digest
check and the refusal of contract-mode environments.  Running it here
means a renamed function the benchmark's probe wraps, a pipeline result
the pool cannot pickle or an extraction that no longer matches
``perfbench/expected.json`` fails tier 1, not only the benchmark run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Environment switches the benchmark refuses to measure under (the
#: contracts CI job sets them for the whole suite).
GUARDED_ENV = ("REPRO_CONTRACTS", "REPRO_PROOF_LEDGER")


def test_perfbench_selftest_passes():
    env = {k: v for k, v in os.environ.items() if k not in GUARDED_ENV}
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
