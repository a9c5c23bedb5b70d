"""Golden decision ledgers: the whole pipeline's decisions, unchanged.

``tests/goldens/<dataset>.jsonl`` holds, for a fixed seeded sample of
each corpus, every cut, merge, Pareto-front, selection and degradation
event in canonical ledger form plus each document's final extractions
(exact floats).  A refactor or optimisation that claims to preserve
behaviour must leave these files byte-identical; regenerate them only
for an intended change, with ``python tools/record_goldens.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.trace import ledger_diff

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import record_goldens  # noqa: E402


@pytest.mark.parametrize("dataset", sorted(record_goldens.CORPORA))
def test_pipeline_reproduces_golden_ledger(dataset):
    expected = record_goldens.golden_path(dataset).read_text(encoding="utf-8").splitlines()
    actual = record_goldens.golden_lines(dataset)
    diff = ledger_diff(expected, actual, "golden", "current")
    assert not diff, (
        f"{dataset} decisions diverge from tests/goldens (first lines of the diff):\n"
        + "\n".join(diff[:20])
    )


def test_goldens_cover_every_decision_event():
    events = set()
    for dataset in record_goldens.CORPORA:
        for line in record_goldens.golden_path(dataset).read_text(encoding="utf-8").splitlines():
            events.add(line.split('"event": "', 1)[1].split('"', 1)[0])
    # ``pipeline.degrade`` only fires on a failing stage; healthy golden
    # runs record none, so a degradation would show as an added line.
    assert events >= set(record_goldens.EVENTS) - {"pipeline.degrade"}
    assert "extractions" in events
