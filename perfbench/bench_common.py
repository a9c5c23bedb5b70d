"""Inputs, output canonicalisation and process readings shared by the
benchmark's scripts.  Linux only: process CPU and memory are read from
``/proc``."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Sequence, Tuple

#: Seed of the warm-up documents (never measured, never checked).
WARMUP_SEED = 7919


def make_docs(dataset: str, seed: int, start: int, count: int, tag: str) -> list:
    """Documents ``start .. start+count-1`` of the seeded generator.

    Ids carry ``tag`` so documents from different seeds never share an
    id: the program's transcription cache is keyed by id, and a shared
    id would turn a fresh document into a (wrong) cache hit.
    """
    from repro.synth import PosterGenerator, TaxFormGenerator

    generator = {"D1": TaxFormGenerator, "D2": PosterGenerator}[dataset](seed)
    return [
        generator.generate(f"{tag}-{dataset}-{i:05d}", i)
        for i in range(start, start + count)
    ]


def warmup_docs(dataset: str, workers: int) -> list:
    return make_docs(dataset, WARMUP_SEED, 0, workers, "warmup")


def canonical(doc_id: str, key_values: Dict[str, str]) -> Tuple[str, List[List[str]]]:
    """One document's extractions as sorted ``[key, value]`` pairs."""
    return doc_id, [[k, key_values[k]] for k in sorted(key_values)]


def digest(rows: Iterable[Tuple[str, List[List[str]]]]) -> str:
    """SHA-256 of the canonical extractions, in document-id order."""
    payload = json.dumps(sorted(rows), separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def f1_score(pairs: Sequence[tuple]) -> float:
    """End-to-end extraction F1 over ``(extractions, document)`` pairs."""
    from repro.eval.metrics import end_to_end_scores

    overall, _ = end_to_end_scores(pairs)
    return overall.f1


# ----------------------------------------------------------------------
# /proc readings
# ----------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def child_pids(pid: int) -> List[int]:
    out: List[int] = []
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        with open(f"{task_dir}/{tid}/children") as fh:
            out.extend(int(p) for p in fh.read().split())
    return sorted(set(out))


def cpu_seconds(pid: int) -> float:
    """User+system CPU seconds the process has used so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    """The process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
