"""``BENCH_*.json`` timing snapshots — the repo's perf trajectory.

One snapshot is a JSON file holding run parameters plus the per-stage
metrics of an instrumented corpus run.  ``python -m repro bench`` and
the ``bench_smoke`` pytest marker write them; ``compare`` diffs two
snapshots so a PR can show what it did to the hot path (see
``docs/PROFILING.md`` for the workflow).

Timestamps are intentionally absent: snapshots are committed artefacts
and byte-stable output keeps their diffs reviewable.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Union

from repro.instrument import PipelineMetrics

#: Bumped when the JSON layout changes incompatibly.  ``/2`` added the
#: optional per-stage ``hist``/``max_seconds`` latency-histogram fields;
#: ``/1`` snapshots (no histograms) still load.
SCHEMA = "repro.bench.pipeline/2"

#: Older layouts :func:`load_snapshot` still accepts.
COMPATIBLE_SCHEMAS = (SCHEMA, "repro.bench.pipeline/1")


def write_snapshot(
    path: Union[str, pathlib.Path],
    metrics: PipelineMetrics,
    **meta: object,
) -> pathlib.Path:
    """Write ``metrics`` (plus free-form run ``meta``) as JSON."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": SCHEMA,
        "meta": dict(sorted(meta.items())),
        "stages": metrics.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def load_snapshot(path: Union[str, pathlib.Path]) -> Dict[str, object]:
    """Load a snapshot; raises ``ValueError`` on a foreign schema."""
    data = json.loads(pathlib.Path(path).read_text())
    if data.get("schema") not in COMPATIBLE_SCHEMAS:
        raise ValueError(f"{path}: unknown snapshot schema {data.get('schema')!r}")
    return data


def metrics_of(snapshot: Dict[str, object]) -> PipelineMetrics:
    return PipelineMetrics.from_dict(snapshot["stages"])  # type: ignore[arg-type]


def delta_line(
    baseline: Dict[str, object],
    metrics: PipelineMetrics,
    stages: Optional[List[str]] = None,
    mode: Optional[str] = None,
) -> str:
    """One-line per-stage delta of a live run vs a committed snapshot.

    ``repro bench`` prints this after its table so a run immediately
    shows its drift against ``benchmarks/results/BENCH_pipeline.json``
    without a separate compare step.  Defaults to the union of both
    snapshots' top-level stages (sub-stages stay in the table), so a
    stage that *disappeared* from the live run is reported as
    ``removed`` rather than silently skipped.  Each cell carries the
    total-seconds delta and, when both sides have latency histograms,
    the p95 delta.  This line is advisory output — it must never crash
    a bench run, so an explicitly requested stage neither side recorded
    shows as ``(not measured)`` and a stage absent from the committed
    baseline shows as ``new``.

    ``mode`` is the live run's contract mode (``off`` or ``checked``,
    see :func:`repro.analysis.contracts.contracts_mode`).  When it
    differs from the baseline's recorded ``contracts`` meta the line is
    prefixed with a not-comparable label: an ``off`` run beating a
    contract-checked baseline is the checks no longer running, not the
    pipeline speeding up.
    """
    prefix = "vs committed baseline: "
    if mode is not None:
        meta = baseline.get("meta")
        base_mode = meta.get("contracts", "off") if isinstance(meta, dict) else "off"
        if base_mode != mode:
            prefix = (
                f"vs committed baseline [NOT COMPARABLE: baseline contracts="
                f"{base_mode}, this run contracts={mode}]: "
            )
    base = metrics_of(baseline).stages
    if stages is None:
        stages = sorted(
            n for n in set(metrics.stages) | set(base) if "." not in n
        )
    parts: List[str] = []
    for name in stages:
        in_base = name in base
        if name not in metrics.stages:
            if in_base:
                parts.append(f"{name} (removed; was {base[name].seconds:.3f}s)")
            else:
                parts.append(f"{name} (not measured)")
            continue
        curr = metrics.stages[name]
        if not in_base:
            parts.append(f"{name} {curr.seconds:.3f}s (new)")
            continue
        b = base[name].seconds
        pct = (curr.seconds - b) / b * 100.0 if b > 0 else 0.0
        cell = f"{name} {curr.seconds:.3f}s ({pct:+.0f}%"
        base_p95 = base[name].quantile_seconds(0.95)
        curr_p95 = curr.quantile_seconds(0.95)
        if base_p95 is not None and curr_p95 is not None and base_p95 > 0:
            p95_pct = (curr_p95 - base_p95) / base_p95 * 100.0
            cell += f", p95 {p95_pct:+.0f}%"
        parts.append(cell + ")")
    return prefix + ("  ".join(parts) if parts else "(no stages)")


def compare(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float = 0.10,
) -> List[str]:
    """Human-readable per-stage deltas (current vs baseline).

    Lines are emitted for every stage present in either snapshot;
    changes beyond ``threshold`` (fractional) are flagged with
    ``SLOWER``/``faster`` so a glance finds the regressions.
    """
    base = metrics_of(baseline).stages
    curr = metrics_of(current).stages
    lines: List[str] = []
    for name in sorted(set(base) | set(curr)):
        b: Optional[float] = base[name].seconds if name in base else None
        c: Optional[float] = curr[name].seconds if name in curr else None
        if b is None:
            lines.append(f"{name:22s} new stage          ({c:.3f}s)")
        elif c is None:
            lines.append(f"{name:22s} stage removed      (was {b:.3f}s)")
        else:
            delta = (c - b) / b if b > 0 else 0.0
            flag = ""
            if delta > threshold:
                flag = "  SLOWER"
            elif delta < -threshold:
                flag = "  faster"
            lines.append(f"{name:22s} {b:8.3f}s -> {c:8.3f}s ({delta:+6.1%}){flag}")
    return lines
