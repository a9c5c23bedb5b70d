"""Metric exporters: Prometheus text exposition and JSONL.

The exposition follows the Prometheus text format 0.0.4 — ``# HELP`` /
``# TYPE`` headers, one ``name{label="value"} value`` sample per line,
histograms as cumulative ``_bucket{le="…"}`` series plus ``_sum`` and
``_count``.  Dotted repro metric names (``repro.docs.processed``) are
sanitised to the Prometheus charset (``repro_docs_processed``); the
mapping is mechanical (``.`` → ``_``) and total, so the parser-side
round-trip test compares against :func:`exposition_samples`, the same
flattening the writer uses.

:func:`parse_prometheus` is a deliberately small parser for exactly
what :func:`to_prometheus` emits — it exists so the exposition is
validated by a round trip in the test suite (including a
``repro extract --observe`` run), not so the repo can scrape other
people's endpoints.

Output is byte-stable for a given registry (names, label sets and
buckets all sort), matching the repo's committed-artefact convention.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Dict, List, Tuple, Union

from repro.instrument import HistogramValue, bucket_upper_seconds
from repro.obs.names import METRIC_NAMES
from repro.obs.registry import SCHEMA, MetricRegistry

#: JSONL dump schema tag (one record per series).
JSONL_SCHEMA = "repro.obs.metrics/1"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
#: ``name{labels} value`` — the only sample shape the writer emits.
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def prometheus_name(name: str) -> str:
    """Sanitise a dotted repro metric name to the Prometheus charset."""
    return _NAME_OK.sub("_", name)


def _fmt(value: float) -> str:
    """Canonical number rendering: integers without a fraction, floats
    via ``repr`` (shortest round-trippable form)."""
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Label-value escaping per exposition format 0.0.4: backslash,
    double quote and newline — in that order, so the backslashes the
    other two introduce are not themselves re-escaped."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    """Inverse of :func:`_escape_label_value`: a single left-to-right
    scan, so ``\\\\n`` stays a literal backslash + ``n`` instead of
    turning into a newline (which chained ``str.replace`` would do)."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def exposition_samples(registry: MetricRegistry) -> List[Tuple[str, Tuple[Tuple[str, str], ...], float]]:
    """The flat ``(sanitised name, sorted labels, value)`` samples the
    exposition carries — histograms expanded into cumulative buckets,
    ``_sum`` and ``_count``.  This is the round-trip comparison surface."""
    samples: List[Tuple[str, Tuple[Tuple[str, str], ...], float]] = []
    for name in registry.names():
        kind = registry.kind_of(name) or "counter"
        flat = prometheus_name(name)
        for labels, value in registry.samples(name):
            key = tuple(sorted(labels.items()))
            if kind != "histogram":
                samples.append((flat, key, float(value)))
                continue
            assert isinstance(value, HistogramValue)
            cumulative = 0
            for bucket, count in enumerate(value.buckets):
                if not count:
                    continue
                cumulative += count
                le = ("+Inf" if bucket == len(value.buckets) - 1
                      else _fmt_le(bucket_upper_seconds(bucket)))
                samples.append(
                    (flat + "_bucket", tuple(sorted(key + (("le", le),))), float(cumulative))
                )
            samples.append(
                (flat + "_bucket", tuple(sorted(key + (("le", "+Inf"),))), float(value.count))
            )
            samples.append((flat + "_sum", key, float(value.sum)))
            samples.append((flat + "_count", key, float(value.count)))
    # Deduplicate the +Inf bucket when the last bucket emitted it already.
    seen = set()
    unique = []
    for sample in samples:
        ident = (sample[0], sample[1])
        if ident in seen:
            continue
        seen.add(ident)
        unique.append(sample)
    return sorted(unique)


def _fmt_le(upper: float) -> str:
    return repr(float(upper))


def to_prometheus(registry: MetricRegistry) -> str:
    """The registry as Prometheus text exposition (byte-stable)."""
    lines: List[str] = []
    by_name: Dict[str, List[Tuple[Tuple[Tuple[str, str], ...], float]]] = {}
    kinds: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    for name in registry.names():
        flat = prometheus_name(name)
        kinds[flat] = registry.kind_of(name) or "counter"
        decl = METRIC_NAMES.get(name)
        if decl is not None and decl.help:
            helps[flat] = decl.help
    for flat_name, labels, value in exposition_samples(registry):
        base = flat_name
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in kinds:
                base = base[: -len(suffix)]
                break
        by_name.setdefault(base, []).append((flat_name, labels, value))  # type: ignore[arg-type]
    for base in sorted(by_name):
        if base in helps:
            lines.append(f"# HELP {base} {helps[base]}")
        lines.append(f"# TYPE {base} {kinds.get(base, 'untyped')}")
        for flat_name, labels, value in sorted(by_name[base]):  # type: ignore[misc]
            lines.append(f"{flat_name}{_labels_text(dict(labels))} {_fmt(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(path: Union[str, pathlib.Path], registry: MetricRegistry) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_prometheus(registry), encoding="utf-8")
    return path


def parse_prometheus(text: str) -> List[Tuple[str, Tuple[Tuple[str, str], ...], float]]:
    """Parse an exposition produced by :func:`to_prometheus` back into
    its flat samples (sorted) — the inverse used by the round-trip
    test.  Raises ``ValueError`` on a line it cannot understand."""
    samples: List[Tuple[str, Tuple[Tuple[str, str], ...], float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        name, labels_text, value_text = match.groups()
        labels: List[Tuple[str, str]] = []
        if labels_text:
            consumed = 0
            for found in _LABEL.finditer(labels_text):
                labels.append((found.group(1), _unescape_label_value(found.group(2))))
                consumed = found.end()
            rest = labels_text[consumed:].strip(", ")
            if rest:
                raise ValueError(f"unparseable label text: {labels_text!r}")
        samples.append((name, tuple(sorted(labels)), float(value_text)))
    return sorted(samples)


def validate_prometheus(path: Union[str, pathlib.Path]) -> int:
    """Parse an exposition file; returns the sample count."""
    return len(parse_prometheus(pathlib.Path(path).read_text(encoding="utf-8")))


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def jsonl_metric_lines(registry: MetricRegistry) -> List[str]:
    """One JSON record per series: ``{"schema": …, "name": …, "kind":
    …, "labels": {…}, "value"|"hist": …}`` — sorted, byte-stable."""
    lines: List[str] = []
    for name in registry.names():
        kind = registry.kind_of(name) or "counter"
        for labels, value in registry.samples(name):
            record: Dict[str, Any] = {
                "schema": JSONL_SCHEMA,
                "name": name,
                "kind": kind,
                "labels": labels,
            }
            if isinstance(value, HistogramValue):
                record["hist"] = value.to_dict()
            else:
                record["value"] = value
            lines.append(json.dumps(record, sort_keys=True))
    return lines


def write_metrics_jsonl(path: Union[str, pathlib.Path], registry: MetricRegistry) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = jsonl_metric_lines(registry)
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


def read_metrics_jsonl(path: Union[str, pathlib.Path]) -> MetricRegistry:
    """Rebuild a registry from a JSONL dump (foreign-schema records are
    rejected, not skipped — a dump is all ours or not ours)."""
    registry = MetricRegistry(strict=False)
    for raw in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        if not raw.strip():
            continue
        record = json.loads(raw)
        if record.get("schema") != JSONL_SCHEMA:
            raise ValueError(f"unknown metrics record schema {record.get('schema')!r}")
        name = str(record["name"])
        kind = str(record.get("kind", "counter"))
        registry._declare(name, kind)
        from repro.obs.registry import label_key

        key = label_key(dict(record.get("labels", {})))
        series = registry._series.setdefault(name, {})
        if kind == "histogram":
            series[key] = HistogramValue.from_dict(dict(record.get("hist", {})))
        else:
            series[key] = float(record.get("value", 0.0))
    return registry
