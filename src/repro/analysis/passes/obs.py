"""Metric-name exhaustiveness against the observability registry.

PR 8 gave the pipeline a labeled-metric layer: ``registry.counter(
"repro.docs.processed", …)`` calls whose names downstream tooling (the
Prometheus exporter, the JSONL dump, the tests' metric asserts) matches
on by string.  The declarations live in :data:`repro.obs.names.
METRIC_NAMES`; a :class:`~repro.obs.registry.MetricRegistry` built with
``strict=True`` rejects undeclared names at runtime, but the ambient
per-worker registries only hit that check on the code paths a given run
exercises.

This pass closes the loop statically, in both directions:

* ``OBS002`` — a string-literal ``.counter("…")`` / ``.gauge("…")`` /
  ``.histogram("…")`` name emitted from a ``repro.*`` module that
  ``METRIC_NAMES`` does not declare (typo'd or never registered: the
  first chaos run that reaches the call site dies on the strict-mode
  ``KeyError``);
* ``OBS003`` — a declared name no ``repro.*`` module ever emits
  (registry rot: exporters document a metric the pipeline no longer
  produces, and asserts keyed on it never see a sample).

Emissions in tests and scripts are deliberately out of scope — a test
driving a throwaway registry with a synthetic name is testing, not
extending, the metric schema.  The pass is inert when the index
contains no ``METRIC_NAMES`` registry (small fixture trees).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.index import ProjectIndex
from repro.analysis.lint.engine import Violation
from repro.analysis.passes import Pass, PassRuleDoc, TreeProvider, register_pass


@register_pass
class ObsPass(Pass):
    pass_id = "obs"
    rules = {
        "OBS002": PassRuleDoc(
            summary="emitted metric names must be declared in METRIC_NAMES",
            doc=(
                "Every string-literal .counter(name, …)/.gauge(name, …)/"
                ".histogram(name, …) emission from a repro.* module must "
                "appear in the METRIC_NAMES declaration table "
                "(repro.obs.names); a strict MetricRegistry raises KeyError "
                "on undeclared names, so a typo'd emission is a latent crash "
                "on whichever run first reaches that call site — and an "
                "undeclared name carries no kind/label/help metadata for the "
                "exporters."
            ),
            example=(
                'registry.counter("repro.docs.procesed", corpus=d).inc()\n'
                "# <- OBS002: METRIC_NAMES declares 'repro.docs.processed'"
            ),
            fix="fix the name, or add a MetricDecl to METRIC_NAMES",
        ),
        "OBS003": PassRuleDoc(
            summary="declared metric names must be emitted",
            doc=(
                "A name in METRIC_NAMES that no repro.* module ever emits is "
                "registry rot: the exporters document a metric "
                "the pipeline no longer produces, and dashboards keyed on it "
                "stay empty forever."
            ),
            example=(
                'METRIC_NAMES = {"repro.docs.skipped": MetricDecl(…), …}\n'
                "# no module emits 'repro.docs.skipped'  <- OBS003"
            ),
            fix="drop the stale declaration (or restore the emitter)",
        ),
    }

    def run(self, index: ProjectIndex, trees: TreeProvider) -> Iterator[Violation]:
        registry: Optional[Tuple[List[str], int]] = None
        registry_module = None
        for name in sorted(index.modules):
            summary = index.modules[name]
            if summary.metric_registry is not None:
                registry = summary.metric_registry
                registry_module = summary
                break
        if registry is None or registry_module is None:
            return
        declared: Set[str] = set(registry[0])

        emitted: Set[str] = set()
        for name in sorted(index.modules):
            summary = index.modules[name]
            for metric, line in summary.metrics:
                emitted.add(metric)
                if metric not in declared:
                    yield Violation(
                        path=summary.display_path,
                        line=line,
                        col=1,
                        rule="OBS002",
                        message=(
                            f"metric '{metric}' is not declared in "
                            f"METRIC_NAMES ({registry_module.module}); "
                            "declare it or fix the name — a strict registry "
                            "raises KeyError at this call site"
                        ),
                    )

        for metric in sorted(declared - emitted):
            yield Violation(
                path=registry_module.display_path,
                line=registry[1],
                col=1,
                rule="OBS003",
                message=(
                    f"METRIC_NAMES declares '{metric}' but no repro.* module "
                    "emits it; drop the stale declaration or restore the "
                    "emitter"
                ),
            )
