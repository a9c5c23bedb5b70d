"""Interprocedural analysis passes over the :class:`ProjectIndex`.

Where a module-scope rule (:mod:`repro.analysis.lint.rules`) sees one
file, a *pass* sees the whole program: the import graph, the call
graph, and every module's summary at once.  Eight pass families ship:

* :mod:`~repro.analysis.passes.determinism` — ``DET1xx``: impurity
  propagated over the call graph from the pipeline's deterministic
  entry points (closes the lazy-import escape hatch the layer rules
  deliberately leave open);
* :mod:`~repro.analysis.passes.frames` — ``FRAME1xx``: a coordinate-
  frame taint lattice over bbox dataflow;
* :mod:`~repro.analysis.passes.exports` — ``DEAD0xx``: dead
  compatibility shims and import-name drift;
* :mod:`~repro.analysis.passes.schema` — ``SCHEMA0xx``: statically
  discovered ``tracer.event(...)`` names checked for exhaustiveness
  against the trace schema registry;
* :mod:`~repro.analysis.passes.obs` — ``OBS0xx``: statically
  discovered metric emissions checked for exhaustiveness against the
  ``METRIC_NAMES`` observability registry;
* :mod:`~repro.analysis.passes.concurrency` — ``CONC1xx``: worker-
  reachable module-state writes, unpicklable values into process
  boundaries, fork-after-thread / pool-at-import ordering hazards;
* :mod:`~repro.analysis.passes.exceptions` — ``EXC1xx``: typed faults
  escaping the isolation-site registry, silent swallow paths;
* :mod:`~repro.analysis.passes.resources` — ``RSRC1xx``: acquire/
  release path proofs for pools, handles and checkpoint logs.

The CONC/EXC/RSRC trio is *flow-sensitive*: they consume the
per-function CFG facts (:mod:`repro.analysis.flow`) the index computes
and caches.  A warm run re-runs all of them without rebuilding a single
CFG.

A pass declares the rule IDs it can emit (with docs for ``--explain``)
and implements ``run(index, trees)``; ``trees`` lends out parsed
:class:`ModuleInfo` objects for the few passes that need syntax, so a
warm cache run only re-parses files a pass actually asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

from repro.analysis.index import ProjectIndex
from repro.analysis.lint.engine import ModuleInfo, Violation


@dataclass(frozen=True)
class PassRuleDoc:
    """Documentation for one rule a pass can emit (feeds --explain)."""

    summary: str
    doc: str
    example: str
    fix: str


class TreeProvider:
    """Lends parsed :class:`ModuleInfo` objects to passes on demand.

    Files parsed during this run are served from memory; cache-hit
    files are re-parsed lazily the first time a pass asks.  Returns
    ``None`` for unknown or unparseable paths.
    """

    def __init__(self, loader: Callable[[str], Optional[ModuleInfo]]):
        self._loader = loader
        self._trees: Dict[str, Optional[ModuleInfo]] = {}

    def seed(self, display_path: str, info: ModuleInfo) -> None:
        self._trees[display_path] = info

    def get(self, display_path: str) -> Optional[ModuleInfo]:
        if display_path not in self._trees:
            self._trees[display_path] = self._loader(display_path)
        return self._trees[display_path]


class Pass:
    """Base class: subclass, set ``pass_id``/``rules``, implement ``run``."""

    pass_id: str = ""
    #: rule_id -> PassRuleDoc for every rule this pass can emit.
    rules: Dict[str, PassRuleDoc] = {}

    def run(self, index: ProjectIndex, trees: TreeProvider) -> Iterator[Violation]:
        raise NotImplementedError


#: pass_id -> pass instance, in registration order.
ALL_PASSES: Dict[str, Pass] = {}


def register_pass(cls):
    """Class decorator adding a pass to :data:`ALL_PASSES`."""
    if not cls.pass_id:
        raise ValueError(f"{cls.__name__} has no pass_id")
    if cls.pass_id in ALL_PASSES:
        raise ValueError(f"duplicate pass id {cls.pass_id}")
    ALL_PASSES[cls.pass_id] = cls()
    return cls


def load_catalogue() -> Dict[str, Pass]:
    """Import every pass module (registering the catalogue) and return it."""
    from repro.analysis.passes import (  # noqa: F401
        concurrency,
        determinism,
        exceptions,
        exports,
        frames,
        obs,
        resources,
        schema,
    )

    return ALL_PASSES
