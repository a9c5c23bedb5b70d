"""Concurrency-safety pass: CONC101–103 over the CFG/dataflow facts.

The corpus runner fans work out over forked worker processes; the
roadmap's serve layer keeps those workers warm.  Three properties keep
that safe, and all three are *order* or *reachability* questions no
module-scope rule can phrase:

* **CONC101** — module-level mutable state must not be written by code
  reachable from a worker's entry functions: a forked child writes its
  copy, the parent never sees it, and the bug only shows under
  ``--workers N``.  The flow layer's alias analysis also catches
  writes through local aliases (``state = _STATE; state.plan = …``).
  The fault installer's ambient registry is the sanctioned exception
  (``# conc: ambient``).
* **CONC102** — values a picklability analysis knows to be unpicklable
  (lambdas, nested functions, open handles, locks, generators) must
  not flow into process-boundary calls (``submit``, ``Process(…)``,
  ``conn.send``) in the multiprocessing layer.  These crash at
  dispatch time with an opaque ``PicklingError`` — or worse, only
  under the spawn start method in CI.
* **CONC103** — ``fork()`` after a thread has started is undefined
  behaviour waiting to happen (the child inherits locked locks), and a
  pool created at import time forks during module initialisation.
  The pass combines each function's intra-CFG may-happen-before
  relation with transitive "starts a thread" / "creates a pool" facts
  over the call graph, so the thread start and the fork may hide in
  different callees.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.index import ProjectIndex
from repro.analysis.lint.engine import Violation
from repro.analysis.passes import Pass, PassRuleDoc, TreeProvider, register_pass
from repro.analysis.passes.flowbase import (
    chain,
    flow_call_edges,
    flow_graph,
    forward_chain,
    reach_from,
    reaches_any,
)

#: Worker-side entry functions: everything they (transitively) call
#: executes inside a forked child.  The pool has exactly one.
WORKER_ENTRIES = {
    "repro.perf.runner": ("_worker_main",),
}

#: Modules whose process-boundary calls CONC102 audits.
BOUNDARY_MODULES = ("repro.perf.runner",)


def _worker_roots(index: ProjectIndex) -> List[str]:
    roots: List[str] = []
    for key, summary, fn in index.functions():
        names = WORKER_ENTRIES.get(summary.module or "")
        if names and fn.qualname.split(".")[-1] in names:
            roots.append(key)
    return roots


@register_pass
class ConcurrencyPass(Pass):
    pass_id = "concurrency"
    rules = {
        "CONC101": PassRuleDoc(
            summary="no module-state write reachable from a worker entry",
            doc=(
                "Walks the sharpened call graph forward from the worker entry "
                "function (the pool's _worker_main) and reports any reachable "
                "write to module-level state — global assignment, attribute/subscript "
                "store, or mutating method call, including through local "
                "aliases the forward dataflow analysis tracks.  A forked "
                "worker mutates its own copy: the parent never observes the "
                "write, and results silently diverge between --workers N and "
                "serial runs."
            ),
            example=(
                "_SEEN = {}\n"
                "def _worker_main(doc):\n"
                "    cache = _SEEN            # alias of module state\n"
                "    cache[doc.id] = doc      # <- CONC101, write in a worker"
            ),
            fix=(
                "thread the state through arguments and return values, or — "
                "for sanctioned ambient registries like the fault-plan "
                "installer — mark the writer with a trailing '# conc: ambient' "
                "pragma (full-line form sanctions the whole module)"
            ),
        ),
        "CONC102": PassRuleDoc(
            summary="no unpicklable value into a process-boundary call",
            doc=(
                "A forward dataflow analysis tracks values that cannot cross "
                "a fork/pickle boundary — lambdas, nested functions, open "
                "file handles, thread locks, generators — and reports when "
                "one flows into submit()/Process()/send()/put()-style calls "
                "in the multiprocessing layer.  These fail at dispatch time "
                "with an opaque PicklingError, or only under the spawn start "
                "method."
            ),
            example=(
                "def run(executor, doc):\n"
                "    fn = lambda: doc.parse()\n"
                "    executor.submit(fn)      # <- CONC102, lambda won't pickle"
            ),
            fix=(
                "pass a module-level function plus plain-data arguments "
                "across the boundary; open handles inside the worker"
            ),
        ),
        "CONC103": PassRuleDoc(
            summary="no fork after thread start; no pool at import time",
            doc=(
                "Combines each function's CFG may-happen-before relation "
                "with transitive starts-a-thread / creates-a-pool facts over "
                "the call graph: a pool or Process created on a path after a "
                "Thread.start() forks a child that inherits the threading "
                "state (possibly locked locks) of the parent.  Also reports "
                "pools created during module import — directly or via an "
                "import-time call — which fork before the program begins."
            ),
            example=(
                "def serve(docs):\n"
                "    Thread(target=watch).start()\n"
                "    with ProcessPoolExecutor() as pool:   # <- CONC103\n"
                "        pool.map(run, docs)"
            ),
            fix=(
                "create process pools before starting any thread, or use the "
                "spawn start method; never create pools at module scope"
            ),
        ),
    }

    def run(self, index: ProjectIndex, trees: TreeProvider) -> Iterator[Violation]:
        edges = flow_call_edges(index)
        graph = flow_graph(edges)
        yield from self._conc101(index, graph)
        yield from self._conc102(index)
        yield from self._conc103(index, graph)

    # -- CONC101 --------------------------------------------------------

    def _conc101(
        self, index: ProjectIndex, graph: Dict[str, List[str]]
    ) -> Iterator[Violation]:
        parent = reach_from(graph, _worker_roots(index))
        for key in sorted(parent):
            fn = index.function(key)
            if fn is None or fn.conc_ambient or fn.flow is None:
                continue
            module_name = key.split("::", 1)[0]
            summary = index.modules[module_name]
            for state, line, how in fn.flow.global_writes:
                yield Violation(
                    path=summary.display_path,
                    line=line,
                    col=1,
                    rule="CONC101",
                    message=(
                        f"{how} writes module state '{state}' inside worker-"
                        f"reachable code ({chain(parent, key)}); a forked "
                        "worker mutates its own copy only — thread the state "
                        "through arguments, or mark sanctioned ambient state "
                        "with '# conc: ambient'"
                    ),
                )

    # -- CONC102 --------------------------------------------------------

    def _conc102(self, index: ProjectIndex) -> Iterator[Violation]:
        for key, summary, fn in index.functions():
            if summary.module not in BOUNDARY_MODULES or fn.flow is None:
                continue
            for line, reason in fn.flow.boundary_risks:
                yield Violation(
                    path=summary.display_path,
                    line=line,
                    col=1,
                    rule="CONC102",
                    message=(
                        f"{reason} in {fn.qualname}; it cannot be pickled — "
                        "pass a module-level function and plain-data "
                        "arguments instead"
                    ),
                )

    # -- CONC103 --------------------------------------------------------

    def _conc103(
        self, index: ProjectIndex, graph: Dict[str, List[str]]
    ) -> Iterator[Violation]:
        starters: Set[str] = set()
        creators: Set[str] = set()
        for key, _summary, fn in index.functions():
            if fn.flow is None:
                continue
            kinds = {kind for _line, kind, _detail in fn.flow.conc_events}
            if "thread-start" in kinds:
                starters.add(key)
            if "pool-create" in kinds:
                creators.add(key)
        to_starter = reaches_any(graph, starters)
        to_creator = reaches_any(graph, creators)

        def event_reaches(
            key: str, kind: str, detail: str, towards: Dict[str, Optional[str]],
            direct: str,
        ) -> Optional[str]:
            """Why this event implies ``direct`` (or None if it doesn't)."""
            if kind == direct:
                return detail
            if kind == "call":
                module = key.split("::", 1)[0]
                target = index.resolve_call(module, detail)
                if target is not None and target in towards:
                    return f"via {forward_chain(towards, target)}"
            return None

        for key, summary, fn in index.functions():
            if fn.flow is None or not fn.flow.conc_reach:
                continue
            events = fn.flow.conc_events
            reported: Set[int] = set()
            for i, j in fn.flow.conc_reach:
                if j in reported:
                    continue
                line_i, kind_i, detail_i = events[i]
                line_j, kind_j, detail_j = events[j]
                started = event_reaches(key, kind_i, detail_i, to_starter, "thread-start")
                forked = event_reaches(key, kind_j, detail_j, to_creator, "pool-create")
                if started is None or forked is None:
                    continue
                reported.add(j)
                fork_desc = (
                    detail_j if kind_j == "pool-create" else f"{detail_j} ({forked})"
                )
                start_desc = (
                    f"line {line_i}" if kind_i == "thread-start"
                    else f"line {line_i} ({started})"
                )
                yield Violation(
                    path=summary.display_path,
                    line=line_j,
                    col=1,
                    rule="CONC103",
                    message=(
                        f"{fork_desc} forks after a thread is started at "
                        f"{start_desc} in {fn.qualname}; the child inherits "
                        "the parent's threading state — create pools before "
                        "starting threads or use the spawn start method"
                    ),
                )

        # Pools created while the module is being imported.
        for name in sorted(index.modules):
            summary = index.modules[name]
            for line, kind, detail in summary.module_conc_events:
                if kind == "pool-create":
                    yield Violation(
                        path=summary.display_path,
                        line=line,
                        col=1,
                        rule="CONC103",
                        message=(
                            f"{detail} creates a process pool at import time; "
                            "importing this module forks — create the pool "
                            "inside a function the caller invokes explicitly"
                        ),
                    )
                elif kind == "call":
                    target = index.resolve_call(name, detail)
                    if target is not None and target in to_creator:
                        yield Violation(
                            path=summary.display_path,
                            line=line,
                            col=1,
                            rule="CONC103",
                            message=(
                                f"import-time call creates a process pool via "
                                f"{forward_chain(to_creator, target)}; "
                                "importing this module forks — defer the call "
                                "to an explicit entry point"
                            ),
                        )
