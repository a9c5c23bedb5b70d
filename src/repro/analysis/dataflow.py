"""Generic worklist dataflow solving over :mod:`repro.analysis.cfg`.

One solver, parameterised by a :class:`Lattice` and a transfer
function, runs every flow-sensitive analysis in the engine:

* **forward** problems (facts flow along edges: alias-of-module-state,
  unpicklable-value tracking, definitely-closed resources,
  thread-started-before-here) seed the entry node and join over
  predecessors;
* **backward** problems (facts flow against edges: "is a release
  inevitable on every path from here to an exit?") seed the exit
  nodes and join over successors.

A lattice supplies ``bottom`` (the "no information yet" element used
to initialise unvisited nodes) and ``join``.  *May* analyses join with
union (:class:`UnionLattice`); *must* analyses join with intersection
(:class:`IntersectLattice`, whose bottom is a distinguished TOP so
that intersection over an empty predecessor set does not erase facts).
Facts must be plain comparable values — the solver iterates until a
fixpoint under ``==``, which terminates for the finite lattices used
here (sets over program variables / resource ids).

The transfer function receives ``(node, fact)`` and returns the fact
on the node's other side; it must not mutate its input.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, FrozenSet, Generic, TypeVar

from repro.analysis.cfg import CFG

F = TypeVar("F")

#: Distinguished "everything / unvisited" element for must-analyses.
TOP = "⊤"


class Lattice(Generic[F]):
    """Join-semilattice protocol: subclass or duck-type."""

    def bottom(self) -> F:
        raise NotImplementedError

    def join(self, a: F, b: F) -> F:
        raise NotImplementedError


class UnionLattice(Lattice[FrozenSet]):
    """Powerset lattice with union join — *may* analyses."""

    def bottom(self) -> FrozenSet:
        return frozenset()

    def join(self, a: FrozenSet, b: FrozenSet) -> FrozenSet:
        return a | b


class IntersectLattice(Lattice[object]):
    """Powerset lattice with intersection join — *must* analyses.

    ``bottom`` is :data:`TOP` ("every fact holds", the identity of
    intersection) so that a node none of whose predecessors have been
    visited yet does not poison the meet.
    """

    def bottom(self) -> object:
        return TOP

    def join(self, a: object, b: object) -> object:
        if a is TOP or a == TOP:
            return b
        if b is TOP or b == TOP:
            return a
        return a & b  # type: ignore[operator]


class MapLattice(Lattice[Dict[str, str]]):
    """Pointwise map lattice (variable -> abstract value).

    Keys present in only one side keep their value; keys present in
    both with different values collapse to ``conflict`` (dropped when
    ``conflict`` is ``None``) — the shape used by the alias and
    picklability analyses, where disagreement means "unknown".
    """

    def __init__(self, conflict: str = None):  # type: ignore[assignment]
        self.conflict = conflict

    def bottom(self) -> Dict[str, str]:
        return {}

    def join(self, a: Dict[str, str], b: Dict[str, str]) -> Dict[str, str]:
        out = dict(a)
        for key, value in b.items():
            if key not in out:
                out[key] = value
            elif out[key] != value:
                if self.conflict is None:
                    del out[key]
                else:
                    out[key] = self.conflict
        return out


def solve(
    cfg: CFG,
    lattice: Lattice,
    transfer: Callable[[int, F], F],
    entry_fact: F,
    direction: str = "forward",
) -> Dict[int, F]:
    """Run worklist iteration to a fixpoint; returns the *input* fact
    of every node (the fact holding just before a forward node runs,
    or just after a backward node runs).

    ``entry_fact`` seeds the entry node (forward) or the *normal* exit
    (backward) — the raise exit keeps ``bottom``, so a must-analysis
    (bottom = TOP) deliberately ignores explicit-raise unwinding paths
    rather than blaming them.  Unreachable nodes keep ``bottom``.
    """
    if direction == "forward":
        edges = {node.id: list(node.succs) for node in cfg.nodes}
        seeds = [cfg.entry]
    elif direction == "backward":
        preds = cfg.predecessors()
        edges = {node_id: list(srcs) for node_id, srcs in preds.items()}
        seeds = [cfg.exit]
    else:  # pragma: no cover - guarded by callers
        raise ValueError(f"unknown direction {direction!r}")

    in_facts: Dict[int, F] = {node.id: lattice.bottom() for node in cfg.nodes}
    for seed in seeds:
        in_facts[seed] = lattice.join(in_facts[seed], entry_fact)
    # Every node reachable from a seed is processed at least once —
    # enqueueing only on fact *change* would never run any transfer
    # when entry_fact equals bottom (e.g. an empty alias map), leaving
    # the whole analysis a silent no-op.  Unreachable nodes keep bottom.
    reachable: list = []
    seen = set(seeds)
    frontier = deque(seeds)
    while frontier:
        node_id = frontier.popleft()
        reachable.append(node_id)
        for succ in edges[node_id]:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    worklist = deque(reachable)
    in_worklist = set(reachable)
    iterations = 0
    limit = max(4096, 64 * len(cfg.nodes) * len(cfg.nodes))
    while worklist:
        iterations += 1
        if iterations > limit:  # pragma: no cover - divergence backstop
            break
        node_id = worklist.popleft()
        in_worklist.discard(node_id)
        out_fact = transfer(node_id, in_facts[node_id])
        for succ in edges[node_id]:
            joined = lattice.join(in_facts[succ], out_fact)
            if joined != in_facts[succ]:
                in_facts[succ] = joined
                if succ not in in_worklist:
                    in_worklist.add(succ)
                    worklist.append(succ)
    return in_facts


def solve_forward(cfg: CFG, lattice: Lattice, transfer, entry_fact):
    return solve(cfg, lattice, transfer, entry_fact, direction="forward")


def solve_backward(cfg: CFG, lattice: Lattice, transfer, entry_fact):
    return solve(cfg, lattice, transfer, entry_fact, direction="backward")
