"""Non-dominated sorting and Pareto fronts.

Convention: **all objectives are maximised**.  Callers minimising an
objective (e.g. word density in §5.3.1) negate it before scoring.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.analysis.contracts import check_pareto_front, checked


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether point ``a`` Pareto-dominates ``b``.

    ``a`` dominates ``b`` when it is no worse on every objective and
    strictly better on at least one.
    """
    if len(a) != len(b):
        raise ValueError("points must share dimensionality")
    no_worse = all(x >= y for x, y in zip(a, b))
    strictly_better = any(x > y for x, y in zip(a, b))
    return no_worse and strictly_better


@checked(post=lambda front, points: check_pareto_front(points, front))
def pareto_front(points: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the first-order (non-dominated) front.

    O(n² · d); the block counts VS2 feeds in are tens, not thousands.
    """
    n = len(points)
    front: List[int] = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if i != j and dominates(points[j], points[i]):
                dominated = True
                break
        if not dominated:
            front.append(i)
    return front


def non_dominated_sort(points: Sequence[Sequence[float]]) -> List[List[int]]:
    """Deb's fast non-dominated sort: points partitioned into ranked
    fronts (front 0 = non-dominated)."""
    n = len(points)
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts: List[List[int]] = [[]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dominates(points[i], points[j]):
                dominated_by[i].append(j)
            elif dominates(points[j], points[i]):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)
    k = 0
    while fronts[k]:
        next_front: List[int] = []
        for i in fronts[k]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        k += 1
        fronts.append(next_front)
    fronts.pop()  # trailing empty front
    return fronts


def crowding_distance(points: Sequence[Sequence[float]]) -> List[float]:
    """NSGA-II crowding distance of each point within its set.

    Boundary points get ``inf``.  Useful for thinning a front while
    keeping its spread.
    """
    n = len(points)
    if n == 0:
        return []
    arr = np.asarray(points, dtype=float)
    distance = np.zeros(n)
    for d in range(arr.shape[1]):
        order = np.argsort(arr[:, d])
        lo, hi = arr[order[0], d], arr[order[-1], d]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        span = hi - lo
        if span <= 0:
            continue
        for rank in range(1, n - 1):
            i = order[rank]
            distance[i] += (arr[order[rank + 1], d] - arr[order[rank - 1], d]) / span
    return distance.tolist()
