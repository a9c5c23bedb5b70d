"""Runtime contracts: executable invariants on the pipeline's claims.

The segmentation and selection stages make geometric promises the unit
tests can only sample — every cut lies in whitespace, accepted
separators clear the content they separate, layout trees nest and
partition their atoms, Pareto fronts are truly non-dominated.  This
module turns those promises into *post-conditions* checked on every
call, on real documents, whenever contracts are enabled:

* ``REPRO_CONTRACTS=1 pytest`` (or any entry point) enables them from
  the environment;
* :func:`enable_contracts` / the :func:`contracts` context manager
  toggle them at runtime (how the contract tests run under plain
  pytest).

When disabled — the default — a ``@checked`` wrapper costs a single
boolean test per call and the check functions are never invoked.

Checks are *independent re-implementations*, not calls back into the
code under test: :func:`check_cut_sets_in_whitespace` re-walks the
sheared cut lines cell by cell in scalar Python precisely because the
production path (:func:`repro.geometry.cuts.sheared_cut_rows`) is
vectorised — agreement between the two is the point.

This module deliberately imports nothing from ``repro`` above
:mod:`repro.geometry`, so any layer may adopt a contract without
creating an import cycle.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence

from repro.geometry import BBox


class ContractViolation(AssertionError):
    """A runtime invariant did not hold.

    Subclasses ``AssertionError`` so contract failures read as broken
    promises, not environmental errors, and so ``pytest.raises`` in the
    contract tests stays idiomatic.
    """


_ENV_FLAG = "REPRO_CONTRACTS"
_enabled = os.environ.get(_ENV_FLAG, "").strip().lower() not in ("", "0", "false", "no")


def contracts_enabled() -> bool:
    """Whether post-conditions run (seeded from ``REPRO_CONTRACTS``)."""
    return _enabled


def enable_contracts(on: bool = True) -> None:
    """Turn contract checking on/off for the current process."""
    global _enabled
    _enabled = bool(on)


@contextmanager
def contracts(on: bool = True) -> Iterator[None]:
    """Temporarily enable (or disable) contracts, restoring on exit."""
    global _enabled
    previous = _enabled
    _enabled = bool(on)
    try:
        yield
    finally:
        _enabled = previous


def contracts_mode() -> str:
    """``"off"`` or ``"checked"`` — the label bench snapshots record so
    runs are only compared like for like."""
    return "checked" if _enabled else "off"


def checked(post: Callable[..., None]):
    """Decorate a function with a post-condition.

    ``post`` receives ``(result, *args, **kwargs)`` — the return value
    followed by the original call arguments — and raises
    :class:`ContractViolation` on a broken invariant.  With contracts
    disabled the wrapper is a single boolean test.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if _enabled:
                post(result, *args, **kwargs)
            return result

        return wrapper

    return decorate


def _fail(message: str) -> None:
    raise ContractViolation(message)


# ----------------------------------------------------------------------
# Segmentation contracts
# ----------------------------------------------------------------------


def check_cut_sets_in_whitespace(grid, cut_sets) -> None:
    """Every cut line of every cut set runs through whitespace.

    Scalar re-walk of the sheared-line semantics of
    :func:`repro.geometry.cuts.sheared_cut_rows`: a horizontal cut
    originating at row ``r`` visits ``(r + round(slope·c), c)`` for
    every column ``c``; off-page cells count as whitespace.  Vertical
    cuts are the transpose.
    """
    occupied = grid.occupied
    n_rows, n_cols = occupied.shape
    for cut_set in cut_sets:
        for index in range(cut_set.start_index, cut_set.start_index + cut_set.size):
            if cut_set.orientation == "horizontal":
                for col in range(n_cols):
                    row = index + round(cut_set.slope * col)
                    if 0 <= row < n_rows and occupied[row, col]:
                        _fail(
                            f"horizontal cut at row {index} (slope {cut_set.slope}) "
                            f"passes through occupied cell ({row}, {col})"
                        )
            else:
                for row in range(n_rows):
                    col = index + round(cut_set.slope * row)
                    if 0 <= col < n_cols and occupied[row, col]:
                        _fail(
                            f"vertical cut at column {index} (slope {cut_set.slope}) "
                            f"passes through occupied cell ({row}, {col})"
                        )


def check_separators_clear_of_boxes(separators, boxes: Sequence[BBox]) -> None:
    """Accepted separator centre lines do not run through content.

    The centre line of each separator, evaluated over a box's crossing
    extent, must not pass through the box's interior.  One grid cell of
    tolerance on each side absorbs the discretisation: a box edge that
    partially covers a cell still marks the whole cell occupied.
    """
    for sep in separators:
        tolerance = sep.cell
        for box in boxes:
            if sep.orientation == "horizontal":
                lo, hi = box.x, box.x2
                inner_low, inner_high = box.y + tolerance, box.y2 - tolerance
            else:
                lo, hi = box.y, box.y2
                inner_low, inner_high = box.x + tolerance, box.x2 - tolerance
            if inner_high <= inner_low:
                continue  # box thinner than the tolerance band
            v1, v2 = sep.line_value_at(lo), sep.line_value_at(hi)
            if min(v1, v2) < inner_high and max(v1, v2) > inner_low:
                _fail(
                    f"{sep.orientation} separator (mid {sep.mid_units:.1f}, "
                    f"slope {sep.slope}) runs through content box {box}"
                )


def check_layout_tree(tree) -> None:
    """Structural invariants of a converged layout tree.

    * **Nesting** — every child's area is enclosed by its parent's
      (``LayoutTree.validate_nesting`` tolerance applies);
    * **Partition** — each node's children partition its atoms: no
      atom lost, none duplicated between siblings;
    * **Leaf coverage** — the leaves jointly hold exactly the root's
      atoms (no content silently dropped by the recursion);
    * **Disjoint cut siblings** — see
      :func:`check_cut_siblings_disjoint`.
    """
    try:
        tree.validate_nesting()
    except ValueError as exc:
        _fail(f"layout tree nesting broken: {exc}")
    for node in tree.walk():
        if node.is_leaf:
            continue
        check_cut_siblings_disjoint(node)
        child_ids: List[int] = []
        for child in node.children:
            child_ids.extend(id(a) for a in child.atoms)
        if len(child_ids) != len(set(child_ids)):
            _fail(f"node {node.node_id}: an atom appears in two sibling areas")
        if set(child_ids) != {id(a) for a in node.atoms}:
            _fail(
                f"node {node.node_id}: children hold {len(child_ids)} atoms, "
                f"parent holds {len(node.atoms)} — split dropped or invented content"
            )
    leaf_ids = [id(a) for leaf in tree.leaves() for a in leaf.atoms]
    if sorted(leaf_ids) != sorted(id(a) for a in tree.root.atoms):
        _fail("layout tree leaves do not partition the document's atoms")


def check_cut_siblings_disjoint(node) -> None:
    """Siblings produced by an explicit delimiter split occupy disjoint
    bands: their *atom boxes* may touch the separator, but one sibling's
    atoms must not reach past another sibling's far side."""
    if not node.children or any(c.kind != "cut" for c in node.children):
        return
    boxes = [c.bbox for c in node.children]
    for i, a in enumerate(boxes):
        for b in boxes[i + 1 :]:
            inter = a.intersection(b)
            if inter is None:
                continue
            smaller = min(a.area, b.area)
            if smaller > 0 and inter.area / smaller > 0.5:
                _fail(
                    f"cut siblings of node {node.node_id} overlap by "
                    f"{inter.area / smaller:.0%} of the smaller area: {a} vs {b}"
                )


# ----------------------------------------------------------------------
# Selection contracts
# ----------------------------------------------------------------------


def check_pareto_front(points: Sequence[Sequence[float]], front: Sequence[int]) -> None:
    """The returned front is exactly the non-dominated set.

    Brute-force O(n²·d) re-derivation under the maximise-everything
    convention: a front member must not be strictly dominated; a
    non-member must be.
    """
    n = len(points)
    front_set = set(front)
    for i in range(n):
        dominated_by: Optional[int] = None
        for j in range(n):
            if i == j:
                continue
            a, b = points[j], points[i]
            if all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b)):
                dominated_by = j
                break
        if i in front_set and dominated_by is not None:
            _fail(
                f"front member {i} ({tuple(points[i])}) is dominated by "
                f"{dominated_by} ({tuple(points[dominated_by])})"
            )
        if i not in front_set and dominated_by is None:
            _fail(f"non-dominated point {i} ({tuple(points[i])}) missing from front")


def check_extraction_spans(extractions) -> None:
    """Every extraction's matched-word span lies within its block box.

    ``span_bbox`` is the tight enclosure of matched words, which are
    atoms of the block — a span escaping the block means the selector
    mixed up blocks (or frames)."""
    for e in extractions:
        if not e.bbox.expand(1.0).contains_bbox(e.span_bbox):
            _fail(
                f"extraction {e.entity_type!r}: span {e.span_bbox} "
                f"escapes block {e.bbox}"
            )


__all__ = [
    "ContractViolation",
    "checked",
    "contracts",
    "contracts_enabled",
    "contracts_mode",
    "enable_contracts",
    "check_cut_sets_in_whitespace",
    "check_cut_siblings_disjoint",
    "check_extraction_spans",
    "check_layout_tree",
    "check_pareto_front",
    "check_separators_clear_of_boxes",
]
