"""Axis-aligned bounding boxes.

Every visual area in the paper's layout model (§4) is represented by the
smallest bounding box that encloses it, written ``b = (x_b, y_b, w_b,
h_b)`` where ``(x_b, y_b)`` is the top-left corner.  The page coordinate
system has its origin at the top-left corner with ``y`` growing
downwards, matching the paper's Fig. 5.
"""

from __future__ import annotations

# Boxes here are frame-polymorphic: every operation is valid in
# whichever coordinate frame the caller works in, provided all operands
# share it.

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

Point = Tuple[float, float]


@dataclass(frozen=True, order=True)
class BBox:
    """An immutable axis-aligned bounding box.

    Attributes
    ----------
    x, y:
        Coordinates of the top-left corner.
    w, h:
        Width and height.  Zero-sized boxes are permitted (they arise as
        degenerate enclosures of empty regions) but negative extents are
        not.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError(f"negative extent in BBox({self.x}, {self.y}, {self.w}, {self.h})")

    # ------------------------------------------------------------------
    # Derived coordinates
    # ------------------------------------------------------------------
    @property
    def x2(self) -> float:
        """Right edge (exclusive)."""
        return self.x + self.w

    @property
    def y2(self) -> float:
        """Bottom edge (exclusive)."""
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def centroid(self) -> Point:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def angular_distance(self) -> float:
        """Angle (radians) of the centroid measured from the page origin.

        Table 1 of the paper lists the *angular distance of the bbox
        centroid from origin* as one of the low-level visual features
        used during clustering.
        """
        cx, cy = self.centroid
        return math.atan2(cy, cx)

    # ------------------------------------------------------------------
    # Relationships with other boxes / points
    # ------------------------------------------------------------------
    def contains_point(self, x: float, y: float) -> bool:
        """Whether (x, y) lies inside the box (edges inclusive on the
        top-left, exclusive on the bottom-right, so adjacent boxes do not
        share interior points)."""
        return self.x <= x < self.x2 and self.y <= y < self.y2

    def contains_bbox(self, other: "BBox") -> bool:
        return (
            self.x <= other.x
            and self.y <= other.y
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    def intersects(self, other: "BBox") -> bool:
        return not (
            other.x >= self.x2
            or other.x2 <= self.x
            or other.y >= self.y2
            or other.y2 <= self.y
        )

    def intersection(self, other: "BBox") -> Optional["BBox"]:
        """The overlapping region, or ``None`` when disjoint."""
        x1 = max(self.x, other.x)
        y1 = max(self.y, other.y)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 <= x1 or y2 <= y1:
            return None
        return BBox(x1, y1, x2 - x1, y2 - y1)

    def union(self, other: "BBox") -> "BBox":
        """The smallest box enclosing both boxes."""
        x1 = min(self.x, other.x)
        y1 = min(self.y, other.y)
        x2 = max(self.x2, other.x2)
        y2 = max(self.y2, other.y2)
        return BBox(x1, y1, x2 - x1, y2 - y1)

    def iou(self, other: "BBox") -> float:
        """Intersection-over-union, the matching criterion of §6.2.

        The paper follows the PASCAL-VOC protocol [12]: a proposal is
        accurate when its IoU against a ground-truth box exceeds 0.65.
        """
        inter = self.intersection(other)
        if inter is None:
            return 0.0
        union_area = self.area + other.area - inter.area
        if union_area <= 0:
            return 0.0
        # Near-degenerate boxes can make ``union_area`` land a few ulps
        # below ``inter.area`` (the areas are computed from derived
        # corners), which would push the ratio above 1.
        return min(inter.area / union_area, 1.0)

    def centroid_l1_distance(self, other: "BBox") -> float:
        """L1 distance between centroids — the ΔD term of Eq. 2."""
        ax, ay = self.centroid
        bx, by = other.centroid
        return abs(ax - bx) + abs(ay - by)

    def centroid_l2_distance(self, other: "BBox") -> float:
        ax, ay = self.centroid
        bx, by = other.centroid
        return math.hypot(ax - bx, ay - by)

    def gap_distance(self, other: "BBox") -> float:
        """Euclidean distance between the closest points of two boxes.

        Zero when the boxes touch or overlap.  Used to find the
        *neighbouring bounding box* of a cut set (Algorithm 1) and for
        the "not visually separated" adjacency test during clustering.
        """
        dx = max(other.x - self.x2, self.x - other.x2, 0.0)
        dy = max(other.y - self.y2, self.y - other.y2, 0.0)
        return math.hypot(dx, dy)

    def sum_angular_distance(self, other: "BBox") -> float:
        """Sum of angular distances between two bbox centroids (Table 1)."""
        return abs(self.angular_distance) + abs(other.angular_distance)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def translate(self, dx: float, dy: float) -> "BBox":
        return BBox(self.x + dx, self.y + dy, self.w, self.h)

    def scale(self, sx: float, sy: Optional[float] = None) -> "BBox":
        if sy is None:
            sy = sx
        return BBox(self.x * sx, self.y * sy, self.w * sx, self.h * sy)

    def expand(self, margin: float) -> "BBox":
        """Grow the box by ``margin`` on every side (clamped at zero size)."""
        x = self.x - margin
        y = self.y - margin
        w = max(self.w + 2 * margin, 0.0)
        h = max(self.h + 2 * margin, 0.0)
        return BBox(x, y, w, h)

    def clip(self, frame: "BBox") -> Optional["BBox"]:
        """Clip this box to ``frame``; ``None`` when fully outside."""
        return self.intersection(frame)

    def rotate(self, angle_rad: float, cx: float, cy: float) -> "BBox":
        """The enclosing box of this box rotated about ``(cx, cy)``.

        VS2-Segment claims robustness to rotation up to 45° (§5.1.2);
        the synthetic "mobile capture" documents use this to skew their
        layout and the claim is exercised by property tests.
        """
        cos_a = math.cos(angle_rad)
        sin_a = math.sin(angle_rad)
        xs: List[float] = []
        ys: List[float] = []
        for px, py in (
            (self.x, self.y),
            (self.x2, self.y),
            (self.x, self.y2),
            (self.x2, self.y2),
        ):
            rx = cx + (px - cx) * cos_a - (py - cy) * sin_a
            ry = cy + (px - cx) * sin_a + (py - cy) * cos_a
            xs.append(rx)
            ys.append(ry)
        return BBox(min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys))

    def hsplit(self, frac: float, gap: float = 0.0) -> Tuple["BBox", "BBox"]:
        """Split the box vertically at ``frac`` of its width.

        Returns the ``(left, right)`` halves; ``gap`` units of the right
        half's leading edge are given up as horizontal spacing (the right
        half never collapses below one unit wide).
        """
        if not 0.0 < frac < 1.0:
            raise ValueError(f"hsplit fraction must be in (0, 1), got {frac}")
        left_w = self.w * frac
        left = BBox(self.x, self.y, left_w, self.h)
        right = BBox(
            self.x + left_w + gap,
            self.y,
            max(self.w - left_w - gap, 1.0),
            self.h,
        )
        return left, right

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)

    @staticmethod
    def from_tuple(values: Sequence[float]) -> "BBox":
        """Rebuild a box from an ``(x, y, w, h)`` sequence.

        The sanctioned deserialisation path (rule ``FRAME002``): going
        through a named factory keeps every tuple→box conversion in one
        place should the serialised layout ever change.
        """
        x, y, w, h = values
        return BBox(float(x), float(y), float(w), float(h))

    @staticmethod
    def from_corners(x1: float, y1: float, x2: float, y2: float) -> "BBox":
        if x2 < x1 or y2 < y1:
            raise ValueError("from_corners requires x2 >= x1 and y2 >= y1")
        return BBox(x1, y1, x2 - x1, y2 - y1)


def enclosing_bbox(boxes: Iterable[BBox]) -> BBox:
    """The smallest bounding box enclosing all ``boxes``.

    Raises ``ValueError`` on an empty iterable — a visual area with no
    content has no meaningful enclosure.
    """
    boxes = list(boxes)
    if not boxes:
        raise ValueError("enclosing_bbox of an empty collection")
    x1 = min(b.x for b in boxes)
    y1 = min(b.y for b in boxes)
    x2 = max(b.x2 for b in boxes)
    y2 = max(b.y2 for b in boxes)
    return BBox(x1, y1, x2 - x1, y2 - y1)


def pairwise_iou(proposals: Sequence[BBox], references: Sequence[BBox]):
    """Dense IoU matrix between two box collections.

    Vectorised with numpy: used by the evaluation harness where corpora
    contain tens of thousands of boxes.
    """
    import numpy as np

    if not proposals or not references:
        return np.zeros((len(proposals), len(references)))
    p = np.array([b.as_tuple() for b in proposals], dtype=float)
    r = np.array([b.as_tuple() for b in references], dtype=float)
    px1, py1 = p[:, 0:1], p[:, 1:2]
    px2, py2 = px1 + p[:, 2:3], py1 + p[:, 3:4]
    rx1, ry1 = r[None, :, 0], r[None, :, 1]
    rx2, ry2 = rx1 + r[None, :, 2], ry1 + r[None, :, 3]
    ix = np.clip(np.minimum(px2, rx2) - np.maximum(px1, rx1), 0, None)
    iy = np.clip(np.minimum(py2, ry2) - np.maximum(py1, ry1), 0, None)
    inter = ix * iy
    area_p = (p[:, 2] * p[:, 3])[:, None]
    area_r = (r[:, 2] * r[:, 3])[None, :]
    union = area_p + area_r - inter
    with_union = union > 0
    out = np.zeros_like(inter)
    out[with_union] = inter[with_union] / union[with_union]
    return out
