"""Oriented 3D box IoU and IoU-based inlier/false-positive labeling.

Boxes live on the ground plane: z is up, yaw rotates the footprint about
the vertical axis.  BEV IoU intersects the two yaw-rotated footprint
rectangles by Sutherland-Hodgman polygon clipping and measures areas with
the shoelace formula; the 3D IoU multiplies the footprint intersection by
the vertical overlap length.  Footprint areas are themselves computed by
shoelace on the corner polygons so that iou(a, a) is exactly 1.  Both
boxes are placed about the midpoint of their centres, so small boxes far
from the world origin keep their digits and iou(a, b) and iou(b, a)
agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .features import Label


def normalize_yaw(yaw: float) -> float:
    """Map any angle to (-pi, pi]."""
    out = math.remainder(float(yaw), 2.0 * math.pi)
    if out <= -math.pi:
        out += 2.0 * math.pi
    return out


@dataclass
class Box3D:
    """Oriented box: center (x, y, z) m, size (length, width, height) m, yaw rad."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float = 0.0

    def __post_init__(self):
        self.center = tuple(float(v) for v in self.center)
        self.size = tuple(float(v) for v in self.size)
        if len(self.center) != 3 or len(self.size) != 3:
            raise InputError("center and size must each have 3 components")
        if not all(math.isfinite(v) for v in (*self.center, *self.size, self.yaw)):
            raise InputError("box parameters must be finite")
        if any(v <= 0.0 for v in self.size):
            raise InputError(f"box sizes must be strictly positive, got {self.size}")
        self.yaw = normalize_yaw(self.yaw)

    def footprint(self, origin=(0.0, 0.0)) -> np.ndarray:
        """Counter-clockwise footprint corners relative to origin, shape (4, 2)."""
        dx, dy = self.size[0] / 2.0, self.size[1] / 2.0
        local = np.array([[dx, dy], [-dx, dy], [-dx, -dy], [dx, -dy]])
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + (np.array(self.center[:2]) - origin)

    def z_interval(self, origin: float = 0.0) -> tuple[float, float]:
        """Bottom and top z relative to origin."""
        half = self.size[2] / 2.0
        z = self.center[2] - origin
        return z - half, z + half


@dataclass
class Detection:
    """A predicted box with its class and classification confidence."""

    box: Box3D
    class_id: int
    confidence: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise InputError(f"confidence must be in [0, 1], got {self.confidence}")
        if self.class_id < 0:
            raise InputError("class_id must be non-negative")


def shoelace_area(poly: np.ndarray) -> float:
    """Absolute polygon area; vertices in order, shape (n, 2)."""
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman: clip `subject` against convex CCW polygon `clip`.

    Points exactly on a clip edge count as inside, so clipping a polygon
    against itself returns its own vertices.
    """

    def side(p, a, b):
        # > 0 left of the directed edge a -> b, 0 on it
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

    output = [tuple(p) for p in subject]
    a = tuple(clip[-1])
    for b in clip:
        b = tuple(b)
        if not output:
            break
        vertices = output
        output = []
        s = vertices[-1]
        side_s = side(s, a, b)
        for e in vertices:
            side_e = side(e, a, b)
            if (side_e >= 0.0) != (side_s >= 0.0):
                # the crossing, interpolated from the same side values that
                # put s and e on opposite sides: never a division by zero, and
                # it stays on s-e even when s-e runs along the clip edge
                t = side_s / (side_s - side_e)
                output.append((s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1])))
            if side_e >= 0.0:
                output.append(e)
            s, side_s = e, side_e
        a = b
    return np.array(output).reshape(-1, 2)


def _check_boxes(*boxes: Box3D) -> None:
    for box in boxes:
        if any(v <= 0.0 for v in box.size):
            raise InputError("degenerate box: zero or negative extent")


def _footprint_areas(a: Box3D, b: Box3D) -> tuple[float, float, float]:
    """Areas of a's footprint, b's footprint and their overlap.

    The footprints are taken about the midpoint of the two centres, which
    is the same origin for (a, b) and (b, a), so each box gets the same
    corners in either order.
    """
    origin = (np.array(a.center[:2]) + np.array(b.center[:2])) / 2.0
    foot_a, foot_b = a.footprint(origin), b.footprint(origin)
    region = clip_polygon(foot_a, foot_b)
    inter = shoelace_area(region) if len(region) >= 3 else 0.0
    return shoelace_area(foot_a), shoelace_area(foot_b), inter


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Footprint IoU of two yaw-rotated boxes, in [0, 1]."""
    _check_boxes(a, b)
    area_a, area_b, inter = _footprint_areas(a, b)
    # rounding can put the overlap an ulp above the smaller area, and the
    # IoU above 1
    inter = min(inter, area_a, area_b)
    union = area_a + area_b - inter
    return inter / union


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volume IoU: BEV intersection times vertical overlap, over union."""
    _check_boxes(a, b)
    # about the midpoint, as the footprints: a box's own height then comes
    # back exactly, and iou_3d(a, a) is 1
    mid_z = (a.center[2] + b.center[2]) / 2.0
    lo_a, hi_a = a.z_interval(mid_z)
    lo_b, hi_b = b.z_interval(mid_z)
    overlap_z = min(hi_a, hi_b) - max(lo_a, lo_b)
    if overlap_z <= 0.0:
        return 0.0
    area_a, area_b, inter = _footprint_areas(a, b)
    vol_a, vol_b = area_a * a.size[2], area_b * b.size[2]
    # as in iou_bev: the overlap never exceeds the smaller volume
    inter = min(inter * overlap_z, vol_a, vol_b)
    return inter / (vol_a + vol_b - inter)


def label_detections(
    preds: list[Detection],
    gts: list[tuple[Box3D, int]],
    thresholds: dict[int, float],
) -> list[Label]:
    """ID iff max IoU-3D against a same-class ground truth meets the class
    threshold; otherwise FP.  Empty ground truth labels everything FP.

    Matching is per-prediction maximum (no one-to-one assignment) and
    class-aware: overlap with another class's box never confers ID status.
    """
    for det in preds:
        if det.class_id not in thresholds:
            raise InputError(f"no IoU threshold defined for class {det.class_id}")
    labels = []
    for det in preds:
        same_class = [box for box, cid in gts if cid == det.class_id]
        best = max((iou_3d(det.box, gt) for gt in same_class), default=0.0)
        labels.append(Label.ID if best >= thresholds[det.class_id] else Label.FP)
    return labels


def default_thresholds(class_names: list[str]) -> dict[int, float]:
    """0.7 for vehicle-like classes, 0.5 for everything else."""
    vehicle_words = ("car", "vehicle", "truck", "van")
    return {
        i: 0.7 if any(w in name.lower() for w in vehicle_words) else 0.5
        for i, name in enumerate(class_names)
    }
