"""
Rotated 3D box overlap and ID/FP labeling
==========================================

Shows the exact bird's-eye-view polygon overlap for yawed boxes, the
full 3D IoU with vertical extent, and how predictions are split into
inliers and false positives against per-class IoU thresholds.
"""

import math

from lsvos.datagen import generate_scenes
from lsvos.geometry import (
    Box3D,
    Detection,
    default_thresholds,
    iou_3d,
    iou_bev,
    label_detections,
)

# Two identical boxes overlap perfectly.
a = Box3D(center=(0.0, 0.0, 0.0), size=(4.0, 2.0, 1.5), yaw=0.0)
print("self IoU:", iou_3d(a, a))

# Shift one box half its length along x: the footprints share half
# their area, so BEV IoU is 0.5 / 1.5 = 1/3.
b = Box3D(center=(2.0, 0.0, 0.0), size=(4.0, 2.0, 1.5), yaw=0.0)
print("half-shifted BEV IoU:", iou_bev(a, b), "(exact 1/3 =", 1 / 3, ")")

# Lift it vertically as well and the 3D IoU shrinks further while the
# BEV value is unchanged.  Overlap volume is 4*2*0.75 m^3 here.
c = Box3D(center=(2.0, 0.0, 0.75), size=(4.0, 2.0, 1.5), yaw=0.0)
print("also lifted: bev", iou_bev(a, c), " 3d", iou_3d(a, c))

# Rotation needs real polygon clipping.  Two unit squares at 45
# degrees overlap in a regular octagon with area 2*(sqrt(2)-1).
s1 = Box3D(center=(0.0, 0.0, 0.0), size=(1.0, 1.0, 1.0), yaw=0.0)
s2 = Box3D(center=(0.0, 0.0, 0.0), size=(1.0, 1.0, 1.0), yaw=math.pi / 4)
inter = 2 * (math.sqrt(2) - 1)
print("crossed squares IoU:", iou_bev(s1, s2),
      "(closed form:", inter / (2 - inter), ")")

# Labeling: a prediction is ID when it overlaps a ground-truth box of
# the same class above that class's threshold, FP otherwise.
names = ["car", "pedestrian", "cyclist"]
thresholds = default_thresholds(names)
print("thresholds:", {names[k]: v for k, v in thresholds.items()})

gts = [(Box3D((0.0, 0.0, 0.0), (4.0, 2.0, 1.5)), 0)]
preds = [
    Detection(Box3D((0.1, 0.0, 0.0), (4.0, 2.0, 1.5)), class_id=0, confidence=0.9),
    Detection(Box3D((0.1, 0.0, 0.0), (4.0, 2.0, 1.5)), class_id=1, confidence=0.9),
    Detection(Box3D((30.0, 0.0, 0.0), (4.0, 2.0, 1.5)), class_id=0, confidence=0.4),
]
labels = label_detections(preds, gts, thresholds)
print("near car / wrong class / far ghost ->", [lab.name for lab in labels])

# The scene generator builds whole synthetic scenes: jittered copies of
# ground truth plus deliberately spurious boxes far from everything.
scenes = generate_scenes(n_scenes=5, boxes_per_scene=9, jitter=0.05, seed=3)
agree = total = 0
for scene in scenes:
    got = label_detections(scene.preds, scene.gts, thresholds)
    agree += sum(g == i for g, i in zip(got, scene.intended))
    total += len(got)
print(f"intent match over {total} detections: {agree / total:.3f}")
