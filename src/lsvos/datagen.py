"""Synthetic stand-ins for detector outputs: features and box scenes.

Inlier features are class-conditional Gaussians.  False-positive features
sit along a fixed ghost direction per class (orthogonal to the axes that
separate the class means), at one of two distances (a near and a far
component).  fp_overlap controls those distances: at 0 both components
sit a full fp_displacement away, at 1 both collapse exactly onto the
inlier distribution, and in between the FP cloud straddles the inlier
clusters the way real ghost detections do.

Scenes place ground-truth boxes on a non-overlapping grid and emit
predictions as pose-jittered copies (intended inliers) plus spurious
far-away boxes (intended false positives), so the IoU labeling of the
corpus is known by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .features import FeatureDataset, Label, make_records
from .geometry import Box3D, Detection

SCENE_CLASSES = ("car", "pedestrian", "cyclist")
SCENE_SIZES = {
    "car": (4.5, 1.9, 1.6),
    "pedestrian": (0.8, 0.8, 1.8),
    "cyclist": (1.8, 0.6, 1.8),
}
GRID_SPACING = 12.0
SPURIOUS_MARGIN = 25.0


@dataclass
class GeneratorSpec:
    """Controls the synthetic feature distributions and split sizes."""

    dim: int = 64
    num_classes: int = 3
    class_separation: float = 16.0
    cov_scale: float = 1.0
    fp_overlap: float = 0.5
    fp_displacement: float = 10.0
    n_id_train: int = 6000
    n_fp_train: int = 2000
    n_id_val: int = 2000
    n_fp_val: int = 700
    seed: int = 0

    def __post_init__(self):
        if self.dim <= 0 or self.num_classes <= 0:
            raise InputError("dim and num_classes must be positive")
        if self.dim < 2 * self.num_classes:
            raise InputError(
                "mean placement and ghost directions need dim >= 2 * num_classes"
            )
        if not 0.0 <= self.fp_overlap <= 1.0:
            raise InputError(f"fp_overlap must be in [0, 1], got {self.fp_overlap}")
        for name in ("class_separation", "cov_scale", "fp_displacement"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if self.cov_scale <= 0.0 or self.fp_displacement < 0.0 or self.class_separation < 0.0:
            raise InputError("scale parameters must be positive")
        for name in ("n_id_train", "n_fp_train", "n_id_val", "n_fp_val"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")

    def means(self) -> np.ndarray:
        """Class means: pairwise distances of class_separation sigma along
        orthogonal axes."""
        means = np.zeros((self.num_classes, self.dim))
        radius = self.class_separation * self.cov_scale / math.sqrt(2.0)
        for cid in range(self.num_classes):
            means[cid, cid] = radius
        return means

    def fp_directions(self) -> np.ndarray:
        """Unit ghost direction per class, orthogonal to every mean axis."""
        directions = np.zeros((self.num_classes, self.dim))
        for cid in range(self.num_classes):
            directions[cid, self.num_classes + cid] = 1.0
        return directions


def _id_block(spec: GeneratorSpec, n: int, rng: np.random.Generator):
    class_ids = np.arange(n) % spec.num_classes
    vectors = spec.means()[class_ids] + spec.cov_scale * rng.standard_normal((n, spec.dim))
    return vectors, class_ids


def _fp_block(spec: GeneratorSpec, n: int, rng: np.random.Generator):
    """Near/far mixture along each class's ghost direction.

    near distance = displacement * (1 - overlap), far distance =
    displacement * sqrt(1 - overlap), both in sigma units; overlap 1
    collapses both onto the inlier cloud, overlap 0 pushes both all the
    way out.
    """
    class_ids = np.arange(n) % spec.num_classes
    base = spec.means()[class_ids] + spec.cov_scale * rng.standard_normal((n, spec.dim))
    near = rng.uniform(size=n) < 0.5
    dist_near = spec.fp_displacement * (1.0 - spec.fp_overlap)
    dist_far = spec.fp_displacement * math.sqrt(1.0 - spec.fp_overlap)
    dists = np.where(near, dist_near, dist_far) * spec.cov_scale
    return base + dists[:, None] * spec.fp_directions()[class_ids], class_ids


def generate_features(spec: GeneratorSpec) -> tuple[FeatureDataset, FeatureDataset]:
    """(train, val) datasets of labeled ID and FP features."""
    streams = np.random.SeedSequence(spec.seed).spawn(4)
    rngs = [np.random.default_rng(s) for s in streams]
    splits = []
    for n_id, n_fp, rng_id, rng_fp in (
        (spec.n_id_train, spec.n_fp_train, rngs[0], rngs[1]),
        (spec.n_id_val, spec.n_fp_val, rngs[2], rngs[3]),
    ):
        records = np.concatenate(
            [
                make_records(*_id_block(spec, n_id, rng_id), Label.ID),
                make_records(*_fp_block(spec, n_fp, rng_fp), Label.FP),
            ]
        )
        splits.append(FeatureDataset(spec.dim, spec.num_classes, records))
    return splits[0], splits[1]


@dataclass
class Scene:
    """One frame's boxes with construction-time intended labels."""

    preds: list[Detection]
    gts: list[tuple[Box3D, int]]
    intended: list[Label]


def generate_scenes(
    n_scenes: int, boxes_per_scene: int, jitter: float, seed: int
) -> list[Scene]:
    """Grid ground truths, jittered predictions, far spurious boxes.

    Spurious predictions are placed beyond SPURIOUS_MARGIN of the grid so
    they can never overlap a ground truth.
    """
    if n_scenes <= 0 or boxes_per_scene <= 0:
        raise InputError("n_scenes and boxes_per_scene must be positive")
    if jitter < 0.0:
        raise InputError("jitter must be non-negative")
    scenes = []
    for stream in np.random.SeedSequence(seed).spawn(n_scenes):
        rng = np.random.default_rng(stream)
        cols = math.ceil(math.sqrt(boxes_per_scene))
        gts: list[tuple[Box3D, int]] = []
        preds: list[Detection] = []
        intended: list[Label] = []
        for i in range(boxes_per_scene):
            cid = int(rng.integers(0, len(SCENE_CLASSES)))
            size = SCENE_SIZES[SCENE_CLASSES[cid]]
            x = GRID_SPACING * (i % cols)
            y = GRID_SPACING * (i // cols)
            yaw = float(rng.uniform(-math.pi, math.pi))
            gt = Box3D((x, y, size[2] / 2.0), size, yaw)
            gts.append((gt, cid))
            dx, dy = rng.uniform(-jitter, jitter, size=2)
            dyaw = float(rng.uniform(-jitter, jitter)) * 0.05
            pred = Box3D((x + dx, y + dy, size[2] / 2.0), size, yaw + dyaw)
            preds.append(Detection(pred, cid, float(rng.uniform(0.6, 1.0))))
            intended.append(Label.ID)
        extent = GRID_SPACING * cols
        for _ in range(max(1, boxes_per_scene // 3)):
            cid = int(rng.integers(0, len(SCENE_CLASSES)))
            size = SCENE_SIZES[SCENE_CLASSES[cid]]
            x = extent + SPURIOUS_MARGIN + float(rng.uniform(0.0, 30.0))
            y = float(rng.uniform(0.0, extent))
            box = Box3D((x, y, size[2] / 2.0), size, float(rng.uniform(-math.pi, math.pi)))
            preds.append(Detection(box, cid, float(rng.uniform(0.2, 0.8))))
            intended.append(Label.FP)
        scenes.append(Scene(preds, gts, intended))
    return scenes
