import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsvos import geometry
from lsvos.errors import InputError
from lsvos.features import Label
from lsvos.geometry import Box3D, Detection

import oracles


def _random_box(rng, spread=2.0):
    return Box3D(
        center=tuple(rng.uniform(-spread, spread, size=3)),
        size=tuple(rng.uniform(0.5, 3.0, size=3)),
        yaw=rng.uniform(-np.pi, np.pi),
    )


_coord = st.floats(-5.0, 5.0, allow_nan=False)
_extent = st.floats(0.05, 5.0, allow_nan=False)
_boxes = st.builds(
    Box3D,
    center=st.tuples(_coord, _coord, _coord),
    size=st.tuples(_extent, _extent, _extent),
    yaw=st.floats(-math.pi, math.pi, allow_nan=False),
)


@st.composite
def _box_pairs(draw):
    """Two independent boxes, or a box and a copy with some fields redrawn,
    so that shared edges, nesting and equal extents come up often."""
    a = draw(_boxes)
    b = draw(_boxes)
    if draw(st.booleans()):
        b = Box3D(
            center=b.center if draw(st.booleans()) else a.center,
            size=b.size if draw(st.booleans()) else a.size,
            yaw=b.yaw if draw(st.booleans()) else a.yaw,
        )
    return a, b


def _as_tuple(box):
    return (*box.center, *box.size, box.yaw)


class TestBox3D:
    def test_yaw_normalized_into_half_open_interval(self):
        assert Box3D((0, 0, 0), (1, 1, 1), yaw=3 * math.pi).yaw == pytest.approx(math.pi)
        assert Box3D((0, 0, 0), (1, 1, 1), yaw=-math.pi).yaw == pytest.approx(math.pi)
        rng = np.random.default_rng(0)
        for _ in range(50):
            box = Box3D((0, 0, 0), (1, 1, 1), yaw=rng.uniform(-20, 20))
            assert -math.pi < box.yaw <= math.pi

    def test_rejects_degenerate_and_non_finite(self):
        with pytest.raises(InputError):
            Box3D((0, 0, 0), (0.0, 1, 1))
        with pytest.raises(InputError):
            Box3D((0, 0, 0), (1, -2, 1))
        with pytest.raises(InputError):
            Box3D((np.nan, 0, 0), (1, 1, 1))

    def test_confidence_range_enforced(self):
        box = Box3D((0, 0, 0), (1, 1, 1))
        with pytest.raises(InputError):
            Detection(box, 0, confidence=1.5)


class TestIouBev:
    def test_identical_boxes_exactly_one(self):
        box = Box3D((1.0, -2.0, 0.5), (3.7, 1.9, 1.4), yaw=0.83)
        assert geometry.iou_bev(box, box) == 1.0

    def test_disjoint_footprints_zero(self):
        a = Box3D((0, 0, 0), (2, 2, 1))
        b = Box3D((10, 0, 0), (2, 2, 1))
        assert geometry.iou_bev(a, b) == 0.0

    def test_offset_squares_analytic(self):
        # 2x2 squares offset by (1, 0): intersection 1x2 = 2, union 8 - 2 = 6
        a = Box3D((0, 0, 0), (2, 2, 1))
        b = Box3D((1, 0, 0), (2, 2, 1))
        assert geometry.iou_bev(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rotated_square_analytic(self):
        # 2x2 square vs itself rotated 45 deg: the overlap is the regular
        # octagon of area 8(sqrt(2)-1), giving IoU = 1/sqrt(2)
        a = Box3D((0, 0, 0), (2, 2, 1))
        b = Box3D((0, 0, 0), (2, 2, 1), yaw=math.pi / 4)
        assert geometry.iou_bev(a, b) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a, b = _random_box(rng), _random_box(rng)
            assert geometry.iou_bev(a, b) == pytest.approx(
                geometry.iou_bev(b, a), abs=1e-12
            )

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = _random_box(rng), _random_box(rng)
            base = geometry.iou_bev(a, b)
            dx, dy = rng.uniform(-50, 50, size=2)
            dyaw = rng.uniform(-np.pi, np.pi)
            c, s = math.cos(dyaw), math.sin(dyaw)

            def moved(box):
                x, y, z = box.center
                return Box3D(
                    (c * x - s * y + dx, s * x + c * y + dy, z),
                    box.size,
                    box.yaw + dyaw,
                )

            assert geometry.iou_bev(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)

    def test_range_and_containment(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = _random_box(rng), _random_box(rng)
            assert 0.0 <= geometry.iou_bev(a, b) <= 1.0
        # small box fully inside a big one: IoU = small/big footprint area
        big = Box3D((0, 0, 0), (4, 4, 1))
        small = Box3D((0.5, 0.5, 0), (1, 1, 1), yaw=1.1)
        assert geometry.iou_bev(big, small) == pytest.approx(1.0 / 16.0, abs=1e-12)


class TestIou3d:
    def test_identical_boxes_exactly_one(self):
        box = Box3D((0.3, 4.0, -1.0), (2.2, 1.1, 1.7), yaw=-2.5)
        assert geometry.iou_3d(box, box) == 1.0

    def test_vertical_disjoint_zero(self):
        a = Box3D((0, 0, 0), (2, 2, 1))
        b = Box3D((0, 0, 5), (2, 2, 1))
        assert geometry.iou_3d(a, b) == 0.0

    def test_axis_aligned_analytic(self):
        # unit cubes offset by (0.5, 0, 0.5): inter 0.25, union 1.75
        a = Box3D((0, 0, 0), (1, 1, 1))
        b = Box3D((0.5, 0, 0.5), (1, 1, 1))
        assert geometry.iou_3d(a, b) == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_reduces_to_bev_when_vertical_extents_match(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = _random_box(rng), _random_box(rng)
            b = Box3D((b.center[0], b.center[1], a.center[2]), (*b.size[:2], a.size[2]), b.yaw)
            assert geometry.iou_3d(a, b) == pytest.approx(
                geometry.iou_bev(a, b), abs=1e-12
            )

    @pytest.mark.parametrize("width, want", [(0.25, 0.25), (2.0, 0.5), (3.0, 1.0 / 3.0)])
    def test_rotated_boxes_sharing_edges(self, width, want):
        # footprint edges that lie along each other, off the axes: the clip
        # once returned NaN or a wrong area here (0.155 for 0.25)
        a = Box3D((0, 0, 0), (1, 1, 1), yaw=1.0)
        b = Box3D((0, 0, 0), (1, width, 1), yaw=1.0)
        assert geometry.iou_3d(a, b) == pytest.approx(want, abs=1e-12)
        assert geometry.iou_3d(b, a) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pair=_box_pairs())
    def test_symmetric_and_in_unit_interval(self, pair):
        a, b = pair
        forward, backward = geometry.iou_3d(a, b), geometry.iou_3d(b, a)
        assert 0.0 <= forward <= 1.0
        assert 0.0 <= backward <= 1.0
        assert forward == pytest.approx(backward, abs=1e-9)

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b = _random_box(rng), _random_box(rng)
            analytic = geometry.iou_3d(a, b)
            estimate = oracles.mc_iou_3d(
                _as_tuple(a), _as_tuple(b), 200_000, np.random.default_rng(99)
            )
            assert analytic == pytest.approx(estimate, abs=0.01)


class TestLabeling:
    def _thresholds(self):
        return {0: 0.7, 1: 0.5}

    def test_exact_match_is_inlier(self):
        box = Box3D((0, 0, 0), (4, 2, 1.5), yaw=0.3)
        labels = geometry.label_detections(
            [Detection(box, 0, 0.9)], [(box, 0)], self._thresholds()
        )
        assert labels == [Label.ID]

    def test_vehicle_below_070_is_fp(self):
        # nested boxes: IoU equals the length ratio exactly
        gt = Box3D((0, 0, 0), (1, 1, 1))
        pred = Box3D((0, 0, 0), (0.69, 1, 1))
        labels = geometry.label_detections(
            [Detection(pred, 0, 0.9)], [(gt, 0)], self._thresholds()
        )
        assert labels == [Label.FP]

    def test_pedestrian_055_is_inlier(self):
        gt = Box3D((0, 0, 0), (1, 1, 1))
        pred = Box3D((0, 0, 0), (0.55, 1, 1))
        labels = geometry.label_detections(
            [Detection(pred, 1, 0.9)], [(gt, 1)], self._thresholds()
        )
        assert labels == [Label.ID]

    def test_cross_class_overlap_does_not_count(self):
        box = Box3D((0, 0, 0), (2, 2, 2))
        labels = geometry.label_detections(
            [Detection(box, 0, 0.9)], [(box, 1)], self._thresholds()
        )
        assert labels == [Label.FP]

    def test_empty_ground_truth_all_fp(self):
        dets = [Detection(Box3D((i, 0, 0), (1, 1, 1)), 0, 0.5) for i in range(3)]
        labels = geometry.label_detections(dets, [], self._thresholds())
        assert labels == [Label.FP] * 3

    def test_missing_threshold_rejected(self):
        det = Detection(Box3D((0, 0, 0), (1, 1, 1)), 5, 0.5)
        with pytest.raises(InputError):
            geometry.label_detections([det], [], self._thresholds())

    def test_best_of_many_ground_truths(self):
        pred = Box3D((0, 0, 0), (1, 1, 1))
        far = Box3D((3, 0, 0), (1, 1, 1))
        labels = geometry.label_detections(
            [Detection(pred, 0, 0.9)], [(far, 0), (pred, 0)], self._thresholds()
        )
        assert labels == [Label.ID]

    def test_default_thresholds_by_name(self):
        thr = geometry.default_thresholds(["car", "pedestrian", "cyclist"])
        assert thr == {0: 0.7, 1: 0.5, 2: 0.5}
