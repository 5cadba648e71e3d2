import numpy as np
import pytest

from lsvos.datagen import (
    SCENE_CLASSES,
    GeneratorSpec,
    generate_features,
    generate_scenes,
)
from lsvos.errors import InputError
from lsvos.features import Label
from lsvos.geometry import default_thresholds, label_detections
from lsvos.metrics import auroc
from lsvos.scoring import ScoreSet, fit_gaussian_model, mahalanobis_score


def small_spec(**overrides):
    base = dict(
        dim=8,
        num_classes=3,
        n_id_train=600,
        n_fp_train=300,
        n_id_val=300,
        n_fp_val=150,
        seed=7,
    )
    base.update(overrides)
    return GeneratorSpec(**base)


def maha_auroc_on_val(spec):
    train, val = generate_features(spec)
    id_vecs, id_cls = train.select(Label.ID)
    model = fit_gaussian_model(id_vecs, id_cls, spec.num_classes)
    val_id, _ = val.select(Label.ID)
    val_fp, _ = val.select(Label.FP)
    scores = np.concatenate(
        [mahalanobis_score(model, val_id), mahalanobis_score(model, val_fp)]
    )
    is_ood = np.concatenate(
        [np.zeros(len(val_id), dtype=bool), np.ones(len(val_fp), dtype=bool)]
    )
    return auroc(ScoreSet(scores, is_ood))


class TestGeneratorSpec:
    def test_rejects_overlap_outside_unit_interval(self):
        with pytest.raises(InputError):
            small_spec(fp_overlap=1.2)
        with pytest.raises(InputError):
            small_spec(fp_overlap=-0.1)

    @pytest.mark.parametrize("field", ["class_separation", "cov_scale", "fp_displacement"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_scales(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be finite"):
            small_spec(**{field: value})

    def test_rejects_nonpositive_counts(self):
        for field in ("n_id_train", "n_fp_train", "n_id_val", "n_fp_val"):
            with pytest.raises(InputError):
                small_spec(**{field: 0})

    def test_rejects_negative_seed(self):
        with pytest.raises(InputError):
            small_spec(seed=-1)

    def test_rejects_dim_below_twice_class_count(self):
        with pytest.raises(InputError):
            small_spec(dim=5)

    def test_default_means_pairwise_separation(self):
        spec = small_spec(class_separation=16.0, cov_scale=2.0)
        means = spec.means()
        for a in range(3):
            for b in range(a + 1, 3):
                dist = np.linalg.norm(means[a] - means[b])
                assert dist == pytest.approx(16.0 * 2.0, rel=1e-12)

    def test_ghost_directions_orthogonal_to_mean_axes(self):
        spec = small_spec()
        dirs = spec.fp_directions()
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        assert np.allclose(dirs @ spec.means().T, 0.0)


class TestGenerateFeatures:
    def test_counts_and_dim(self):
        spec = small_spec()
        train, val = generate_features(spec)
        assert train.dim == spec.dim and val.num_classes == spec.num_classes
        assert train.counts()["ID"] == spec.n_id_train
        assert train.counts()["FP"] == spec.n_fp_train
        assert val.counts()["ID"] == spec.n_id_val
        assert val.counts()["FP"] == spec.n_fp_val
        assert train.counts()["SYNTH_OUTLIER"] == 0

    def test_class_balance_round_robin(self):
        train, _ = generate_features(small_spec())
        _, cls = train.select(Label.ID)
        counts = np.bincount(cls, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_same_seed_bit_identical(self):
        a_train, a_val = generate_features(small_spec(seed=123))
        b_train, b_val = generate_features(small_spec(seed=123))
        for a, b in ((a_train, b_train), (a_val, b_val)):
            for label in (Label.ID, Label.FP):
                va, ca = a.select(label)
                vb, cb = b.select(label)
                assert np.array_equal(va, vb)
                assert np.array_equal(ca, cb)

    def test_different_seed_differs(self):
        a, _ = generate_features(small_spec(seed=1))
        b, _ = generate_features(small_spec(seed=2))
        assert not np.array_equal(a.select(Label.ID)[0], b.select(Label.ID)[0])

    def test_id_moments_match_spec(self):
        spec = GeneratorSpec(
            dim=16,
            num_classes=3,
            cov_scale=1.5,
            n_id_train=9000,
            n_fp_train=300,
            n_id_val=300,
            n_fp_val=150,
            seed=5,
        )
        train, _ = generate_features(spec)
        vecs, cls = train.select(Label.ID)
        means = spec.means()
        for cid in range(3):
            block = vecs[cls == cid]
            n = len(block)
            tol = 4.0 * spec.cov_scale / np.sqrt(n)
            assert np.all(np.abs(block.mean(axis=0) - means[cid]) < tol)
            sd = block.std(axis=0, ddof=1)
            assert np.all(np.abs(sd - spec.cov_scale) < 6.0 * spec.cov_scale / np.sqrt(n))

    def test_fp_distances_match_near_far_mixture(self):
        spec = small_spec(fp_overlap=0.5, fp_displacement=40.0, n_fp_train=2000)
        train, _ = generate_features(spec)
        fp_vecs, fp_cls = train.select(Label.FP)
        along = np.einsum(
            "ij,ij->i", fp_vecs - spec.means()[fp_cls], spec.fp_directions()[fp_cls]
        )
        near = 40.0 * (1.0 - 0.5)
        far = 40.0 * np.sqrt(1.0 - 0.5)
        # base noise contributes N(0, 1) along the ghost axis; the 3-sigma
        # windows around the two component distances are disjoint
        near_count = np.sum(np.abs(along - near) < 3.0)
        far_count = np.sum(np.abs(along - far) < 3.0)
        assert near_count + far_count >= 0.98 * len(along)
        assert 0.4 < near_count / len(along) < 0.6

    def test_overlap_one_collapses_fp_onto_id(self):
        spec = small_spec(fp_overlap=1.0)
        train, _ = generate_features(spec)
        fp_vecs, fp_cls = train.select(Label.FP)
        means = spec.means()
        dists = np.linalg.norm(fp_vecs - means[fp_cls], axis=1)
        # Pure N(0, I_8) displacement: norms concentrate near sqrt(8).
        assert abs(dists.mean() - np.sqrt(8)) < 0.5

    def test_zero_overlap_is_separable(self):
        assert maha_auroc_on_val(small_spec(fp_overlap=0.0)) > 0.99

    def test_full_overlap_is_chance_level(self):
        spec = small_spec(fp_overlap=1.0, n_id_val=1500, n_fp_val=1500)
        assert abs(maha_auroc_on_val(spec) - 0.5) < 0.05


class TestGenerateScenes:
    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            generate_scenes(0, 4, 0.1, 0)
        with pytest.raises(InputError):
            generate_scenes(2, 4, -0.1, 0)

    def test_deterministic_per_seed(self):
        a = generate_scenes(3, 5, 0.2, seed=11)
        b = generate_scenes(3, 5, 0.2, seed=11)
        for sa, sb in zip(a, b):
            assert sa.intended == sb.intended
            for da, db in zip(sa.preds, sb.preds):
                assert da.box.center == db.box.center
                assert da.box.yaw == db.box.yaw
                assert da.confidence == db.confidence

    def test_zero_jitter_labels_all_intended_id(self):
        thresholds = default_thresholds(list(SCENE_CLASSES))
        for scene in generate_scenes(4, 6, 0.0, seed=3):
            labels = label_detections(scene.preds, scene.gts, thresholds)
            for got, want in zip(labels, scene.intended):
                assert got == want

    def test_spurious_boxes_are_far_and_always_fp(self):
        thresholds = default_thresholds(list(SCENE_CLASSES))
        for scene in generate_scenes(5, 6, 0.3, seed=9):
            labels = label_detections(scene.preds, scene.gts, thresholds)
            for det, intent, got in zip(scene.preds, scene.intended, labels):
                if intent != Label.FP:
                    continue
                assert got == Label.FP
                px, py, _ = det.box.center
                for gt, _cid in scene.gts:
                    gx, gy, _ = gt.center
                    assert np.hypot(px - gx, py - gy) >= 20.0

    def test_small_jitter_matches_intent(self):
        thresholds = default_thresholds(list(SCENE_CLASSES))
        total = 0
        agree = 0
        for scene in generate_scenes(20, 8, 0.05, seed=17):
            labels = label_detections(scene.preds, scene.gts, thresholds)
            for got, want in zip(labels, scene.intended):
                total += 1
                agree += got == want
        assert agree / total >= 0.99
