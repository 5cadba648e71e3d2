import csv

import numpy as np
import pytest

from lsvos import scoring
from lsvos.errors import InputError
from lsvos.scoring import ScoreSet, Threshold


class TestScoreSet:
    def test_validates_alignment_and_finiteness(self):
        with pytest.raises(InputError):
            ScoreSet(np.zeros(3), np.zeros(4, dtype=bool))
        with pytest.raises(InputError):
            ScoreSet(np.array([1.0, np.nan]), np.zeros(2, dtype=bool))

    def test_ece_is_keyword_only(self):
        # an old positional method name must not land in the ece field
        with pytest.raises(TypeError):
            ScoreSet(np.zeros(2), np.array([False, True]), "m")
        assert ScoreSet(np.zeros(2), np.array([False, True]), ece=0.25).ece == 0.25

    def test_split_properties(self):
        ss = ScoreSet(np.array([1.0, 2.0, 3.0]), np.array([False, True, False]))
        np.testing.assert_array_equal(ss.id_scores, [1.0, 3.0])
        np.testing.assert_array_equal(ss.ood_scores, [2.0])


class TestMahalanobis:
    def test_query_at_class_mean_scores_zero(self):
        rng = np.random.default_rng(0)
        rows = np.vstack([rng.normal(size=(100, 3)), 5.0 + rng.normal(size=(100, 3))])
        ids = np.repeat([0, 1], 100)
        model = scoring.fit_gaussian_model(rows, ids, 2)
        scores = scoring.mahalanobis_score(model, model.means)
        np.testing.assert_allclose(scores, [0.0, 0.0], atol=1e-20)

    def test_identity_covariance_reduces_to_euclidean(self):
        # one class per quadrant direction, crafted so the pooled
        # covariance is exactly the identity
        base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        rows = np.vstack([base, base + 10.0])
        ids = np.repeat([0, 1], 4)
        model = scoring.fit_gaussian_model(rows, ids, 2)
        np.testing.assert_allclose(model.cov, np.eye(2) * (4 / 6), atol=1e-12)
        # rescale to exact identity for the Euclidean check
        model.cov[:] = np.eye(2)
        model.precision[:] = np.eye(2)
        query = model.means[0] + np.array([3.0, 4.0])
        score = scoring.mahalanobis_score(model, query[None, :])[0]
        assert score == pytest.approx(25.0, abs=1e-9)

    def test_hand_quadratic_form(self):
        # covariance [[2,0],[0,1]], mean 0, query (2,1): 4/2 + 1/1 = 3
        model = scoring.GaussianModel(
            means=np.zeros((1, 2)),
            cov=np.array([[2.0, 0.0], [0.0, 1.0]]),
            precision=np.array([[0.5, 0.0], [0.0, 1.0]]),
            cholesky=np.linalg.cholesky(np.array([[2.0, 0.0], [0.0, 1.0]])),
        )
        score = scoring.mahalanobis_score(model, np.array([[2.0, 1.0]]))[0]
        assert score == pytest.approx(3.0, abs=1e-12)

    def test_min_over_classes(self):
        model = scoring.GaussianModel(
            means=np.array([[0.0, 0.0], [10.0, 0.0]]),
            cov=np.eye(2),
            precision=np.eye(2),
            cholesky=np.eye(2),
        )
        score = scoring.mahalanobis_score(model, np.array([[9.0, 0.0]]))[0]
        assert score == pytest.approx(1.0)

    def test_affine_invariance_under_refit(self):
        rng = np.random.default_rng(1)
        rows = np.vstack(
            [rng.normal(size=(200, 3)), rng.normal(size=(200, 3)) + [4, 0, -2]]
        )
        ids = np.repeat([0, 1], 200)
        queries = rng.normal(size=(20, 3)) * 3.0
        base = scoring.mahalanobis_score(scoring.fit_gaussian_model(rows, ids, 2), queries)
        amat = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        shift = rng.normal(size=3)
        mapped_model = scoring.fit_gaussian_model(rows @ amat.T + shift, ids, 2)
        mapped = scoring.mahalanobis_score(mapped_model, queries @ amat.T + shift)
        np.testing.assert_allclose(mapped, base, rtol=1e-6, atol=1e-6)

    def test_singular_covariance_warns_and_regularizes(self):
        rows = np.ones((10, 3))
        rows[5:] += 1.0
        ids = np.repeat([0, 1], 5)
        with pytest.warns(UserWarning, match="regulariz"):
            model = scoring.fit_gaussian_model(rows, ids, 2)
        scores = scoring.mahalanobis_score(model, np.zeros((1, 3)))
        assert np.all(np.isfinite(scores))

    def test_fit_validation(self):
        with pytest.raises(InputError):
            scoring.fit_gaussian_model(np.ones((2, 2)), np.array([0, 1]), 2)
        with pytest.raises(InputError):
            scoring.fit_gaussian_model(np.ones((5, 2)), np.zeros(5, dtype=int), 2)


class TestCalibration:
    def test_hand_case_1_to_100(self):
        thr = scoring.calibrate_tau(np.arange(1.0, 101.0), 0.95)
        assert thr.tau == 95.0
        assert thr.calibration_size == 100

    def test_identical_scores_degenerate(self):
        thr = scoring.calibrate_tau(np.full(37, 4.2), 0.95)
        assert thr.tau == 4.2
        accepted = ~scoring.classify(np.full(37, 4.2), thr)
        assert accepted.mean() == 1.0

    def test_target_one_gives_max(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=50)
        thr = scoring.calibrate_tau(scores, 1.0)
        assert thr.tau == scores.max()

    def test_achieved_tpr_within_band(self):
        rng = np.random.default_rng(3)
        for n in (100, 137, 250, 1000):
            scores = rng.normal(size=n)
            thr = scoring.calibrate_tau(scores, 0.95)
            tpr = float(np.mean(scores <= thr.tau))
            assert 0.95 <= tpr <= 0.95 + 1.0 / n

    def test_order_independent(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=61)
        thr_a = scoring.calibrate_tau(scores, 0.9)
        thr_b = scoring.calibrate_tau(scores[rng.permutation(61)], 0.9)
        assert thr_a.tau == thr_b.tau

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            scoring.calibrate_tau(np.array([]))
        with pytest.raises(InputError):
            scoring.calibrate_tau(np.array([1.0, np.inf]))
        with pytest.raises(InputError):
            scoring.calibrate_tau(np.ones(5), target_tpr=0.0)
        with pytest.raises(InputError):
            scoring.calibrate_tau(np.ones(5), target_tpr=1.2)


class TestClassify:
    def test_boundary_inclusive(self):
        thr = Threshold(tau=2.0, target_tpr=0.95, calibration_size=10)
        decisions = scoring.classify(np.array([2.0, np.nextafter(2.0, 3.0)]), thr)
        assert decisions.tolist() == [False, True]

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=40)
        thr = scoring.calibrate_tau(scores, 0.9)
        base = scoring.classify(scores, thr)
        warped = np.exp(scores)
        thr_w = scoring.calibrate_tau(warped, 0.9)
        np.testing.assert_array_equal(scoring.classify(warped, thr_w), base)

    def test_calibration_set_reproduces_tpr(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=200)
        thr = scoring.calibrate_tau(scores, 0.95)
        accepted = ~scoring.classify(scores, thr)
        assert accepted.mean() >= 0.95


class TestScoreCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        sets = {
            "uncertainty": ScoreSet(rng.normal(size=6), rng.integers(0, 2, 6).astype(bool)),
            "mahalanobis": ScoreSet(rng.uniform(size=4), np.array([True, False, True, False])),
        }
        path = tmp_path / "scores.csv"
        scoring.save_scores(path, sets)
        assert path.read_text().splitlines()[0] == "item_id,method,score,truth"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["method"] for row in rows] == ["uncertainty"] * 6 + ["mahalanobis"] * 4
        for name in sets:
            mine = [row for row in rows if row["method"] == name]
            assert [int(row["item_id"]) for row in mine] == list(range(len(mine)))
            back = np.array([float(row["score"]) for row in mine])
            np.testing.assert_array_equal(back, sets[name].scores)
            truth = np.array([row["truth"] == "OOD" for row in mine])
            assert {row["truth"] for row in mine} <= {"ID", "OOD"}
            np.testing.assert_array_equal(truth, sets[name].is_ood)
