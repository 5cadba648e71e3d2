import json

import numpy as np
import pytest

from lsvos import metrics
from lsvos.errors import InputError, UndefinedMetricError
from lsvos.metrics import EvaluationReport, MethodReport
from lsvos.scoring import ScoreSet

import oracles


def _score_set(id_scores, ood_scores, method="m"):
    scores = np.concatenate([np.asarray(id_scores, float), np.asarray(ood_scores, float)])
    is_ood = np.zeros(scores.size, dtype=bool)
    is_ood[len(id_scores):] = True
    return ScoreSet(scores, is_ood, method)


def _random_tied_set(rng, max_n=300):
    n = int(rng.integers(10, max_n + 1))
    # coarse grid forces plenty of ties
    scores = rng.integers(0, 25, size=n) / 4.0
    is_ood = rng.integers(0, 2, size=n).astype(bool)
    is_ood[0], is_ood[1] = False, True
    return ScoreSet(scores, is_ood, "random")


class TestAuroc:
    def test_perfect_separation(self):
        assert metrics.auroc(_score_set([1, 2, 3], [4, 5])) == 1.0

    def test_all_tied_is_half(self):
        assert metrics.auroc(_score_set([2, 2, 2], [2, 2])) == 0.5

    def test_hand_case_three_quarters(self):
        assert metrics.auroc(_score_set([0.1, 0.4], [0.3, 0.9])) == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            metrics.auroc(_score_set([1, 2, 3], []))
        with pytest.raises(UndefinedMetricError):
            metrics.auroc(_score_set([], [1, 2]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        ss = _random_tied_set(rng)
        warped = ScoreSet(np.exp(ss.scores), ss.is_ood, "m")
        assert metrics.auroc(warped) == metrics.auroc(ss)

    def test_negation_complement_without_ties(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=40)
        is_ood = rng.integers(0, 2, size=40).astype(bool)
        is_ood[:2] = [True, False]
        ss = ScoreSet(scores, is_ood, "m")
        neg = ScoreSet(-scores, is_ood, "m")
        assert metrics.auroc(ss) + metrics.auroc(neg) == pytest.approx(1.0, abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ss = _random_tied_set(rng, max_n=120)
            expected = oracles.pairwise_auroc(ss.id_scores, ss.ood_scores)
            assert metrics.auroc(ss) == pytest.approx(expected, abs=1e-9)


class TestAveragedRanks:
    @pytest.mark.parametrize(
        "values",
        [
            [3.0, 1.0, 2.0, 1.0, 3.0, 3.0],
            [2.5] * 7,
            [4.0],
            [0.0, -0.0, 1.0, -0.0, 0.0, -1.0],
        ],
        ids=["ties", "all-equal", "one", "signed-zeros"],
    )
    def test_hand_cases_match_loop_oracle_bitwise(self, values):
        values = np.array(values)
        got = metrics._averaged_ranks(values)
        assert got.tobytes() == oracles.averaged_ranks_loop(values).tobytes()

    @pytest.mark.parametrize("levels", [None, 40])
    def test_random_match_loop_oracle_bitwise(self, levels):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 500))
            values = rng.normal(size=n) if levels is None else rng.integers(0, levels, n) / 8.0
            got = metrics._averaged_ranks(values)
            assert got.tobytes() == oracles.averaged_ranks_loop(values).tobytes()


class TestAupr:
    def test_perfect_separation_both_orientations(self):
        ss = _score_set([1, 2, 3], [4, 5])
        assert metrics.aupr(ss, positive="id") == 1.0
        assert metrics.aupr(ss, positive="ood") == 1.0

    def test_all_items_positive_class(self):
        assert metrics.aupr(_score_set([1, 2, 3], []), positive="id") == 1.0
        assert metrics.aupr(_score_set([], [1, 2]), positive="ood") == 1.0

    def test_positive_class_absent_undefined(self):
        with pytest.raises(UndefinedMetricError):
            metrics.aupr(_score_set([], [1, 2]), positive="id")
        with pytest.raises(UndefinedMetricError):
            metrics.aupr(_score_set([1, 2], []), positive="ood")

    def test_bad_positive_choice(self):
        with pytest.raises(InputError):
            metrics.aupr(_score_set([1], [2]), positive="fp")

    def test_hand_case_matches_exhaustive_oracle(self):
        ss = _score_set([0.1, 0.4], [0.3, 0.9])
        for positive in ("id", "ood"):
            toward = ss.scores if positive == "ood" else -ss.scores
            pos = ss.is_ood if positive == "ood" else ~ss.is_ood
            expected = oracles.exhaustive_aupr(toward, pos)
            assert metrics.aupr(ss, positive) == pytest.approx(expected, abs=1e-12)

    def test_matches_exhaustive_oracle_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ss = _random_tied_set(rng, max_n=120)
            for positive in ("id", "ood"):
                toward = ss.scores if positive == "ood" else -ss.scores
                pos = ss.is_ood if positive == "ood" else ~ss.is_ood
                expected = oracles.exhaustive_aupr(toward, pos)
                assert metrics.aupr(ss, positive) == pytest.approx(expected, abs=1e-9)


class TestFprAtTpr:
    def test_perfect_separation_zero(self):
        assert metrics.fpr_at_tpr(_score_set(range(100), range(200, 300))) == 0.0

    def test_identical_scores_one(self):
        assert metrics.fpr_at_tpr(_score_set([3.0] * 100, [3.0] * 50)) == 1.0

    def test_hand_case_exact_045(self):
        ss = _score_set(np.arange(1, 101), np.arange(51, 151))
        assert metrics.fpr_at_tpr(ss, 0.95) == 0.45

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            metrics.fpr_at_tpr(_score_set([1, 2], []))


class TestEce:
    def test_confident_and_correct_zero(self):
        assert metrics.ece(np.ones(10), np.ones(10, dtype=bool)) == 0.0

    def test_confident_half_correct(self):
        correct = np.array([True, False] * 5)
        assert metrics.ece(np.ones(10), correct) == pytest.approx(0.5)

    def test_two_bin_hand_case(self):
        conf = np.array([0.2, 0.4, 0.9, 0.7, 0.8])
        correct = np.array([True, False, True, True, False])
        # bin [0,.5): mean conf 0.3, acc 0.5, weight 2/5; bin [.5,1]:
        # mean conf 0.8, acc 2/3, weight 3/5 -> 0.08 + 0.08 = 0.16
        assert metrics.ece(conf, correct, n_bins=2) == pytest.approx(0.16, abs=1e-12)

    def test_confidence_one_lands_in_last_bin(self):
        value = metrics.ece(np.array([1.0, 0.95]), np.array([True, True]), n_bins=10)
        assert value == pytest.approx(abs(1.0 - 0.975))

    def test_validation(self):
        with pytest.raises(InputError):
            metrics.ece(np.array([]), np.array([], dtype=bool))
        with pytest.raises(InputError):
            metrics.ece(np.array([1.2]), np.array([True]))
        with pytest.raises(InputError):
            metrics.ece(np.array([0.5, 0.5]), np.array([True]))
        with pytest.raises(InputError):
            metrics.ece(np.array([0.5]), np.array([True]), n_bins=0)


class TestCurves:
    def test_roc_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(4)
        ss = _random_tied_set(rng)
        curve = metrics.roc_points(ss)
        assert curve["fpr"][0] == 0.0 and curve["tpr"][0] == 0.0
        assert curve["fpr"][-1] == 1.0 and curve["tpr"][-1] == 1.0
        assert np.all(np.diff(curve["fpr"]) >= 0)
        assert np.all(np.diff(curve["tpr"]) >= 0)

    def test_pr_final_recall_is_one(self):
        rng = np.random.default_rng(5)
        ss = _random_tied_set(rng)
        curve = metrics.pr_points(ss, positive="id")
        assert curve["recall"][-1] == 1.0

    def test_histogram_counts(self):
        ss = _score_set([1.0, 2.0, 3.0], [2.5, 4.0])
        hist = metrics.score_histograms(ss, n_bins=5)
        assert sum(hist["id_counts"]) == 3
        assert sum(hist["ood_counts"]) == 2
        assert len(hist["edges"]) == 6


class TestReport:
    def _sets(self):
        rng = np.random.default_rng(6)
        return {
            "uncertainty": _random_tied_set(rng),
            "mahalanobis": _random_tied_set(rng),
        }

    def test_build_and_round_trip(self):
        report = metrics.build_report(
            self._sets(), "abc123", 7, ece_values={"uncertainty": 0.12}
        )
        assert set(report.methods) == {"uncertainty", "mahalanobis"}
        assert report.methods["uncertainty"].ece == 0.12
        assert report.methods["mahalanobis"].ece is None
        text = report.to_json()
        back = EvaluationReport.from_json(text)
        assert back.config_hash == "abc123" and back.seed == 7
        assert back.methods == report.methods
        assert back.curves == report.curves
        assert back.to_json() == text

    def test_json_is_deterministic(self):
        a = metrics.build_report(self._sets(), "h", 1)
        b = metrics.build_report(self._sets(), "h", 1)
        assert a.to_json() == b.to_json()

    def test_metric_range_validation(self):
        with pytest.raises(InputError):
            MethodReport(1.2, 0.5, 0.5, 0.5, None, "o")
        with pytest.raises(InputError):
            MethodReport(0.5, 0.5, 0.5, 0.5, -0.1, "o")

    def test_counts_must_be_positive_when_methods_present(self):
        block = MethodReport(0.5, 0.5, 0.5, 0.5, None, "o")
        with pytest.raises(InputError):
            EvaluationReport({"m": block}, 0, 10, "h", 0, {})

    def test_from_json_rejects_malformed(self):
        with pytest.raises(InputError):
            EvaluationReport.from_json("{not json")
        with pytest.raises(InputError):
            EvaluationReport.from_json(json.dumps({"methods": {}}))
