import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsvos import metrics
from lsvos.errors import InputError, UndefinedMetricError
from lsvos.metrics import EvaluationReport, MethodReport
from lsvos.pipeline import RunManifest
from lsvos.scoring import ScoreSet

import oracles


def _score_set(id_scores, ood_scores):
    scores = np.concatenate([np.asarray(id_scores, float), np.asarray(ood_scores, float)])
    is_ood = np.zeros(scores.size, dtype=bool)
    is_ood[len(id_scores):] = True
    return ScoreSet(scores, is_ood)


def _random_tied_set(rng, max_n=300):
    n = int(rng.integers(10, max_n + 1))
    # coarse grid forces plenty of ties
    scores = rng.integers(0, 25, size=n) / 4.0
    is_ood = rng.integers(0, 2, size=n).astype(bool)
    is_ood[0], is_ood[1] = False, True
    return ScoreSet(scores, is_ood)


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
        warped = ScoreSet(np.exp(ss.scores), ss.is_ood)
        assert metrics.auroc(warped) == metrics.auroc(ss)

    def test_negation_complement_without_ties(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=40)
        is_ood = rng.integers(0, 2, size=40).astype(bool)
        is_ood[:2] = [True, False]
        ss = ScoreSet(scores, is_ood)
        neg = ScoreSet(-scores, is_ood)
        assert metrics.auroc(ss) + metrics.auroc(neg) == pytest.approx(1.0, abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ss = _random_tied_set(rng, max_n=120)
            expected = oracles.pairwise_auroc(ss.id_scores, ss.ood_scores)
            assert metrics.auroc(ss) == pytest.approx(expected, abs=1e-9)


def _rank_sum_auroc(ss):
    """AUROC as the Mann-Whitney rank sum over the loop oracle's averaged ranks."""
    ranks = oracles.averaged_ranks_loop(ss.scores)
    n_ood = int(ss.is_ood.sum())
    n_id = ss.is_ood.size - n_ood
    u_stat = float(ranks[ss.is_ood].sum()) - 0.5 * n_ood * (n_ood + 1)
    return u_stat / (n_id * n_ood)


class TestAveragedRanks:
    """auroc equals the rank-sum formula over averaged ranks, bit for bit."""

    @pytest.mark.parametrize(
        "values",
        [
            [3.0, 1.0, 2.0, 1.0, 3.0, 3.0],
            [2.5] * 7,
            [4.0, 1.0],
            [0.0, -0.0, 1.0, -0.0, 0.0, -1.0],
        ],
        ids=["ties", "all-equal", "one", "signed-zeros"],
    )
    def test_hand_cases_match_loop_oracle_bitwise(self, values):
        # every labelling that has both classes; "one" is one row of each
        for labels in itertools.product([False, True], repeat=len(values)):
            if 0 < sum(labels) < len(values):
                ss = ScoreSet(values, labels)
                assert metrics.auroc(ss) == _rank_sum_auroc(ss)

    @pytest.mark.parametrize("levels", [None, 40])
    def test_random_match_loop_oracle_bitwise(self, levels):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 500))
            values = rng.normal(size=n) if levels is None else rng.integers(0, levels, n) / 8.0
            is_ood = rng.integers(0, 2, size=n).astype(bool)
            is_ood[rng.permutation(n)[:2]] = [False, True]
            ss = ScoreSet(values, is_ood)
            assert metrics.auroc(ss) == _rank_sum_auroc(ss)


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
        assert metrics.fpr_at_tpr(ss) == 0.45

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            metrics.fpr_at_tpr(_score_set([1, 2], []))


class TestEce:
    def test_confident_and_correct_zero(self):
        assert metrics.ece(np.ones(10), np.ones(10, dtype=bool)) == 0.0

    def test_confident_half_correct(self):
        correct = np.array([True, False] * 5)
        assert metrics.ece(np.ones(10), correct) == pytest.approx(0.5)

    def test_ten_bin_hand_case(self):
        conf = np.array([0.22, 0.28, 0.4, 0.75, 0.71, 0.79, 0.95])
        correct = np.array([True, False, False, True, True, False, True])
        # bin [.2,.3): mean conf 0.25, acc 0.5, weight 2/7 -> 0.5/7;
        # bin [.4,.5): mean conf 0.4, acc 0, weight 1/7 -> 0.4/7;
        # bin [.7,.8): mean conf 0.75, acc 2/3, weight 3/7 -> 0.25/7;
        # bin [.9,1]: mean conf 0.95, acc 1, weight 1/7 -> 0.05/7
        assert metrics.ece(conf, correct) == pytest.approx(1.2 / 7, abs=1e-12)

    def test_confidence_one_lands_in_last_bin(self):
        value = metrics.ece(np.array([1.0, 0.95]), np.array([True, True]))
        assert value == pytest.approx(abs(1.0 - 0.975))

    def test_validation(self):
        with pytest.raises(InputError):
            metrics.ece(np.array([]), np.array([], dtype=bool))
        with pytest.raises(InputError):
            metrics.ece(np.array([1.2]), np.array([True]))
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            metrics.ece(np.array([np.nan, 0.5]), np.array([True, True]))
        with pytest.raises(InputError):
            metrics.ece(np.array([0.5, 0.5]), np.array([True]))


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
        curve = metrics.pr_points(ss)
        assert curve["recall"][-1] == 1.0

    def test_histogram_counts(self):
        ss = _score_set([1.0, 2.0, 3.0], [2.5, 4.0])
        hist = metrics.score_histograms(ss)
        assert sum(hist["id_counts"]) == 3
        assert sum(hist["ood_counts"]) == 2
        assert len(hist["edges"]) == 21


class TestReport:
    def _sets(self):
        rng = np.random.default_rng(6)
        return {
            "uncertainty": _random_tied_set(rng),
            "mahalanobis": _random_tied_set(rng),
        }

    def test_build_and_round_trip(self):
        sets = self._sets()
        sets["uncertainty"].ece = 0.12
        report = metrics.build_report(sets, "abc123", 7)
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
        # a field of the wrong JSON type, not only a missing one
        with pytest.raises(InputError, match="malformed field"):
            EvaluationReport.from_json(json.dumps({"methods": []}))
        # a config hash that is no string, or a seed or count that is no int
        # (bool included), would crash or misprint `report`
        text = metrics.build_report(self._sets(), "abc123", 7).to_json()
        for field, value in [
            ("config_hash", 5),
            ("config_hash", None),
            ("seed", "x"),
            ("seed", 1.0),
            ("seed", True),
            ("id", 150.0),
            ("ood", "80"),
            ("ood", False),
        ]:
            payload = json.loads(text)
            (payload["counts"] if field in ("id", "ood") else payload)[field] = value
            with pytest.raises(InputError, match=f"{field} of the wrong type"):
                EvaluationReport.from_json(json.dumps(payload))
        # a metric that is no JSON number (bool included), an ece that is
        # neither a number nor null, or an orientation that is no string
        name = next(iter(json.loads(text)["methods"]))
        for field, value in [
            ("auroc", True),
            ("aupr_id", False),
            ("aupr_ood", True),
            ("fpr95", False),
            ("ece", True),
            ("orientation", 5),
            ("orientation", None),
            # named before the range check, which cannot compare a string
            ("auroc", "0.5"),
            ("ece", "0.1"),
            ("fpr95", None),
        ]:
            payload = json.loads(text)
            payload["methods"][name][field] = value
            with pytest.raises(InputError, match=f"methods.{name}.{field} of the wrong type"):
                EvaluationReport.from_json(json.dumps(payload))
        # curves that are no JSON object
        for value in ([1, 2], None, "curves"):
            payload = json.loads(text)
            payload["curves"] = value
            with pytest.raises(InputError, match="curves of the wrong type"):
                EvaluationReport.from_json(json.dumps(payload))
        # a metric block missing a field, or holding one MethodReport lacks
        payload = json.loads(text)
        del payload["methods"][name]["fpr95"]
        with pytest.raises(InputError, match="missing or malformed field"):
            EvaluationReport.from_json(json.dumps(payload))
        payload = json.loads(text)
        payload["methods"][name]["extra"] = 0.5
        with pytest.raises(InputError, match="malformed field"):
            EvaluationReport.from_json(json.dumps(payload))
        # JSON numbers of either kind still load
        payload = json.loads(text)
        payload["methods"][name].update(auroc=1, fpr95=0, ece=None)
        assert EvaluationReport.from_json(json.dumps(payload)).methods[name].auroc == 1


# coarse levels with both signed zeros, so ties are common and -0.0 == 0.0
_GRID = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)


@st.composite
def _score_sets(draw):
    """A score set of 2 to 300 rows with both classes, often heavily tied."""
    n = draw(st.integers(2, 300))
    layout = draw(st.sampled_from(["grid", "one value", "normal"]))
    if layout == "grid":
        values = draw(st.lists(st.sampled_from(_GRID), min_size=n, max_size=n))
    elif layout == "one value":
        values = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
    else:
        values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n)
    lone = draw(st.sampled_from(["id", "ood", None]))
    if lone is None:
        is_ood = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        first, second = draw(st.permutations(range(n)))[:2]
        is_ood[[first, second]] = [False, True]
    else:  # one row of the lone class among the other's
        is_ood = np.full(n, lone == "id")
        is_ood[draw(st.integers(0, n - 1))] = lone != "id"
    ece = draw(st.none() | st.floats(0.0, 1.0))
    return ScoreSet(values, is_ood, ece=ece)


class TestOneSortPerScorer:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_score_sets(), min_size=1, max_size=3))
    def test_report_bytes_match_the_sort_per_metric_reference(self, sets):
        named = {f"m{i}": ss for i, ss in enumerate(sets)}
        got = metrics.build_report(named, "h", 3).to_json()
        assert got == oracles.build_report_reference(named, "h", 3).to_json()

    @settings(max_examples=200, deadline=None)
    @given(_score_sets())
    def test_fpr_at_tpr_matches_the_calibrate_tau_reference(self, ss):
        expected = oracles.fpr_at_tpr_reference(ss, 0.95)
        assert np.float64(metrics.fpr_at_tpr(ss)).tobytes() == np.float64(expected).tobytes()

    def test_build_report_sorts_each_score_set_once(self, monkeypatch):
        calls = []
        argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            calls.append(1)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        rng = np.random.default_rng(8)
        sets = {name: _random_tied_set(rng) for name in ("a", "b", "c")}
        metrics.build_report(sets, "h", 0)
        assert len(calls) == 3


# --- the typed JSON reader ------------------------------------------------------

# a value of every JSON kind, keyed by the Python type json.loads gives it
_JSON_KINDS = {
    bool: st.booleans(),
    int: st.integers(-3, 3),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(max_size=3),
    list: st.lists(st.integers(), max_size=2),
    dict: st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    type(None): st.none(),
}
_NUMBER = (int, float)


def _valid_report() -> dict:
    rng = np.random.default_rng(3)
    sets = {"mahalanobis": _random_tied_set(rng, 30), "uncertainty": _random_tied_set(rng, 30)}
    sets["uncertainty"].ece = 0.25
    return json.loads(metrics.build_report(sets, "abc", 4).to_json())


def _valid_manifest() -> dict:
    manifest = RunManifest(
        config_hash="abc", seed=4, package_version="0.1.0", numpy_version="2.0",
        python_version="3.11", checkpoint_format_version=1, feature_format_version=2,
        wall_clock_seconds=1.5, outputs={"report": "report.json", "model": "model.ckpt"},
        created="2024-01-01T00:00:00+00:00", blas_vendor="openblas", blas_threads=1,
    )
    return json.loads(manifest.to_json())


# dotted field -> the JSON kinds it accepts, written out independently of
# the dataclasses so the reader is held to them
_REPORT_KINDS = {
    "counts": (dict,), "counts.id": (int,), "counts.ood": (int,),
    "config_hash": (str,), "seed": (int,), "aupr_default_positive": (str,),
    "methods": (dict,), "curves": (dict,),
    **{
        f"methods.{name}{leaf}": kinds
        for name in ("mahalanobis", "uncertainty")
        for leaf, kinds in [
            ("", (dict,)), (".auroc", _NUMBER), (".aupr_id", _NUMBER), (".aupr_ood", _NUMBER),
            (".fpr95", _NUMBER), (".ece", (*_NUMBER, type(None))), (".orientation", (str,)),
        ]
    },
}
_MANIFEST_KINDS = {
    "config_hash": (str,), "seed": (int,), "package_version": (str,),
    "numpy_version": (str,), "python_version": (str,), "checkpoint_format_version": (int,),
    "feature_format_version": (int,), "wall_clock_seconds": _NUMBER, "outputs": (dict,),
    "outputs.report": (str,), "outputs.model": (str,), "created": (str,),
    "blas_vendor": (str, type(None)), "blas_threads": (int, type(None)),
}


@st.composite
def _one_mistyped(draw, payload: dict, kinds: dict):
    """(payload with one field of a JSON kind it does not accept, that field)."""
    field = draw(st.sampled_from(sorted(kinds)))
    wrong = draw(st.sampled_from([k for k in _JSON_KINDS if k not in kinds[field]]))
    *outer, last = field.split(".")
    target = payload = json.loads(json.dumps(payload))
    for key in outer:
        target = target[key]
    target[last] = draw(_JSON_KINDS[wrong])
    return payload, field


class TestTypedReader:
    @settings(max_examples=150, deadline=None)
    @given(_one_mistyped(_valid_report(), _REPORT_KINDS))
    def test_a_mistyped_report_field_is_named(self, case):
        payload, field = case
        with pytest.raises(InputError, match=rf"field: {re.escape(field)} of the wrong type$"):
            EvaluationReport.from_json(json.dumps(payload))

    @settings(max_examples=150, deadline=None)
    @given(_one_mistyped(_valid_manifest(), _MANIFEST_KINDS))
    def test_a_mistyped_manifest_field_is_named(self, case):
        payload, field = case
        with pytest.raises(InputError, match=rf"field: {re.escape(field)} of the wrong type$"):
            RunManifest.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "update, field",
        [
            ({"seed": True}, "seed"),  # a bool is no int
            ({"checkpoint_format_version": 1.5}, "checkpoint_format_version"),
            ({"wall_clock_seconds": "x"}, "wall_clock_seconds"),  # a string is no number
            ({"blas_threads": "2"}, "blas_threads"),
            ({"config_hash": 5}, "config_hash"),
            ({"created": None}, "created"),
            ({"outputs": [1]}, "outputs"),  # a list is no object
            ({"outputs": {"a": 1}}, "outputs.a"),
        ],
    )
    def test_each_probed_manifest_value_is_refused(self, update, field):
        payload = {**_valid_manifest(), **update}
        with pytest.raises(InputError, match=rf"field: {re.escape(field)} of the wrong type$"):
            RunManifest.from_json(json.dumps(payload))

    def test_valid_payloads_load_and_unknown_keys_are_refused_at_every_level(self):
        assert RunManifest.from_json(json.dumps(_valid_manifest())).blas_threads == 1
        assert EvaluationReport.from_json(json.dumps(_valid_report())).seed == 4
        for where in ([], ["counts"], ["methods", "uncertainty"]):
            payload = _valid_report()
            target = payload
            for key in where:
                target = target[key]
            target["extra"] = 1
            name = ".".join([*where, "extra"])
            with pytest.raises(InputError, match=rf"field: {re.escape(name)} is no field$"):
                EvaluationReport.from_json(json.dumps(payload))
        payload = {**_valid_manifest(), "timings": {}}
        with pytest.raises(InputError, match="timings is no field"):
            RunManifest.from_json(json.dumps(payload))

    def test_the_report_constant_and_the_top_level_are_checked(self):
        payload = {**_valid_report(), "aupr_default_positive": "ood"}
        with pytest.raises(InputError, match="aupr_default_positive of the wrong type"):
            EvaluationReport.from_json(json.dumps(payload))
        for read in (EvaluationReport.from_json, RunManifest.from_json):
            with pytest.raises(InputError, match="the top level of the wrong type"):
                read("[]")

    def test_a_key_given_twice_is_refused_by_name(self):
        # json.loads alone keeps the last of two equal keys
        report, manifest = json.dumps(_valid_report()), json.dumps(_valid_manifest())
        for read, text, key in [
            (RunManifest.from_json, manifest[:-1] + ', "seed": 9}', "seed"),
            (EvaluationReport.from_json, report[:-1] + ', "seed": 9}', "seed"),
            (EvaluationReport.from_json, report.replace('"counts": {', '"counts": {"ood": 1, '), "ood"),
        ]:
            with pytest.raises(InputError, match=f"JSON: key '{key}' is given twice$"):
                read(text)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_a_non_finite_number_is_neither_read_nor_written(self, value):
        # json.dumps writes them as NaN, Infinity and -Infinity by default
        text = json.dumps({**_valid_manifest(), "wall_clock_seconds": value})
        with pytest.raises(InputError, match="JSON: -?(NaN|Infinity) is no JSON number$"):
            RunManifest.from_json(text)
        with pytest.raises(ValueError, match="not JSON compliant"):
            metrics.json_text({"wall_clock_seconds": value})
