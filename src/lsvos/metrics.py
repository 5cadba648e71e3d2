"""OOD evaluation metrics and the per-run evaluation report.

AUROC uses the rank (Mann-Whitney) formulation with half credit for ties,
so it equals the probability that a random outlier outscores a random
inlier.  AUPR sweeps thresholds in descending score order with step
interpolation; the positive class defaults to ID (accepted at low scores)
and both orientations are reported since the choice changes the number.
FPR95 is the OOD fraction at the inclusive tau that accepts 95% of ID.
These read one sort of the scores.  ECE bins confidences into 10
equal-width bins over [0, 1], as VOS reports it.

All functions assume the repo-wide score orientation: higher = more
outlier-like.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from .errors import InputError, UndefinedMetricError
from .scoring import DEFAULT_ORIENTATION, ScoreSet

AUPR_POSITIVE_CHOICES = ("id", "ood")
# A score set's ranking: (ID, OOD) counts below each distinct score,
# ascending, then the class totals.  The count at the end of a tied group
# does not depend on the order inside it, so any sort gives the same bits.
_Tally = tuple[np.ndarray, np.ndarray]


def _tally(scores: ScoreSet | _Tally) -> _Tally:
    """A score set's tally, by one stable ascending argsort; a tally passes through."""
    if not isinstance(scores, ScoreSet):
        return scores
    order = np.argsort(scores.scores, kind="stable")
    ranked = scores.scores[order]
    group_end = np.ones(ranked.size, dtype=bool)
    group_end[:-1] = ranked[:-1] != ranked[1:]
    ood = np.cumsum(scores.is_ood[order], dtype=np.int64)[group_end]
    return np.append(0, np.flatnonzero(group_end) + 1 - ood), np.append(0, ood)


def _both_classes(scores: ScoreSet | _Tally, metric: str) -> tuple[_Tally, int, int]:
    """(tally, n_id, n_ood); UndefinedMetricError if either class is empty."""
    tally = _tally(scores)
    n_id, n_ood = int(tally[0][-1]), int(tally[1][-1])
    if n_id == 0 or n_ood == 0:
        raise UndefinedMetricError(
            f"{metric} needs both ID and OOD items, got {n_ood} OOD of {n_id + n_ood}"
        )
    return tally, n_id, n_ood


def auroc(scores: ScoreSet | _Tally) -> float:
    """P(random OOD score > random ID score), ties counted half."""
    (id_below, ood_below), n_id, n_ood = _both_classes(scores, "auroc")
    # an OOD item beats the ID items below its group and ties the others in it
    twice_u = int(np.sum(np.diff(ood_below) * (id_below[:-1] + id_below[1:])))
    return twice_u / 2 / (n_id * n_ood)


def _sweep(tally: _Tally, positive: str) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (tp, predicted) counts per tied group, from the positive end."""
    id_below, ood_below = tally
    seen = id_below + ood_below
    if positive == "id":  # ID is accepted at low scores: the ascending tally
        return id_below[1:], seen[1:]
    # toward OOD: the items at or above each score, highest score first
    return (ood_below[-1] - ood_below[:-1])[::-1], (seen[-1] - seen[:-1])[::-1]


def _pr_sweep(scores: ScoreSet | _Tally, positive: str) -> tuple[np.ndarray, np.ndarray]:
    """(precision, recall) after each distinct-threshold group, descending."""
    if positive not in AUPR_POSITIVE_CHOICES:
        raise InputError(f"positive class must be one of {AUPR_POSITIVE_CHOICES}")
    tally = _tally(scores)
    n_pos = int(tally[1 if positive == "ood" else 0][-1])
    if n_pos == 0:
        raise UndefinedMetricError(f"aupr positive class {positive!r} has no items")
    tp, predicted = _sweep(tally, positive)
    return tp / predicted, tp / n_pos


def aupr(scores: ScoreSet | _Tally, positive: str = "id") -> float:
    """Area under precision-recall via sum (R_i - R_{i-1}) * P_i."""
    precision, recall = _pr_sweep(scores, positive)
    recall_steps = np.diff(recall, prepend=0.0)
    return float(np.sum(recall_steps * precision))


def fpr_at_tpr(scores: ScoreSet | _Tally) -> float:
    """FPR95: fraction of OOD at or below tau, the ceil(0.95 * n_id)-th smallest ID score."""
    (id_below, ood_below), n_id, n_ood = _both_classes(scores, "fpr_at_tpr")
    return int(ood_below[np.searchsorted(id_below, math.ceil(0.95 * n_id))]) / n_ood


def ece(confidences: np.ndarray, correct: np.ndarray) -> float:
    """Expected calibration error over 10 equal-width confidence bins.

    sum over bins of (count / N) * |accuracy - mean confidence|; bin edges
    are left-inclusive with 1.0 clamped into the last bin.
    """
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if confidences.ndim != 1 or confidences.size == 0:
        raise InputError("ece needs a non-empty 1-D confidence array")
    if confidences.shape != correct.shape:
        raise InputError("confidences and correctness must be aligned")
    if not np.all((confidences >= 0.0) & (confidences <= 1.0)):
        raise InputError("confidences must lie in [0, 1]")
    idx = np.minimum((confidences * 10).astype(np.int64), 9)
    total = 0.0
    for b in range(10):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            continue
        gap = abs(float(correct[mask].mean()) - float(confidences[mask].mean()))
        total += (count / confidences.size) * gap
    return total


# --- plotting payloads ---------------------------------------------------------


def roc_points(scores: ScoreSet | _Tally) -> dict[str, list[float]]:
    """ROC curve of the OOD detector (positive = OOD), threshold descending."""
    tally, n_id, n_ood = _both_classes(scores, "roc_points")
    tp, predicted = _sweep(tally, "ood")
    return {
        "fpr": [0.0] + ((predicted - tp) / n_id).tolist(),
        "tpr": [0.0] + (tp / n_ood).tolist(),
    }


def pr_points(scores: ScoreSet | _Tally) -> dict[str, list[float]]:
    """Precision-recall curve with ID, accepted at low scores, as the positive class."""
    precision, recall = _pr_sweep(scores, "id")
    return {"precision": precision.tolist(), "recall": recall.tolist()}


def score_histograms(scores: ScoreSet) -> dict:
    """ID and OOD score histograms over 20 shared equal-width bins."""
    edges = np.histogram_bin_edges(scores.scores, bins=20)
    id_counts, _ = np.histogram(scores.id_scores, bins=edges)
    ood_counts, _ = np.histogram(scores.ood_scores, bins=edges)
    return {
        "edges": edges.tolist(),
        "id_counts": id_counts.tolist(),
        "ood_counts": ood_counts.tolist(),
    }


# --- report --------------------------------------------------------------------


@dataclass
class MethodReport:
    """One method's metric block; ece is None for score-only methods."""

    auroc: float
    aupr_id: float
    aupr_ood: float
    fpr95: float
    ece: float | None
    orientation: str

    def __post_init__(self):
        for name in ("auroc", "aupr_id", "aupr_ood", "fpr95"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {value}")
        if self.ece is not None and not 0.0 <= self.ece <= 1.0:
            raise InputError(f"ece must be in [0, 1], got {self.ece}")


@dataclass
class EvaluationReport:
    """All methods' metrics for one run, JSON-serializable bit-for-bit."""

    methods: dict[str, MethodReport]
    n_id: int
    n_ood: int
    config_hash: str
    seed: int
    curves: dict

    def __post_init__(self):
        if self.methods and (self.n_id <= 0 or self.n_ood <= 0):
            raise InputError("reported metrics require positive ID and OOD counts")

    def to_json(self) -> str:
        payload = {
            "counts": {"id": self.n_id, "ood": self.n_ood},
            "config_hash": self.config_hash,
            "seed": self.seed,
            "aupr_default_positive": "id",
            "methods": {name: asdict(m) for name, m in self.methods.items()},
            "curves": self.curves,
        }
        return json_text(payload)

    @classmethod
    def from_json(cls, text: str) -> "EvaluationReport":
        # the file's layout, typed by the fields it holds
        hints = get_type_hints(cls)
        hints["counts"] = {"id": hints.pop("n_id"), "ood": hints.pop("n_ood")}
        payload = read_json(text, {**hints, "aupr_default_positive": Literal["id"]}, "report")
        counts = payload.pop("counts")
        del payload["aupr_default_positive"]
        return cls(n_id=counts["id"], n_ood=counts["ood"], **payload)


def json_text(payload) -> str:
    """The JSON text of every file a run writes: sorted keys, 2-space indent.

    A non-finite float raises ValueError: JSON has no NaN or Infinity, and
    read_json refuses them.
    """
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def read_json(text: str, schema, what: str):
    """A dataclass or {key: hint} layout read from JSON text; one InputError names every fault.

    A key given twice in one object, or a NaN or Infinity (which JSON does
    not have), is refused before any field is read.
    """

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"malformed {what} JSON: key {key!r} is given twice")
            obj[key] = value
        return obj

    def no_constant(name: str):
        raise InputError(f"malformed {what} JSON: {name} is no JSON number")

    try:
        payload = json.loads(text, object_pairs_hook=unique_keys, parse_constant=no_constant)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed {what} JSON: {exc}") from exc
    faults: list[str] = []
    value = _typed(schema, payload, "", faults)
    if faults:
        raise InputError(f"{what} JSON missing or malformed field: {'; '.join(faults)}")
    return value


def _typed(hint, value, name: str, faults: list[str]):
    """`value` checked against a type hint, or None with its faults appended.

    A dataclass or layout is read from an object with no other key; a
    dataclass field with a default may be missing.  dict[str, V] has each
    value checked, a bare dict (the curves) only that it is an object.
    """
    dot = f"{name}." if name else ""
    if (is_dataclass(hint) or isinstance(hint, dict)) and type(value) is dict:
        cls, layout, defaults = dict, hint, ()
        if is_dataclass(hint):
            cls, layout = hint, get_type_hints(hint)
            defaults = [f.name for f in fields(hint) if f.default is not MISSING]
        before = len(faults)
        faults += [f"{dot}{k} is no field" for k in value if k not in layout]
        faults += [f"{dot}{k} missing" for k in layout if k not in value and k not in defaults]
        read = {k: _typed(layout[k], v, dot + k, faults) for k, v in value.items() if k in layout}
        return cls(**read) if len(faults) == before else None
    args = get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _typed(args[0], value, name, faults)
    if get_origin(hint) is dict and type(value) is dict:
        return {key: _typed(args[1], v, dot + key, faults) for key, v in value.items()}
    # type(), not isinstance: a JSON true is a bool, which is no number, seed
    # or count, yet would print as 1.0000
    if type(value) is hint or (hint is float and type(value) is int):
        return value
    if get_origin(hint) is Literal and value in args:  # a constant
        return value
    faults.append(f"{name or 'the top level'} of the wrong type")
    return None


def build_report(
    score_sets: dict[str, ScoreSet],
    config_hash: str,
    seed: int,
) -> EvaluationReport:
    """Compute every metric and plotting payload for each method."""
    if not score_sets:
        raise InputError("no score sets to evaluate")
    methods: dict[str, MethodReport] = {}
    curves: dict[str, dict] = {}
    n_id = n_ood = 0
    for name in sorted(score_sets):
        ss = score_sets[name]
        tally = _tally(ss)  # one sort serves every metric and curve below
        n_id, n_ood = int(tally[0][-1]), int(tally[1][-1])
        methods[name] = MethodReport(
            auroc=auroc(tally),
            aupr_id=aupr(tally, positive="id"),
            aupr_ood=aupr(tally, positive="ood"),
            fpr95=fpr_at_tpr(tally),
            ece=ss.ece,
            orientation=DEFAULT_ORIENTATION,
        )
        curves[name] = {
            "roc": roc_points(tally),
            "pr_id": pr_points(tally),
            "histogram": score_histograms(ss),
        }
        del tally  # only one scorer's tally is alive at a time
    return EvaluationReport(
        methods=methods,
        n_id=n_id,
        n_ood=n_ood,
        config_hash=config_hash,
        seed=seed,
        curves=curves,
    )
