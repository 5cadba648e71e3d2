"""OOD evaluation metrics and the per-run evaluation report.

AUROC uses the rank (Mann-Whitney) formulation with half credit for ties,
so it equals the probability that a random outlier outscores a random
inlier.  AUPR sweeps thresholds in descending score order with step
interpolation; the positive class defaults to ID (accepted at low scores)
and both orientations are reported since the choice changes the number.
FPR95 reuses the inclusive tau calibration from the scoring module.  ECE
bins confidences into equal-width bins over [0, 1].

All functions assume the repo-wide score orientation: higher = more
outlier-like.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError, UndefinedMetricError
from .scoring import ScoreSet, calibrate_tau

AUPR_POSITIVE_CHOICES = ("id", "ood")


def _averaged_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank range."""
    order = np.argsort(values, kind="stable")
    s = values[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], s.size) - 1
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def _require_both_classes(scores: ScoreSet, metric: str) -> None:
    n_ood = int(scores.is_ood.sum())
    if n_ood == 0 or n_ood == scores.is_ood.size:
        raise UndefinedMetricError(
            f"{metric} needs both ID and OOD items, got {n_ood} OOD of {scores.is_ood.size}"
        )


def auroc(scores: ScoreSet) -> float:
    """P(random OOD score > random ID score), ties counted half."""
    _require_both_classes(scores, "auroc")
    ranks = _averaged_ranks(scores.scores)
    n_ood = int(scores.is_ood.sum())
    n_id = scores.is_ood.size - n_ood
    rank_sum = float(ranks[scores.is_ood].sum())
    u_stat = rank_sum - 0.5 * n_ood * (n_ood + 1)
    return u_stat / (n_id * n_ood)


def _pr_sweep(scores: ScoreSet, positive: str) -> tuple[np.ndarray, np.ndarray]:
    """(precision, recall) after each distinct-threshold group, descending."""
    if positive not in AUPR_POSITIVE_CHOICES:
        raise InputError(f"positive class must be one of {AUPR_POSITIVE_CHOICES}")
    # flip so the positive class is the high-score one, then sweep down
    toward_positive = scores.scores if positive == "ood" else -scores.scores
    pos_mask = scores.is_ood if positive == "ood" else ~scores.is_ood
    n_pos = int(pos_mask.sum())
    if n_pos == 0:
        raise UndefinedMetricError(f"aupr positive class {positive!r} has no items")
    order = np.argsort(-toward_positive, kind="stable")
    sorted_scores = toward_positive[order]
    sorted_pos = pos_mask[order].astype(np.int64)
    tp = np.cumsum(sorted_pos)
    predicted = np.arange(1, sorted_pos.size + 1)
    # keep only the last index of each tied-score group
    group_end = np.ones(sorted_pos.size, dtype=bool)
    group_end[:-1] = sorted_scores[:-1] != sorted_scores[1:]
    tp = tp[group_end].astype(np.float64)
    predicted = predicted[group_end].astype(np.float64)
    precision = tp / predicted
    recall = tp / n_pos
    return precision, recall


def aupr(scores: ScoreSet, positive: str = "id") -> float:
    """Area under precision-recall via sum (R_i - R_{i-1}) * P_i."""
    precision, recall = _pr_sweep(scores, positive)
    recall_steps = np.diff(recall, prepend=0.0)
    return float(np.sum(recall_steps * precision))


def fpr_at_tpr(scores: ScoreSet, tpr: float = 0.95) -> float:
    """Fraction of OOD accepted when tau admits `tpr` of the ID items."""
    _require_both_classes(scores, "fpr_at_tpr")
    threshold = calibrate_tau(scores.id_scores, tpr)
    return float(np.mean(scores.ood_scores <= threshold.tau))


def ece(confidences: np.ndarray, correct: np.ndarray, n_bins: int = 10) -> float:
    """Expected calibration error over equal-width confidence bins.

    sum over bins of (count / N) * |accuracy - mean confidence|; bin edges
    are left-inclusive with 1.0 clamped into the last bin.
    """
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if confidences.ndim != 1 or confidences.size == 0:
        raise InputError("ece needs a non-empty 1-D confidence array")
    if confidences.shape != correct.shape:
        raise InputError("confidences and correctness must be aligned")
    if confidences.min() < 0.0 or confidences.max() > 1.0:
        raise InputError("confidences must lie in [0, 1]")
    if n_bins <= 0:
        raise InputError("n_bins must be positive")
    idx = np.minimum((confidences * n_bins).astype(np.int64), n_bins - 1)
    total = 0.0
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            continue
        gap = abs(float(correct[mask].mean()) - float(confidences[mask].mean()))
        total += (count / confidences.size) * gap
    return total


# --- plotting payloads ---------------------------------------------------------


def roc_points(scores: ScoreSet) -> dict[str, list[float]]:
    """ROC curve of the OOD detector (positive = OOD), threshold descending."""
    _require_both_classes(scores, "roc_points")
    order = np.argsort(-scores.scores, kind="stable")
    sorted_scores = scores.scores[order]
    sorted_ood = scores.is_ood[order].astype(np.int64)
    n_ood = int(sorted_ood.sum())
    n_id = sorted_ood.size - n_ood
    tp = np.cumsum(sorted_ood)
    fp = np.arange(1, sorted_ood.size + 1) - tp
    group_end = np.ones(sorted_ood.size, dtype=bool)
    group_end[:-1] = sorted_scores[:-1] != sorted_scores[1:]
    tpr = [0.0] + (tp[group_end] / n_ood).tolist()
    fpr = [0.0] + (fp[group_end] / n_id).tolist()
    return {"fpr": [float(v) for v in fpr], "tpr": [float(v) for v in tpr]}


def pr_points(scores: ScoreSet, positive: str = "id") -> dict[str, list[float]]:
    precision, recall = _pr_sweep(scores, positive)
    return {
        "precision": [float(v) for v in precision],
        "recall": [float(v) for v in recall],
    }


def score_histograms(scores: ScoreSet, n_bins: int = 20) -> dict:
    """ID and OOD score histograms over shared bin edges."""
    edges = np.histogram_bin_edges(scores.scores, bins=n_bins)
    id_counts, _ = np.histogram(scores.id_scores, bins=edges)
    ood_counts, _ = np.histogram(scores.ood_scores, bins=edges)
    return {
        "edges": [float(v) for v in edges],
        "id_counts": [int(v) for v in id_counts],
        "ood_counts": [int(v) for v in ood_counts],
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
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvaluationReport":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed report JSON: {exc}") from exc
        try:
            methods = {
                name: MethodReport(**block)
                for name, block in payload["methods"].items()
            }
            return cls(
                methods=methods,
                n_id=payload["counts"]["id"],
                n_ood=payload["counts"]["ood"],
                config_hash=payload["config_hash"],
                seed=payload["seed"],
                curves=payload["curves"],
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"report JSON missing field: {exc}") from exc


def build_report(
    score_sets: dict[str, ScoreSet],
    config_hash: str,
    seed: int,
    ece_values: dict[str, float | None] | None = None,
    histogram_bins: int = 20,
) -> EvaluationReport:
    """Compute every metric and plotting payload for each method."""
    if not score_sets:
        raise InputError("no score sets to evaluate")
    ece_values = ece_values or {}
    methods: dict[str, MethodReport] = {}
    curves: dict[str, dict] = {}
    n_id = n_ood = 0
    for name in sorted(score_sets):
        ss = score_sets[name]
        n_id = int((~ss.is_ood).sum())
        n_ood = int(ss.is_ood.sum())
        methods[name] = MethodReport(
            auroc=auroc(ss),
            aupr_id=aupr(ss, positive="id"),
            aupr_ood=aupr(ss, positive="ood"),
            fpr95=fpr_at_tpr(ss, 0.95),
            ece=ece_values.get(name),
            orientation=ss.orientation,
        )
        curves[name] = {
            "roc": roc_points(ss),
            "pr_id": pr_points(ss, positive="id"),
            "histogram": score_histograms(ss, histogram_bins),
        }
    return EvaluationReport(
        methods=methods,
        n_id=n_id,
        n_ood=n_ood,
        config_hash=config_hash,
        seed=seed,
        curves=curves,
    )
