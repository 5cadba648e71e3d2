"""Outlier scores, threshold calibration, and hard ID/OOD decisions.

Score orientation is standardized across the package: higher always means
more outlier-like.  Scores that natively point the other way (such as the
max-softmax confidence baseline) are negated before they enter a ScoreSet;
every report records DEFAULT_ORIENTATION for its methods.

The decision rule is a fixed threshold: an item is accepted as ID iff its
score is <= tau, where tau is the inclusive empirical quantile of inlier
scores at the target acceptance rate.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

DEFAULT_ORIENTATION = "higher=more_anomalous"
SCORES_HEADER = "item_id,method,score,truth"


@dataclass
class ScoreSet:
    """One method's per-item outlier scores, ground truth and ECE (None if score-only)."""

    scores: np.ndarray
    is_ood: np.ndarray
    ece: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.is_ood = np.asarray(self.is_ood, dtype=bool)
        if self.scores.ndim != 1 or self.scores.shape != self.is_ood.shape:
            raise InputError("scores and truth must be aligned 1-D arrays")
        if not np.all(np.isfinite(self.scores)):
            raise InputError("scores must be finite")

    @property
    def id_scores(self) -> np.ndarray:
        return self.scores[~self.is_ood]

    @property
    def ood_scores(self) -> np.ndarray:
        return self.scores[self.is_ood]


@dataclass
class GaussianModel:
    """Per-class means with one covariance shared across classes."""

    means: np.ndarray
    cov: np.ndarray
    precision: np.ndarray
    cholesky: np.ndarray


def fit_gaussian_model(
    rows: np.ndarray, class_ids: np.ndarray, num_classes: int
) -> GaussianModel:
    """Class-conditional Gaussian fit: per-class mean, pooled covariance.

    The covariance pools within-class scatter over all classes, normalized
    by N - K.  If it fails its Cholesky factorization it is ridged with
    eps * I, eps = 1e-6 * trace / dim, and a warning is emitted.  Every
    class id must lie in [0, K): a row of another class would count in N
    but in no class's scatter.
    """
    rows = np.asarray(rows, dtype=np.float64)
    class_ids = np.asarray(class_ids, dtype=np.int64)
    if rows.ndim != 2:
        raise InputError("rows must be (N, D)")
    if class_ids.shape != (rows.shape[0],):
        raise InputError("class_ids must align with rows")
    n, dim = rows.shape
    if n <= num_classes:
        raise InputError("need more rows than classes to fit a pooled covariance")
    if class_ids.min() < 0 or class_ids.max() >= num_classes:
        raise InputError(f"class ids must lie in [0, {num_classes})")
    means = np.zeros((num_classes, dim))
    scatter = np.zeros((dim, dim))
    for cid in range(num_classes):
        block = rows[class_ids == cid]
        if block.shape[0] == 0:
            raise InputError(f"no rows for class {cid}")
        means[cid] = block.mean(axis=0)
        centered = block - means[cid]
        scatter += centered.T @ centered
    cov = scatter / (n - num_classes)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        eps = 1e-6 * np.trace(cov) / dim
        if eps <= 0.0:
            eps = 1e-6
        warnings.warn(
            f"singular pooled covariance; regularizing with {eps:.3e} * I",
            stacklevel=2,
        )
        cov = cov + eps * np.eye(dim)
        chol = np.linalg.cholesky(cov)
    return GaussianModel(means, cov, np.linalg.inv(cov), chol)


# numpy's einsum iterator buffers 8192 elements per operand
_EINSUM_BUFFER = 8192
# the precision operand copied along a block's rows, (D, D, B + 1)
# float64, takes about this many bytes: 8.4 MB at D = 64, where B = 256
_WIDE_BYTES = 2**23
# block rows B: fewer than 32 lose to the stride-0 precision operand at
# D = 200; more than 1,024 gain nothing at small D
_MIN_BLOCK = 32
_MAX_BLOCK = 1024
# fewest query rows worth a thread of their own
_ROWS_PER_THREAD = 8192


def _block_rows(dim: int) -> int:
    """Query rows centered at a time at dimension dim: B = _WIDE_BYTES //
    (8 D^2), so that the (D, D, B + 1) precision operand takes about
    _WIDE_BYTES, clamped to [_MIN_BLOCK, _MAX_BLOCK]."""
    return min(_MAX_BLOCK, max(_MIN_BLOCK, _WIDE_BYTES // (8 * dim * dim)))


def _score_threads(n: int) -> int:
    """Threads scoring n query rows: one per usable CPU, each with at
    least _ROWS_PER_THREAD rows, and never fewer than one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n // _ROWS_PER_THREAD))


def _score_blocks(spans, queries, model, p_rows, wide, per_class, centered, partial):
    """Fill per_class[:, r0:r1] for every (r0, r1) taken from spans.

    Runs only np.subtract, np.einsum and an in-place add, which release
    the GIL, reads the shared wide only, and writes only the columns of
    the spans it takes, so several threads can share one spans iterator.
    """
    dim = queries.shape[1]
    for r0, r1 in spans:
        w = r1 - r0
        c = centered[: dim * w].reshape(dim, w)
        for cid, mean in enumerate(model.means):
            np.subtract(queries[r0:r1].T, mean[:, None], out=c)
            out = per_class[cid, r0:r1]
            for j0 in range(0, dim, p_rows):
                j1 = j0 + p_rows
                dest = out if j0 == 0 else partial[:w]
                np.einsum("ji,jki,ki->i", c[j0:j1], wide[j0:j1, :, :w], c, out=dest)
                if j0:
                    out += dest


def mahalanobis_score(model: GaussianModel, queries: np.ndarray) -> np.ndarray:
    """min over classes of the squared Mahalanobis distance to the class mean.

    Bitwise equal to ``np.einsum("ij,jk,ik->i", c, P, c)`` per class, with
    c = queries - mean, but faster: the rows sit in the einsum's inner loop.
    Each block of B = _block_rows(D) query rows is centered into one reused
    C-contiguous (D, rows) buffer and summed with
    ``np.einsum("ji,jki,ki->i", c, wide, c)``, where wide is P copied along
    a last axis of B + 1 rows, filled once per call and shared read-only.
    Every operand then has unit stride along the rows, so numpy runs its
    contiguous three-operand loop over independent rows instead of one
    chain of dependent adds (or its slower strided loop, for a stride-0
    P).  Every row still sums its D^2 terms (c_ij * P_jk) * c_ik in flat
    (j, k) order.  The row-major einsum restarted its sum every
    8192 // D rows of P (its iterator buffer) and added each partial into
    the output; from D = 91 on this runs one einsum per such block of P
    rows and adds the partials in the same way.  At D = 2 a lone row sums
    its four terms pairwise, and so did the row-major einsum for N <= 2 but
    not for more rows.  So N <= 2 queries run row by row, and no other
    block holds a lone row.  Queries of any other layout score as their
    C-contiguous copy.  Checked bitwise with numpy 2.4 for D up to 512;
    D > 8192 is unverified.

    Large inputs spread their blocks over _score_threads(N) threads: the
    caller and the workers of a pool that ends with the call, each with its
    own centered and partial buffers.  A block's sums do not depend on
    which thread runs it, so neither do the scores.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != model.means.shape[1]:
        raise InputError(
            f"queries must be (N, {model.means.shape[1]}), got {queries.shape}"
        )
    n, dim = queries.shape
    p_rows = max(1, _EINSUM_BUFFER // dim)
    block = _block_rows(dim)
    if n <= 2:
        starts = list(range(n))
    else:
        starts = list(range(0, n, block))
        if n - starts[-1] == 1:
            starts.pop()
    # each span goes to one thread: a list iterator's next() holds the GIL
    spans = iter(list(zip(starts, starts[1:] + [n])))
    width = min(n, block + 1)
    wide = np.empty((dim, dim, width))
    wide[...] = model.precision[:, :, None]
    wide.flags.writeable = False
    per_class = np.empty((model.means.shape[0], n))
    buffers = [
        (np.empty(dim * width), np.empty(width)) for _ in range(_score_threads(n))
    ]
    args = (spans, queries, model, p_rows, wide, per_class)
    # imported here, not with the package: concurrent.futures pulls in
    # logging, ~0.4 MB of RSS that only this pool needs
    from concurrent.futures import ThreadPoolExecutor

    # a pool that gets no job starts no thread; leaving the block waits for
    # every helper, even when the caller's own blocks raise
    with ThreadPoolExecutor(max(1, len(buffers) - 1)) as pool:
        helpers = [pool.submit(_score_blocks, *args, *bufs) for bufs in buffers[1:]]
        _score_blocks(*args, *buffers[0])
    for helper in helpers:
        helper.result()
    return per_class.min(axis=0)


@dataclass
class Threshold:
    """Calibrated acceptance cutoff: ID iff score <= tau."""

    tau: float
    target_tpr: float
    calibration_size: int


def calibrate_tau(id_scores: np.ndarray, target_tpr: float = 0.95) -> Threshold:
    """Smallest score value accepting at least target_tpr of the inliers.

    tau = sorted_scores[ceil(target_tpr * N) - 1], the inclusive empirical
    quantile; the achieved acceptance rate lies in [target, target + 1/N]
    whenever the scores are distinct.
    """
    id_scores = np.asarray(id_scores, dtype=np.float64)
    if id_scores.ndim != 1 or id_scores.size == 0:
        raise InputError("calibration needs a non-empty 1-D inlier score array")
    if not np.all(np.isfinite(id_scores)):
        raise InputError("calibration scores must be finite")
    if not 0.0 < target_tpr <= 1.0:
        raise InputError(f"target_tpr must be in (0, 1], got {target_tpr}")
    n = id_scores.size
    rank = math.ceil(target_tpr * n) - 1
    tau = float(np.sort(id_scores)[rank])
    return Threshold(tau, target_tpr, n)


def classify(scores: np.ndarray, threshold: Threshold) -> np.ndarray:
    """Boolean per item: True = rejected as OOD (score > tau)."""
    scores = np.asarray(scores, dtype=np.float64)
    return scores > threshold.tau


# --- CSV artifacts --------------------------------------------------------------


def write_csv(path, header: str, rows) -> None:
    """The header line, then one csv.writer row per row, floats as repr(float)."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow(repr(float(c)) if isinstance(c, float) else c for c in row)


def save_scores(path, score_sets: dict[str, ScoreSet]) -> None:
    """Dump all methods' scores to `item_id,method,score,truth` CSV."""
    rows = (
        (i, method, score, "OOD" if ood else "ID")
        for method, ss in score_sets.items()
        for i, (score, ood) in enumerate(zip(ss.scores.tolist(), ss.is_ood.tolist()))
    )
    write_csv(path, SCORES_HEADER, rows)
