"""Independent reference implementations used to check the library.

Everything here is deliberately slow and simple: finite differences for
gradients, Monte-Carlo volume estimates for box overlap, O(N^2) pair
counting for ranking metrics.  None of it shares code paths with the
package under test, apart from what `build_report_reference` wraps: the
report classes, the score histogram and `scoring.calibrate_tau`.
"""

import numpy as np

from lsvos import nn
from lsvos.errors import InputError, NumericalFailure, UndefinedMetricError
from lsvos.metrics import (
    AUPR_POSITIVE_CHOICES,
    EvaluationReport,
    MethodReport,
    score_histograms,
)
from lsvos.scoring import DEFAULT_ORIENTATION, calibrate_tau, fit_gaussian_model


def vos_reference(queue, n_per_class, n_candidates, rng):
    """VOS synthesis that maps every candidate through the Cholesky factor.

    The class loop of synthesis.vos_synthesize before it ranked before
    mapping: each class draws a fresh (n_candidates, D) block, maps all of
    it, fully argsorts by ||z||^2 and keeps the head.  Returns the kept
    rows in class-major blocks.  A quantile only guards the arguments, so
    the reference takes none.
    """
    dim = queue.dim
    blocks, ids = [], []
    for cid in range(queue.num_classes):
        snap = queue.snapshot(cid)
        blocks.append(snap[:, :dim])
        ids.append(np.full(snap.shape[0], cid))
    rows = np.vstack(blocks)
    class_ids = np.concatenate(ids)
    model = fit_gaussian_model(rows, class_ids, queue.num_classes)
    kept_blocks = []
    for cid in range(queue.num_classes):
        z = rng.standard_normal((n_candidates, dim))
        draws = z @ model.cholesky.T
        draws += model.means[cid]
        maha = np.einsum("ij,ij->i", z, z)
        order = np.argsort(-maha, kind="stable")
        kept_blocks.append(draws[order[:n_per_class]])
        del z, draws
    return np.vstack(kept_blocks)


def mahalanobis_reference(model, queries):
    """scoring.mahalanobis_score before the rows moved into the einsum's inner loop.

    One row-major ``np.einsum("ij,jk,ik->i")`` per class over freshly
    centered queries, then the min over classes.
    """
    queries = np.asarray(queries, dtype=np.float64)
    per_class = np.empty((queries.shape[0], model.means.shape[0]))
    for cid, mean in enumerate(model.means):
        centered = queries - mean
        per_class[:, cid] = np.einsum(
            "ij,jk,ik->i", centered, model.precision, centered
        )
    return per_class.min(axis=1)


def forward_reference(net, x):
    """nn.forward before it ran large batches in row blocks.

    One pass over the whole batch per layer: ``a @ W``, the bias and relu
    written into it, and a finiteness check naming the layer.
    """
    a = np.asarray(x, dtype=np.float64)
    for i, layer in enumerate(net.layers):
        a = a @ layer.weights
        a += layer.bias
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
        if not np.all(np.isfinite(a)):
            raise NumericalFailure(f"non-finite activation after layer {i}")
    return a


def finite_difference_gradients(net, x, loss_kind, targets, step=1e-4):
    """Central-difference gradient of the batch loss wrt every parameter."""

    def loss_at(params):
        probe = nn.DenseNet(
            [
                nn.Layer(params[2 * i], params[2 * i + 1], layer.activation)
                for i, layer in enumerate(net.layers)
            ]
        )
        out = nn.forward(probe, x)
        value, _ = nn.loss_and_grad(out, loss_kind, targets)
        return value

    base = [p.copy() for p in nn.parameters(net)]
    grads = []
    for k, p in enumerate(base):
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + step
            hi = loss_at(base)
            flat[j] = original - step
            lo = loss_at(base)
            flat[j] = original
            gflat[j] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def adam_reference(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step as a pure function: fresh (params, m, v) lists for step t."""
    new_params, new_m, new_v = [], [], []
    for p, g, m0, v0 in zip(params, grads, m, v):
        m1 = beta1 * m0 + (1.0 - beta1) * g
        v1 = beta2 * v0 + (1.0 - beta2) * g * g
        m_hat = m1 / (1.0 - beta1**t)
        v_hat = v1 / (1.0 - beta2**t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m1)
        new_v.append(v1)
    return new_params, new_m, new_v


def gradients_reference(net, x, loss_kind, targets):
    """Loss and gradients of nn.gradients with every array freshly allocated.

    Plain ``a @ W``, ``da * (z > 0.0)`` and ``.sum(axis=0)`` expressions, so
    a result computed in reused buffers can be held to them bit for bit.
    """
    a, caches = x, []
    for layer in net.layers:
        z = a @ layer.weights + layer.bias
        caches.append((a, z))
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
    loss, da = nn.loss_and_grad(a, loss_kind, targets)
    grads = []
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        a_prev, z = caches[i]
        dz = da * (z > 0.0) if layer.activation == "relu" else da
        grads = [a_prev.T @ dz, dz.sum(axis=0)] + grads
        da = dz @ layer.weights.T
    return loss, grads


def max_relative_error(analytic, numeric, floor=1e-3):
    """max_j |a_j - n_j| / max(|a_j|, |n_j|, floor) over all parameters."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def random_net_and_batch(rng, loss_kind, max_dim=16, guard=5e-3):
    """Random net plus batch whose relu inputs sit clear of the kink.

    Central differences are invalid when a perturbation can flip a relu
    unit, so nets whose pre-activations come within `guard` of zero are
    redrawn.
    """
    for _ in range(200):
        n_layers = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, max_dim + 1)) for _ in range(n_layers + 1)]
        net = nn.dense_net(dims, rng)
        batch = rng.normal(size=(int(rng.integers(2, 9)), dims[0]))
        if loss_kind == "mse":
            targets = rng.normal(size=(batch.shape[0], dims[-1]))
        elif loss_kind == "cross-entropy":
            targets = rng.integers(0, dims[-1], size=batch.shape[0])
        else:
            net = nn.dense_net(dims[:-1] + [1], rng)
            targets = rng.integers(0, 2, size=batch.shape[0]).astype(bool)
            if targets.all() or not targets.any():
                targets[0] = ~targets[0]
        a, margins = batch, []
        for layer in net.layers:
            z = a @ layer.weights + layer.bias
            if layer.activation == "relu":
                margins.append(np.min(np.abs(z)))
            a = np.maximum(z, 0.0) if layer.activation == "relu" else z
        if not margins or min(margins) > guard:
            return net, batch, targets
    raise RuntimeError("could not draw a kink-free network")


def mc_box_overlap_volume(box_a, box_b, n_points, rng):
    """Monte-Carlo estimate of the intersection volume of two yawed boxes.

    Boxes are (x, y, z, l, w, h, yaw) tuples with z the vertical axis and
    yaw a rotation about it.  Points are drawn uniformly in the axis-aligned
    bounding volume of the union; the estimate is
    (hits in both boxes / n_points) * sample volume.
    """

    def corners_xy(box):
        x, y, _, l, w, _, yaw = box
        dx, dy = l / 2.0, w / 2.0
        local = np.array([[dx, dy], [dx, -dy], [-dx, -dy], [-dx, dy]])
        c, s = np.cos(yaw), np.sin(yaw)
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([x, y])

    def contains(box, pts):
        x, y, z, l, w, h, yaw = box
        shifted = pts[:, :2] - np.array([x, y])
        c, s = np.cos(-yaw), np.sin(-yaw)
        local_x = shifted[:, 0] * c - shifted[:, 1] * s
        local_y = shifted[:, 0] * s + shifted[:, 1] * c
        return (
            (np.abs(local_x) <= l / 2.0)
            & (np.abs(local_y) <= w / 2.0)
            & (np.abs(pts[:, 2] - z) <= h / 2.0)
        )

    all_xy = np.vstack([corners_xy(box_a), corners_xy(box_b)])
    lo_xy, hi_xy = all_xy.min(axis=0), all_xy.max(axis=0)
    z_lo = min(box_a[2] - box_a[5] / 2.0, box_b[2] - box_b[5] / 2.0)
    z_hi = max(box_a[2] + box_a[5] / 2.0, box_b[2] + box_b[5] / 2.0)
    lo = np.array([lo_xy[0], lo_xy[1], z_lo])
    hi = np.array([hi_xy[0], hi_xy[1], z_hi])
    pts = rng.uniform(lo, hi, size=(n_points, 3))
    hits = contains(box_a, pts) & contains(box_b, pts)
    return float(hits.mean()) * float(np.prod(hi - lo))


def mc_iou_3d(box_a, box_b, n_points, rng):
    """IoU estimate built from the Monte-Carlo overlap volume."""
    inter = mc_box_overlap_volume(box_a, box_b, n_points, rng)
    vol_a = box_a[3] * box_a[4] * box_a[5]
    vol_b = box_b[3] * box_b[4] * box_b[5]
    return inter / (vol_a + vol_b - inter)


def pairwise_auroc(id_scores, ood_scores):
    """Probability a random outlier outscores a random inlier, ties half."""
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    wins = 0.0
    for o in ood_scores:
        wins += np.sum(o > id_scores) + 0.5 * np.sum(o == id_scores)
    return wins / (len(id_scores) * len(ood_scores))


def averaged_ranks_loop(values):
    """1-based ranks, ties sharing the mean rank, by walking the sorted groups."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def exhaustive_aupr(scores, is_positive):
    """Area under precision-recall by walking every distinct threshold.

    Items with score >= threshold are predicted positive; thresholds run
    from high to low and the area uses step interpolation
    sum (R_i - R_{i-1}) * P_i.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_positive = np.asarray(is_positive, dtype=bool)
    n_pos = int(is_positive.sum())
    area = 0.0
    prev_recall = 0.0
    for thr in sorted(set(scores.tolist()), reverse=True):
        predicted = scores >= thr
        tp = int((predicted & is_positive).sum())
        fp = int((predicted & ~is_positive).sum())
        precision = tp / (tp + fp)
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


# --- the report path that sorted each score set once per metric --------------
#
# metrics.build_report before it read every metric off one sort per scorer:
# averaged ranks for AUROC, one stable argsort per threshold sweep, and the
# FPR at a TPR through scoring.calibrate_tau.  The new path must give the
# same report bytes.


def _averaged_ranks_reference(values):
    """1-based ranks; tied values share the average of their rank range."""
    order = np.argsort(values, kind="stable")
    s = values[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], s.size) - 1
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def _require_both_classes_reference(scores, metric):
    n_ood = int(scores.is_ood.sum())
    if n_ood == 0 or n_ood == scores.is_ood.size:
        raise UndefinedMetricError(
            f"{metric} needs both ID and OOD items, got {n_ood} OOD of {scores.is_ood.size}"
        )


def _auroc_reference(scores):
    """P(random OOD score > random ID score), ties counted half."""
    _require_both_classes_reference(scores, "auroc")
    ranks = _averaged_ranks_reference(scores.scores)
    n_ood = int(scores.is_ood.sum())
    n_id = scores.is_ood.size - n_ood
    rank_sum = float(ranks[scores.is_ood].sum())
    u_stat = rank_sum - 0.5 * n_ood * (n_ood + 1)
    return u_stat / (n_id * n_ood)


def _sweep_reference(toward_positive, pos_mask):
    """Cumulative (tp, predicted) counts at each distinct threshold, descending.

    Thresholds sweep down `toward_positive` (a stable sort); each tied-score
    group contributes one point, taken at its last index.
    """
    order = np.argsort(-toward_positive, kind="stable")
    sorted_scores = toward_positive[order]
    tp = np.cumsum(pos_mask[order].astype(np.int64))
    predicted = np.arange(1, tp.size + 1)
    group_end = np.ones(tp.size, dtype=bool)
    group_end[:-1] = sorted_scores[:-1] != sorted_scores[1:]
    return tp[group_end], predicted[group_end]


def _pr_sweep_reference(scores, positive):
    """(precision, recall) after each distinct-threshold group, descending."""
    if positive not in AUPR_POSITIVE_CHOICES:
        raise InputError(f"positive class must be one of {AUPR_POSITIVE_CHOICES}")
    # flip so the positive class is the high-score one, then sweep down
    toward_positive = scores.scores if positive == "ood" else -scores.scores
    pos_mask = scores.is_ood if positive == "ood" else ~scores.is_ood
    n_pos = int(pos_mask.sum())
    if n_pos == 0:
        raise UndefinedMetricError(f"aupr positive class {positive!r} has no items")
    tp, predicted = _sweep_reference(toward_positive, pos_mask)
    return tp / predicted, tp / n_pos


def _aupr_reference(scores, positive="id"):
    """Area under precision-recall via sum (R_i - R_{i-1}) * P_i."""
    precision, recall = _pr_sweep_reference(scores, positive)
    recall_steps = np.diff(recall, prepend=0.0)
    return float(np.sum(recall_steps * precision))


def fpr_at_tpr_reference(scores, tpr=0.95):
    """Fraction of OOD accepted when tau admits `tpr` of the ID items."""
    _require_both_classes_reference(scores, "fpr_at_tpr")
    threshold = calibrate_tau(scores.id_scores, tpr)
    return float(np.mean(scores.ood_scores <= threshold.tau))


def _roc_points_reference(scores):
    """ROC curve of the OOD detector (positive = OOD), threshold descending."""
    _require_both_classes_reference(scores, "roc_points")
    n_ood = int(scores.is_ood.sum())
    n_id = scores.is_ood.size - n_ood
    tp, predicted = _sweep_reference(scores.scores, scores.is_ood)
    return {
        "fpr": [0.0] + ((predicted - tp) / n_id).tolist(),
        "tpr": [0.0] + (tp / n_ood).tolist(),
    }


def _pr_points_reference(scores, positive="id"):
    precision, recall = _pr_sweep_reference(scores, positive)
    return {"precision": precision.tolist(), "recall": recall.tolist()}


def build_report_reference(score_sets, config_hash, seed):
    """Compute every metric and plotting payload for each method."""
    if not score_sets:
        raise InputError("no score sets to evaluate")
    methods = {}
    curves = {}
    n_id = n_ood = 0
    for name in sorted(score_sets):
        ss = score_sets[name]
        n_id = int((~ss.is_ood).sum())
        n_ood = int(ss.is_ood.sum())
        methods[name] = MethodReport(
            auroc=_auroc_reference(ss),
            aupr_id=_aupr_reference(ss, positive="id"),
            aupr_ood=_aupr_reference(ss, positive="ood"),
            fpr95=fpr_at_tpr_reference(ss, 0.95),
            ece=ss.ece,
            orientation=DEFAULT_ORIENTATION,
        )
        curves[name] = {
            "roc": _roc_points_reference(ss),
            "pr_id": _pr_points_reference(ss, positive="id"),
            "histogram": score_histograms(ss),
        }
    return EvaluationReport(
        methods=methods,
        n_id=n_id,
        n_ood=n_ood,
        config_hash=config_hash,
        seed=seed,
        curves=curves,
    )
