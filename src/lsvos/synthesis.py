"""Virtual-outlier generators behind one interface.

The main generator encodes class-augmented inlier features, shifts every
latent coordinate by a positive amount o = beta * (alpha + U(0,1)), and
decodes the result: the outliers live just outside the inlier manifold as
the decoder sees it.  Competitor generators from the comparison suite are
included: low-likelihood sampling from class-conditional Gaussians,
ID/FP linear mixing, pure N(0,1) noise, and uniformly jittered inliers.

Every generator returns a SynthBatch of raw D-dimensional rows (never the
one-hot suffix) and is deterministic under a fixed generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import InputError, NotReadyError, NumericalFailure
from .features import FeatureQueue, append_one_hot
from .models import ModelBundle
from .scoring import fit_gaussian_model

METHODS = ("lsvos", "vos", "linear_mix", "random_noise", "noisy_id")


@dataclass
class NoiseSpec:
    """Latent noise parameters: each component is beta * (alpha + U(0,1))."""

    alpha: float = 0.25
    beta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise InputError("alpha and beta must be finite")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise InputError(
                f"alpha and beta must be non-negative, got {self.alpha}, {self.beta}"
            )


@dataclass
class SynthBatch:
    """Synthesized outlier rows, and the class each was made from when known."""

    vectors: np.ndarray
    class_ids: np.ndarray | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise InputError("synth batch vectors must be (M, D)")
        if not np.all(np.isfinite(self.vectors)):
            raise NumericalFailure("synthesis produced non-finite outliers")
        if self.class_ids is not None:
            self.class_ids = np.asarray(self.class_ids, dtype=np.int64)
            if self.class_ids.shape != (self.vectors.shape[0],):
                raise InputError("class_ids must have one entry per synthesized row")


def latent_noise(shape, spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """o = beta * (alpha + o'), o' ~ U(0,1); components in [b*a, b*(a+1)]."""
    return spec.beta * (spec.alpha + rng.uniform(0.0, 1.0, size=shape))


def lsvos_synthesize(
    bundle: ModelBundle,
    u_id: np.ndarray,
    class_ids: np.ndarray,
    spec: NoiseSpec,
    rng: np.random.Generator,
) -> SynthBatch:
    """Decode latent codes pushed off the inlier manifold by positive noise.

    v = d(e(concat(u, one_hot)) + o).  With beta = 0 the output is exactly
    the plain auto-encoder reconstruction of the same inputs.  The bundle's
    auto-encoder is used as given; the pipeline refuses a run whose
    synthesis would come before any reconstruction phase.
    """
    u_id = np.asarray(u_id, dtype=np.float64)
    dim = bundle.feature_dim
    if u_id.ndim != 2 or u_id.shape[1] != dim:
        raise InputError(f"expected (M, {dim}) inlier rows, got {u_id.shape}")
    class_ids = np.asarray(class_ids, dtype=np.int64)
    if class_ids.shape != (u_id.shape[0],):
        raise InputError("class_ids must align with inlier rows")
    augmented = append_one_hot(u_id, class_ids, bundle.num_classes)
    z = nn.forward(bundle.encoder, augmented)
    noise = latent_noise(z.shape, spec, rng)
    # beta = 0 keeps the codes bitwise untouched (noise add skipped)
    z_star = z if spec.beta == 0.0 else z + noise
    return SynthBatch(nn.forward(bundle.decoder, z_star), class_ids=class_ids)


def _top_n(keys: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest keys, largest first, ties in index order.

    The same indices as np.argsort(-keys, kind="stable")[:n] for finite
    keys, but only the keys at or above the n-th largest are sorted.
    """
    neg = -keys
    kth = np.partition(neg, n - 1)[n - 1]
    near = np.flatnonzero(neg <= kth)
    return near[np.argsort(neg[near], kind="stable")[:n]]


def vos_synthesize(
    queue: FeatureQueue,
    n_per_class: int,
    quantile: float | None,
    n_candidates: int,
    rng: np.random.Generator,
) -> SynthBatch:
    """Keep the lowest-likelihood Gaussian samples as outliers.

    Fits per-class means with a shared covariance from the queue contents
    (one-hot block stripped), draws n_candidates per class, keeps the
    n_per_class with the lowest Gaussian log-likelihood.  `quantile`, when
    given, bounds the kept fraction: selection must stay within the lowest
    quantile * n_candidates candidates.
    """
    if n_per_class <= 0 or n_candidates <= 0:
        raise InputError("n_per_class and n_candidates must be positive")
    if n_per_class > n_candidates:
        raise InputError("cannot keep more candidates than were drawn")
    if quantile is not None:
        if not 0.0 < quantile <= 1.0:
            raise InputError(f"quantile must be in (0, 1], got {quantile}")
        if n_per_class > quantile * n_candidates:
            raise InputError(
                f"keeping {n_per_class} of {n_candidates} exceeds the "
                f"lowest-likelihood quantile {quantile}"
            )
    dim = queue.dim
    blocks, ids = [], []
    for cid in range(queue.num_classes):
        snap = queue.snapshot(cid)
        if snap.shape[0] == 0:
            raise NotReadyError(f"queue empty for class {cid}; cannot fit Gaussian")
        blocks.append(snap[:, :dim])
        ids.append(np.full(snap.shape[0], cid))
    rows = np.vstack(blocks)
    class_ids = np.concatenate(ids)
    model = fit_gaussian_model(rows, class_ids, queue.num_classes)
    # rank before mapping: only the top-ranked rows go through the Cholesky
    # factor, but enough of them that the product stays on the blocked kernel
    # whenever a product over every candidate would, so each kept row has that
    # product's bits.  Rows are mapped in drawn order: mapping all of them is
    # that very product.
    n_map = min(
        n_candidates, max(n_per_class, 2, math.ceil(nn.BLOCKED_GEMM_MACS / dim**2))
    )
    z = np.empty((n_candidates, dim))
    vectors = np.empty((queue.num_classes * n_per_class, dim))
    for cid in range(queue.num_classes):
        rng.standard_normal(out=z)
        # shared covariance: within one class, lowest log-likelihood is
        # exactly largest Mahalanobis distance, and for a draw mean + L z
        # with L L^T = cov that squared distance is exactly ||z||^2
        top = _top_n(np.einsum("ij,ij->i", z, z), n_map)
        mapped = np.sort(top)
        draws = z[mapped] @ model.cholesky.T
        draws += model.means[cid]
        kept = np.searchsorted(mapped, top[:n_per_class])
        vectors[cid * n_per_class : (cid + 1) * n_per_class] = draws[kept]
    return SynthBatch(
        vectors, class_ids=np.repeat(np.arange(queue.num_classes), n_per_class)
    )


def linear_mix(u_id: np.ndarray, u_fp: np.ndarray, rng: np.random.Generator) -> SynthBatch:
    """Midpoints 0.5 * u_id[i] + 0.5 * u_fp[j], i sequential, j uniform."""
    u_id = np.asarray(u_id, dtype=np.float64)
    u_fp = np.asarray(u_fp, dtype=np.float64)
    if u_id.ndim != 2 or u_id.shape[0] == 0:
        raise InputError("u_id must be a non-empty (M, D) matrix")
    if u_fp.size == 0:
        raise NotReadyError("no false-positive features collected; cannot mix")
    if u_fp.ndim != 2 or u_fp.shape[1] != u_id.shape[1]:
        raise InputError("u_fp must share the feature dimension of u_id")
    picks = rng.integers(0, u_fp.shape[0], size=u_id.shape[0])
    vectors = 0.5 * u_id + 0.5 * u_fp[picks]
    return SynthBatch(vectors)


def random_noise(m: int, d: int, rng: np.random.Generator) -> SynthBatch:
    """m x d matrix of N(0,1) draws."""
    if m <= 0 or d <= 0:
        raise InputError("m and d must be positive")
    return SynthBatch(rng.standard_normal((m, d)))


def noisy_id(u_id: np.ndarray, rng: np.random.Generator) -> SynthBatch:
    """Inlier rows plus element-wise U(0,1) noise."""
    u_id = np.asarray(u_id, dtype=np.float64)
    if u_id.ndim != 2 or u_id.shape[0] == 0:
        raise InputError("u_id must be a non-empty (M, D) matrix")
    vectors = u_id + rng.uniform(0.0, 1.0, size=u_id.shape)
    return SynthBatch(vectors)
