"""
A tour of the virtual outlier synthesizers
===========================================

Trains the preset pipeline once to obtain a fitted auto-encoder, then
generates virtual outliers with every available method and compares how
far each one lands from the inlier class centers.
"""

import numpy as np

from lsvos import nn
from lsvos.datagen import generate_features
from lsvos.features import FeatureQueue, Label, append_one_hot
from lsvos.pipeline import desk_preset, generator_spec, run_experiment
from lsvos.synthesis import (
    METHODS,
    NoiseSpec,
    linear_mix,
    lsvos_synthesize,
    noisy_id,
    random_noise,
    vos_synthesize,
)

# One quick training run gives us a fitted model: a bundle of four nets.
# Its encoder and decoder are the conditional auto-encoder that latent-
# noise synthesis perturbs; the uncertainty head and classifier are not
# used here.
cfg = desk_preset()
result = run_experiment(cfg)
bundle = result.bundle
print("reconstruction-phase steps:", sum(row["phase"] == 1 for row in result.history),
      "| feature dim", bundle.feature_dim, "| latent dim", bundle.latent_dim)

# Pull real inlier and false-positive features from the same generator
# the pipeline used.
spec = generator_spec(cfg)
train, _ = generate_features(spec)
u_id, id_classes = train.select(Label.ID)
u_fp, _ = train.select(Label.FP)
u_id, id_classes = u_id[:600], id_classes[:600]
means = spec.means()


def mean_center_distance(rows, class_ids):
    """Average distance of each row from its own class center."""
    return float(np.linalg.norm(rows - means[class_ids], axis=1).mean())


rng = np.random.default_rng(7)
print("\nreference: real inliers sit at",
      f"{mean_center_distance(u_id, id_classes):.2f}",
      "from their class centers")

# Method 1: latent-noise synthesis.  Encode the inlier, push the code
# off the manifold with a strictly positive noise vector, decode.  The
# offset magnitude is controlled by beta; alpha sets the noise floor.
print("\nlatent-noise synthesis at increasing beta:")
for beta in (0.0, 0.5, 1.0, 5.0):
    batch = lsvos_synthesize(bundle, u_id, id_classes, NoiseSpec(alpha=0.25, beta=beta), rng)
    print(f"  beta={beta:<4}  center distance {mean_center_distance(batch.vectors, batch.class_ids):6.2f}")

# beta = 0 adds nothing in the latent space, so the output is exactly
# the auto-encoder's reconstruction of the same rows: the decoder run on
# the encoder's codes of the class-augmented rows.
codes = nn.forward(bundle.encoder, append_one_hot(u_id, id_classes, bundle.num_classes))
plain = nn.forward(bundle.decoder, codes)
zero = lsvos_synthesize(bundle, u_id, id_classes, NoiseSpec(alpha=0.25, beta=0.0), rng)
print("beta=0 equals plain reconstruction bit for bit:",
      np.array_equal(zero.vectors, plain))

# The latent codes themselves live in a much smaller space.
print("latent codes shape:", codes.shape)

# Method 2: feature-space Gaussian sampling.  Fit class Gaussians to the
# queue contents and keep only the lowest-likelihood candidate draws;
# the quantile guard refuses to keep more than the tail it was asked for.
queue = FeatureQueue(dim=spec.dim, num_classes=spec.num_classes, capacity_per_class=1000)
queue.push_many(u_id, id_classes)
vos_args = dict(n_per_class=100, quantile=0.03, n_candidates=5000)
vos = vos_synthesize(queue, **vos_args, rng=rng)
print(f"\nfeature-space gaussian tail: {mean_center_distance(vos.vectors, vos.class_ids):6.2f}")

# Methods 3 to 5: simple baselines.  Mixing toward real false positives,
# unit Gaussian noise, and inliers with additive jitter.
mix = linear_mix(u_id, u_fp[: len(u_id)], rng=rng)
noise = random_noise(300, spec.dim, rng)
jitter = noisy_id(u_id, rng)
print("linear mix toward FPs:", f"{np.linalg.norm(mix.vectors - means[0], axis=1).mean():.2f} from class 0 center")
print("pure noise rows:", noise.vectors.shape, "| jittered inliers:", jitter.vectors.shape)

# A batch holds only its rows (and their classes, when each row came from
# one); the arguments that made it are the caller's to keep.
print("\nmethods available:", METHODS)
print("vos batch:", vos.vectors.shape, "| made with:", vos_args)
