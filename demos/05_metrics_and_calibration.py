"""
Separation metrics and operating-point calibration
===================================================

Builds two score distributions with a known overlap, walks through
AUROC, both AUPR orientations, FPR at 95% TPR, and expected calibration
error, then calibrates a deployment threshold on inliers alone.
"""

import numpy as np

from lsvos.metrics import aupr, auroc, ece, fpr_at_tpr, roc_points
from lsvos.scoring import ScoreSet, calibrate_tau, classify

rng = np.random.default_rng(42)

# Scores are oriented so that higher means more anomalous.  Inliers
# score around 0, outliers around 2, with unit spread: solid but
# imperfect separation.  All metrics consume a ScoreSet, which binds
# the scores to their labels; a scorer that reports a probability may
# also carry its ECE there (ece=...), as the pipeline's scorers do.
id_scores = rng.normal(0.0, 1.0, size=4000)
ood_scores = rng.normal(2.0, 1.0, size=1000)
ss = ScoreSet(
    scores=np.concatenate([id_scores, ood_scores]),
    is_ood=np.concatenate([np.zeros(4000, bool), np.ones(1000, bool)]),
)

# AUROC is the probability a random outlier outscores a random inlier.
# For two unit Gaussians 2 apart the closed form is Phi(2/sqrt(2)).
print("auroc:", round(auroc(ss), 4), "(theory ~0.9214 for this overlap)")

# AUPR depends on which side is treated as the positive class, so both
# orientations are reported.  The ID side dominates here because
# inliers outnumber outliers four to one.
print("aupr positive=id: ", round(aupr(ss, positive="id"), 4))
print("aupr positive=ood:", round(aupr(ss, positive="ood"), 4))

# FPR at 95% TPR: fraction of outliers still accepted when the
# threshold is set to keep 95% of inliers.
print("fpr at 95% tpr:", round(fpr_at_tpr(ss, tpr=0.95), 4))

# The ROC curve itself is available for plotting.
curve = roc_points(ss)
print("roc curve:", len(curve["fpr"]), "points,",
      "fpr", curve["fpr"][0], "->", curve["fpr"][-1],
      "tpr", curve["tpr"][0], "->", curve["tpr"][-1])

# Expected calibration error bins predictions by stated confidence and
# compares each bin's confidence to its actual accuracy.  A perfectly
# calibrated predictor has ECE near 0; an overconfident one does not.
conf = rng.uniform(0.5, 1.0, size=5000)
correct_calibrated = rng.uniform(size=5000) < conf
correct_overconfident = rng.uniform(size=5000) < conf - 0.2
print("\nece, calibrated predictor:   ", round(ece(conf, correct_calibrated), 4))
print("ece, overconfident predictor:", round(ece(conf, correct_overconfident), 4))

# Deployment: pick the score threshold tau from inlier scores alone so
# that 95% of inliers fall below it, then classify new detections.
threshold = calibrate_tau(id_scores, target_tpr=0.95)
print(f"\ntau = {threshold.tau:.4f} from {threshold.calibration_size} inlier scores")

flags = classify(ss.scores, threshold)
kept_id = 1.0 - flags[~ss.is_ood].mean()
caught_ood = flags[ss.is_ood].mean()
print(f"inliers kept: {kept_id:.4f} (target 0.95) | outliers flagged: {caught_ood:.4f}")
