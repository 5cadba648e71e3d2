"""
Ablation sweeps over noise strength and loss weight
====================================================

Expands "key=v1,v2" sweep specs into a cartesian grid of override
dicts, retrains at every grid point, and tabulates how the uncertainty
head's separation reacts.  Shrinks the preset schedule first so the
whole grid runs in a few seconds.
"""

import tempfile
from pathlib import Path

from lsvos.pipeline import ablate, apply_overrides, desk_preset, sweep_from_specs

# A sweep spec is one config key with a comma-separated value list.
# Two specs multiply out into a grid.
sweep = sweep_from_specs(["noise.beta=0.1,1.0,5.0", "loss.lambda=0.5,2.0"])
print("grid points:", len(sweep))
for point in sweep:
    print("  ", point)

# Thin the training schedule so each grid point is fast; ablations
# inherit everything else (data, model sizes, seed) from this base.
base = apply_overrides(desk_preset(), {
    "train.phase1_epochs": "20",
    "train.phase2_epochs": "8",
    "data.n_id_train": "3000",
    "data.n_fp_train": "1000",
})

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "sweep"
    rows = ablate(base, sweep, out)

    # Each row records its overrides, a status, and the per-method
    # metrics for runs that finished.  Failed points are recorded and
    # skipped, never fatal to the rest of the grid.
    print(f"\n{'beta':>6} {'lambda':>7} {'status':>7} {'unc auroc':>10} {'fpr95':>7}")
    for row in rows:
        unc = row["metrics"]["uncertainty"] if row["status"] == "ok" else None
        auroc = f"{unc['auroc']:10.4f}" if unc else " " * 10
        fpr = f"{unc['fpr95']:7.4f}" if unc else " " * 7
        print(f"{row['overrides']['noise.beta']:>6} {row['overrides']['loss.lambda']:>7}"
              f" {row['status']:>7} {auroc} {fpr}")

    # The grid also lands on disk as JSON, a flat CSV, and one full run
    # directory per point.
    print("\nsweep artifacts:")
    for path in sorted(out.iterdir()):
        print("  ", path.name)
