"""The benchmark's workloads: inputs made from a seed, the command run on them,
the checks its output must pass, and the functions it is predicted to call.

Why these three (see README.md for the interaction table):

* ``train-desk`` is the README quickstart, ``lsvos train`` on the desk
  preset with latent-space synthesis.  Its time goes to ``nn``/``models``
  backprop and the feature queue.
* ``train-vos`` is the same command with ``--set synth.method=vos``.  The
  same training loop runs, but the outliers come from Gaussian refits and a
  Mahalanobis ranking of 10k candidates per class, so ``synthesis`` and
  ``scoring`` dominate instead.
* ``eval-large`` is ``lsvos evaluate --checkpoint --data`` on a val split of
  10^5 rows: file load, ``select``, inference-only ``nn``, Mahalanobis
  scoring and the metric sweeps, and no training.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

from lsvos import datagen
from lsvos.features import save_features
from lsvos.pipeline import SCORER_NAMES, desk_preset, format_config, run_experiment

WORKLOADS = ("train-desk", "train-vos", "eval-large")

# eval-large val split: 10^5 rows at the desk preset's ID:FP ratio.  At
# 2.7x this size one run takes ~17 s and 1.5 GB peak RSS on a 2-core box.
EVAL_VAL_ID = 75_000
EVAL_VAL_FP = 25_000

_TRAINING = (
    "pipeline.run_experiment",
    "nn.forward_cached",
    "nn.backward",
    "nn.adam_step",
    "nn.save_checkpoint",
    "models.ae_gradients",
    "models.classifier_gradients",
    "models.uncertainty_gradients",
    "features.FeatureQueue.push_many",
    "features.FeatureQueue.sample",
    "scoring.save_scores",
    "metrics.EvaluationReport.to_json",
)
_EVALUATION = (
    "cli.main",
    "pipeline.evaluate_bundle",
    "nn.forward",
    "models.uncertainty_score",
    "models.softmax_probs",
    "features.load_features",
    "features.FeatureDataset.select",
    "scoring.fit_gaussian_model",
    "scoring.mahalanobis_score",
    "metrics.build_report",
    "metrics.auroc",
    "metrics.aupr",
    "metrics.roc_points",
    "metrics.ece",
)

# Functions each workload must call at least once in a traced run; a
# traced run in which one of them records 0 calls fails.
PREDICTED = {
    "train-desk": _EVALUATION + _TRAINING + ("synthesis.lsvos_synthesize",),
    "train-vos": _EVALUATION
    + _TRAINING
    + ("synthesis.vos_synthesize", "features.FeatureQueue.snapshot"),
    "eval-large": _EVALUATION + ("nn.load_checkpoint",),
}


def make_inputs(workload: str, seed: int, inputs: Path, **data_sizes) -> dict:
    """Write the workload's inputs under ``inputs`` and return its plan.

    The plan holds the argv for ``lsvos.cli.main`` and the row counts its
    report must show.  Paths in the argv are relative to the working
    directory, so the report (whose config hash covers the dataset path)
    does not depend on where the checkout lives.  ``data_sizes`` overrides
    GeneratorSpec split sizes (tests use it to shrink the inputs).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if inputs.exists():
        shutil.rmtree(inputs)
    data = inputs / "data"
    data.mkdir(parents=True)
    cfg = replace(desk_preset(), seed=seed)
    sizes = dict(
        n_id_train=cfg.data_n_id_train,
        n_fp_train=cfg.data_n_fp_train,
        n_id_val=EVAL_VAL_ID if workload == "eval-large" else cfg.data_n_id_val,
        n_fp_val=EVAL_VAL_FP if workload == "eval-large" else cfg.data_n_fp_val,
    )
    sizes.update(data_sizes)
    spec = datagen.GeneratorSpec(
        dim=cfg.data_dim,
        num_classes=cfg.data_classes,
        class_separation=cfg.data_class_separation,
        cov_scale=cfg.data_cov_scale,
        fp_overlap=cfg.data_fp_overlap,
        fp_displacement=cfg.data_fp_displacement,
        seed=seed,
        **sizes,
    )
    # called through the module so that a traced set-up sees the call
    train, val = datagen.generate_features(spec)
    save_features(data / "train.vosf", train)
    save_features(data / "val.vosf", val)
    if workload == "eval-large":
        # the checkpoint comes from a desk run on the same seed, whose
        # in-memory train split matches train.vosf up to float32 rounding
        ckpt_cfg = replace(
            cfg,
            data_n_id_train=sizes["n_id_train"],
            data_n_fp_train=sizes["n_fp_train"],
        )
        run_experiment(ckpt_cfg, out_dir=inputs / "checkpoint")
        argv = ["evaluate", "--checkpoint", str(inputs / "checkpoint" / "model.ckpt"),
                "--data", str(data)]
    else:
        config = inputs / "config.txt"
        config.write_text(format_config(replace(cfg, dataset=str(data))))
        argv = ["train", "--config", str(config), "--out", str(inputs.parent / "out")]
        if workload == "train-vos":
            argv += ["--set", "synth.method=vos"]
    plan = {
        "argv": argv,
        "n_id": sizes["n_id_val"],
        "n_ood": sizes["n_fp_val"],
        "scorers": len(SCORER_NAMES),
    }
    (inputs / "plan.json").write_text(json.dumps(plan, indent=2) + "\n")
    return plan


def report_problems(workload: str, report, plan: dict) -> list[str]:
    """Reasons the report is wrong; empty when it passes the gate."""
    problems = []
    if set(report.methods) != set(SCORER_NAMES):
        problems.append(f"methods {sorted(report.methods)} != {sorted(SCORER_NAMES)}")
    for name, block in report.methods.items():
        for field in ("auroc", "aupr_id", "aupr_ood", "fpr95", "ece"):
            value = getattr(block, field)
            if value is not None and not 0.0 <= value <= 1.0:
                problems.append(f"{name}.{field} = {value} outside [0, 1]")
    if (report.n_id, report.n_ood) != (plan["n_id"], plan["n_ood"]):
        problems.append(
            f"counts {report.n_id} ID / {report.n_ood} OOD, "
            f"expected {plan['n_id']} / {plan['n_ood']}"
        )
    if workload.startswith("train-") and not problems:
        unc = report.methods["uncertainty"].auroc
        base = report.methods["default_score"].auroc
        if not unc > base:
            problems.append(f"uncertainty AUROC {unc} not above default_score {base}")
    return problems
