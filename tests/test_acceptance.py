"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.  Tolerances are pinned in the
assertions; nothing here is tuned to make a failing criterion look green.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import lsvos.nn as nn
from lsvos.features import FeatureQueue, append_one_hot
from lsvos.geometry import Box3D, iou_3d
from lsvos.metrics import aupr, auroc, fpr_at_tpr
from lsvos.models import ModelBundle
from lsvos.pipeline import ablate, desk_preset, run_experiment
from lsvos.scoring import ScoreSet, calibrate_tau
from lsvos.synthesis import NoiseSpec, latent_noise, lsvos_synthesize

from oracles import (
    exhaustive_aupr,
    finite_difference_gradients,
    max_relative_error,
    mc_iou_3d,
    pairwise_auroc,
    random_net_and_batch,
)


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num:2d} FAIL: {summary}")
        raise
    print(f"\nCRITERION {num:2d} PASS: {summary}")


def random_score_set(rng: np.random.Generator) -> ScoreSet:
    n_id = int(rng.integers(5, 150))
    n_ood = int(rng.integers(5, 150))
    # quantized scores force plenty of ties, including across classes
    levels = int(rng.integers(3, 40))
    id_scores = np.round(rng.normal(0.0, 1.0, n_id) * levels) / levels
    ood_scores = np.round(rng.normal(0.7, 1.2, n_ood) * levels) / levels
    scores = np.concatenate([id_scores, ood_scores])
    is_ood = np.concatenate([np.zeros(n_id, bool), np.ones(n_ood, bool)])
    return ScoreSet(scores, is_ood)


def oracle_fpr_at_tpr(scores: ScoreSet, target: float) -> float:
    # independent path: scan sorted candidate thresholds for the smallest
    # one accepting >= target of ID, then count OOD scores at or below it
    ids = np.sort(scores.id_scores)
    for tau in ids:
        if np.mean(scores.id_scores <= tau) >= target:
            return float(np.mean(scores.ood_scores <= tau))
    return float(np.mean(scores.ood_scores <= ids[-1]))


def test_criterion_01_metric_oracles():
    with criterion(1, "AUROC/AUPR/FPR95 match brute-force oracles within 1e-9"):
        rng = np.random.default_rng(202401)
        started = time.monotonic()
        for _ in range(100):
            ss = random_score_set(rng)
            assert ss.scores.size <= 300
            got = auroc(ss)
            want = pairwise_auroc(ss.id_scores, ss.ood_scores)
            assert abs(got - want) < 1e-9
            for positive in ("id", "ood"):
                got = aupr(ss, positive=positive)
                mask = ~ss.is_ood if positive == "id" else ss.is_ood
                oriented = -ss.scores if positive == "id" else ss.scores
                want = exhaustive_aupr(oriented, mask)
                assert abs(got - want) < 1e-9
            got = fpr_at_tpr(ss, 0.95)
            want = oracle_fpr_at_tpr(ss, 0.95)
            assert abs(got - want) < 1e-9
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_02_gradient_correctness():
    with criterion(2, "analytic gradients match central differences < 1e-4 rel"):
        rng = np.random.default_rng(77)
        checked = 0
        for loss_kind in ("mse", "uncertainty-sigmoid", "cross-entropy"):
            for _ in range(7):
                net, x, targets = random_net_and_batch(rng, loss_kind)
                _, analytic = nn.gradients(net, x, loss_kind, targets)
                numeric = finite_difference_gradients(net, x, loss_kind, targets)
                assert max_relative_error(analytic, numeric) < 1e-4
                checked += 1
        assert checked >= 20


def random_box(rng: np.random.Generator) -> Box3D:
    center = (
        float(rng.uniform(-1.5, 1.5)),
        float(rng.uniform(-1.5, 1.5)),
        float(rng.uniform(-0.5, 0.5)),
    )
    size = tuple(float(rng.uniform(1.0, 4.0)) for _ in range(3))
    return Box3D(center, size, float(rng.uniform(-math.pi, math.pi)))


def test_criterion_03_iou_oracle():
    with criterion(3, "iou_3d within 0.005 of 1e6-point MC; axis-aligned exact"):
        rng = np.random.default_rng(31415)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            got = iou_3d(a, b)
            ta = (*a.center, *a.size, a.yaw)
            tb = (*b.center, *b.size, b.yaw)
            want = mc_iou_3d(ta, tb, 10**6, rng)
            assert abs(got - want) <= 0.005, f"{got} vs MC {want}"
        # axis-aligned unit cubes offset by half: overlap 0.5, union 1.5
        a = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
        b = Box3D((0.5, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
        assert abs(iou_3d(a, b) - (0.5 / 1.5)) < 1e-12
        assert abs(iou_3d(a, a) - 1.0) < 1e-12
        c = Box3D((2.5, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
        assert iou_3d(a, c) == 0.0


def test_criterion_04_uncertainty_beats_baseline():
    with criterion(
        4, "desk preset, 5 seeds: uncertainty AUROC >= 0.90 and > default score"
    ):
        unc_scores, base_scores = [], []
        for seed in range(5):
            started = time.monotonic()
            result = run_experiment(replace(desk_preset(), seed=seed))
            elapsed = time.monotonic() - started
            assert elapsed < 120.0, f"run took {elapsed:.0f}s"
            unc_scores.append(result.report.methods["uncertainty"].auroc)
            base_scores.append(result.report.methods["default_score"].auroc)
        mean_unc = float(np.mean(unc_scores))
        mean_base = float(np.mean(base_scores))
        assert mean_unc >= 0.90, f"uncertainty AUROC {mean_unc:.4f}"
        assert mean_unc > mean_base, f"{mean_unc:.4f} vs baseline {mean_base:.4f}"


def test_criterion_05_noise_contract():
    with criterion(
        5, "noise components in [0.25, 1.25]; beta=0 bitwise; ||o|| grows with beta"
    ):
        rng = np.random.default_rng(5)
        sample = latent_noise((4000, 32), NoiseSpec(alpha=0.25, beta=1.0), rng)
        assert sample.min() >= 0.25
        assert sample.max() <= 1.25
        bundle = ModelBundle.build(12, 3, np.random.default_rng(0), latent_dim=6,
                                   encoder_hidden=(16,), decoder_hidden=(16,),
                                   uncertainty_hidden=(16,), classifier_hidden=(16,))
        u = np.random.default_rng(1).normal(size=(40, 12))
        cls = np.arange(40) % 3
        batch = lsvos_synthesize(bundle, u, cls, NoiseSpec(0.25, 0.0), rng)
        codes = nn.forward(bundle.encoder, append_one_hot(u, cls, 3))
        plain = nn.forward(bundle.decoder, codes)
        assert np.array_equal(batch.vectors, plain)
        norms = []
        for beta in (0.1, 1.0, 10.0):
            o = latent_noise((4000, 32), NoiseSpec(0.25, beta), np.random.default_rng(9))
            norms.append(float(np.linalg.norm(o, axis=1).mean()))
        assert norms[0] < norms[1] < norms[2]


def test_criterion_06_tau_calibration():
    with criterion(6, "TPR in [0.95, 0.95 + 1/N]; hand fpr case exactly 0.45"):
        rng = np.random.default_rng(606)
        for n_id in (100, 137, 250, 991):
            for _ in range(5):
                id_scores = rng.normal(size=n_id)
                thr = calibrate_tau(id_scores, 0.95)
                tpr = float(np.mean(id_scores <= thr.tau))
                assert 0.95 <= tpr <= 0.95 + 1.0 / n_id, (n_id, tpr)
        ss = ScoreSet(
            np.concatenate([np.arange(1.0, 101.0), np.arange(51.0, 151.0)]),
            np.concatenate([np.zeros(100, bool), np.ones(100, bool)]),
        )
        assert fpr_at_tpr(ss, 0.95) == 0.45


def test_criterion_07_queue_semantics():
    with criterion(7, "1500 pushes into capacity 1000 keep the last 1000 in order"):
        queue = FeatureQueue(dim=2, num_classes=1, capacity_per_class=1000)
        vectors = np.column_stack([np.arange(1500.0), np.zeros(1500)])
        queue.push_many(vectors, np.zeros(1500, dtype=np.int64))
        assert queue.occupancy() == [1000]
        snap = queue.snapshot(0)
        assert snap.shape == (1000, 3)
        assert np.array_equal(snap[:, 0], np.arange(500.0, 1500.0))


MICRO = dict(
    data_dim=8,
    data_classes=3,
    data_n_id_train=400,
    data_n_fp_train=150,
    data_n_id_val=200,
    data_n_fp_val=100,
    model_latent_dim=8,
    model_encoder_hidden=(32,),
    model_decoder_hidden=(32,),
    model_uncertainty_hidden=(32,),
    model_classifier_hidden=(16,),
    train_phase1_epochs=2,
    train_phase2_epochs=2,
    train_batch_size=128,
    queue_capacity=300,
    sample_n_per_class=60,
    seed=4,
)


def micro_cfg(**overrides):
    from lsvos.pipeline import ExperimentConfig

    merged = {**MICRO, **overrides}
    return ExperimentConfig(**merged)


def test_criterion_08_lambda_zero_isolation():
    with criterion(8, "full phase-2 run with lambda=0 leaves head params bitwise"):
        cfg = micro_cfg(loss_lambda=0.0)
        result = run_experiment(cfg)
        assert any(row["phase"] == 2 for row in result.history)
        fresh = ModelBundle.build(
            cfg.data_dim,
            cfg.data_classes,
            np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])),
            latent_dim=cfg.model_latent_dim,
            encoder_hidden=cfg.model_encoder_hidden,
            decoder_hidden=cfg.model_decoder_hidden,
            uncertainty_hidden=cfg.model_uncertainty_hidden,
            classifier_hidden=cfg.model_classifier_hidden,
        )
        pairs = zip(
            nn.parameters(result.bundle.uncertainty),
            nn.parameters(fresh.uncertainty),
        )
        assert all(np.array_equal(a, b) for a, b in pairs)
        # the auto-encoder, by contrast, must have moved
        moved = zip(
            nn.parameters(result.bundle.encoder),
            nn.parameters(fresh.encoder),
        )
        assert not all(np.array_equal(a, b) for a, b in moved)


def test_criterion_09_determinism(tmp_path):
    with criterion(9, "same config+seed give byte-identical reports and checkpoints"):
        cfg = micro_cfg()
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        report_a = (tmp_path / "a" / "report.json").read_bytes()
        report_b = (tmp_path / "b" / "report.json").read_bytes()
        assert report_a == report_b
        ckpt_a = (tmp_path / "a" / "model.ckpt").read_bytes()
        ckpt_b = (tmp_path / "b" / "model.ckpt").read_bytes()
        assert ckpt_a == ckpt_b


def test_criterion_10_ablation_grids(tmp_path):
    with criterion(10, "standard noise and lambda grids sweep to completion with tables"):
        base = micro_cfg(train_phase1_epochs=1, train_phase2_epochs=1)
        noise_grid = [
            {"noise.alpha": a, "noise.beta": b}
            for a, b in (
                ("0", "0.1"),
                ("0", "0.5"),
                ("0", "1"),
                ("0.25", "1"),
                ("0.25", "5"),
                ("0.25", "10"),
            )
        ]
        noise_rows = ablate(base, noise_grid, out_dir=tmp_path / "noise")
        assert [row["status"] for row in noise_rows] == ["ok"] * 6
        lambda_grid = [{"loss.lambda": v} for v in ("0.1", "0.5", "1", "2", "5")]
        lambda_rows = ablate(base, lambda_grid, out_dir=tmp_path / "lambda")
        assert [row["status"] for row in lambda_rows] == ["ok"] * 5
        for sub, n_rows in (("noise", 6), ("lambda", 5)):
            table = (tmp_path / sub / "ablation.csv").read_text().splitlines()
            assert len(table) == n_rows + 1
            assert (tmp_path / sub / "ablation.json").is_file()
        swept = [row["overrides"] for row in noise_rows]
        assert {"noise.alpha": "0.25", "noise.beta": "10"} in swept
