"""Tests of the benchmark's tracer, counters and gate on shrunken inputs.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lsvos
import lsvos.cli
import lsvos.metrics
import lsvos.models
import lsvos.pipeline
import lsvos.scoring
import lsvos.synthesis
import run
import worker
from tracer import TRACED_NAMES, Tracer
from workloads import PREDICTED, WORKLOADS, make_inputs, report_problems

BENCH = Path(run.__file__).resolve().parent
SMALL = dict(n_id_train=600, n_fp_train=200, n_id_val=300, n_fp_val=100)
# desk preset: 10 + 4 epochs of ceil(600 / 512) = 2 steps
SMALL_STEPS = 28


def _run(workload, root: Path, tracer=None):
    plan = make_inputs(workload, 3, root / "inputs", **SMALL)
    seconds, blob, report, error = worker._run_once(plan["argv"], root / "out", tracer)
    assert error is None, error
    return plan, blob, report


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per workload: two traced runs and one untraced run at one seed.

    Each run makes its inputs afresh in the same directory, since the
    train report's config hash covers the dataset path.
    """
    out = {}
    for workload in WORKLOADS:
        root = tmp_path_factory.mktemp(workload)
        runs = []
        for tracer in (Tracer(), Tracer(), None):
            _, blob, report = _run(workload, root, tracer)
            runs.append((tracer, blob, report))
        out[workload] = runs
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_at_the_same_seed(traced, workload):
    (first, _, _), (second, _, _), _ = traced[workload]
    assert first.counts == second.counts
    assert {n: s.calls for n, s in first.stats.items()} == {
        n: s.calls for n, s in second.stats.items()
    }
    assert len(first.step_ms) == len(second.step_ms)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_predicted_functions_are_called(traced, workload):
    tracer = traced[workload][0][0]
    assert [n for n in PREDICTED[workload] if tracer.stats[n].calls == 0] == []


def test_named_counts_are_exercised(traced):
    desk = traced["train-desk"][0][0].counts
    vos = traced["train-vos"][0][0].counts
    ev = traced["eval-large"][0][0].counts
    assert desk["queue.rows_copied"] > desk["queue.rows_returned"] > 0
    assert desk["metrics.to_json.bytes"] > 0 and desk["features.load_features.bytes"] > 0
    assert vos["vos.candidates"] > vos["vos.rows_kept"] > 0
    assert desk["vos.candidates"] == 0
    assert ev["metrics.to_json.bytes"] == 0  # evaluate prints, never serializes
    assert ev["scoring.mahalanobis_score.rows"] == 400


def test_flop_count_follows_layer_shapes(traced):
    # evaluate runs the head on all 400 val rows and the classifier on all
    # rows plus the 300 ID rows: 2 * rows * sum(fan_in * fan_out)
    head = 64 * 128 + 128 * 128 + 128 * 1
    clf = 64 * 64 + 64 * 3
    assert traced["eval-large"][0][0].counts["nn.flop"] == 2 * 400 * head + 2 * 700 * clf


def test_steps_are_push_intervals_closed_by_evaluation(traced):
    tracer = traced["train-desk"][0][0]
    assert len(tracer.step_ms) == SMALL_STEPS
    # one more push fills the queue for the run dir's PCA plot
    assert tracer.stats["features.FeatureQueue.push_many"].calls == SMALL_STEPS + 1
    assert traced["eval-large"][0][0].step_ms == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_partition_the_command(traced, workload):
    stats = traced[workload][0][0].stats
    for name, s in stats.items():
        assert 0.0 <= s.self_s <= s.total_s + 1e-9, name
    root = stats["cli.main"].total_s
    assert sum(s.self_s for s in stats.values()) == pytest.approx(root, rel=1e-6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_the_report_unchanged(traced, workload):
    (_, traced1, _), (_, traced2, _), (_, plain, _) = traced[workload]
    assert traced1 == traced2 == plain


def test_every_binding_is_wrapped_then_restored():
    modules = (lsvos, lsvos.cli, lsvos.pipeline, lsvos.synthesis)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    originals = {
        "models.ae_gradients": lsvos.models.ae_gradients,
        "scoring.fit_gaussian_model": lsvos.scoring.fit_gaussian_model,
        "metrics.build_report": lsvos.metrics.build_report,
        "pipeline.run_experiment": lsvos.pipeline.run_experiment,
        "pipeline.evaluate_bundle": lsvos.pipeline.evaluate_bundle,
    }
    with Tracer().installed():
        assert lsvos.pipeline.ae_gradients is lsvos.models.ae_gradients
        assert lsvos.synthesis.fit_gaussian_model is lsvos.scoring.fit_gaussian_model
        assert lsvos.pipeline.fit_gaussian_model is lsvos.scoring.fit_gaussian_model
        assert lsvos.cli.build_report is lsvos.pipeline.build_report is lsvos.metrics.build_report
        assert lsvos.cli.run_experiment is lsvos.pipeline.run_experiment is lsvos.run_experiment
        assert lsvos.cli.evaluate_bundle is lsvos.pipeline.evaluate_bundle is lsvos.evaluate_bundle
        for name, fn in originals.items():
            layer, attr = name.split(".")
            wrapped = getattr(getattr(lsvos, layer), attr)
            assert wrapped is not fn and wrapped.__wrapped__ is fn
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert lsvos.features.np is __import__("numpy")


def test_gate_rejects_a_wrong_report(traced):
    _, _, report = traced["train-desk"][0]
    plan = {"n_id": 300, "n_ood": 100}
    assert report_problems("train-desk", report, plan) == []
    assert report_problems("train-desk", report, {"n_id": 301, "n_ood": 100})
    worse = dataclasses.replace(report.methods["uncertainty"], auroc=0.1)
    tampered = dataclasses.replace(report, methods={**report.methods, "uncertainty": worse})
    assert report_problems("train-desk", tampered, plan)
    assert report_problems("eval-large", tampered, plan) == []


def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_specs()
    assert {n.rsplit(".", 1)[0] for n, _, _ in run.per_layer_specs() if n.endswith(".calls")} == set(
        TRACED_NAMES
    )


def test_fails_without_a_package_to_measure(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
