import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lsvos import cli, nn
from lsvos.cli import main
from lsvos.datagen import generate_features
from lsvos.features import save_features
from lsvos.models import ModelBundle
from lsvos.pipeline import ExperimentConfig, format_config, generator_spec, load_config

REPO_ROOT = Path(__file__).resolve().parents[1]

GEN_SMALL = [
    "--set", "data.dim=8", "--set", "data.classes=3",
    "--set", "data.n_id_train=200", "--set", "data.n_fp_train=80",
    "--set", "data.n_id_val=100", "--set", "data.n_fp_val=50",
]


def micro_config_text(**overrides):
    base = dict(
        data_dim=8,
        data_classes=3,
        data_n_id_train=300,
        data_n_fp_train=120,
        data_n_id_val=150,
        data_n_fp_val=80,
        model_latent_dim=8,
        model_encoder_hidden=(32,),
        model_decoder_hidden=(32,),
        model_uncertainty_hidden=(32,),
        model_classifier_hidden=(16,),
        train_phase1_epochs=1,
        train_phase2_epochs=1,
        train_batch_size=128,
        queue_capacity=200,
        sample_n_per_class=50,
        seed=5,
    )
    base.update(overrides)
    return format_config(ExperimentConfig(**base))


def sha256_tree(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestGenerate:
    def test_writes_files_and_summary(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main(["generate", "--set", "seed=7", "--out", str(out), *GEN_SMALL])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["train.vosf", "val.vosf"]
        stdout = capsys.readouterr().out
        assert "train: 280 rows (ID 200, FP 80)" in stdout
        assert "val: 150 rows (ID 100, FP 50)" in stdout

    def test_same_seed_identical_checksums(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--set", "seed=7", "--out", str(a), *GEN_SMALL]) == 0
        assert main(["generate", "--set", "seed=7", "--out", str(b), *GEN_SMALL]) == 0
        assert sha256_tree(a) == sha256_tree(b)

    def test_generated_feature_files_are_pinned(self, tmp_path):
        # the wire bytes of a small generate run; a change here changes
        # every .vosf file the generator writes
        out = tmp_path / "gen"
        assert main(["generate", "--set", "seed=7", "--out", str(out), *GEN_SMALL]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("train.vosf", "val.vosf")
        }
        assert digests == {
            "train.vosf": "4300433ca379f4db901c37319790c2b3858d1482ac1a7e1fbbc16f96c0dbd3f3",
            "val.vosf": "efd4802e7208385ce7d2dacef17770a29023e1644e659b5e6f87b3cb3446e333",
        }

    def test_different_seed_changes_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--set", "seed=7", "--out", str(a), *GEN_SMALL]) == 0
        assert main(["generate", "--set", "seed=8", "--out", str(b), *GEN_SMALL]) == 0
        assert sha256_tree(a) != sha256_tree(b)

    def test_fp_overlap_out_of_range_fails(self, tmp_path, capsys):
        code = main(
            ["generate", "--set", "data.fp_overlap=1.2", "--out", str(tmp_path / "x"), *GEN_SMALL]
        )
        assert code == 1
        assert "fp_overlap" in capsys.readouterr().err

    def test_features_past_float32_fail_without_a_file(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main(
            ["generate", "--set", "data.fp_displacement=1e39", "--out", str(out), *GEN_SMALL]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not list(out.glob("*.vosf"))

    def test_unwritable_path_fails(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["generate", "--out", str(blocker / "sub"), *GEN_SMALL])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_file_gives_the_generator_files(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(micro_config_text(data_fp_overlap=0.25, data_cov_scale=2.0))
        out = tmp_path / "gen"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        train, val = generate_features(generator_spec(load_config(cfg_path)))
        save_features(tmp_path / "train.vosf", train)
        save_features(tmp_path / "val.vosf", val)
        for name in ("train.vosf", "val.vosf"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_env_var_default_output_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LSVOS_OUT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--set", "seed=1", *GEN_SMALL]) == 0
        assert (tmp_path / "root" / "generate" / "train.vosf").is_file()


class TestTrain:
    def test_dry_run_validates_without_artifacts(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(micro_config_text())
        out = tmp_path / "run"
        code = main(
            [
                "train", "--config", str(cfg_path),
                "--set", "loss.lambda=2.5",
                "--out", str(out), "--dry-run",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "config ok" in stdout
        assert "loss.lambda = 2.5" in stdout
        assert not out.exists()

    def test_full_run_prints_table_and_writes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(micro_config_text())
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "method" in stdout and "AUROC" in stdout and "FPR95" in stdout
        for name in ("uncertainty", "default_score", "mahalanobis"):
            assert name in stdout
        assert (out / "report.json").is_file()
        assert (out / "manifest.json").is_file()

    def test_unknown_config_key_lists_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("seed = 1\nwhatsthis = 2\n")
        code = main(["train", "--config", str(cfg_path), "--dry-run"])
        assert code == 1
        assert "whatsthis" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override", ["data.cov_scale=0", "data.dim=4", "data.class_separation=-1", "seed=-1"]
    )
    def test_dry_run_rejects_what_the_generator_rejects(self, override, capsys):
        code = main(["train", "--set", override, "--dry-run"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_dry_run_refuses_lsvos_synthesis_without_phase_1(self, capsys):
        # the desk preset synthesizes with LS-VOS in phase 2
        code = main(["train", "--set", "train.phase1_epochs=0", "--dry-run"])
        assert code == 1
        out, err = capsys.readouterr()
        assert "error:" in err and "train.phase1_epochs" in err
        assert "config ok" not in out

    @pytest.mark.parametrize(
        "path", ["/tmp/run#2", "runs/a\nseed = 5", "runs/a\u2028b"]
    )
    def test_dry_run_refuses_a_dataset_path_config_txt_cannot_hold(self, path, capsys):
        # config.txt would read these back as another path, with another hash
        code = main(["train", "--set", f"dataset={path}", "--dry-run"])
        assert code == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: dataset must be") and "config ok" not in out

    def test_bad_set_flag_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(micro_config_text())
        code = main(["train", "--config", str(cfg_path), "--set", "bogus=1", "--dry-run"])
        assert code == 1
        assert "bogus" in capsys.readouterr().err


class TestEvaluateAndReport:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(micro_config_text())
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        return out

    def test_evaluate_checkpoint_mode(self, run_dir, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["generate", "--set", "seed=5", "--out", str(data), *GEN_SMALL]) == 0
        capsys.readouterr()
        code = main(
            [
                "evaluate",
                "--checkpoint", str(run_dir / "model.ckpt"),
                "--data", str(data),
                "--methods", "uncertainty,mahalanobis",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "uncertainty" in stdout
        assert "default_score" not in stdout

    @pytest.mark.parametrize(
        "methods, message",
        [("uncertainty,uncertainty", "repeat"), ("uncertainty,bogus", "bogus")],
    )
    def test_evaluate_checkpoint_mode_checks_methods(
        self, run_dir, tmp_path, methods, message, capsys
    ):
        data = tmp_path / "data"
        assert main(["generate", "--set", "seed=5", "--out", str(data), *GEN_SMALL]) == 0
        code = main(
            [
                "evaluate",
                "--checkpoint", str(run_dir / "model.ckpt"),
                "--data", str(data),
                "--methods", methods,
            ]
        )
        assert code == 1
        assert message in capsys.readouterr().err

    def test_evaluate_rejects_data_of_another_class_count(self, run_dir, tmp_path, capsys):
        # the checkpoint was trained on 3 classes
        data = tmp_path / "data"
        gen = [*GEN_SMALL, "--set", "data.classes=4"]
        assert main(["generate", "--set", "seed=5", "--out", str(data), *gen]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data)])
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "3 classes" in captured.err
        assert "AUROC" not in captured.out

    def test_evaluate_rejects_train_and_val_that_disagree(self, run_dir, tmp_path, capsys):
        data, other = tmp_path / "data", tmp_path / "other"
        assert main(["generate", "--set", "seed=5", "--out", str(data), *GEN_SMALL]) == 0
        gen = [*GEN_SMALL, "--set", "data.classes=4"]
        assert main(["generate", "--set", "seed=5", "--out", str(other), *gen]) == 0
        shutil.copy(other / "train.vosf", data / "train.vosf")
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data)])
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "disagree" in captured.err
        assert "AUROC" not in captured.out

    def test_evaluate_rejects_a_checkpoint_with_a_non_utf8_name(self, run_dir, capsys):
        ckpt = run_dir / "model.ckpt"
        ckpt.write_bytes(ckpt.read_bytes().replace(b"encoder", b"\xffncoder", 1))
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(run_dir)])
        assert code == 1
        assert "UTF-8" in capsys.readouterr().err

    def test_evaluate_rejects_a_checkpoint_with_a_zero_width_layer(self, run_dir, capsys):
        # the head's last layer saved with no outputs
        ckpt = run_dir / "model.ckpt"
        nets = nn.load_checkpoint(ckpt)
        last = nets["uncertainty"].layers[-1]
        last.weights, last.bias = last.weights[:, :0], last.bias[:0]
        nn.save_checkpoint(ckpt, nets)
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(run_dir)])
        assert code == 1
        err = capsys.readouterr().err
        layer = len(nets["uncertainty"].layers) - 1
        assert f"error: net 'uncertainty' layer {layer} is" in err
        assert "Traceback" not in err

    def test_multi_block_evaluate_report_is_pinned(self, tmp_path, monkeypatch):
        # 19,000 ID + 6,000 FP val rows: nn.forward runs every scorer's net
        # over at least three 8,192-row blocks (its rows; the classifier's
        # ECE pass over the ID rows alone takes two).  Recorded with numpy
        # 2.4 and OpenBLAS 0.3.31, 1 thread, when nn.forward ran every
        # batch in one pass.
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(
            micro_config_text(
                data_dim=16,
                model_uncertainty_hidden=(128,),
                model_classifier_hidden=(64,),
            )
        )
        run, data = tmp_path / "run", tmp_path / "data"
        assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
        big_val = ["--set", "data.n_id_val=19000", "--set", "data.n_fp_val=6000"]
        assert main(["generate", "--config", str(cfg_path), "--out", str(data), *big_val]) == 0
        captured = []

        def recording_build_report(*args, _build=cli.build_report, **kwargs):
            captured.append(_build(*args, **kwargs))
            return captured[-1]

        monkeypatch.setattr(cli, "build_report", recording_build_report)
        argv = ["evaluate", "--checkpoint", str(run / "model.ckpt"), "--data", str(data)]
        assert main(argv) == 0
        (report,) = captured
        assert (report.n_id, report.n_ood) == (19000, 6000)
        bundle = ModelBundle.load(run / "model.ckpt")
        for net in (bundle.uncertainty, bundle.classifier):
            assert 3 * nn._block_rows(net) <= 25000 and 2 * nn._block_rows(net) <= 19000
        digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        assert digest == "bd298a35f3ea901422132abacc2c6b36dbfdbbdb23ee851536f8fe8ae803c450"

    def test_evaluate_needs_a_source(self, capsys):
        assert main(["evaluate"]) == 1
        assert "evaluate needs --checkpoint and --data" in capsys.readouterr().err
        assert main(["evaluate", "--checkpoint", "model.ckpt"]) == 1

    def test_evaluate_has_no_run_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--run", str(tmp_path)])
        assert exc.value.code == 2
        assert "--run" in capsys.readouterr().err

    def test_evaluate_missing_report(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path)]) == 1
        assert "report.json" in capsys.readouterr().err

    def test_report_refuses_a_run_dir_without_a_manifest(self, run_dir, capsys):
        (run_dir / "manifest.json").unlink()
        assert main(["report", "--run", str(run_dir)]) == 1
        assert "manifest.json" in capsys.readouterr().err

    def test_report_refuses_a_truncated_manifest(self, run_dir, capsys):
        # a crash mid-write can leave the commit marker half-written
        manifest = run_dir / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[: manifest.stat().st_size // 2])
        capsys.readouterr()
        assert main(["report", "--run", str(run_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "manifest.json" in captured.err
        assert captured.out == ""

    def test_report_refuses_a_malformed_report(self, run_dir, capsys):
        good = json.loads((run_dir / "report.json").read_text())
        # a mistyped config_hash or seed would crash or misprint the table
        for field, value in [("methods", []), ("config_hash", 5), ("seed", "x"), ("seed", True)]:
            (run_dir / "report.json").write_text(json.dumps({**good, field: value}))
            capsys.readouterr()
            assert main(["report", "--run", str(run_dir)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: report JSON")
            assert captured.out == ""
        (run_dir / "report.json").write_text(json.dumps({**good, "counts": {"id": 150, "ood": 8.0}}))
        assert main(["report", "--run", str(run_dir)]) == 1
        assert "counts.ood of the wrong type" in capsys.readouterr().err
        # JSON true and false printed as 1.0000 and 0.0000
        name = next(iter(good["methods"]))
        block = {
            "auroc": True, "aupr_id": False, "aupr_ood": 1, "fpr95": 0,
            "ece": True, "orientation": 5,
        }
        (run_dir / "report.json").write_text(json.dumps({**good, "methods": {name: block}}))
        assert main(["report", "--run", str(run_dir)]) == 1
        captured = capsys.readouterr()
        for field in ("auroc", "aupr_id", "ece", "orientation"):
            assert f"methods.{name}.{field}" in captured.err
        assert "aupr_ood" not in captured.err and "fpr95" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["manifest.json", "report.json"])
    def test_report_refuses_a_file_that_is_not_utf8(self, run_dir, capsys, name):
        (run_dir / name).write_bytes(b'{"seed": "\xff"}')
        capsys.readouterr()
        assert main(["report", "--run", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if name == "manifest.json":
            assert name in err

    def test_report_renders_counts_and_hash(self, run_dir, capsys):
        capsys.readouterr()
        assert main(["report", "--run", str(run_dir)]) == 0
        stdout = capsys.readouterr().out
        assert "counts: 150 ID / 80 OOD" in stdout
        assert "config" in stdout


class TestAblate:
    def test_sweep_table(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(micro_config_text())
        out = tmp_path / "ab"
        code = main(
            [
                "ablate", "--config", str(cfg_path),
                "--sweep", "loss.lambda=0.5,2",
                "--out", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        assert "loss.lambda" in lines[0]
        assert len([ln for ln in lines if " ok" in ln]) == 2
        assert (out / "ablation.csv").is_file()
        assert (out / "run_001" / "report.json").is_file()

    def test_a_key_swept_twice_is_refused_before_any_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(micro_config_text())
        out = tmp_path / "ab"
        code = main(
            [
                "ablate", "--config", str(cfg_path),
                "--sweep", "noise.beta=0,1", "--sweep", "noise.beta=2",
                "--out", str(out),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "'noise.beta' is given twice" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_failed_point_reported_and_exit_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(micro_config_text())
        code = main(
            [
                "ablate", "--config", str(cfg_path),
                "--sweep", "data.fp_overlap=0.5,1.5",
                "--out", str(tmp_path / "ab"),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "error" in captured.out
        assert "1 of 2 runs failed" in captured.err

    def test_sweep_of_a_scorer_subset_prints_a_dash_for_the_rest(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(micro_config_text())
        out = tmp_path / "ab"
        code = main(
            [
                "ablate", "--config", str(cfg_path),
                "--sweep", "methods=uncertainty",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, row = [ln.split() for ln in capsys.readouterr().out.splitlines()[:2]]
        assert header == [
            "methods", "status", "uncertainty_auroc", "default_score_auroc", "mahalanobis_auroc",
        ]
        assert row[:2] == ["uncertainty", "ok"]
        float(row[2])
        assert row[3:] == ["-", "-"]
        cells = (out / "ablation.csv").read_text().splitlines()[1].split(",")
        assert cells[2] != "" and cells[5:] == [""] * 6


def run_generate_script(exe, tmp_path, **kwargs):
    proc = subprocess.run(
        [str(exe), "generate", "--set", "seed=3", "--out", str(tmp_path / "g"), *GEN_SMALL],
        capture_output=True,
        text=True,
        **kwargs,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout


class TestParser:
    def test_unknown_flag_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--bogus", "1"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_console_entry_point_runs(self, tmp_path):
        # Build the launcher that `pip install` writes for the declared
        # console script, so the entry in pyproject.toml is exercised as a
        # separate process without installing the package.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["lsvos"]
        module, _, attr = entry.partition(":")
        exe = tmp_path / "lsvos"
        exe.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({attr}())\n"
        )
        exe.chmod(0o755)
        inherited = os.environ.get("PYTHONPATH")
        pythonpath = os.pathsep.join(
            [str(REPO_ROOT / "src")] + ([inherited] if inherited else [])
        )
        run_generate_script(
            exe, tmp_path, cwd=tmp_path, env={**os.environ, "PYTHONPATH": pythonpath}
        )

    @pytest.mark.skipif(
        shutil.which("lsvos") is None, reason="lsvos console script not installed"
    )
    def test_installed_console_script_runs(self, tmp_path):
        run_generate_script(shutil.which("lsvos"), tmp_path)
