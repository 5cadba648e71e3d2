import csv
import hashlib
import json
import math
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsvos.features as features
import lsvos.nn as nn
import lsvos.pipeline as pipeline
from lsvos.errors import InputError, NotReadyError, NumericalFailure
from lsvos.features import Label, save_features
from lsvos.models import UNCERTAINTY_VARIANTS, ModelBundle
from lsvos.pipeline import (
    SCORER_NAMES,
    ExperimentConfig,
    RunManifest,
    ablate,
    apply_overrides,
    config_hash,
    desk_preset,
    effective_epochs,
    evaluate_bundle,
    format_config,
    parse_config,
    run_experiment,
    sweep_from_specs,
)
from lsvos.synthesis import METHODS

README = Path(__file__).resolve().parents[1] / "README.md"


def micro_cfg(**overrides):
    base = dict(
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
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_format_parse_round_trip(self):
        cfg = micro_cfg(noise_beta=2.5, loss_lambda=0.25, methods=("uncertainty",))
        assert parse_config(format_config(cfg)) == cfg

    def test_parse_ignores_comments_and_blanks(self):
        cfg = parse_config(
            "# experiment\n\nseed = 9   # tail comment\nloss.lambda=2\n"
        )
        assert cfg.seed == 9
        assert cfg.loss_lambda == 2.0

    def test_parse_collects_all_unknown_keys(self):
        with pytest.raises(InputError) as err:
            parse_config("seed = 1\nbogus.key = 2\nanother = x\n")
        assert "bogus.key" in str(err.value)
        assert "another" in str(err.value)

    def test_parse_reports_bad_values_with_key(self):
        with pytest.raises(InputError) as err:
            parse_config("train.batch_size = soon\n")
        assert "train.batch_size" in str(err.value)
        assert "soon" in str(err.value)

    def test_parse_last_duplicate_wins(self):
        cfg = parse_config("seed = 1\nseed = 5\n")
        assert cfg.seed == 5

    def test_hash_stable_under_reordering(self):
        text = format_config(micro_cfg())
        lines = [ln for ln in text.splitlines() if ln]
        shuffled = "\n".join(lines[::-1]) + "\n"
        assert config_hash(parse_config(shuffled)) == config_hash(parse_config(text))

    def test_hash_changes_with_value(self):
        assert config_hash(micro_cfg(seed=1)) != config_hash(micro_cfg(seed=2))

    def test_apply_overrides(self):
        cfg = apply_overrides(micro_cfg(), ["loss.lambda=2.5", "noise.beta=0"])
        assert cfg.loss_lambda == 2.5
        assert cfg.noise_beta == 0.0

    def test_apply_overrides_rejects_unknown_key(self):
        with pytest.raises(InputError) as err:
            apply_overrides(micro_cfg(), ["nope=1"])
        assert "nope" in str(err.value)

    def test_empty_overrides_match_base_exactly(self):
        base = micro_cfg()
        assert apply_overrides(base, []) == base
        assert config_hash(apply_overrides(base, [])) == config_hash(base)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"methods": ("nonsense",)},
            {"methods": ("uncertainty", "uncertainty")},
            {"methods": ()},
            {"loss_variant": "focal"},
            {"loss_lambda": -1.0},
            {"synth_method": "magic"},
            {"train_batch_size": 0},
            {"data_fp_overlap": 1.5},
            {"train_phase1_epochs": -1},
            {"train_epoch_scale": 0.0},
            {"model_encoder_hidden": (64, 0)},
            {"train_epoch_scale": math.nan},
            {"train_lr": math.nan},
            {"data_cov_scale": math.inf},
            {"noise_beta": math.inf},
            # a dataset path that config.txt would read back as another
            {"dataset": "run#2"},
            {"dataset": "a\nb"},
            {"dataset": "a\x85b"},
            {"dataset": " a"},
            {"dataset": "a\t"},
        ],
    )
    def test_validate_rejects(self, overrides):
        with pytest.raises(InputError):
            micro_cfg(**overrides).validate()

    def test_pinned_config_hashes(self):
        # every report.json carries this hash, so the rendering must not move
        assert config_hash(ExperimentConfig()) == (
            "b273ccf977ed91b08faaadc5d9fd5f27d9439c06994c1abab286ec2145d26ef7"
        )
        assert config_hash(desk_preset()) == (
            "f553e143df2024fc88d934a943420b8023f432ee1c0d897cb4290a496d02c3c2"
        )

    @pytest.mark.parametrize(
        "line, attr, expected",
        [
            ("model.encoder_hidden = 128,,64", None, None),
            ("model.encoder_hidden =", "model_encoder_hidden", ()),
            ("model.encoder_hidden = 128, 64", "model_encoder_hidden", (128, 64)),
            (
                "methods = uncertainty,,mahalanobis",
                "methods",
                ("uncertainty", "mahalanobis"),
            ),
            ("seed = 1.5", None, None),
            ("train.lr = 1e-3", "train_lr", 0.001),
            ("dataset = some/dir", "dataset", "some/dir"),
        ],
    )
    def test_parse_edge_cases(self, line, attr, expected):
        if attr is None:
            with pytest.raises(InputError) as err:
                parse_config(line + "\n")
            assert "bad value" in str(err.value)
        else:
            assert getattr(parse_config(line + "\n"), attr) == expected

    def test_float_formats_back_canonically(self):
        cfg = parse_config("train.lr = 1e-3\n")
        assert "train.lr = 0.001\n" in format_config(cfg)

    def test_readme_defaults_block_matches_format_config(self):
        text = README.read_text()
        section = text.split("## Configuration", 1)[1]
        block = section.split("```", 2)[1]

        def normalize(line):
            return re.sub(r"\s+", " ", line.split("#", 1)[0]).strip()

        documented = [normalize(ln) for ln in block.splitlines() if normalize(ln)]
        rendered = [normalize(ln) for ln in format_config(ExperimentConfig()).splitlines()]
        assert documented == rendered

    def test_desk_preset_is_valid_and_scaled(self):
        cfg = desk_preset()
        cfg.validate()
        assert effective_epochs(cfg.train_phase1_epochs, cfg.train_epoch_scale) == 10
        assert effective_epochs(cfg.train_phase2_epochs, cfg.train_epoch_scale) == 4

    def test_effective_epochs_floor_and_zero(self):
        assert effective_epochs(0, 0.2) == 0
        assert effective_epochs(1, 0.01) == 1
        assert effective_epochs(50, 1.0) == 50


_WIDTHS = st.lists(st.integers(1, 4096), max_size=3).map(tuple)
_FLOATS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_POSITIVE_FLOATS = st.floats(
    min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False
)


def _valid_dataset(path: str) -> bool:
    try:
        ExperimentConfig(dataset=path).validate()
    except InputError:
        return False
    return True


@st.composite
def valid_configs(draw):
    """Configs drawn from the ranges that validate() accepts."""
    classes = draw(st.integers(2, 64))
    loss_lambda = draw(_FLOATS)
    synth_method = draw(st.sampled_from(METHODS))
    phase2_epochs = draw(st.integers(0, 10**6))
    # LS-VOS synthesis decodes through the auto-encoder that phase 1 trains
    needs_phase1 = synth_method == "lsvos" and loss_lambda > 0.0 and phase2_epochs > 0
    return ExperimentConfig(
        # printable ASCII (with '#', blanks and line breaks) and any other
        # character (with the line breaks of str.splitlines), kept where
        # validate() accepts them
        dataset=draw(
            st.just("synthetic")
            | st.text(string.printable, min_size=1, max_size=20).filter(_valid_dataset)
            | st.text(min_size=1, max_size=20).filter(_valid_dataset)
        ),
        data_dim=draw(st.integers(2 * classes, 100_000)),
        data_classes=classes,
        data_class_separation=draw(_FLOATS),
        data_cov_scale=draw(_POSITIVE_FLOATS),
        data_fp_overlap=draw(st.floats(0.0, 1.0)),
        data_fp_displacement=draw(_FLOATS),
        data_n_id_train=draw(st.integers(1, 10**9)),
        data_n_fp_train=draw(st.integers(1, 10**9)),
        data_n_id_val=draw(st.integers(1, 10**9)),
        data_n_fp_val=draw(st.integers(1, 10**9)),
        model_latent_dim=draw(st.integers(1, 4096)),
        model_encoder_hidden=draw(_WIDTHS),
        model_decoder_hidden=draw(_WIDTHS),
        model_uncertainty_hidden=draw(_WIDTHS),
        model_classifier_hidden=draw(_WIDTHS),
        noise_alpha=draw(_FLOATS),
        noise_beta=draw(_FLOATS),
        loss_lambda=loss_lambda,
        loss_variant=draw(st.sampled_from(UNCERTAINTY_VARIANTS)),
        synth_method=synth_method,
        train_phase1_epochs=draw(st.integers(int(needs_phase1), 10**6)),
        train_phase2_epochs=phase2_epochs,
        train_epoch_scale=draw(_POSITIVE_FLOATS),
        train_lr=draw(_POSITIVE_FLOATS),
        train_batch_size=draw(st.integers(1, 10**6)),
        queue_capacity=draw(st.integers(1, 10**6)),
        sample_n_per_class=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**63)),
        methods=tuple(
            draw(st.lists(st.sampled_from(SCORER_NAMES), min_size=1, unique=True))
        ),
    )


class TestConfigProperties:
    @settings(max_examples=200, deadline=None)
    @given(valid_configs())
    def test_parse_inverts_format(self, cfg):
        assert parse_config(format_config(cfg)) == cfg

    @settings(max_examples=200, deadline=None)
    @given(valid_configs())
    def test_overrides_of_every_rendered_line_rebuild_the_config(self, cfg):
        lines = [ln for ln in format_config(cfg).splitlines() if ln.strip()]
        assert apply_overrides(ExperimentConfig(), lines) == cfg


class TestSweepSpecs:
    def test_single_axis(self):
        combos = sweep_from_specs(["loss.lambda=0.1,0.5,1"])
        assert combos == [
            {"loss.lambda": "0.1"},
            {"loss.lambda": "0.5"},
            {"loss.lambda": "1"},
        ]

    def test_two_axes_cartesian(self):
        combos = sweep_from_specs(["noise.beta=1,2", "noise.alpha=0,0.25"])
        assert len(combos) == 4
        assert {"noise.beta": "2", "noise.alpha": "0.25"} in combos

    def test_rejects_unknown_key_and_empty_values(self):
        with pytest.raises(InputError):
            sweep_from_specs(["bogus=1,2"])
        with pytest.raises(InputError):
            sweep_from_specs(["loss.lambda="])
        with pytest.raises(InputError):
            sweep_from_specs(["loss.lambda"])

    def test_rejects_a_key_given_twice(self):
        # a second axis would overwrite the first in every combo
        with pytest.raises(InputError, match="'noise.beta' is given twice"):
            sweep_from_specs(["noise.beta=0,1", "noise.beta=2"])
        with pytest.raises(InputError, match="given twice"):
            sweep_from_specs(["noise.beta=1", "loss.lambda=0", " noise.beta =1"])

    def test_bracketed_values_are_one_list_valued_point_each(self):
        combos = sweep_from_specs(["model.encoder_hidden=[128,64],[256]"])
        assert combos == [
            {"model.encoder_hidden": "128,64"},
            {"model.encoder_hidden": "256"},
        ]
        cfgs = [apply_overrides(ExperimentConfig(), combo) for combo in combos]
        assert [cfg.model_encoder_hidden for cfg in cfgs] == [(128, 64), (256,)]
        mixed = sweep_from_specs(["model.encoder_hidden=[128, 64] , 32,[]"])
        assert [c["model.encoder_hidden"] for c in mixed] == ["128, 64", "32", ""]

    @pytest.mark.parametrize(
        "spec",
        [
            "model.encoder_hidden=[128,64",
            "model.encoder_hidden=128]",
            "model.encoder_hidden=[[128]]",
            "model.encoder_hidden=[128]64",
        ],
    )
    def test_rejects_unbalanced_or_nested_brackets(self, spec):
        with pytest.raises(InputError, match="bracket"):
            sweep_from_specs([spec])


class TestRunExperiment:
    def test_report_covers_all_methods(self):
        res = run_experiment(micro_cfg())
        assert set(res.report.methods) == {"uncertainty", "default_score", "mahalanobis"}
        assert res.report.n_id == 200
        assert res.report.n_ood == 100
        assert res.report.config_hash == config_hash(micro_cfg())

    def test_history_schedule_and_queue_occupancy(self):
        cfg = micro_cfg()
        res = run_experiment(cfg)
        steps_per_epoch = math.ceil(cfg.data_n_id_train / cfg.train_batch_size)
        assert len(res.history) == 4 * steps_per_epoch
        assert {row["phase"] for row in res.history} == {1, 2}
        occ = [row["queue_occupancy"] for row in res.history]
        assert all(b >= a for a, b in zip(occ, occ[1:]))
        # four epochs re-push the whole train split each time
        cap = cfg.queue_capacity * cfg.data_classes
        assert occ[-1] == min(cap, 4 * cfg.data_n_id_train)
        phase1 = [row for row in res.history if row["phase"] == 1]
        assert all(row["loss_unc"] == 0.0 for row in phase1)

    def test_artifacts_written(self, tmp_path):
        cfg = micro_cfg()
        res = run_experiment(cfg, out_dir=tmp_path / "run")
        root = tmp_path / "run"
        for name in (
            "report.json",
            "model.ckpt",
            "scores.csv",
            "config.txt",
            "history.csv",
            "model_card.json",
            "manifest.json",
        ):
            assert (root / name).is_file(), name
        for method in cfg.methods:
            assert (root / "plots" / f"roc_{method}.csv").is_file()
            assert (root / "plots" / f"pr_{method}.csv").is_file()
            assert (root / "plots" / f"hist_{method}.csv").is_file()
        pca = (root / "plots" / "pca.csv").read_text().splitlines()
        assert pca[0] == "group,x,y"
        groups = {line.split(",")[0] for line in pca[1:]}
        assert groups == {"id", "fp", "synth"}
        manifest = RunManifest.from_json((root / "manifest.json").read_text())
        assert manifest.config_hash == res.report.config_hash
        assert manifest.wall_clock_seconds >= 0.0
        card = json.loads((root / "model_card.json").read_text())
        assert card["feature_dim"] == 8
        assert card["loss_lambda"] == cfg.loss_lambda

    def test_run_dir_tables_parse_back_bit_for_bit(self, tmp_path):
        def bits(values):
            return [float(v).hex() for v in values]

        def columns(path):
            header, *lines = path.read_text().splitlines()
            return dict(zip(header.split(","), zip(*(line.split(",") for line in lines))))

        res = run_experiment(micro_cfg(), out_dir=tmp_path)
        curves = json.loads((tmp_path / "report.json").read_text())["curves"]
        assert list(curves) == sorted(SCORER_NAMES)
        for method, payload in curves.items():
            roc = columns(tmp_path / "plots" / f"roc_{method}.csv")
            assert bits(roc["fpr"]) == bits(payload["roc"]["fpr"])
            assert bits(roc["tpr"]) == bits(payload["roc"]["tpr"])
            pr = columns(tmp_path / "plots" / f"pr_{method}.csv")
            assert bits(pr["recall"]) == bits(payload["pr_id"]["recall"])
            assert bits(pr["precision"]) == bits(payload["pr_id"]["precision"])
            hist = columns(tmp_path / "plots" / f"hist_{method}.csv")
            edges = payload["histogram"]["edges"]
            assert bits(hist["bin_left"]) == bits(edges[:-1])
            assert bits(hist["bin_right"]) == bits(edges[1:])
            assert [int(c) for c in hist["id_count"]] == payload["histogram"]["id_counts"]
            assert [int(c) for c in hist["ood_count"]] == payload["histogram"]["ood_counts"]
        history = columns(tmp_path / "history.csv")
        assert list(history) == pipeline.HISTORY_HEADER.split(",")
        for key, parsed in history.items():
            recorded = [row[key] for row in res.history]
            if isinstance(recorded[0], int):
                assert [int(v) for v in parsed] == recorded, key
            else:
                assert bits(parsed) == bits(recorded), key

    def test_manifest_format_versions_come_from_the_modules(self, monkeypatch):
        res = run_experiment(micro_cfg())
        assert res.manifest.checkpoint_format_version == nn.CHECKPOINT_VERSION
        assert res.manifest.feature_format_version == features.FEATURE_VERSION
        # read at run time, not copied as literals
        monkeypatch.setattr(nn, "CHECKPOINT_VERSION", 7)
        monkeypatch.setattr(pipeline, "FEATURE_VERSION", 9)
        res = run_experiment(micro_cfg())
        assert res.manifest.checkpoint_format_version == 7
        assert res.manifest.feature_format_version == 9

    def test_reruns_are_byte_identical_except_manifest(self, tmp_path):
        cfg = micro_cfg()
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for name in ("report.json", "model.ckpt", "scores.csv", "history.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name
        ma = RunManifest.from_json((tmp_path / "a" / "manifest.json").read_text())
        mb = RunManifest.from_json((tmp_path / "b" / "manifest.json").read_text())
        assert ma.config_hash == mb.config_hash
        assert ma.seed == mb.seed

    @pytest.mark.parametrize(
        "synth_method, dim, report_sha256, checkpoint_sha256",
        [
            (
                "vos",
                8,
                "5cd5dcfc606d57a34b32e2ef48219a333933efb1646021a4983bb857cf7cc805",
                "e895ddecfde2da56f8790934a466d54350d74236efb2441a64044e1e879d6e6b",
            ),
            (
                "vos",
                64,
                "e127cefb20c81d5c26e6fd705819d97a392fc105b1b45309aff98fcc89728569",
                "e02fb978f7b179e4ac35b932976f39f35e6648926e834369b8ee8a386ff95373",
            ),
            (
                "lsvos",
                64,
                "70b67b647c49766db32e1b5ccca0eae9ec466d82df3246b0c5af229322082f38",
                "f9b638c2612634cccc522353185a448cb4ea4a0c245e0461acd85df8982dc38b",
            ),
        ],
    )
    def test_vos_run_bytes_are_pinned(
        self, tmp_path, synth_method, dim, report_sha256, checkpoint_sha256
    ):
        # numpy 2.4 with OpenBLAS 0.3.31, 1 thread.  The VOS rows were recorded
        # when VOS mapped all 10,000 candidates per class through the Cholesky
        # factor; at D = 8 it still maps them all, at D = 64 only its
        # top-ranked rows.  The LS-VOS row was recorded when the auto-encoder,
        # head and classifier were each wrapped in a class of their own.
        run_experiment(micro_cfg(synth_method=synth_method, data_dim=dim), out_dir=tmp_path)
        for name, want in (("report.json", report_sha256), ("model.ckpt", checkpoint_sha256)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name

    def test_scores_csv_bytes_are_pinned(self, tmp_path):
        # numpy 2.4 with OpenBLAS 0.3.31, 1 thread; recorded when save_scores
        # formatted its own lines
        run_experiment(micro_cfg(), out_dir=tmp_path)
        digest = hashlib.sha256((tmp_path / "scores.csv").read_bytes()).hexdigest()
        assert digest == "0f51edf6cae849d003921d29590709c1d3945abd8c4f4ff655fb7ffb56713bb2"

    def test_history_and_plot_csv_bytes_are_pinned(self, tmp_path):
        # numpy 2.4 with OpenBLAS 0.3.31, 1 thread; recorded when write_csv
        # joined each row's cells with commas itself
        run_experiment(micro_cfg(), out_dir=tmp_path)
        digests = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in [tmp_path / "history.csv", *sorted((tmp_path / "plots").glob("*.csv"))]
        }
        assert digests == {
            "history.csv": "13114a48229247da46836207712e1f1bb66cf06ab249117ff5af7db81f62e32b",
            "plots/hist_default_score.csv": (
                "3b87ef72d2bfac1d94b89b747a792cc34f4e94180d1e562d0ab6e42c18c08e89"
            ),
            "plots/hist_mahalanobis.csv": (
                "589f9faa40e38ffd8b8a6b04932c91c8028051fb246a7d6d86488a14ba2065ae"
            ),
            "plots/hist_uncertainty.csv": (
                "818d122b195ad508c388e27f80c0d26a1c01fa3e99b6e2da863ca79c6812e5f9"
            ),
            "plots/pca.csv": "dff5a4c1e8e60b2a80ac99dd72b82f970ce4dce6cf72b21ab722e484da7d0f83",
            "plots/pr_default_score.csv": (
                "4a782be2c76c1774c55bd660fdba7b8291f83be6050261454e57fa9557f8c4b5"
            ),
            "plots/pr_mahalanobis.csv": (
                "f802fe64958cecacc9cd71e03197be1b5bedab3f1e4c29d09ba9f8fd12aca5cc"
            ),
            "plots/pr_uncertainty.csv": (
                "e4329353500f7cdab5663415ec5f3c1b697915f8d73a8df07676a6321381dbc8"
            ),
            "plots/roc_default_score.csv": (
                "9638d4733cbf1b8b93995e5793f029bb71c1668a11423eb0871a8f85114ff682"
            ),
            "plots/roc_mahalanobis.csv": (
                "ad5d4c80517d1a7c1254e6d1039feb288d269f68c17e40bfe608e72bc76771c1"
            ),
            "plots/roc_uncertainty.csv": (
                "a55eda1265c8dc8d9035798373d90d7147ccc57d697aa4344581ad2c220802c5"
            ),
        }

    @pytest.mark.parametrize("method", ["lsvos", "vos"])
    def test_shared_workspace_matches_per_call_allocation(self, tmp_path, monkeypatch, method):
        # 400 inlier rows in batches of 128 end every epoch on a 16-row batch
        cfg = micro_cfg(synth_method=method)
        seen = []
        for name in ("ae_gradients", "classifier_gradients", "uncertainty_gradients"):
            original = getattr(pipeline, name)

            def spy(*args, ws, _original=original):
                seen.append(ws)
                return _original(*args, ws=ws)

            monkeypatch.setattr(pipeline, name, spy)
        run_experiment(cfg, out_dir=tmp_path / "shared")
        assert seen and seen[0] is not None and all(ws is seen[0] for ws in seen)
        monkeypatch.undo()
        for name in ("ae_gradients", "classifier_gradients", "uncertainty_gradients"):
            original = getattr(pipeline, name)
            monkeypatch.setattr(
                pipeline, name, lambda *args, ws, _original=original: _original(*args)
            )
        run_experiment(cfg, out_dir=tmp_path / "fresh")
        for name in ("report.json", "model.ckpt", "history.csv"):
            shared = (tmp_path / "shared" / name).read_bytes()
            assert shared == (tmp_path / "fresh" / name).read_bytes(), name

    def test_manifest_records_the_blas_environment_and_loads_without_it(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        res = run_experiment(micro_cfg())
        vendor = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        payload = json.loads(res.manifest.to_json())
        assert payload["blas_vendor"] == vendor and payload["blas_threads"] == 1
        # a manifest written before these fields existed
        del payload["blas_vendor"], payload["blas_threads"]
        old = RunManifest.from_json(json.dumps(payload))
        assert old.blas_vendor is None and old.blas_threads is None
        assert old.config_hash == res.manifest.config_hash
        del payload["seed"]
        with pytest.raises(InputError, match="seed"):
            RunManifest.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "env, threads",
        [
            ({}, None),
            ({"OMP_NUM_THREADS": "4"}, 4),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "4"}, 2),
            ({"OPENBLAS_NUM_THREADS": "many"}, None),
        ],
    )
    def test_blas_thread_count_comes_from_the_environment(self, monkeypatch, env, threads):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert pipeline.blas_environment()[1] == threads

    def test_the_test_session_pins_the_blas_thread_count(self):
        # tests/conftest.py sets it before numpy loads, unless already set
        assert pipeline.blas_environment()[1] is not None

    def test_training_updates_the_built_layer_arrays_in_place(self, monkeypatch):
        def arrays(bundle):
            nets = (bundle.encoder, bundle.decoder, bundle.uncertainty, bundle.classifier)
            return [p for net in nets for p in nn.parameters(net)]

        built = []
        build = ModelBundle.build

        def spy(*args, **kwargs):
            bundle = build(*args, **kwargs)
            built.append((arrays(bundle), [a.copy() for a in arrays(bundle)]))
            return bundle

        monkeypatch.setattr(ModelBundle, "build", staticmethod(spy))
        res = run_experiment(micro_cfg())
        ((live, initial),) = built
        final = arrays(res.bundle)
        assert len(final) == len(live)
        assert all(a is b for a, b in zip(final, live))
        assert all(not np.array_equal(a, b) for a, b in zip(final, initial))

    def test_different_seed_changes_results(self):
        a = run_experiment(micro_cfg(seed=1))
        b = run_experiment(micro_cfg(seed=2))
        assert a.report.to_json() != b.report.to_json()

    def test_lsvos_synthesis_before_any_reconstruction_phase_is_refused(self, tmp_path):
        cfg = micro_cfg(synth_method="lsvos", loss_lambda=1.0, train_phase1_epochs=0)
        with pytest.raises(NotReadyError, match="train.phase1_epochs"):
            run_experiment(cfg, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_lsvos_run_without_either_training_phase_runs(self, tmp_path):
        cfg = micro_cfg(
            synth_method="lsvos", loss_lambda=1.0, train_phase1_epochs=0, train_phase2_epochs=0
        )
        res = run_experiment(cfg, out_dir=tmp_path)
        assert res.history == []
        # nothing trained the auto-encoder, so no synthesized rows are plotted
        pca = (tmp_path / "plots" / "pca.csv").read_text().splitlines()
        assert {line.split(",")[0] for line in pca[1:]} == {"id", "fp"}

    def test_lambda_zero_skips_uncertainty_entirely(self):
        cfg = micro_cfg(loss_lambda=0.0)
        res = run_experiment(cfg)
        assert all(row["loss_unc"] == 0.0 for row in res.history)
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
        trained = nn.parameters(res.bundle.uncertainty)
        untouched = nn.parameters(fresh.uncertainty)
        assert all(np.array_equal(a, b) for a, b in zip(trained, untouched))

    def test_untrained_head_scores_at_chance(self):
        # No phase 2 and fully overlapping FPs: nothing separates the
        # classes, so the raw head must sit at AUROC ~ 0.5.
        cfg = micro_cfg(
            train_phase2_epochs=0,
            data_fp_overlap=1.0,
            data_n_id_val=1000,
            data_n_fp_val=1000,
        )
        res = run_experiment(cfg)
        assert abs(res.report.methods["uncertainty"].auroc - 0.5) < 0.05

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_phase_and_step(self):
        with pytest.raises(NumericalFailure) as err:
            run_experiment(micro_cfg(train_lr=1e200))
        assert "phase" in str(err.value)
        assert "step" in str(err.value)

    def test_dataset_directory_mode(self, tmp_path):
        from lsvos.datagen import GeneratorSpec, generate_features

        spec = GeneratorSpec(
            dim=8,
            num_classes=3,
            n_id_train=300,
            n_fp_train=120,
            n_id_val=150,
            n_fp_val=80,
            seed=3,
        )
        train, val = generate_features(spec)
        save_features(tmp_path / "train.vosf", train)
        save_features(tmp_path / "val.vosf", val)
        cfg = micro_cfg(dataset=str(tmp_path))
        res = run_experiment(cfg)
        assert res.report.n_id == 150
        assert res.report.n_ood == 80

    @staticmethod
    def _id_only_feature_dir(tmp_path, monkeypatch) -> str:
        """A feature dir whose train split has no FP rows, at a relative path
        (an absolute tmp path would change the report's config hash)."""
        from lsvos.datagen import GeneratorSpec, generate_features

        spec = GeneratorSpec(
            dim=8, num_classes=3, n_id_train=300, n_fp_train=120, n_id_val=150, n_fp_val=80, seed=3
        )
        train, val = generate_features(spec)
        only_id = train.records[train.records["label"] == Label.ID]
        monkeypatch.chdir(tmp_path)
        Path("feats").mkdir()
        save_features("feats/train.vosf", features.FeatureDataset(8, 3, only_id))
        save_features("feats/val.vosf", val)
        return "feats"

    @pytest.mark.parametrize(
        "method, report_sha256",
        [
            ("lsvos", "8b50954e2877b8ee389673ffd0657fde6a3e53b377ce8e05417735412699a236"),
            ("vos", "79535ee31c8738951f77d2b42463e025cf904f54762906674f921400a90db1fd"),
            ("random_noise", "aa0a523f767951aed35f14617e35cadbbcadd962221d6153084069238b698c59"),
            ("noisy_id", "7a6536df012defaedef2623259a4029080e7d2383561a3ab92c433c427d89cb2"),
        ],
    )
    def test_a_train_split_without_fp_rows_trains_on_synthesis_alone(
        self, tmp_path, monkeypatch, method, report_sha256
    ):
        # numpy 2.4 with OpenBLAS 0.3.31, 1 thread; recorded when _train
        # skipped the vstack of an empty FP batch
        dataset = self._id_only_feature_dir(tmp_path, monkeypatch)
        res = run_experiment(micro_cfg(dataset=dataset, synth_method=method), out_dir="run")
        assert {row["phase"] for row in res.history} == {1, 2}
        digest = hashlib.sha256(Path("run/report.json").read_bytes()).hexdigest()
        assert digest == report_sha256

    def test_linear_mix_needs_train_fp_rows(self, tmp_path, monkeypatch):
        dataset = self._id_only_feature_dir(tmp_path, monkeypatch)
        with pytest.raises(NotReadyError, match="no false-positive features"):
            run_experiment(micro_cfg(dataset=dataset, synth_method="linear_mix"))

    def test_dataset_directory_missing_files(self, tmp_path):
        with pytest.raises(InputError) as err:
            run_experiment(micro_cfg(dataset=str(tmp_path)))
        assert "train.vosf" in str(err.value)

    def test_methods_subset_respected(self):
        res = run_experiment(micro_cfg(methods=("mahalanobis",)))
        assert set(res.report.methods) == {"mahalanobis"}
        assert res.report.methods["mahalanobis"].ece is None

    @pytest.mark.parametrize("method", ["vos", "linear_mix", "random_noise", "noisy_id"])
    def test_competitor_synthesis_methods_run(self, method):
        res = run_experiment(micro_cfg(synth_method=method))
        assert set(res.report.methods) == {"uncertainty", "default_score", "mahalanobis"}

    def test_bce_variant_runs(self):
        res = run_experiment(micro_cfg(loss_variant="bce"))
        phase2 = [row for row in res.history if row["phase"] == 2]
        # bce losses are unbounded below zero is wrong: they are positive
        assert all(row["loss_unc"] > 0.0 for row in phase2)

    def test_sigmoid_variant_loss_bounded(self):
        res = run_experiment(micro_cfg())
        phase2 = [row for row in res.history if row["phase"] == 2]
        assert all(-2.0 <= row["loss_unc"] < 0.0 for row in phase2)


class TestEvaluateBundle:
    def test_ece_attachment(self):
        res = run_experiment(micro_cfg())
        assert res.report.methods["uncertainty"].ece is not None
        assert res.report.methods["default_score"].ece is not None
        assert res.report.methods["mahalanobis"].ece is None

    def test_orientation_is_uniform(self):
        res = run_experiment(micro_cfg())
        for block in res.report.methods.values():
            assert block.orientation == "higher=more_anomalous"

    def test_requires_both_populations(self):
        from lsvos.datagen import GeneratorSpec, generate_features
        from lsvos.features import FeatureDataset

        cfg = micro_cfg()
        spec = GeneratorSpec(
            dim=8, num_classes=3, n_id_train=60, n_fp_train=30,
            n_id_val=30, n_fp_val=20, seed=0,
        )
        train, val = generate_features(spec)
        id_only = FeatureDataset(8, 3, val.records[val.records["label"] == Label.ID])
        res = run_experiment(cfg)
        with pytest.raises(InputError):
            evaluate_bundle(res.bundle, *train.select(Label.ID), id_only, ("mahalanobis",))

    @pytest.mark.parametrize("split", ["train", "val"])
    @pytest.mark.parametrize("dim, classes", [(6, 3), (8, 4)])
    def test_rejects_data_of_another_dim_or_class_count(self, split, dim, classes):
        from lsvos.datagen import GeneratorSpec, generate_features

        def data(dim, classes):
            spec = GeneratorSpec(
                dim=dim, num_classes=classes, n_id_train=40, n_fp_train=20,
                n_id_val=30, n_fp_val=20, seed=0,
            )
            return generate_features(spec)

        bundle = ModelBundle.build(
            8, 3, np.random.default_rng(0), latent_dim=4, encoder_hidden=(8,),
            decoder_hidden=(8,), uncertainty_hidden=(8,), classifier_hidden=(8,),
        )
        train, val = data(8, 3)
        evaluate_bundle(bundle, *train.select(Label.ID), val, ("uncertainty", "mahalanobis"))
        other_train, other_val = data(dim, classes)
        if split == "train":
            # only the Mahalanobis fit reads the train rows: it or its
            # scorer refuses rows of another dim or class ids out of range
            with pytest.raises(InputError):
                evaluate_bundle(bundle, *other_train.select(Label.ID), val, ("mahalanobis",))
        else:
            with pytest.raises(InputError, match="the data has"):
                evaluate_bundle(bundle, *train.select(Label.ID), other_val, ("uncertainty",))


class TestAblate:
    def test_sweep_runs_and_tables(self, tmp_path):
        base = micro_cfg(train_phase1_epochs=1, train_phase2_epochs=1)
        sweep = sweep_from_specs(["loss.lambda=0.5,2"])
        rows = ablate(base, sweep, out_dir=tmp_path)
        assert [row["status"] for row in rows] == ["ok", "ok"]
        assert rows[0]["overrides"] == {"loss.lambda": "0.5"}
        assert "uncertainty" in rows[0]["metrics"]
        table = (tmp_path / "ablation.json").read_text()
        assert table == json.dumps(rows, sort_keys=True, indent=2) + "\n"
        csv_lines = (tmp_path / "ablation.csv").read_text().splitlines()
        assert csv_lines[0].startswith("loss.lambda,status")
        assert "uncertainty_auroc" in csv_lines[0]
        assert len(csv_lines) == 3
        assert (tmp_path / "run_000" / "report.json").is_file()

    def test_csv_has_lf_lines_and_quotes_a_list_override(self, tmp_path):
        base = micro_cfg(train_phase1_epochs=1, train_phase2_epochs=1)
        sweep = sweep_from_specs(["model.encoder_hidden=[16,8],[32]"])
        ablate(base, sweep, out_dir=tmp_path)
        data = (tmp_path / "ablation.csv").read_bytes()
        assert b"\r" not in data
        table = list(csv.reader(data.decode().splitlines()))
        assert table[0][:2] == ["model.encoder_hidden", "status"]
        assert [row[:2] for row in table[1:]] == [["16,8", "ok"], ["32", "ok"]]
        assert len({len(row) for row in table}) == 1

    def test_failures_recorded_without_stopping(self, tmp_path):
        base = micro_cfg(train_phase1_epochs=1, train_phase2_epochs=1)
        sweep = [{"data.fp_overlap": "1.5"}, {"loss.lambda": "0.5"}]
        rows = ablate(base, sweep, out_dir=tmp_path)
        assert rows[0]["status"] == "error"
        assert "fp_overlap" in rows[0]["error"]
        assert rows[1]["status"] == "ok"
        csv_lines = (tmp_path / "ablation.csv").read_text().splitlines()
        assert len(csv_lines) == 3

    @pytest.mark.parametrize(
        "failure",
        [np.linalg.LinAlgError("Singular matrix"), FloatingPointError("overflow in matmul")],
    )
    def test_numpy_failure_of_one_point_is_recorded(self, tmp_path, monkeypatch, failure):
        base = micro_cfg(train_phase1_epochs=1, train_phase2_epochs=1)
        run = pipeline.run_experiment

        def failing_at_lambda_one(cfg, out_dir=None):
            if cfg.loss_lambda == 1.0:
                raise failure
            return run(cfg, out_dir=out_dir)

        monkeypatch.setattr(pipeline, "run_experiment", failing_at_lambda_one)
        rows = ablate(base, sweep_from_specs(["loss.lambda=0.5,1,2"]), out_dir=tmp_path)
        assert [row["status"] for row in rows] == ["ok", "error", "ok"]
        assert rows[1]["error"] == f"{type(failure).__name__}: {failure}"
        assert "metrics" not in rows[1] and "uncertainty" in rows[2]["metrics"]
        table = (tmp_path / "ablation.csv").read_text().splitlines()
        assert len(table) == 4 and ",error," in table[2]

    def test_empty_sweep_rejected(self):
        with pytest.raises(InputError):
            ablate(micro_cfg(), [])

    def test_empty_override_row_matches_base_run(self, tmp_path):
        base = micro_cfg(train_phase1_epochs=1, train_phase2_epochs=1)
        rows = ablate(base, [{}], out_dir=tmp_path / "ab")
        run_experiment(base, out_dir=tmp_path / "direct")
        assert rows[0]["status"] == "ok"
        swept = (tmp_path / "ab" / "run_000" / "report.json").read_bytes()
        assert swept == (tmp_path / "direct" / "report.json").read_bytes()
