"""Command-line surface: generate, train, evaluate, ablate, report.

All plotting output stays data-only (CSV of curve points); rendering is
left to external tools.  The default output root is the LSVOS_OUT
environment variable, falling back to ./lsvos_out.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .datagen import generate_features
from .errors import InputError, LsvosError
from .features import Label, save_features
from .metrics import EvaluationReport, build_report
from .models import ModelBundle
from .pipeline import (
    SCORER_NAMES,
    ExperimentConfig,
    RunManifest,
    ablate,
    apply_overrides,
    config_hash,
    desk_preset,
    evaluate_bundle,
    format_config,
    generator_spec,
    load_config,
    load_feature_dir,
    run_experiment,
    sweep_from_specs,
)

ENV_OUT = "LSVOS_OUT"


def _output_root() -> Path:
    return Path(os.environ.get(ENV_OUT, "lsvos_out"))


def _resolve_out(flag_value: str | None, default_name: str) -> Path:
    return Path(flag_value) if flag_value else _output_root() / default_name


def _base_config(args) -> "object":
    cfg = load_config(args.config) if args.config else desk_preset()
    return apply_overrides(cfg, args.set or [])


def render_table(report: EvaluationReport) -> str:
    """Fixed-width methods x metrics table; '-' for absent ECE."""
    header = f"{'method':<16}{'AUROC':>9}{'AUPR-ID':>9}{'AUPR-OOD':>10}{'FPR95':>9}{'ECE':>9}"
    lines = [header]
    for name in sorted(report.methods):
        m = report.methods[name]
        ece_txt = f"{m.ece:>9.4f}" if m.ece is not None else f"{'-':>9}"
        lines.append(
            f"{name:<16}{m.auroc:>9.4f}{m.aupr_id:>9.4f}"
            f"{m.aupr_ood:>10.4f}{m.fpr95:>9.4f}{ece_txt}"
        )
    return "\n".join(lines)


def cmd_generate(args) -> int:
    cfg = _base_config(args)
    out = _resolve_out(args.out, "generate")
    out.mkdir(parents=True, exist_ok=True)
    train, val = generate_features(generator_spec(cfg))
    save_features(out / "train.vosf", train)
    save_features(out / "val.vosf", val)
    for split, ds in (("train", train), ("val", val)):
        counts = ds.counts()
        print(f"{split}: {len(ds.records)} rows (ID {counts['ID']}, FP {counts['FP']})")
    print(f"wrote {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _base_config(args)
    if args.dry_run:
        print("config ok")
        print(format_config(cfg), end="")
        return 0
    out = _resolve_out(args.out, f"run-{config_hash(cfg)[:8]}")
    result = run_experiment(cfg, out_dir=out)
    print(render_table(result.report))
    print(f"wrote {out}")
    return 0


def cmd_evaluate(args) -> int:
    if not (args.checkpoint and args.data):
        raise InputError("evaluate needs --checkpoint and --data")
    # the config's own parser and checks for the methods key
    methods = apply_overrides(ExperimentConfig(), {"methods": args.methods}).methods
    bundle = ModelBundle.load(args.checkpoint)
    train, val = load_feature_dir(args.data)
    score_sets = evaluate_bundle(bundle, *train.select(Label.ID), val, methods)
    # the datasets are dead once scored; build_report's sweeps need the room
    del train, val
    report = build_report(score_sets, "recomputed", 0)
    print(render_table(report))
    return 0


def cmd_ablate(args) -> int:
    base = _base_config(args)
    sweep = sweep_from_specs(args.sweep)
    out = _resolve_out(args.out, "ablation")
    rows = ablate(base, sweep, out_dir=out)
    keys = sorted({k for row in rows for k in row["overrides"]})
    method_names = list(base.methods)
    header = "".join(f"{k:>24}" for k in keys) + f"{'status':>9}"
    header += "".join(f"{m + '_auroc':>22}" for m in method_names)
    print(header)
    failures = 0
    for row in rows:
        line = "".join(f"{row['overrides'].get(k, ''):>24}" for k in keys)
        line += f"{row['status']:>9}"
        if row["status"] != "ok":
            failures += 1
        for m in method_names:
            block = row.get("metrics", {}).get(m)
            line += f"{block['auroc']:>22.4f}" if block else f"{'-':>22}"
        print(line)
    print(f"wrote {out}")
    if failures:
        print(f"{failures} of {len(rows)} runs failed", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    run = Path(args.run)
    if not (run / "report.json").is_file():
        raise InputError(f"no report.json under {args.run}")
    # a run writes its manifest last: without a whole one the run dir is half-written
    try:
        RunManifest.from_json((run / "manifest.json").read_text())
    except (OSError, ValueError) as exc:  # ValueError: InputError or non-UTF-8 bytes
        raise InputError(
            f"no readable manifest.json under {args.run}; the run did not finish ({exc})"
        ) from exc
    report = EvaluationReport.from_json((run / "report.json").read_text())
    print(render_table(report))
    print(
        f"counts: {report.n_id} ID / {report.n_ood} OOD; "
        f"seed {report.seed}; config {report.config_hash[:12]}"
    )
    return 0


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="experiment config file (default: desk preset)")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a dotted config key (repeatable)",
    )
    sub.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsvos",
        description="Latent-space virtual outlier synthesis harness",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    gen = subs.add_parser("generate", help="write synthetic train and val feature files")
    _add_config_flags(gen)
    gen.set_defaults(func=cmd_generate)

    train = subs.add_parser("train", help="run the two-phase training pipeline")
    _add_config_flags(train)
    train.add_argument(
        "--dry-run",
        action="store_true",
        help="validate the config and exit without training",
    )
    train.set_defaults(func=cmd_train)

    ev = subs.add_parser(
        "evaluate", help="re-score a checkpoint on a feature directory and print the metric table"
    )
    ev.add_argument("--checkpoint", help="model checkpoint to score")
    ev.add_argument("--data", help="feature directory with train.vosf and val.vosf")
    ev.add_argument(
        "--methods",
        default=",".join(SCORER_NAMES),
        help="comma-separated scorers",
    )
    ev.set_defaults(func=cmd_evaluate)

    ab = subs.add_parser("ablate", help="sweep config overrides and tabulate")
    _add_config_flags(ab)
    ab.add_argument(
        "--sweep",
        action="append",
        required=True,
        metavar="KEY=V1,V2,...",
        help="sweep axis (repeatable, once per key; multiple axes form a product); "
        "a list value goes in brackets, e.g. model.encoder_hidden=[128,64],[256]",
    )
    ab.set_defaults(func=cmd_ablate)

    rep = subs.add_parser("report", help="render a run directory's stored report.json")
    rep.add_argument("--run", required=True, help="run directory")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # OSError and UnicodeDecodeError: an unreadable file or one not UTF-8 text
    except (LsvosError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
