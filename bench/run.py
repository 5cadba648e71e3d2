"""lsvos benchmark: end-to-end and per-layer metrics of the user-facing commands.

    python3 bench/run.py --workload train-desk --seed 0 --seconds 25 --trace 0
    python3 bench/run.py                      # every workload, untraced and traced

Run from anywhere inside a checkout; the package is imported from its
``src/``.  One run sets the workload up in fresh processes (three times
untraced, once traced), then measures it in one more fresh process: a
closed loop with concurrency 1 that calls ``lsvos.cli.main`` until
``--seconds`` have passed, and at least twice.  Every command's report
goes through the correctness gate.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is nonzero when the gate fails.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TRACED_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "references.json"
WORKLOADS = ("train-desk", "train-vos", "eval-large")
DEFAULT_SECONDS = 25  # keep equal to run_seconds in BENCHMARK.json
SETUP_REPEATS = 3
# Times are reported at a reference machine speed: wall time x PROBE_REF_S
# / the probe time measured around it (worker.Probe).  PROBE_REF_S is the
# probe's median on the 2-core Xeon box the bounds were set on, so there
# the reported seconds read as wall seconds.
PROBE_REF_S = 0.14
TIME_LIMIT_S = 170.0  # one run must end within 180 s
# Fixed for every run, so that report hashes and timings compare.  One
# thread: on a shared 2-core box two OpenBLAS threads doubled the CPU time
# for ~10% less wall time, and a command then stalls whenever either core
# is busy elsewhere.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# (name, unit, better); the order is the order of BENCHMARK.json
END_TO_END = (
    ("run_s", "s", "lower"),
    ("rows_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("uncertainty_auroc", "ratio", "higher"),
    ("uncertainty_tnr95", "ratio", "higher"),
)


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = [
        ("run.wall_s", "s", "lower"),
        ("run.probe_s", "s", "lower"),
        ("cli.main.total_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    for name in TRACED_NAMES:
        specs.append((f"{name}.calls", "count", "lower"))
        if name != "cli.main":
            specs.append((f"{name}.total_share", "ratio", "lower"))
        specs.append((f"{name}.self_share", "ratio", "lower"))
    specs += [
        ("pipeline.steps", "count", "higher"),
        ("nn.flop", "count", "lower"),
        ("nn.gflops_per_s", "GFLOP/s", "higher"),
        ("queue.rows_copied", "count", "lower"),
        ("queue.rows_returned", "count", "higher"),
        ("queue.copied_per_returned", "ratio", "lower"),
        ("features.load_features.bytes", "count", "lower"),
        ("features.load_features.mb_per_s", "MB/s", "higher"),
        ("vos.kept_ratio", "ratio", "higher"),
        ("scoring.mahalanobis_score.rows", "count", "higher"),
        ("metrics.to_json.bytes", "count", "lower"),
        ("datagen.generate_features.rows", "count", "higher"),
    ]
    return specs


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed gate)."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(mode: str, workload: str, seed: int, trace: int, deadline: float,
               seconds: float = 0.0) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} step")
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} step of {workload} did not end in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} step of {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def _clean(workload: str) -> None:
    shutil.rmtree(WORK / workload, ignore_errors=True)
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()


def _median_quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def end_to_end_metrics(setups, measured) -> dict:
    plan = measured["plan"]
    run_s = PROBE_REF_S * statistics.median(
        it["seconds"] / it["probe_s"] for it in measured["iterations"]
    )
    fpr95 = measured["quality"]["uncertainty"]["fpr95"]
    return {
        "run_s": run_s,
        "rows_per_s": (plan["n_id"] + plan["n_ood"]) * plan["scorers"] / run_s,
        "setup_s": PROBE_REF_S * statistics.median(s["setup_s"] / s["probe_s"] for s in setups),
        "peak_rss_mb": measured["peak_rss_mb"],
        "uncertainty_auroc": measured["quality"]["uncertainty"]["auroc"],
        "uncertainty_tnr95": 1.0 - fpr95,
    }


def per_layer_metrics(setup, measured) -> dict:
    trace = measured["trace"]
    spans, counts = trace["spans"], trace["counts"]
    setup_spans = setup["trace"]["spans"]
    traced = [it["seconds"] for it in measured["iterations"] if it["traced"]]
    plain = [it["seconds"] for it in measured["iterations"] if not it["traced"]]
    command_s = spans["cli.main"]["total_s"]
    out = {
        "run.wall_s": statistics.median(plain),
        "run.probe_s": statistics.median(it["probe_s"] for it in measured["iterations"]),
        "cli.main.total_s": command_s,
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    for name in TRACED_NAMES:
        if name in setup_spans:  # runs during set-up; shares are of set-up time
            span, whole = setup_spans[name], setup["setup_s"]
        else:
            span, whole = spans[name], command_s
        out[f"{name}.calls"] = span["calls"]
        if name != "cli.main":
            out[f"{name}.total_share"] = span["total_s"] / whole
        out[f"{name}.self_share"] = span["self_s"] / whole
    nn_s = sum(spans[f"nn.{f}"]["self_s"] for f in ("forward", "forward_cached", "backward"))
    load_s = spans["features.load_features"]["total_s"]
    copied, returned = counts["queue.rows_copied"], counts["queue.rows_returned"]
    out.update({
        "pipeline.steps": len(trace["step_ms"]) / trace["runs"],
        "nn.flop": counts["nn.flop"],
        "nn.gflops_per_s": counts["nn.flop"] / nn_s / 1e9 if nn_s else 0.0,
        "queue.rows_copied": copied,
        "queue.rows_returned": returned,
        "queue.copied_per_returned": copied / returned if returned else 0.0,
        "features.load_features.bytes": counts["features.load_features.bytes"],
        "features.load_features.mb_per_s": (
            counts["features.load_features.bytes"] / load_s / 1e6 if load_s else 0.0
        ),
        "vos.kept_ratio": (
            counts["vos.rows_kept"] / counts["vos.candidates"] if counts["vos.candidates"] else 0.0
        ),
        "scoring.mahalanobis_score.rows": counts["scoring.mahalanobis_score.rows"],
        "metrics.to_json.bytes": counts["metrics.to_json.bytes"],
        "datagen.generate_features.rows": setup["trace"]["counts"]["datagen.generate_features.rows"],
    })
    return out


def _describe_env(env: dict) -> str:
    return (
        f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
        f"numpy={env['numpy']} blas={env['blas_vendor']} {env['blas_version']} "
        f"blas_threads={env['blas_threads']}"
    )


def _print_trace(setup, measured) -> None:
    trace = measured["trace"]
    rows = dict(trace["spans"])
    rows.update(setup["trace"]["spans"])
    print(f"per-layer spans (mean per command over {trace['runs']} traced commands; "
          "datagen per set-up):")
    print(f"  {'function':<36}{'calls':>10}{'total_s':>12}{'self_s':>12}")
    for name in TRACED_NAMES:
        s = rows[name]
        print(f"  {name:<36}{s['calls']:>10g}{s['total_s']:>12.6f}{s['self_s']:>12.6f}")
    steps = trace["step_ms"]
    if steps:
        p50, p90 = statistics.median(steps), statistics.quantiles(steps, n=10)[-1]
        print(f"  pipeline.step_ms p50 {p50:.3f} ms, p90 {p90:.3f} ms "
              f"({len(steps)} steps over {trace['runs']} commands)")
    else:
        print("  pipeline.step_ms: no training steps in this workload")


def run_one(workload: str, seed: int, seconds: float, trace: int, record: bool = False):
    """Set up and measure one workload; print the report; return its result."""
    deadline = time.monotonic() + TIME_LIMIT_S
    _clean(workload)
    try:
        setups = [run_worker("setup", workload, seed, trace, deadline)
                  for _ in range(1 if trace else SETUP_REPEATS)]
        measured = run_worker("measure", workload, seed, trace, deadline, seconds)
    finally:
        _clean(workload)
    iterations = measured["iterations"]
    if trace:
        setup_uncalled = [n for n in setups[0]["trace"]["spans"]
                          if setups[0]["trace"]["spans"][n]["calls"] == 0]
        uncalled = measured["trace"]["uncalled"] + setup_uncalled
        if uncalled:
            for it in iterations:
                if it["traced"]:
                    it["problems"].append(f"predicted functions not called: {uncalled}")
    failed = sum(1 for it in iterations if it["problems"])
    if measured["quality"] is None:
        raise BenchError(f"no {workload} command succeeded")
    if trace:
        metrics = per_layer_metrics(setups[0], measured)
        specs = per_layer_specs()
    else:
        metrics = end_to_end_metrics(setups, measured)
        specs = END_TO_END
    print(f"== {workload} seed={seed} trace={trace} ==")
    print(_describe_env(measured["env"]))
    times = [it["seconds"] for it in iterations if not it["traced"]]
    med, q1, q3 = _median_quartiles(times)
    probe = statistics.median(it["probe_s"] for it in iterations)
    print(f"commands: {len(iterations)} attempted, {failed} failed "
          f"(error_rate {failed / len(iterations):.4f}); untraced wall time median {med:.4f} s, "
          f"quartiles {q1:.4f} / {q3:.4f} s over {len(times)} commands; "
          f"probe median {probe:.4f} s (reference {PROBE_REF_S} s)")
    for it in iterations:
        for problem in it["problems"]:
            print(f"  GATE FAILED: {problem.strip()}")
    ref = measured["reference"]
    state = "matches the recorded reference" if ref == measured["hash"] else (
        "no reference recorded for this environment" if ref is None else "MISMATCH")
    print(f"report sha256 {measured['hash']} ({state})")
    q = measured["quality"]
    print("quality: " + ", ".join(
        f"{name} auroc {m['auroc']:.4f} fpr95 {m['fpr95']:.4f}" for name, m in sorted(q.items())))
    if trace:
        _print_trace(setups[0], measured)
    print("metrics:")
    for name, unit, _ in specs:
        print(f"  {name:<44}{metrics[name]:>16.6g} {unit}")
    if record and not failed and not trace:
        _record(workload, seed, measured)
    return {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }


def reference_key(workload: str, seed: int, env: dict) -> str:
    """Report hashes are recorded per workload, seed and numeric environment."""
    return (
        f"{workload} seed={seed} numpy={env['numpy']} "
        f"blas={env['blas_vendor']}-{env['blas_version']} threads={env['blas_threads']}"
    )


def _record(workload: str, seed: int, measured: dict) -> None:
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    key = reference_key(workload, seed, measured["env"])
    refs.setdefault(key, measured["hash"])
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"recorded reference for {key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: one workload untraced; all workloads both)")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's report hash as the reference for its "
                             "workload, seed and numeric environment if none exists")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "lsvos" / "cli.py").is_file():
        print(f"error: {ROOT} has no src/lsvos to benchmark", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace is not None:
        modes = (args.trace,)
    else:
        modes = (0, 1) if args.workload == "all" else (0,)
    results = {}
    try:
        for workload in workloads:
            for trace in modes:
                results[(workload, trace)] = run_one(
                    workload, args.seed, args.seconds, trace, args.record_reference
                )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w} trace={t}": r["metrics"] for (w, t), r in results.items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
