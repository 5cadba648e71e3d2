"""One fresh process of the benchmark: set a workload up, or measure it.

    python3 bench/worker.py setup   --workload W --seed N --trace 0|1
    python3 bench/worker.py measure --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/``
of that checkout and nowhere else.  The BLAS thread count must already be
in the environment (``bench/run.py`` sets it); it is read, not set, here,
because numpy fixes it on import.  The last line of standard output is
one JSON object with the results.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from run import REFERENCES, THREAD_VARS, reference_key  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = Path(".bench_work")
# a run always measures at least this many commands, however long they take
MIN_ITERATIONS = 2
PROBE_REPS = 3


def import_package():
    """Import lsvos from this checkout's src/, refusing any other copy."""
    if not (SRC / "lsvos" / "__init__.py").is_file():
        raise SystemExit(f"error: no lsvos package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import lsvos

    if Path(lsvos.__file__).resolve().parent != (SRC / "lsvos").resolve():
        raise SystemExit(f"error: imported lsvos from {lsvos.__file__}, not {SRC}")
    return lsvos


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """The numeric environment every result depends on."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = {var: os.environ.get(var) for var in THREAD_VARS}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(threads["OPENBLAS_NUM_THREADS"] or 0),
        "thread_env": threads,
    }


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text())


def _inputs(workload: str) -> Path:
    return WORK / workload / "inputs"


class Probe:
    """Fixed numpy and Python work, independent of lsvos, that gauges how fast
    the machine runs right now.

    On a shared box the speed of one core drifts by 25% over minutes, with
    CPU time moving with wall time.  Timing this probe around every command
    lets ``run.py`` divide that drift out.  The mix follows the workloads:
    dense matmuls of the nets' shapes, the einsum of the Mahalanobis
    ranking, and Python object churn like the per-row feature records.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20231002)
        self.np = np
        self.x = rng.standard_normal((1500, 67))
        self.w1 = rng.standard_normal((67, 128))
        self.w2 = rng.standard_normal((128, 64))
        self.q = rng.standard_normal((3000, 64))
        self.p = rng.standard_normal((64, 64))

    def _once(self) -> float:
        np = self.np
        start = time.perf_counter()
        for _ in range(20):
            h = np.maximum(self.x @ self.w1, 0.0)
            o = h @ self.w2
            o.T @ h
            o @ self.w2.T
        for _ in range(3):
            np.einsum("ij,jk,ik->i", self.q, self.p, self.q)
        [(i, i * 0.5, str(i)) for i in range(30000)]
        return time.perf_counter() - start

    def block(self) -> list[float]:
        return [self._once() for _ in range(PROBE_REPS)]


def _trace_summary(tracer, n_runs: int) -> dict:
    """Per-command averages of every span and count."""
    return {
        "runs": n_runs,
        "spans": {
            name: {
                "calls": s.calls / n_runs,
                "total_s": s.total_s / n_runs,
                "self_s": s.self_s / n_runs,
            }
            for name, s in tracer.stats.items()
        },
        "counts": {name: value / n_runs for name, value in tracer.counts.items()},
        "step_ms": tracer.step_ms,
    }


def cmd_setup(args) -> dict:
    import_package()
    from tracer import SETUP_TRACED, Tracer
    from workloads import make_inputs

    tracer = Tracer(SETUP_TRACED)
    with tracer.installed() if args.trace else contextlib.nullcontext():
        with contextlib.redirect_stdout(io.StringIO()):
            plan = make_inputs(args.workload, args.seed, _inputs(args.workload))
    out = {"setup_s": time.perf_counter() - STARTED, "plan": plan}
    out["probe_s"] = statistics.median(Probe().block())
    if args.trace:
        out["trace"] = _trace_summary(tracer, 1)
    return out


def _run_once(argv, out_dir: Path, tracer):
    """Run one command; return (seconds, report bytes or None, report, error)."""
    import lsvos.cli

    if out_dir.exists():
        shutil.rmtree(out_dir)
    captured = []

    def recording(build_report):
        # `evaluate` prints its report without saving it; keep a copy
        def recording_build_report(*a, **kw):
            report = build_report(*a, **kw)
            captured.append(report)
            return report

        return recording_build_report

    error = None
    start = time.perf_counter()
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            build_report = lsvos.cli.build_report  # the traced one, if tracing
            lsvos.cli.build_report = recording(build_report)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = lsvos.cli.main(argv)
            finally:
                lsvos.cli.build_report = build_report
        if code != 0:
            error = f"exit code {code}"
    except Exception:  # a crash counts as a failed run, and the loop goes on
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    if error:
        return seconds, None, None, error
    from lsvos.metrics import EvaluationReport

    if captured:
        report = captured[-1]
        blob = report.to_json().encode("utf-8")
    else:
        blob = (out_dir / "report.json").read_bytes()
        report = EvaluationReport.from_json(blob.decode("utf-8"))
    return seconds, blob, report, None


def cmd_measure(args) -> dict:
    import_package()
    from tracer import Tracer
    from workloads import PREDICTED, report_problems

    env = environment()
    inputs = _inputs(args.workload)
    plan = json.loads((inputs / "plan.json").read_text())
    out_dir = inputs.parent / "out"
    reference = load_references().get(reference_key(args.workload, args.seed, env))
    tracer = Tracer() if args.trace else None
    iterations = []
    first_hash = None
    quality = None
    probe = Probe()
    probes = [probe.block()]
    begin = time.perf_counter()
    while (
        len(iterations) < MIN_ITERATIONS
        or time.perf_counter() - begin < args.seconds
    ):
        # in a traced run every other command is traced, so the overhead
        # and the hash comparison come from the same process and inputs
        traced = bool(args.trace) and len(iterations) % 2 == 1
        seconds, blob, report, error = _run_once(
            plan["argv"], out_dir, tracer if traced else None
        )
        probes.append(probe.block())
        problems = [error] if error else report_problems(args.workload, report, plan)
        digest = hashlib.sha256(blob).hexdigest() if blob is not None else None
        if digest is not None:
            first_hash = first_hash or digest
            if digest != first_hash:
                problems.append(f"report hash {digest} != first run's {first_hash}")
            if reference is not None and digest != reference:
                problems.append(f"report hash {digest} != recorded reference {reference}")
        if report is not None and quality is None:
            quality = {
                name: {"auroc": m.auroc, "fpr95": m.fpr95}
                for name, m in report.methods.items()
            }
        iterations.append(
            {
                "seconds": seconds,
                # the machine's speed just before and just after the command
                "probe_s": statistics.median(probes[-2] + probes[-1]),
                "traced": traced,
                "problems": problems,
            }
        )
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out = {
        "env": env,
        "plan": plan,
        "iterations": iterations,
        "hash": first_hash,
        "reference": reference,
        "quality": quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        n_traced = sum(1 for it in iterations if it["traced"])
        summary = _trace_summary(tracer, n_traced)
        summary["uncalled"] = [
            name for name in PREDICTED[args.workload]
            if summary["spans"][name]["calls"] == 0
        ]
        out["trace"] = summary
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = cmd_setup(args) if args.mode == "setup" else cmd_measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
