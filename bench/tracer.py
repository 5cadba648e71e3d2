"""Per-layer tracing of lsvos from outside the package.

Each traced function is replaced, for the duration of a ``with
tracer.installed():`` block, by a wrapper that records a span (calls,
total time, self time) and the counts named in TRACED.  Every binding of
the function is replaced: the defining module's attribute, the name
imported into other lsvos modules (``pipeline``, ``synthesis`` and
``cli`` import ``ae_gradients``, ``fit_gaussian_model``,
``build_report``, ``run_experiment`` and ``evaluate_bundle`` by name) and
the package namespace.  Methods are replaced on their class.  Nothing
under ``src/`` is edited; on exit every binding is restored.

Self time is a span's duration minus the time of the traced spans nested
directly inside it.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
import types
from dataclasses import dataclass

# (layer, qualified attribute inside lsvos.<layer>)
TRACED = (
    ("cli", "main"),
    ("pipeline", "run_experiment"),
    ("pipeline", "evaluate_bundle"),
    ("nn", "forward"),
    ("nn", "forward_cached"),
    ("nn", "backward"),
    ("nn", "adam_step"),
    ("nn", "save_checkpoint"),
    ("nn", "load_checkpoint"),
    ("models", "ae_gradients"),
    ("models", "classifier_gradients"),
    ("models", "uncertainty_gradients"),
    ("models", "uncertainty_score"),
    ("models", "softmax_probs"),
    ("features", "FeatureQueue.push_many"),
    ("features", "FeatureQueue.sample"),
    ("features", "FeatureQueue.snapshot"),
    ("features", "load_features"),
    ("features", "FeatureDataset.select"),
    ("synthesis", "lsvos_synthesize"),
    ("synthesis", "vos_synthesize"),
    ("scoring", "fit_gaussian_model"),
    ("scoring", "mahalanobis_score"),
    ("scoring", "save_scores"),
    ("metrics", "build_report"),
    ("metrics", "auroc"),
    ("metrics", "aupr"),
    ("metrics", "roc_points"),
    ("metrics", "ece"),
    ("metrics", "EvaluationReport.to_json"),
    ("datagen", "generate_features"),
)
TRACED_NAMES = tuple(f"{layer}.{attr}" for layer, attr in TRACED)
# set-up generates every workload's feature files; a traced set-up that
# records no call to these fails like a traced command
SETUP_TRACED = ("datagen.generate_features",)

# A training step starts with FeatureQueue.push_many; evaluation closes
# the last step of a run.
STEP_START = "features.FeatureQueue.push_many"
STEP_END = "pipeline.evaluate_bundle"
QUEUE_PREFIX = "features.FeatureQueue."
# numpy functions that copy rows; counted while a queue method is running
COPYING = ("stack", "vstack", "hstack", "concatenate")

COUNTERS = (
    "nn.flop",
    "queue.rows_copied",
    "queue.rows_returned",
    "vos.rows_kept",
    "vos.candidates",
    "features.load_features.bytes",
    "scoring.mahalanobis_score.rows",
    "metrics.to_json.bytes",
    "datagen.generate_features.rows",
)


def _macs(net) -> int:
    return sum(layer.fan_in * layer.fan_out for layer in net.layers)


# Count hooks take the function's result followed by its own arguments.
def _on_forward(counts, result, net, x, *_, **__):
    counts["nn.flop"] += 2 * len(x) * _macs(net)


def _on_backward(counts, result, net, caches, d_out, *_, **__):
    counts["nn.flop"] += 4 * len(d_out) * _macs(net)


def _on_queue_read(counts, result, *_, **__):
    counts["queue.rows_returned"] += len(result)


def _on_vos(counts, result, queue, n_per_class, quantile, n_candidates, *_, **__):
    counts["vos.rows_kept"] += len(result.vectors)
    counts["vos.candidates"] += n_candidates * queue.num_classes


def _on_load(counts, result, path, *_, **__):
    counts["features.load_features.bytes"] += os.path.getsize(path)


def _on_mahalanobis(counts, result, model, queries, *_, **__):
    counts["scoring.mahalanobis_score.rows"] += len(queries)


def _on_to_json(counts, result, *_, **__):
    counts["metrics.to_json.bytes"] += len(result.encode("utf-8"))


def _on_generate(counts, result, *_, **__):
    counts["datagen.generate_features.rows"] += sum(len(ds.records) for ds in result)


HOOKS = {
    "nn.forward": _on_forward,
    "nn.forward_cached": _on_forward,
    "nn.backward": _on_backward,
    "features.FeatureQueue.sample": _on_queue_read,
    "features.FeatureQueue.snapshot": _on_queue_read,
    "features.load_features": _on_load,
    "synthesis.vos_synthesize": _on_vos,
    "scoring.mahalanobis_score": _on_mahalanobis,
    "metrics.EvaluationReport.to_json": _on_to_json,
    "datagen.generate_features": _on_generate,
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _CountingNumpy(types.ModuleType):
    """Stands in for ``numpy`` inside lsvos.features and counts row copies."""

    def __init__(self, tracer: "Tracer", numpy: types.ModuleType):
        super().__init__("numpy")
        # a copy of numpy's namespace keeps every other lookup as fast as before
        vars(self).update(vars(numpy))
        self._tracer = tracer
        for name in COPYING:
            setattr(self, name, self._counting(getattr(numpy, name)))

    def _counting(self, fn):
        tracer = self._tracer

        def copy_rows(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.current().startswith(QUEUE_PREFIX) and out.ndim:
                tracer.counts["queue.rows_copied"] += out.shape[0]
            return out

        return copy_rows


class Tracer:
    """Spans and counts for the functions in ``names`` while installed."""

    def __init__(self, names=TRACED_NAMES):
        unknown = set(names) - set(TRACED_NAMES)
        if unknown:
            raise ValueError(f"not traceable: {sorted(unknown)}")
        self.names = tuple(names)
        self.stats = {name: SpanStats() for name in self.names}
        self.counts = {name: 0 for name in COUNTERS}
        self.step_ms: list[float] = []
        self._stack: list[tuple[str, list[float]]] = []
        self._last_step: float | None = None

    def current(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        hook = HOOKS.get(name)
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append((name, children))
            start = time.perf_counter()
            if name == STEP_START or name == STEP_END:
                self._mark_step(start, closes=name == STEP_END)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1][0] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children[0]
            if hook is not None:
                hook(counts, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _mark_step(self, now: float, closes: bool) -> None:
        if self._last_step is not None:
            self.step_ms.append(1000.0 * (now - self._last_step))
        self._last_step = None if closes else now

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of each traced function; restore on exit."""
        patches = []  # (owner, attribute, original, replacement)
        for name in TRACED_NAMES:
            importlib.import_module(f"lsvos.{name.split('.')[0]}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lsvos" or key.startswith("lsvos."))]
        for name in self.names:
            layer, attr = name.split(".", 1)
            owner = sys.modules[f"lsvos.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                patches.append((cls, meth, cls.__dict__[meth], self._wrap(name, cls.__dict__[meth])))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original, wrapper))
        features = importlib.import_module("lsvos.features")
        patches.append((features, "np", features.np, _CountingNumpy(self, features.np)))
        self._last_step = None
        try:
            for owner, key, _, replacement in patches:
                setattr(owner, key, replacement)
            yield self
        finally:
            for owner, key, original, _ in reversed(patches):
                setattr(owner, key, original)
            self._last_step = None
