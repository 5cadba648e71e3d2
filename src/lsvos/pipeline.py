"""Experiment orchestration: config files, two-phase training, ablations.

Phase 1 trains the auto-encoder and the surrogate classifier on inlier
features (the uncertainty weight is forced to zero).  Phase 2 keeps both
running and adds the uncertainty head: each step pushes its inlier
minibatch into the per-class queue, draws the stratified sample for the
reconstruction loss, synthesizes virtual outliers from the minibatch,
stacks them with real false-positive features, and applies the weighted
uncertainty update.  A zero weight skips synthesis and the uncertainty
update entirely, so those parameters stay bitwise untouched.

Configs are flat "dotted.key = value" text; the config hash is taken
over the canonically sorted rendering, so key order in the file never
changes the hash.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import time
from collections import deque
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import nn, scoring
from .datagen import GeneratorSpec, generate_features
from .errors import InputError, LsvosError, NotReadyError, NumericalFailure
from .features import (
    FEATURE_VERSION,
    FeatureDataset,
    FeatureQueue,
    Label,
    load_features,
    open_features,
)
from .metrics import EvaluationReport, build_report, ece, json_text, read_json
from .models import (
    UNCERTAINTY_VARIANTS,
    ModelBundle,
    ae_gradients,
    classifier_gradients,
    default_score,
    softmax_probs,
    total_loss,
    uncertainty_gradients,
    uncertainty_score,
)
from .scoring import ScoreSet, fit_gaussian_model, mahalanobis_score, save_scores, write_csv
from .synthesis import (
    METHODS,
    NoiseSpec,
    RankedCandidates,
    SynthBatch,
    linear_mix,
    lsvos_synthesize,
    mapped_rows,
    noisy_id,
    random_noise,
    rank_candidates,
    vos_synthesize,
)

SCORER_NAMES = ("uncertainty", "default_score", "mahalanobis")
HISTORY_HEADER = "phase,epoch,step,loss_total,loss_ae,loss_clf,loss_unc,queue_occupancy"
VOS_CANDIDATES = 10000


@dataclass
class ExperimentConfig:
    """Flat experiment knobs; one attribute per dotted config key.

    The dotted key is the attribute name with its first "_" turned into
    "."; its type selects how the value is parsed and rendered.
    """

    dataset: str = "synthetic"
    data_dim: int = 64
    data_classes: int = 3
    data_class_separation: float = 16.0
    data_cov_scale: float = 1.0
    data_fp_overlap: float = 0.5
    data_fp_displacement: float = 10.0
    data_n_id_train: int = 6000
    data_n_fp_train: int = 2000
    data_n_id_val: int = 2000
    data_n_fp_val: int = 700
    model_latent_dim: int = 128
    model_encoder_hidden: tuple[int, ...] = (256, 128)
    model_decoder_hidden: tuple[int, ...] = (128, 256)
    model_uncertainty_hidden: tuple[int, ...] = (256, 256)
    model_classifier_hidden: tuple[int, ...] = (128,)
    noise_alpha: float = 0.25
    noise_beta: float = 1.0
    loss_lambda: float = 1.0
    loss_variant: str = "sigmoid"
    synth_method: str = "lsvos"
    train_phase1_epochs: int = 50
    train_phase2_epochs: int = 20
    train_epoch_scale: float = 1.0
    train_lr: float = 1e-3
    train_batch_size: int = 512
    queue_capacity: int = 1000
    sample_n_per_class: int = 500
    seed: int = 0
    methods: tuple[str, ...] = SCORER_NAMES

    def validate(self) -> None:
        # config.txt holds the path on one stripped line where '#' starts a
        # comment, so a path with any of those would read back as another
        path = self.dataset
        if not path or path != path.strip() or "#" in path or path.splitlines() != [path]:
            raise InputError(
                "dataset must be 'synthetic' or a feature directory without '#', "
                f"a line break or leading or trailing blanks, got {path!r}"
            )
        for key, (attr, parse, _) in _KEYS.items():
            value = getattr(self, attr)
            if parse is float and not math.isfinite(value):
                raise InputError(f"{key} must be finite, got {value}")
        if self.data_classes < 2:
            raise InputError("data.classes must be at least 2")
        generator_spec(self)  # GeneratorSpec checks the other data.* keys
        if self.model_latent_dim <= 0:
            raise InputError("model.latent_dim must be positive")
        for attr in (
            "model_encoder_hidden",
            "model_decoder_hidden",
            "model_uncertainty_hidden",
            "model_classifier_hidden",
        ):
            if any(h <= 0 for h in getattr(self, attr)):
                raise InputError(f"{_dotted(attr)} layer widths must be positive")
        for attr in ("noise_alpha", "noise_beta", "loss_lambda"):
            value = getattr(self, attr)
            if value < 0.0:
                raise InputError(f"{_dotted(attr)} must be non-negative, got {value}")
        if self.loss_variant not in UNCERTAINTY_VARIANTS:
            raise InputError(
                f"loss.variant must be one of {UNCERTAINTY_VARIANTS}, got {self.loss_variant!r}"
            )
        if self.synth_method not in METHODS:
            raise InputError(f"synth.method must be one of {METHODS}, got {self.synth_method!r}")
        if self.train_phase1_epochs < 0 or self.train_phase2_epochs < 0:
            raise InputError("epoch counts must be non-negative")
        # latent-space synthesis decodes through the auto-encoder phase 1 fits
        synthesizes = self.loss_lambda > 0.0 and self.train_phase2_epochs > 0
        if synthesizes and self.synth_method == "lsvos" and self.train_phase1_epochs == 0:
            raise NotReadyError("auto-encoder has not been trained; set train.phase1_epochs > 0")
        if self.train_epoch_scale <= 0.0:
            raise InputError("train.epoch_scale must be positive")
        if self.train_lr <= 0.0 or self.train_batch_size <= 0:
            raise InputError("train.lr and train.batch_size must be positive")
        if self.queue_capacity <= 0 or self.sample_n_per_class <= 0:
            raise InputError("queue.capacity and sample.n_per_class must be positive")
        if not self.methods:
            raise InputError("methods must name at least one scorer")
        unknown = [m for m in self.methods if m not in SCORER_NAMES]
        if unknown:
            raise InputError(f"unknown scorer methods {unknown}; choose from {SCORER_NAMES}")
        if len(set(self.methods)) != len(self.methods):
            raise InputError("methods must not repeat")


def generator_spec(cfg: ExperimentConfig) -> GeneratorSpec:
    """The synthetic feature generator for the config's data.* keys and seed."""
    return GeneratorSpec(
        dim=cfg.data_dim,
        num_classes=cfg.data_classes,
        class_separation=cfg.data_class_separation,
        cov_scale=cfg.data_cov_scale,
        fp_overlap=cfg.data_fp_overlap,
        fp_displacement=cfg.data_fp_displacement,
        n_id_train=cfg.data_n_id_train,
        n_fp_train=cfg.data_n_fp_train,
        n_id_val=cfg.data_n_id_val,
        n_fp_val=cfg.data_n_fp_val,
        seed=cfg.seed,
    )


def _dotted(attr: str) -> str:
    return attr.replace("_", ".", 1)


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",")]


# field type -> (parser, formatter)
_CODECS = {
    int: (int, str),
    float: (float, lambda v: repr(float(v))),
    str: (str, str),
    # blank text is an empty tuple; an empty element is a bad value
    tuple[int, ...]: (
        lambda text: tuple(int(p) for p in _split_list(text)) if text.strip() else (),
        lambda v: ",".join(str(x) for x in v),
    ),
    # empty elements are dropped
    tuple[str, ...]: (
        lambda text: tuple(p for p in _split_list(text) if p),
        ",".join,
    ),
}

# dotted key -> (attribute, parser, formatter), derived from the fields
_KEYS = {
    _dotted(name): (name, *_CODECS[hint])
    for name, hint in get_type_hints(ExperimentConfig).items()
}


def _field_updates(entries, heading: str) -> dict[str, object]:
    """Field updates from (where, "key = value") entries.

    Every malformed entry, unknown key and bad value is collected before
    raising, so one error message lists every problem; `where` prefixes
    the problems of its entry.
    """
    updates: dict[str, object] = {}
    problems: list[str] = []
    for where, text in entries:
        key, sep, value = (part.strip() for part in text.partition("="))
        if not sep:
            problems.append(f"{where}expected 'key = value', got {text.strip()!r}")
        elif key not in _KEYS:
            problems.append(f"{where}unknown key {key!r}")
        else:
            attr, parse, _ = _KEYS[key]
            try:
                updates[attr] = parse(value)
            except (ValueError, TypeError):
                problems.append(f"{where}bad value {value!r} for key {key!r}")
    if problems:
        raise InputError(f"{heading}: " + "; ".join(problems))
    return updates


def parse_config(text: str) -> ExperimentConfig:
    """Parse "key = value" lines; '#' starts a comment, blanks ignored."""
    lines = ((n, raw.split("#", 1)[0]) for n, raw in enumerate(text.splitlines(), start=1))
    entries = [(f"line {n}: ", line) for n, line in lines if line.strip()]
    cfg = ExperimentConfig(**_field_updates(entries, "config errors"))
    cfg.validate()
    return cfg


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical rendering: one key per line, sorted by dotted key."""
    return "".join(
        f"{key} = {fmt(getattr(cfg, attr))}\n" for key, (attr, _, fmt) in sorted(_KEYS.items())
    )


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def apply_overrides(cfg: ExperimentConfig, pairs) -> ExperimentConfig:
    """New config with "dotted.key=value" strings (or a dict) applied."""
    if isinstance(pairs, dict):
        pairs = [f"{k}={v}" for k, v in pairs.items()]
    out = replace(cfg, **_field_updates([("", pair) for pair in pairs], "override errors"))
    out.validate()
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    """sha256 of the canonical rendering; immune to key reordering."""
    return hashlib.sha256(format_config(cfg).encode("utf-8")).hexdigest()


def desk_preset() -> ExperimentConfig:
    """Laptop-scale run: slimmer nets, schedule scaled to 10 + 4 epochs."""
    return ExperimentConfig(
        model_latent_dim=32,
        model_encoder_hidden=(128,),
        model_decoder_hidden=(128,),
        model_uncertainty_hidden=(128, 128),
        model_classifier_hidden=(64,),
        train_epoch_scale=0.2,
    )


def effective_epochs(epochs: int, scale: float) -> int:
    """Scaled epoch count; a configured phase never drops below one epoch."""
    if epochs == 0:
        return 0
    return max(1, round(epochs * scale))


# --- manifest ------------------------------------------------------------------


@dataclass
class RunManifest:
    """Provenance sidecar: everything needed to reproduce or audit a run.

    Wall-clock time and the creation stamp vary between runs; reports,
    scores and checkpoints do not.
    """

    config_hash: str
    seed: int
    package_version: str
    numpy_version: str
    python_version: str
    checkpoint_format_version: int
    feature_format_version: int
    wall_clock_seconds: float
    outputs: dict[str, str]
    created: str
    # report bytes depend on the BLAS library and its thread count; fields
    # with a default may be missing from manifests written before them
    blas_vendor: str | None = None
    blas_threads: int | None = None

    def to_json(self) -> str:
        return json_text(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return read_json(text, cls, "manifest")


def blas_environment() -> tuple[str | None, int | None]:
    """numpy's BLAS library name and the thread count pinned in the environment.

    The count is the first of OPENBLAS_NUM_THREADS and OMP_NUM_THREADS that
    is set; it is None when that value is not an integer or neither is set
    (the library then picks its own).
    """
    try:
        vendor = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        vendor = None
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value:
            return vendor, int(value) if value.isdigit() else None
    return vendor, None


# --- training ------------------------------------------------------------------


@dataclass
class RunResult:
    report: EvaluationReport
    bundle: ModelBundle
    history: list[dict]
    manifest: RunManifest


class _Cycle:
    """Endless shuffled passes over a row matrix."""

    def __init__(self, rows: np.ndarray, rng: np.random.Generator):
        self.rows = rows
        self.rng = rng
        self.order = rng.permutation(len(rows)) if len(rows) else np.zeros(0, np.int64)
        self.pos = 0

    def take(self, n: int) -> np.ndarray:
        if len(self.rows) == 0:
            return self.rows[:0]
        picks = []
        while n > 0:
            if self.pos == len(self.order):
                self.order = self.rng.permutation(len(self.rows))
                self.pos = 0
            grab = min(n, len(self.order) - self.pos)
            picks.append(self.order[self.pos : self.pos + grab])
            self.pos += grab
            n -= grab
        return self.rows[np.concatenate(picks)]


def open_feature_dir(root) -> tuple[FeatureDataset, FeatureDataset]:
    """train.vosf under root, loaded, and val.vosf, opened as its float32
    wire records (evaluation widens a span of rows at a time), checked to
    agree on dim and classes."""
    root = Path(root)
    train_path = root / "train.vosf"
    val_path = root / "val.vosf"
    if not train_path.is_file() or not val_path.is_file():
        raise InputError(
            f"dataset directory {root} must contain train.vosf and val.vosf"
        )
    train = load_features(train_path)
    val = open_features(val_path)
    if train.dim != val.dim or train.num_classes != val.num_classes:
        raise InputError("train and val feature files disagree on dim or classes")
    return train, val


def _synthesize(
    cfg: ExperimentConfig,
    bundle: ModelBundle,
    queue: FeatureQueue,
    feats: np.ndarray,
    cls: np.ndarray,
    u_fp: np.ndarray,
    rng: np.random.Generator,
    ranked: RankedCandidates | None = None,
) -> SynthBatch:
    method = cfg.synth_method
    if method == "lsvos":
        spec = NoiseSpec(cfg.noise_alpha, cfg.noise_beta)
        return lsvos_synthesize(bundle, feats, cls, spec, rng)
    if method == "vos":
        n_per_class = _vos_per_class(len(feats), queue.num_classes)
        if ranked is None:  # the plot-only call; _train ranks its own calls ahead
            ranked = rank_candidates(
                rng, queue.num_classes, n_per_class, VOS_CANDIDATES, queue.dim
            )
        return vos_synthesize(queue, n_per_class, None, VOS_CANDIDATES, ranked)
    if method == "linear_mix":
        return linear_mix(feats, u_fp, rng)
    if method == "random_noise":
        return random_noise(len(feats), feats.shape[1], rng)
    # noisy_id: the last of METHODS, which cfg.validate() has checked
    return noisy_id(feats, rng)


def _vos_per_class(n_rows: int, num_classes: int) -> int:
    """The rows a VOS call keeps per class for a batch of n_rows inliers."""
    return max(1, math.ceil(n_rows / num_classes))


def _train(
    cfg: ExperimentConfig, u_id, id_cls, u_fp, num_classes: int, rngs
) -> tuple[ModelBundle, list[dict]]:
    """Both training phases; a one-worker pool ranks VOS calls' candidates ahead.

    The pool keeps up to `depth` rank jobs queued (see README): the first
    `depth` are submitted before the first step, and each VOS call takes
    the oldest result, then submits the next call's job.  The one worker
    runs them in call order, so rng_synth has one user at a time and ends
    as if every call had drawn its own.  `depth` is the most calls whose
    ranked rows fit in the bytes of the draw block, and at least 1: 13 at
    D = 64 and K = 3, 1 at D = 8.  A run with no VOS call submits no rank
    job.  The workspace hands the worker part of every gradient call large
    enough to split (see nn.run_threads); a run whose calls are all too small
    and that has no VOS call starts no thread.
    """
    from concurrent.futures import ThreadPoolExecutor

    rng_model, rng_train, rng_synth = rngs
    if len(u_id) == 0:
        raise InputError("training needs at least one inlier feature row")
    dim = u_id.shape[1]
    bundle = ModelBundle.build(
        dim,
        num_classes,
        rng_model,
        latent_dim=cfg.model_latent_dim,
        encoder_hidden=cfg.model_encoder_hidden,
        decoder_hidden=cfg.model_decoder_hidden,
        uncertainty_hidden=cfg.model_uncertainty_hidden,
        classifier_hidden=cfg.model_classifier_hidden,
    )
    queue = FeatureQueue(dim, num_classes, cfg.queue_capacity)
    ae_params = nn.parameters(bundle.encoder) + nn.parameters(bundle.decoder)
    clf_params = nn.parameters(bundle.classifier)
    unc_params = nn.parameters(bundle.uncertainty)
    ae_state = nn.init_adam(ae_params)
    clf_state = nn.init_adam(clf_params)
    unc_state = nn.init_adam(unc_params)
    fp_cycle = _Cycle(u_fp, rng_train)
    history: list[dict] = []
    batch = cfg.train_batch_size
    # (phase, epoch, lam, start, stop) of every step, in the order they run
    steps = [
        (phase, epoch, lam, start, min(start + batch, len(u_id)))
        for phase, epochs, lam in (
            (1, cfg.train_phase1_epochs, 0.0),
            (2, cfg.train_phase2_epochs, cfg.loss_lambda),
        )
        for epoch in range(effective_epochs(epochs, cfg.train_epoch_scale))
        for start in range(0, len(u_id), batch)
    ]
    # n_per_class of each VOS call, in call order
    sizes = [
        _vos_per_class(stop - start, num_classes)
        for *_, lam, start, stop in steps
        if lam > 0.0 and cfg.synth_method == "vos"
    ]
    # one block that every job refills; a run without VOS calls allocates
    # none, since even the untouched block read +3 MB train-desk peak RSS
    block = np.empty((VOS_CANDIDATES, dim)) if sizes else None
    # the largest call banks the most ranked rows
    n_map = mapped_rows(VOS_CANDIDATES, max(sizes, default=1), dim)
    depth = max(1, VOS_CANDIDATES // (num_classes * n_map))
    pool = ThreadPoolExecutor(1)
    # one scratch buffer for all three nets: each gradient call reuses it, and
    # adam_step consumes the gradients before the next call overwrites them;
    # a large call runs part of its rows on the pool's worker
    ws = nn.Workspace(pool)
    try:
        jobs = (
            pool.submit(rank_candidates, rng_synth, num_classes, n, VOS_CANDIDATES, dim, block)
            for n in sizes
        )
        pending = deque(islice(jobs, depth))  # phase 1 never draws from rng_synth
        for step, (phase, epoch, lam, start, stop) in enumerate(steps):
            if start == 0:
                order = rng_train.permutation(len(u_id))
            idx = order[start:stop]
            feats, cls = u_id[idx], id_cls[idx]
            queue.push_many(feats, cls)
            x_ae = queue.sample(cfg.sample_n_per_class, rng_train)
            try:
                loss_ae, ae_g = ae_gradients(bundle.encoder, bundle.decoder, x_ae, ws=ws)
                nn.adam_step(ae_params, ae_g, ae_state, lr=cfg.train_lr)
                loss_clf, clf_g = classifier_gradients(bundle.classifier, feats, cls, ws=ws)
                nn.adam_step(clf_params, clf_g, clf_state, lr=cfg.train_lr)
                loss_unc = 0.0
                if lam > 0.0:
                    ranked = pending.popleft().result() if pending else None
                    pending.extend(islice(jobs, 1))
                    synth = _synthesize(cfg, bundle, queue, feats, cls, u_fp, rng_synth, ranked)
                    # a train split without FP rows takes a (0, D) batch
                    u_ood = np.vstack([synth.vectors, fp_cycle.take(len(feats))])
                    loss_unc, unc_g = uncertainty_gradients(
                        bundle.uncertainty, feats, u_ood, cfg.loss_variant, ws=ws
                    )
                    nn.adam_step(unc_params, [lam * g for g in unc_g], unc_state, lr=cfg.train_lr)
                loss_total = total_loss(loss_clf, loss_ae, loss_unc, lam)
                if not math.isfinite(loss_total):
                    raise NumericalFailure(f"non-finite total loss {loss_total}")
            except NumericalFailure as exc:
                raise NumericalFailure(
                    f"training diverged in phase {phase}, step {step}: {exc}"
                ) from exc
            history.append(
                {
                    "phase": phase,
                    "epoch": epoch,
                    "step": step,
                    "loss_total": loss_total,
                    "loss_ae": loss_ae,
                    "loss_clf": loss_clf,
                    "loss_unc": loss_unc,
                    "queue_occupancy": sum(queue.occupancy()),
                }
            )
    finally:
        # a step that raised leaves queued jobs: drop them, wait for the running one
        pool.shutdown(cancel_futures=True)
    return bundle, history


# --- evaluation ----------------------------------------------------------------


# rows ValRows.rows gathers at a time: a 1,024-row float32 gather of
# 64-dim rows takes 256 KB
_GATHER_ROWS = 1024


@dataclass(frozen=True, eq=False)
class ValRows:
    """A val split's rows to score, as a plan over its records' vectors:
    record indices of the ID rows, then of the FP rows, each in file order."""

    vectors: np.ndarray  # the records' (N, D) vectors, float32 or float64
    order: np.ndarray  # int64 record indices, n_id ID rows first
    n_id: int
    id_class_ids: np.ndarray  # int64, one per ID row

    def rows(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Planned rows start:stop widened to float64, in the first rows of
        out if given, else in a fresh array.

        They are gathered _GATHER_ROWS at a time, so no float32 copy of
        them all is made.
        """
        if out is None:
            out = np.empty((stop - start, self.vectors.shape[1]))
        out = out[: stop - start]
        for c0 in range(start, stop, _GATHER_ROWS):
            c1 = min(c0 + _GATHER_ROWS, stop)
            out[c0 - start : c1 - start] = self.vectors[self.order[c0:c1]]
        return out

    @property
    def id_rows(self) -> np.ndarray:
        return self.rows(0, self.n_id)

    @property
    def fp_rows(self) -> np.ndarray:
        return self.rows(self.n_id, len(self.order))


def gather_val(bundle: ModelBundle, val_ds: FeatureDataset) -> ValRows:
    """The plan of the val ID and FP rows, each in file order.

    val_ds must have the model's feature dim and class count, and both ID
    and FP rows.  The plan keeps the records' vectors, not a gathered copy
    of the rows.
    """
    if (val_ds.dim, val_ds.num_classes) != (bundle.feature_dim, bundle.num_classes):
        raise InputError(
            f"model takes {bundle.feature_dim}-dim features of "
            f"{bundle.num_classes} classes; the data has {val_ds.dim}-dim "
            f"features of {val_ds.num_classes} classes"
        )
    labels = val_ds.records["label"]
    id_idx = np.flatnonzero(labels == Label.ID)
    fp_idx = np.flatnonzero(labels == Label.FP)
    if len(id_idx) == 0 or len(fp_idx) == 0:
        raise InputError("evaluation needs both ID and FP rows in the val split")
    return ValRows(
        vectors=val_ds.records["vec"],
        order=np.concatenate([id_idx, fp_idx]),
        n_id=len(id_idx),
        id_class_ids=val_ds.records["class_id"][id_idx].astype(np.int64),
    )


def _span_rows(bundle: ModelBundle) -> int:
    """Rows of one evaluate span: the least common multiple of both nets'
    nn._block_rows and the scorer's block, times the usable CPUs.

    A span then puts every row at the block offset that one pass over all
    the rows gives it, and holds at least one block per CPU.
    """
    unit = math.lcm(
        nn._block_rows(bundle.uncertainty),
        nn._block_rows(bundle.classifier),
        scoring._block_rows(bundle.feature_dim),
    )
    return unit * nn.usable_cpus()


def _spans(n: int, span: int) -> list[tuple[int, int]]:
    """(start, stop) of span-row spans over n rows, the last taking the
    tail, as nn.forward's last block does."""
    starts = list(range(0, max(1, n // span) * span, span))
    return list(zip(starts, starts[1:] + [n]))


def evaluate_bundle(
    bundle: ModelBundle, train_id, train_cls, val: ValRows, methods
) -> dict[str, ScoreSet]:
    """Score held-out ID vs FP rows with each configured scorer.

    Every score set follows the repo orientation (higher = more
    anomalous); max-softmax is negated accordingly.  A set's `ece` is filled
    for the scorers that expose a probability: the classifier's max softmax
    (class correctness on ID rows) and the uncertainty head's sigmoid
    (OOD decision correctness on all rows).  The Mahalanobis scorer fits on
    the train ID rows and their class ids.  `val` comes from gather_val.

    The planned rows are widened and scored one span of _span_rows(bundle)
    rows at a time, the last span taking the tail, into preallocated
    score arrays; the classifier's ECE pass runs over spans of the ID rows
    alone.  Every row keeps the block offset of one pass over all the
    rows, so the scores keep that pass's bits.
    """
    unknown = [method for method in methods if method not in SCORER_NAMES]
    if unknown:
        raise InputError(f"unknown scorer {unknown[0]!r}")
    n = len(val.order)
    is_ood = np.zeros(n, dtype=bool)
    is_ood[val.n_id :] = True
    if "mahalanobis" in methods:
        model = fit_gaussian_model(train_id, train_cls, bundle.num_classes)
    span = _span_rows(bundle)
    spans = _spans(n, span)
    id_spans = _spans(val.n_id, span)
    # one float64 buffer, as tall as the tallest span, takes every span in turn
    buffer = np.empty((max(r1 - r0 for r0, r1 in spans + id_spans), val.vectors.shape[1]))
    scores = {method: np.empty(n) for method in methods}
    for r0, r1 in spans:
        rows = val.rows(r0, r1, buffer)
        for method in methods:
            if method == "uncertainty":
                scores[method][r0:r1] = uncertainty_score(bundle.uncertainty, rows)
            elif method == "default_score":
                # negated max-softmax: keeps higher = more anomalous
                scores[method][r0:r1] = -default_score(bundle.classifier, rows)
            else:
                scores[method][r0:r1] = mahalanobis_score(model, rows)
    score_sets: dict[str, ScoreSet] = {}
    for method in methods:
        calibration = None
        if method == "uncertainty":
            p_ood = nn.sigmoid(scores[method])
            conf = np.maximum(p_ood, 1.0 - p_ood)
            correct = (p_ood > 0.5) == is_ood
            calibration = ece(conf, correct)
        elif method == "default_score":
            conf = np.empty(val.n_id)
            correct = np.empty(val.n_id, dtype=bool)
            for r0, r1 in id_spans:
                probs = softmax_probs(bundle.classifier, val.rows(r0, r1, buffer))
                conf[r0:r1] = probs.max(axis=1)
                correct[r0:r1] = probs.argmax(axis=1) == val.id_class_ids[r0:r1]
            calibration = ece(conf, correct)
        score_sets[method] = ScoreSet(scores[method], is_ood, ece=calibration)
    return score_sets


# --- artifacts -----------------------------------------------------------------


def _pca_rows(groups: dict[str, np.ndarray]) -> list[tuple[str, float, float]]:
    """2-D projection of all groups via SVD of the pooled matrix.

    Component signs are fixed by making each one's largest-magnitude
    loading positive, so the plot file is reproducible.
    """
    stacked = np.vstack([g for g in groups.values() if len(g)])
    mean = stacked.mean(axis=0)
    centered = stacked - mean
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[: min(2, vt.shape[0])].copy()
    for comp in comps:
        pivot = np.argmax(np.abs(comp))
        if comp[pivot] < 0:
            comp *= -1.0
    rows: list[tuple[str, float, float]] = []
    for name, block in groups.items():
        if len(block) == 0:
            continue
        proj = (block - mean) @ comps.T
        for point in proj:
            x = float(point[0])
            y = float(point[1]) if proj.shape[1] > 1 else 0.0
            rows.append((name, x, y))
    return rows


def _write_plot_files(
    plots_dir: Path,
    report: EvaluationReport,
    pca_groups: dict[str, np.ndarray],
) -> list[str]:
    tables = {}  # file name -> (header, rows), in write order
    for method, payload in report.curves.items():
        # the point arrays as Python floats and ints, as report.json has them
        roc, pr, hist = (
            {key: points.tolist() for key, points in payload[curve].items()}
            for curve in ("roc", "pr_id", "histogram")
        )
        edges = hist["edges"]
        tables[f"roc_{method}.csv"] = ("fpr,tpr", zip(roc["fpr"], roc["tpr"]))
        tables[f"pr_{method}.csv"] = ("recall,precision", zip(pr["recall"], pr["precision"]))
        tables[f"hist_{method}.csv"] = (
            "bin_left,bin_right,id_count,ood_count",
            zip(edges[:-1], edges[1:], hist["id_counts"], hist["ood_counts"]),
        )
    tables["pca.csv"] = ("group,x,y", _pca_rows(pca_groups))
    plots_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(plots_dir / name, header, rows)
    return list(tables)


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> RunResult:
    """Train per the config, evaluate, and (optionally) write artifacts.

    Artifacts: report.json, model.ckpt, scores.csv, config.txt,
    history.csv, model_card.json, plots/*.csv, manifest.json.  Reports,
    scores and checkpoints are byte-identical across reruns of the same
    config and seed under the same numpy, BLAS library and BLAS thread
    count; only the manifest carries timing.
    """
    cfg.validate()
    started = time.time()
    if cfg.dataset == "synthetic":
        train_ds, val_ds = generate_features(generator_spec(cfg))
    else:
        train_ds, val_ds = open_feature_dir(cfg.dataset)
    rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, k])) for k in (1, 2, 3)]
    train_id, train_cls = train_ds.select(Label.ID)
    train_fp, _ = train_ds.select(Label.FP)
    bundle, history = _train(cfg, train_id, train_cls, train_fp, train_ds.num_classes, rngs)
    val = gather_val(bundle, val_ds)
    score_sets = evaluate_bundle(bundle, train_id, train_cls, val, cfg.methods)
    report = build_report(score_sets, config_hash(cfg), cfg.seed)
    out_path: Path | None = None
    outputs: dict[str, str] = {}
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "report.json").write_text(report.to_json())
        bundle.save(out_path / "model.ckpt")
        save_scores(out_path / "scores.csv", score_sets)
        (out_path / "config.txt").write_text(format_config(cfg))
        write_csv(
            out_path / "history.csv",
            HISTORY_HEADER,
            ([row[k] for k in HISTORY_HEADER.split(",")] for row in history),
        )
        card = bundle.model_card()
        card.update(
            {
                "noise_alpha": cfg.noise_alpha,
                "noise_beta": cfg.noise_beta,
                "loss_lambda": cfg.loss_lambda,
                "synth_method": cfg.synth_method,
                "seed": cfg.seed,
            }
        )
        (out_path / "model_card.json").write_text(json_text(card))
        pca_groups = {"id": val.id_rows, "fp": val.fp_rows}
        # synthesized rows are plotted once phase 1 has fit the auto-encoder
        if cfg.loss_lambda > 0.0 and cfg.train_phase1_epochs > 0:
            head = min(len(train_id), 500)
            queue = FeatureQueue(train_ds.dim, train_ds.num_classes, cfg.queue_capacity)
            queue.push_many(train_id, train_cls)
            synth = _synthesize(
                cfg,
                bundle,
                queue,
                train_id[:head],
                train_cls[:head],
                train_fp,
                np.random.default_rng(np.random.SeedSequence([cfg.seed, 4])),
            )
            pca_groups["synth"] = synth.vectors
        plot_files = _write_plot_files(out_path / "plots", report, pca_groups)
        outputs = {
            "report": "report.json",
            "checkpoint": "model.ckpt",
            "scores": "scores.csv",
            "config": "config.txt",
            "history": "history.csv",
            "model_card": "model_card.json",
            "plots": ",".join(plot_files),
        }
    import lsvos

    blas_vendor, blas_threads = blas_environment()
    manifest = RunManifest(
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        package_version=lsvos.__version__,
        numpy_version=np.__version__,
        python_version=platform.python_version(),
        checkpoint_format_version=nn.CHECKPOINT_VERSION,
        feature_format_version=FEATURE_VERSION,
        wall_clock_seconds=time.time() - started,
        outputs=outputs,
        created=datetime.now(timezone.utc).isoformat(),
        blas_vendor=blas_vendor,
        blas_threads=blas_threads,
    )
    if out_path is not None:
        (out_path / "manifest.json").write_text(manifest.to_json())
    return RunResult(report, bundle, history, manifest)


# --- ablation ------------------------------------------------------------------


def _sweep_values(spec: str, values: str) -> list[str]:
    # commas inside [...] belong to one list value, whose brackets are dropped
    parts = []
    for part in re.split(r",(?![^\[]*\])", values):
        part = part.strip()
        if part.startswith("[") and part.endswith("]") and part.count("[") == 1:
            parts.append(part[1:-1].strip())
        elif "[" in part or "]" in part:
            raise InputError(
                f"sweep spec {spec!r} has an unbalanced or nested bracket in {part!r}"
            )
        elif part:
            parts.append(part)
    return parts


def sweep_from_specs(specs: list[str]) -> list[dict[str, str]]:
    """Expand "key=v1,v2,..." specs into per-run override dicts.

    Multiple specs form the cartesian product of their value lists, and a
    key may be swept by one spec only.  A list-valued point goes in
    brackets: "model.encoder_hidden=[128,64],[256]" is two points, (128, 64)
    and (256,).
    """
    axes: dict[str, list[str]] = {}
    for spec in specs:
        if "=" not in spec:
            raise InputError(f"sweep spec must be key=v1,v2,..., got {spec!r}")
        key, _, values = spec.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise InputError(f"unknown sweep key {key!r}")
        if key in axes:
            raise InputError(f"sweep key {key!r} is given twice")
        parts = _sweep_values(spec, values)
        if not parts:
            raise InputError(f"sweep spec {spec!r} lists no values")
        axes[key] = parts
    combos: list[dict[str, str]] = [{}]
    for key, parts in axes.items():
        combos = [{**combo, key: value} for combo in combos for value in parts]
    return combos


def ablate(
    base_cfg: ExperimentConfig,
    sweep: list[dict[str, str]],
    out_dir=None,
) -> list[dict]:
    """One run per override set; failures are recorded, not fatal.

    Each row holds its overrides, a status and either the per-method
    metrics or the error, so the consolidated table reads like the sweep
    spec.
    """
    if not sweep:
        raise InputError("ablation sweep must contain at least one override set")
    out_path = Path(out_dir) if out_dir is not None else None
    rows: list[dict] = []
    for i, overrides in enumerate(sweep):
        row: dict = {"overrides": dict(overrides)}
        run_dir = out_path / f"run_{i:03d}" if out_path else None
        try:
            cfg = apply_overrides(base_cfg, dict(overrides))
            result = run_experiment(cfg, out_dir=run_dir)
        except (LsvosError, np.linalg.LinAlgError, FloatingPointError) as exc:
            # a numpy failure outside LsvosError ends this point only, named by type
            row["status"] = "error"
            row["error"] = (
                str(exc) if isinstance(exc, LsvosError) else f"{type(exc).__name__}: {exc}"
            )
            rows.append(row)
            continue
        row["status"] = "ok"
        row["metrics"] = {
            name: {
                "auroc": block.auroc,
                "aupr_id": block.aupr_id,
                "aupr_ood": block.aupr_ood,
                "fpr95": block.fpr95,
                "ece": block.ece,
            }
            for name, block in result.report.methods.items()
        }
        rows.append(row)
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "ablation.json").write_text(json_text(rows))
        _write_ablation_csv(out_path / "ablation.csv", rows, base_cfg.methods)
    return rows


def _write_ablation_csv(path: Path, rows: list[dict], methods) -> None:
    keys = sorted({k for row in rows for k in row["overrides"]})
    columns = ("auroc", "aupr_id", "fpr95")
    header = keys + ["status"] + [f"{method}_{c}" for method in methods for c in columns]
    lines = []
    for row in rows:
        line = [row["overrides"].get(k, "") for k in keys] + [row["status"]]
        for method in methods:
            block = row.get("metrics", {}).get(method)
            line += ["", "", ""] if block is None else [float(block[c]) for c in columns]
        lines.append(line)
    write_csv(path, ",".join(header), lines)
