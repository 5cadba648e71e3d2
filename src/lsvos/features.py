"""Feature records, the per-class FIFO queue, and feature-file persistence.

A feature record is one detection's RoI feature vector plus its predicted
class and an ID/FP label.  The queue stores inlier features only, one ring
buffer per class, and appends the one-hot of the class to every row it
hands out, so downstream consumers always see real[D+K] rows.

File formats
------------
Binary (preferred), little-endian:
    magic    4 bytes  b"VOSF"
    version  u32      currently 1
    D        u32      feature dimension
    K        u32      number of classes
    count    u64      number of records
    per record: class_id u16, label u8, D float32 feature values
Labels on the wire: 0 = ID, 1 = FP, 2 = SYNTH_OUTLIER.

CSV alternative, header ``class_id,label,f0..f{D-1}``; the label column
holds the enum name (ID/FP/SYNTH_OUTLIER), integers also accepted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import InputError, NotReadyError

FEATURE_MAGIC = b"VOSF"
FEATURE_VERSION = 1


class Label(IntEnum):
    ID = 0
    FP = 1
    SYNTH_OUTLIER = 2


@dataclass
class FeatureRecord:
    """One detection's feature vector with its predicted class and label."""

    vector: np.ndarray
    class_id: int
    label: Label
    source_id: str = ""

    def __post_init__(self):
        self.vector = np.asarray(self.vector)
        if self.vector.ndim != 1:
            raise InputError(f"feature vector must be 1-D, got shape {self.vector.shape}")
        if not np.all(np.isfinite(self.vector)):
            raise InputError("feature vector contains non-finite values")
        if self.class_id < 0:
            raise InputError(f"class_id must be non-negative, got {self.class_id}")
        self.label = Label(self.label)


@dataclass
class FeatureDataset:
    """A bag of records with consistent dimension D and class count K."""

    dim: int
    num_classes: int
    class_names: list[str]
    records: list[FeatureRecord]
    split: str = "train"

    def __post_init__(self):
        if self.dim <= 0 or self.num_classes <= 0:
            raise InputError("dim and num_classes must be positive")
        if len(self.class_names) != self.num_classes:
            raise InputError(
                f"{len(self.class_names)} class names for {self.num_classes} classes"
            )
        if self.split not in ("train", "val"):
            raise InputError(f"split must be 'train' or 'val', got {self.split!r}")
        for rec in self.records:
            if rec.vector.shape != (self.dim,):
                raise InputError(
                    f"record vector length {rec.vector.size} != dataset dim {self.dim}"
                )
            if rec.class_id >= self.num_classes:
                raise InputError(f"class_id {rec.class_id} out of range [0, {self.num_classes})")

    def select(self, label: Label | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(vectors, class_ids) for records with the given label (None = all)."""
        chosen = [r for r in self.records if label is None or r.label == label]
        if not chosen:
            return (
                np.zeros((0, self.dim), dtype=np.float64),
                np.zeros(0, dtype=np.int64),
            )
        vectors = np.stack([r.vector for r in chosen]).astype(np.float64)
        class_ids = np.array([r.class_id for r in chosen], dtype=np.int64)
        return vectors, class_ids

    def counts(self) -> dict[str, int]:
        out = {lab.name: 0 for lab in Label}
        for rec in self.records:
            out[rec.label.name] += 1
        return out


def one_hot(class_ids: np.ndarray, num_classes: int) -> np.ndarray:
    ids = np.asarray(class_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= num_classes):
        raise InputError("class_id out of range for one-hot encoding")
    out = np.zeros((ids.size, num_classes), dtype=np.float64)
    out[np.arange(ids.size), ids] = 1.0
    return out


def augment_one_hot(rec: FeatureRecord, num_classes: int) -> np.ndarray:
    """concat(vector, e_class): real[D] record -> real[D+K] row."""
    if rec.class_id >= num_classes:
        raise InputError(f"class_id {rec.class_id} >= K = {num_classes}")
    return np.concatenate(
        [rec.vector.astype(np.float64), one_hot([rec.class_id], num_classes)[0]]
    )


def append_one_hot(vectors: np.ndarray, class_ids: np.ndarray, num_classes: int) -> np.ndarray:
    """Vectorized augment: (N, D) plus ids -> (N, D+K)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise InputError("vectors must be (N, D)")
    return np.hstack([vectors, one_hot(class_ids, num_classes)])


class FeatureQueue:
    """Per-class FIFO buffers of inlier features, one-hot appended on read.

    Only ID records may enter.  Eviction is strictly oldest-first per class
    buffer; classes never interact.  Each class is a ring buffer of raw
    (D,) rows that grows by doubling up to capacity_per_class.
    """

    def __init__(self, dim: int, num_classes: int, capacity_per_class: int = 1000):
        if capacity_per_class <= 0:
            raise InputError("capacity_per_class must be positive")
        self.dim = dim
        self.num_classes = num_classes
        self.capacity_per_class = capacity_per_class
        self._rows = [np.empty((0, dim)) for _ in range(num_classes)]
        self._head = [0] * num_classes  # next write position
        self._count = [0] * num_classes

    def push(self, rec: FeatureRecord) -> None:
        if rec.label != Label.ID:
            raise InputError("queue holds inlier (ID) features only")
        if rec.class_id >= self.num_classes:
            raise InputError(f"class_id {rec.class_id} out of range")
        if rec.vector.shape != (self.dim,):
            raise InputError(f"vector length {rec.vector.size} != queue dim {self.dim}")
        self.push_many(rec.vector[None, :], [rec.class_id])

    def push_many(self, vectors: np.ndarray, class_ids: np.ndarray) -> None:
        """Bulk push of ID feature rows (already validated as inliers)."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise InputError(f"expected (N, {self.dim}) vectors")
        if not np.all(np.isfinite(vectors)):
            raise InputError("feature vectors contain non-finite values")
        ids = np.asarray(class_ids, dtype=np.int64)
        if ids.shape != (len(vectors),):
            raise InputError("class_ids must have one entry per vector")
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_classes):
            raise InputError("class_id out of range for the queue")
        for cid in range(self.num_classes):
            self._write(cid, vectors[ids == cid])

    def _write(self, cid: int, new: np.ndarray) -> None:
        cap = self.capacity_per_class
        new = new[-cap:]
        m = len(new)
        if m == 0:
            return
        rows, head, count = self._rows[cid], self._head[cid], self._count[cid]
        if count + m > len(rows) and len(rows) < cap:
            grown = np.empty((min(cap, max(count + m, 2 * len(rows))), self.dim))
            grown[:count] = self._ordered(cid)
            rows, head = grown, count
            self._rows[cid] = rows
        first = min(m, len(rows) - head)
        rows[head : head + first] = new[:first]
        rows[: m - first] = new[first:]
        self._head[cid] = (head + m) % len(rows)
        self._count[cid] = min(count + m, cap)

    def _ordered(self, cid: int, idx: np.ndarray | None = None) -> np.ndarray:
        """Rows of one class at oldest-first positions idx (default: all)."""
        count = self._count[cid]
        if idx is None:
            idx = np.arange(count)
        start = self._head[cid] - count
        return self._rows[cid].take(start + idx, axis=0, mode="wrap")

    def occupancy(self) -> list[int]:
        return list(self._count)

    def snapshot(self, class_id: int) -> np.ndarray:
        """Stored rows for one class, oldest first, shape (n, D+K)."""
        rows = self._ordered(class_id)
        return append_one_hot(rows, np.full(len(rows), class_id), self.num_classes)

    def sample(self, n_per_class: int, rng: np.random.Generator) -> np.ndarray:
        """n_per_class rows per class, uniform with replacement, class-major.

        Output is exactly (n_per_class * K, D + K); the stratification makes
        the class histogram of the sample uniform by construction.
        """
        if n_per_class <= 0:
            raise InputError("n_per_class must be positive")
        empty = [c for c, count in enumerate(self._count) if not count]
        if empty:
            raise NotReadyError(
                f"feature queue empty for classes {empty}; "
                "push inlier features before training the auto-encoder"
            )
        blocks = [
            self._ordered(cid, rng.integers(0, count, size=n_per_class))
            for cid, count in enumerate(self._count)
        ]
        class_ids = np.repeat(np.arange(self.num_classes), n_per_class)
        return append_one_hot(np.concatenate(blocks), class_ids, self.num_classes)


# --- persistence --------------------------------------------------------------


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("class_id", "<u2"), ("label", "u1"), ("vec", "<f4", (dim,))])


def save_features(path, dataset: FeatureDataset) -> None:
    """Write a dataset to the binary feature format (float32 on the wire)."""
    header = FEATURE_MAGIC + struct.pack(
        "<IIIQ", FEATURE_VERSION, dataset.dim, dataset.num_classes, len(dataset.records)
    )
    table = np.zeros(len(dataset.records), dtype=_record_dtype(dataset.dim))
    for i, rec in enumerate(dataset.records):
        table[i] = (rec.class_id, int(rec.label), rec.vector.astype("<f4"))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(table.tobytes())


def load_features(path, split: str = "train", class_names: list[str] | None = None) -> FeatureDataset:
    """Read a binary feature file written by save_features."""
    with open(path, "rb") as fh:
        data = fh.read()
    head_len = 4 + struct.calcsize("<IIIQ")
    if len(data) < head_len or data[:4] != FEATURE_MAGIC:
        raise InputError("not a lsvos feature file (bad magic)")
    version, dim, num_classes, count = struct.unpack("<IIIQ", data[4:head_len])
    if version != FEATURE_VERSION:
        raise InputError(f"unsupported feature file version {version}")
    dtype = _record_dtype(dim)
    body = data[head_len:]
    if len(body) != count * dtype.itemsize:
        raise InputError("feature file truncated or padded")
    table = np.frombuffer(body, dtype=dtype)
    records = []
    for row in table:
        try:
            label = Label(int(row["label"]))
        except ValueError as exc:
            raise InputError(f"unknown label code {int(row['label'])}") from exc
        records.append(
            FeatureRecord(np.array(row["vec"]), int(row["class_id"]), label)
        )
    if class_names is None:
        class_names = [f"class_{i}" for i in range(num_classes)]
    return FeatureDataset(dim, num_classes, class_names, records, split)


def save_features_csv(path, dataset: FeatureDataset) -> None:
    """CSV with header class_id,label,f0..f{D-1}; labels by enum name."""
    cols = ",".join(f"f{i}" for i in range(dataset.dim))
    lines = [f"class_id,label,{cols}"]
    for rec in dataset.records:
        values = ",".join(repr(float(v)) for v in rec.vector.astype(np.float32))
        lines.append(f"{rec.class_id},{rec.label.name},{values}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_features_csv(
    path,
    split: str = "train",
    num_classes: int | None = None,
    class_names: list[str] | None = None,
) -> FeatureDataset:
    """Read the CSV feature format; K defaults to max class_id + 1."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise InputError("empty feature CSV")
    header = lines[0].split(",")
    if header[:2] != ["class_id", "label"]:
        raise InputError("feature CSV must start with class_id,label columns")
    dim = len(header) - 2
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != dim + 2:
            raise InputError(f"feature CSV row has {len(parts)} fields, expected {dim + 2}")
        raw_label = parts[1]
        try:
            label = Label[raw_label] if not raw_label.isdigit() else Label(int(raw_label))
        except (KeyError, ValueError) as exc:
            raise InputError(f"unknown label {raw_label!r}") from exc
        vector = np.array([float(v) for v in parts[2:]], dtype=np.float32)
        records.append(FeatureRecord(vector, int(parts[0]), label))
    if num_classes is None:
        num_classes = max(r.class_id for r in records) + 1
    if class_names is None:
        class_names = [f"class_{i}" for i in range(num_classes)]
    return FeatureDataset(dim, num_classes, class_names, records, split)
