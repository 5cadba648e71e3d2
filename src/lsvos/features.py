"""Feature datasets, the per-class FIFO queue, and feature-file persistence.

A dataset is one structured record array: per detection its predicted
class, an ID/FP label and its RoI feature vector.  The queue stores
inlier features only, one ring buffer per class, and appends the one-hot
of the class to every row it hands out, so downstream consumers always
see real[D+K] rows.

File format
-----------
Binary, little-endian:
    magic    4 bytes  b"VOSF"
    version  u32      currently 1
    D        u32      feature dimension
    K        u32      number of classes
    count    u64      number of records
    per record: class_id u16, label u8, D float32 feature values
Labels on the wire: 0 = ID, 1 = FP, 2 = SYNTH_OUTLIER.  In memory the
records keep the same fields with float64 vectors.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import InputError, NotReadyError

FEATURE_MAGIC = b"VOSF"
FEATURE_VERSION = 1


class Label(IntEnum):
    ID = 0
    FP = 1
    SYNTH_OUTLIER = 2


def record_dtype(dim: int, vec: str = "<f8") -> np.dtype:
    """Record layout: class_id u16, label u8, a (dim,) vector of type vec."""
    try:
        return np.dtype([("class_id", "<u2"), ("label", "u1"), ("vec", vec, (dim,))])
    except ValueError as exc:
        raise InputError(f"feature dimension {dim} does not fit a record") from exc


def make_records(vectors: np.ndarray, class_ids: np.ndarray, labels) -> np.ndarray:
    """Record array from (N, D) vectors, N class ids and one label or N labels."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise InputError(f"vectors must be (N, D), got shape {vectors.shape}")
    ids = np.asarray(class_ids, dtype=np.int64)
    if ids.shape != (len(vectors),):
        raise InputError("class_ids must have one entry per vector")
    if ids.size and (ids.min() < 0 or ids.max() > np.iinfo(np.uint16).max):
        raise InputError("class_id out of the u16 range")
    codes = np.asarray(labels, dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= len(Label)):
        raise InputError("unknown label code")
    records = np.empty(len(vectors), dtype=record_dtype(vectors.shape[1]))
    records["class_id"] = ids
    records["label"] = codes
    records["vec"] = vectors
    return records


@dataclass
class FeatureDataset:
    """Records of one dtype, record_dtype(dim), and a class count K."""

    dim: int
    num_classes: int
    records: np.ndarray

    def __post_init__(self):
        if self.dim <= 0 or self.num_classes <= 0:
            raise InputError("dim and num_classes must be positive")
        expected = record_dtype(self.dim)
        records = self.records
        if not (isinstance(records, np.ndarray) and records.ndim == 1 and records.dtype == expected):
            raise InputError(f"records must be a 1-D array of {expected}")
        if len(records):
            top = int(records["class_id"].max())
            if top >= self.num_classes:
                raise InputError(f"class_id {top} out of range [0, {self.num_classes})")
            code = int(records["label"].max())
            if code >= len(Label):
                raise InputError(f"unknown label code {code}")
        if not np.isfinite(records["vec"]).all():
            raise InputError("feature vectors contain non-finite values")

    def select(self, label: Label) -> tuple[np.ndarray, np.ndarray]:
        """(vectors, class_ids) for records with the given label."""
        chosen = self.records["label"] == label
        return self.records["vec"][chosen], self.records["class_id"][chosen].astype(np.int64)

    def counts(self) -> dict[str, int]:
        tally = np.bincount(self.records["label"], minlength=len(Label))
        return {lab.name: int(tally[lab]) for lab in Label}


def one_hot(class_ids: np.ndarray, num_classes: int) -> np.ndarray:
    ids = np.asarray(class_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= num_classes):
        raise InputError("class_id out of range for one-hot encoding")
    out = np.zeros((ids.size, num_classes), dtype=np.float64)
    out[np.arange(ids.size), ids] = 1.0
    return out


def append_one_hot(vectors: np.ndarray, class_ids: np.ndarray, num_classes: int) -> np.ndarray:
    """concat(vectors, e_class): (N, D) plus ids -> (N, D+K)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise InputError("vectors must be (N, D)")
    return np.hstack([vectors, one_hot(class_ids, num_classes)])


class FeatureQueue:
    """Per-class FIFO buffers of inlier features, one-hot appended on read.

    Only ID features may enter.  Eviction is strictly oldest-first per class
    buffer; classes never interact.  Each class is a ring buffer of raw
    (D,) rows that grows by doubling up to capacity_per_class.
    """

    def __init__(self, dim: int, num_classes: int, capacity_per_class: int = 1000):
        if dim < 1 or num_classes < 1:
            raise InputError(f"dim and num_classes must be positive, got {dim} and {num_classes}")
        if capacity_per_class <= 0:
            raise InputError("capacity_per_class must be positive")
        self.dim = dim
        self.num_classes = num_classes
        self.capacity_per_class = capacity_per_class
        self._rows = [np.empty((0, dim)) for _ in range(num_classes)]
        self._head = [0] * num_classes  # next write position
        self._count = [0] * num_classes

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


def save_features(path, dataset: FeatureDataset) -> None:
    """Write a dataset to the binary feature format (float32 on the wire).

    A vector value beyond float32's range is refused before the file is
    opened, since it would be written as inf and every reader refuses that.
    """
    with np.errstate(over="ignore"):
        wire = dataset.records.astype(record_dtype(dataset.dim, "<f4"))
    if not np.all(np.isfinite(wire["vec"])):
        raise InputError("feature vectors exceed the float32 range of the feature file")
    header = FEATURE_MAGIC + struct.pack(
        "<IIIQ", FEATURE_VERSION, dataset.dim, dataset.num_classes, len(dataset.records)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(wire.tobytes())


def load_features(path) -> FeatureDataset:
    """Read a binary feature file written by save_features."""
    with open(path, "rb") as fh:
        data = fh.read()
    head_len = 4 + struct.calcsize("<IIIQ")
    if len(data) < head_len or data[:4] != FEATURE_MAGIC:
        raise InputError("not a lsvos feature file (bad magic)")
    version, dim, num_classes, count = struct.unpack("<IIIQ", data[4:head_len])
    if version != FEATURE_VERSION:
        raise InputError(f"unsupported feature file version {version}")
    if num_classes > 1 << 16:
        raise InputError(f"{num_classes} classes do not fit the u16 class_id field")
    wire = record_dtype(dim, "<f4")
    if len(data) - head_len != count * wire.itemsize:
        raise InputError("feature file truncated or padded")
    records = np.frombuffer(data, wire, offset=head_len).astype(record_dtype(dim))
    return FeatureDataset(dim, num_classes, records)
