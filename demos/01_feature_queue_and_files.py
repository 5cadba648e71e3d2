"""
Feature datasets, the per-class FIFO queue, and feature files
==============================================================

Walks the feature containers from the ground up: build a dataset by
hand, attach one-hot class context, watch the bounded queue evict its
oldest rows, and round-trip everything through the binary file format.
"""

import tempfile
from pathlib import Path

import numpy as np

from lsvos.features import (
    FeatureDataset,
    FeatureQueue,
    Label,
    append_one_hot,
    load_features,
    make_records,
    one_hot,
    record_dtype,
    save_features,
)

rng = np.random.default_rng(0)

# A dataset is one record array: per detection its penultimate-layer
# vector, the class the detector assigned and a label telling us
# whether the detection was real (ID) or spurious (FP).
dim, num_classes = 6, 3
class_ids = np.arange(12) % num_classes
labels = np.where(np.arange(12) < 9, Label.ID, Label.FP)
records = make_records(rng.standard_normal((12, dim)), class_ids, labels)
print("record fields:", records.dtype.names)

ds = FeatureDataset(dim=dim, num_classes=num_classes, records=records)
print("counts by label:", ds.counts())

# select() pulls out the rows for one label as a plain matrix.
id_rows, id_classes = ds.select(Label.ID)
print("ID matrix:", id_rows.shape, "classes:", np.bincount(id_classes))

# Class context is appended as a one-hot suffix, so a conditional model
# sees [feature | class] in a single vector.
print("one_hot(2, 3) =", one_hot(2, num_classes))
conditioned = append_one_hot(id_rows, id_classes, num_classes)
print("conditioned shape:", conditioned.shape, "(last 3 columns are the class)")

# The queue keeps at most capacity_per_class rows per class and drops
# the oldest ones first.  Push 8 rows of class 0 into capacity 5: the
# survivors are exactly the last 5 pushed.
queue = FeatureQueue(dim=1, num_classes=1, capacity_per_class=5)
for value in range(8):
    queue.push_many(np.array([[float(value)]]), [0])
print("occupancy after 8 pushes into capacity 5:", queue.occupancy())
print("surviving values (oldest first):", queue.snapshot(0)[:, 0])

# sample() draws the same number of rows from every class, already
# conditioned with the one-hot suffix, so later losses see a
# class-balanced batch of [feature | class] rows.
queue2 = FeatureQueue(dim=dim, num_classes=num_classes, capacity_per_class=50)
queue2.push_many(id_rows, id_classes)
batch = queue2.sample(2, rng)
print("balanced sample shape:", batch.shape, "(2 rows per class, one-hot appended)")

# Datasets persist to a small binary format and come back bit-for-bit.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "features.vosf"
    save_features(path, ds)
    back = load_features(path)
    # the file holds float32 vectors, so compare at that precision
    wire = records.astype(record_dtype(dim, "<f4"))
    same = np.array_equal(wire.astype(records.dtype), back.records)
    print("file size:", path.stat().st_size, "bytes, round trip identical:", same)
