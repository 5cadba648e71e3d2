from collections import deque

import numpy as np
import pytest

from lsvos import features
from lsvos.errors import InputError, NotReadyError
from lsvos.features import FeatureDataset, FeatureQueue, FeatureRecord, Label


def _rec(vector, class_id, label=Label.ID):
    return FeatureRecord(np.asarray(vector, dtype=np.float64), class_id, label)


class TestAugment:
    def test_definition_example(self):
        row = features.augment_one_hot(_rec([0.5, -1.0], 0), 3)
        np.testing.assert_array_equal(row, [0.5, -1.0, 1.0, 0.0, 0.0])

    def test_last_class_hot(self):
        row = features.augment_one_hot(_rec([1.0, 2.0], 2), 3)
        np.testing.assert_array_equal(row[-3:], [0.0, 0.0, 1.0])

    def test_one_hot_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            cid = int(rng.integers(0, k))
            row = features.augment_one_hot(_rec(rng.normal(size=4), cid), k)
            assert row[4:].sum() == 1.0
            assert row.size == 4 + k

    def test_class_out_of_range_rejected(self):
        with pytest.raises(InputError):
            features.augment_one_hot(_rec([1.0], 3), 3)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(5, 3))
        ids = rng.integers(0, 4, size=5)
        bulk = features.append_one_hot(vectors, ids, 4)
        for i in range(5):
            single = features.augment_one_hot(_rec(vectors[i], int(ids[i])), 4)
            np.testing.assert_array_equal(bulk[i], single)


class TestRecordValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            _rec([1.0, np.inf], 0)

    def test_rejects_matrix_vector(self):
        with pytest.raises(InputError):
            FeatureRecord(np.zeros((2, 2)), 0, Label.ID)

    def test_dataset_checks_consistency(self):
        recs = [_rec([1.0, 2.0], 0)]
        with pytest.raises(InputError):
            FeatureDataset(3, 2, ["a", "b"], recs)
        with pytest.raises(InputError):
            FeatureDataset(2, 1, ["a"], [_rec([1.0, 2.0], 1)])
        with pytest.raises(InputError):
            FeatureDataset(2, 2, ["a", "b"], recs, split="test")


class TestQueue:
    def test_fifo_eviction(self):
        q = FeatureQueue(dim=1, num_classes=1, capacity_per_class=2)
        for v in (1.0, 2.0, 3.0):
            q.push(_rec([v], 0))
        np.testing.assert_array_equal(q.snapshot(0)[:, 0], [2.0, 3.0])

    def test_per_class_isolation(self):
        q = FeatureQueue(dim=1, num_classes=2, capacity_per_class=4)
        q.push(_rec([5.0], 1))
        for v in range(10):
            q.push(_rec([float(v)], 0))
        assert q.occupancy() == [4, 1]
        np.testing.assert_array_equal(q.snapshot(1)[:, 0], [5.0])

    def test_capacity_1000_keeps_last_1000_in_order(self):
        q = FeatureQueue(dim=1, num_classes=1, capacity_per_class=1000)
        for v in range(1500):
            q.push(_rec([float(v)], 0))
        held = q.snapshot(0)[:, 0]
        assert held.size == 1000
        np.testing.assert_array_equal(held, np.arange(500.0, 1500.0))

    def test_rejects_non_inlier_records(self):
        q = FeatureQueue(dim=1, num_classes=1)
        with pytest.raises(InputError):
            q.push(_rec([1.0], 0, Label.FP))
        with pytest.raises(InputError):
            q.push(_rec([1.0], 0, Label.SYNTH_OUTLIER))

    def test_rejects_wrong_dim_and_class(self):
        q = FeatureQueue(dim=2, num_classes=2)
        with pytest.raises(InputError):
            q.push(_rec([1.0], 0))
        with pytest.raises(InputError):
            q.push(_rec([1.0, 2.0], 2))

    def test_stored_rows_carry_one_hot(self):
        q = FeatureQueue(dim=2, num_classes=3)
        q.push(_rec([0.5, -1.0], 1))
        np.testing.assert_array_equal(q.snapshot(1)[0], [0.5, -1.0, 0.0, 1.0, 0.0])

    def test_sample_row_count_and_uniform_histogram(self):
        q = FeatureQueue(dim=2, num_classes=3)
        rng = np.random.default_rng(0)
        for cid in range(3):
            for _ in range(5):
                q.push(_rec(rng.normal(size=2), cid))
        out = q.sample(500, np.random.default_rng(1))
        assert out.shape == (1500, 5)
        # class-major blocks: the one-hot histogram is uniform by construction
        hist = out[:, 2:].sum(axis=0)
        np.testing.assert_array_equal(hist, [500.0, 500.0, 500.0])

    def test_sample_single_element_buffers_deterministic(self):
        q = FeatureQueue(dim=1, num_classes=2)
        q.push(_rec([7.0], 0))
        q.push(_rec([9.0], 1))
        out = q.sample(1, np.random.default_rng(123))
        np.testing.assert_array_equal(out, [[7.0, 1.0, 0.0], [9.0, 0.0, 1.0]])

    def test_sample_empty_class_not_ready(self):
        q = FeatureQueue(dim=1, num_classes=2)
        q.push(_rec([1.0], 0))
        with pytest.raises(NotReadyError):
            q.sample(10, np.random.default_rng(0))

    def test_push_many_matches_push(self):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(6, 3))
        ids = rng.integers(0, 2, size=6)
        a = FeatureQueue(dim=3, num_classes=2)
        b = FeatureQueue(dim=3, num_classes=2)
        a.push_many(vectors, ids)
        for v, c in zip(vectors, ids):
            b.push(_rec(v, int(c)))
        for cid in range(2):
            np.testing.assert_array_equal(a.snapshot(cid), b.snapshot(cid))


class _DequeQueue:
    """Reference queue: one deque(maxlen=capacity) of augmented rows per class."""

    def __init__(self, dim, num_classes, capacity):
        self.width = dim + num_classes
        self.eye = np.eye(num_classes)
        self.buffers = [deque(maxlen=capacity) for _ in range(num_classes)]

    def push_many(self, vectors, class_ids):
        for vec, cid in zip(vectors, class_ids):
            self.buffers[cid].append(np.concatenate([vec, self.eye[cid]]))

    def occupancy(self):
        return [len(buf) for buf in self.buffers]

    def snapshot(self, cid):
        buf = self.buffers[cid]
        return np.stack(list(buf)) if buf else np.zeros((0, self.width))

    def sample(self, n_per_class, rng):
        blocks = []
        for buf in self.buffers:
            idx = rng.integers(0, len(buf), size=n_per_class)
            blocks.append(np.stack(list(buf))[idx])
        return np.vstack(blocks)


class TestQueueAgainstDequeReference:
    @pytest.mark.parametrize("capacity", [1, 7, 50])
    def test_random_batches_match_reference(self, capacity):
        dim, k = 3, 4
        rng = np.random.default_rng(capacity)
        q = FeatureQueue(dim=dim, num_classes=k, capacity_per_class=capacity)
        ref = _DequeQueue(dim, k, capacity)
        for step in range(80):
            # batch sizes up to several times the capacity, skewed class mix
            size = int(rng.integers(0, 3 * capacity * k + 2))
            vectors = rng.normal(size=(size, dim))
            ids = rng.choice(k, size=size, p=[0.55, 0.25, 0.15, 0.05])
            q.push_many(vectors, ids)
            ref.push_many(vectors, ids)
            assert q.occupancy() == ref.occupancy()
            for cid in range(k):
                np.testing.assert_array_equal(q.snapshot(cid), ref.snapshot(cid))
            if all(ref.occupancy()):
                rng_q, rng_ref = (np.random.default_rng(step) for _ in range(2))
                n = int(rng.integers(1, 2 * capacity + 2))
                np.testing.assert_array_equal(q.sample(n, rng_q), ref.sample(n, rng_ref))
                assert rng_q.bit_generator.state == rng_ref.bit_generator.state
        assert ref.occupancy() == [capacity] * k


class TestPersistence:
    def _dataset(self):
        rng = np.random.default_rng(3)
        records = [
            FeatureRecord(
                rng.normal(size=4).astype(np.float32),
                int(rng.integers(0, 3)),
                Label(int(rng.integers(0, 3))),
                source_id=f"det_{i}",
            )
            for i in range(20)
        ]
        return FeatureDataset(4, 3, ["car", "ped", "cyc"], records)

    def test_binary_round_trip_bit_exact(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "feats.vosf"
        features.save_features(path, ds)
        back = features.load_features(path)
        assert back.dim == 4 and back.num_classes == 3
        assert len(back.records) == len(ds.records)
        for orig, re in zip(ds.records, back.records):
            np.testing.assert_array_equal(orig.vector, re.vector)
            assert orig.class_id == re.class_id and orig.label == re.label
        # persist -> ingest -> persist reproduces the file byte for byte
        path2 = tmp_path / "again.vosf"
        features.save_features(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_binary_rejects_bad_magic_and_truncation(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "feats.vosf"
        features.save_features(path, ds)
        data = path.read_bytes()
        (tmp_path / "bad.vosf").write_bytes(b"XXXX" + data[4:])
        with pytest.raises(InputError):
            features.load_features(tmp_path / "bad.vosf")
        (tmp_path / "cut.vosf").write_bytes(data[:-3])
        with pytest.raises(InputError):
            features.load_features(tmp_path / "cut.vosf")

    def test_csv_round_trip(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "feats.csv"
        features.save_features_csv(path, ds)
        header = path.read_text().splitlines()[0]
        assert header == "class_id,label,f0,f1,f2,f3"
        back = features.load_features_csv(path, num_classes=3)
        for orig, re in zip(ds.records, back.records):
            np.testing.assert_array_equal(orig.vector, re.vector)
            assert orig.class_id == re.class_id and orig.label == re.label

    def test_csv_accepts_integer_labels(self, tmp_path):
        path = tmp_path / "feats.csv"
        path.write_text("class_id,label,f0\n0,1,2.5\n1,ID,0.25\n")
        ds = features.load_features_csv(path)
        assert ds.records[0].label == Label.FP
        assert ds.records[1].label == Label.ID
        assert ds.num_classes == 2

    def test_csv_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "feats.csv"
        path.write_text("class_id,label,f0\n0,ID\n")
        with pytest.raises(InputError):
            features.load_features_csv(path)
        path.write_text("class_id,label,f0\n0,GHOST,1.0\n")
        with pytest.raises(InputError):
            features.load_features_csv(path)
