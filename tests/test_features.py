import struct
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsvos import features
from lsvos.errors import InputError, NotReadyError
from lsvos.features import FeatureDataset, FeatureQueue, Label, make_records


def _push(q, vector, class_id):
    q.push_many(np.asarray([vector], dtype=np.float64), [class_id])


class TestAugment:
    def test_definition_example(self):
        rows = features.append_one_hot([[0.5, -1.0]], [0], 3)
        np.testing.assert_array_equal(rows, [[0.5, -1.0, 1.0, 0.0, 0.0]])

    def test_last_class_hot(self):
        rows = features.append_one_hot([[1.0, 2.0]], [2], 3)
        np.testing.assert_array_equal(rows[0, -3:], [0.0, 0.0, 1.0])

    def test_one_hot_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            cid = int(rng.integers(0, k))
            row = features.append_one_hot(rng.normal(size=(1, 4)), [cid], k)[0]
            assert row[4:].sum() == 1.0
            assert row.size == 4 + k

    def test_class_out_of_range_rejected(self):
        with pytest.raises(InputError):
            features.append_one_hot([[1.0]], [3], 3)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(5, 3))
        ids = rng.integers(0, 4, size=5)
        bulk = features.append_one_hot(vectors, ids, 4)
        for i in range(5):
            single = np.concatenate([vectors[i], np.eye(4)[ids[i]]])
            np.testing.assert_array_equal(bulk[i], single)


class TestRecordValidation:
    def test_rejects_non_finite(self):
        records = make_records([[1.0, np.inf]], [0], Label.ID)
        with pytest.raises(InputError):
            FeatureDataset(2, 1, records)

    def test_rejects_matrix_vector(self):
        with pytest.raises(InputError):
            make_records(np.zeros((1, 2, 2)), [0], Label.ID)
        records = make_records([[1.0, 2.0]], [0], Label.ID)
        with pytest.raises(InputError):
            FeatureDataset(2, 1, records.reshape(1, 1))
        with pytest.raises(InputError):
            FeatureDataset(2, 1, [records[0]])

    def test_dataset_checks_consistency(self):
        recs = make_records([[1.0, 2.0]], [0], Label.ID)
        with pytest.raises(InputError):
            FeatureDataset(3, 2, recs)
        with pytest.raises(InputError):
            FeatureDataset(2, 1, make_records([[1.0, 2.0]], [1], Label.ID))
        bad_label = recs.copy()
        bad_label["label"] = 3
        with pytest.raises(InputError):
            FeatureDataset(2, 2, bad_label)

    def test_make_records_rejects_what_the_wire_cannot_hold(self):
        with pytest.raises(InputError):
            make_records([[1.0]], [-1], Label.ID)
        with pytest.raises(InputError):
            make_records([[1.0]], [1 << 16], Label.ID)
        with pytest.raises(InputError):
            make_records([[1.0]], [0], 3)
        with pytest.raises(InputError):
            make_records([[1.0], [2.0]], [0], Label.ID)


class TestSelect:
    def _dataset(self):
        vectors = np.arange(12.0).reshape(6, 2)
        records = make_records(vectors, [0, 1, 2, 0, 1, 2], [0, 1, 0, 2, 0, 1])
        return FeatureDataset(2, 3, records)

    def test_mask_keeps_record_order(self):
        ds = self._dataset()
        vectors, ids = ds.select(Label.ID)
        np.testing.assert_array_equal(vectors, [[0.0, 1.0], [4.0, 5.0], [8.0, 9.0]])
        np.testing.assert_array_equal(ids, [0, 2, 1])
        assert vectors.dtype == np.float64 and vectors.flags["C_CONTIGUOUS"]
        assert ids.dtype == np.int64

    def test_all_and_empty(self):
        ds = self._dataset()
        vectors, ids = ds.select()
        np.testing.assert_array_equal(vectors, np.arange(12.0).reshape(6, 2))
        assert vectors.flags["C_CONTIGUOUS"] and len(ids) == 6
        # a copy, not a view into the records
        vectors[0, 0] = 99.0
        assert ds.records["vec"][0, 0] == 0.0
        empty = FeatureDataset(2, 3, ds.records[:0])
        vectors, ids = empty.select(Label.FP)
        assert vectors.shape == (0, 2) and ids.shape == (0,)

    def test_matches_a_per_row_loop(self):
        rng = np.random.default_rng(5)
        records = make_records(
            rng.normal(size=(200, 3)), rng.integers(0, 4, size=200), rng.integers(0, 3, size=200)
        )
        ds = FeatureDataset(3, 4, records)
        for label in Label:
            rows = [row for row in records if row["label"] == label]
            vectors, ids = ds.select(label)
            np.testing.assert_array_equal(vectors, np.stack([row["vec"] for row in rows]))
            np.testing.assert_array_equal(ids, [int(row["class_id"]) for row in rows])
            assert ds.counts()[label.name] == len(rows)


class TestQueue:
    def test_fifo_eviction(self):
        q = FeatureQueue(dim=1, num_classes=1, capacity_per_class=2)
        for v in (1.0, 2.0, 3.0):
            _push(q, [v], 0)
        np.testing.assert_array_equal(q.snapshot(0)[:, 0], [2.0, 3.0])

    def test_per_class_isolation(self):
        q = FeatureQueue(dim=1, num_classes=2, capacity_per_class=4)
        _push(q, [5.0], 1)
        for v in range(10):
            _push(q, [float(v)], 0)
        assert q.occupancy() == [4, 1]
        np.testing.assert_array_equal(q.snapshot(1)[:, 0], [5.0])

    def test_capacity_1000_keeps_last_1000_in_order(self):
        q = FeatureQueue(dim=1, num_classes=1, capacity_per_class=1000)
        for v in range(1500):
            _push(q, [float(v)], 0)
        held = q.snapshot(0)[:, 0]
        assert held.size == 1000
        np.testing.assert_array_equal(held, np.arange(500.0, 1500.0))

    def test_rejects_non_inlier_records(self):
        # push_many takes no labels: the ID selection that feeds it is the
        # gate, and FP or synthetic rows never pass it
        vectors = np.array([[1.0], [2.0], [3.0]])
        labels = [Label.ID, Label.FP, Label.SYNTH_OUTLIER]
        ds = FeatureDataset(1, 1, make_records(vectors, [0, 0, 0], labels))
        q = FeatureQueue(dim=1, num_classes=1)
        q.push_many(*ds.select(Label.ID))
        np.testing.assert_array_equal(q.snapshot(0)[:, 0], [1.0])

    def test_rejects_wrong_dim_and_class(self):
        q = FeatureQueue(dim=2, num_classes=2)
        with pytest.raises(InputError):
            _push(q, [1.0], 0)
        with pytest.raises(InputError):
            _push(q, [1.0, 2.0], 2)

    def test_stored_rows_carry_one_hot(self):
        q = FeatureQueue(dim=2, num_classes=3)
        _push(q, [0.5, -1.0], 1)
        np.testing.assert_array_equal(q.snapshot(1)[0], [0.5, -1.0, 0.0, 1.0, 0.0])

    def test_sample_row_count_and_uniform_histogram(self):
        q = FeatureQueue(dim=2, num_classes=3)
        rng = np.random.default_rng(0)
        for cid in range(3):
            for _ in range(5):
                _push(q, rng.normal(size=2), cid)
        out = q.sample(500, np.random.default_rng(1))
        assert out.shape == (1500, 5)
        # class-major blocks: the one-hot histogram is uniform by construction
        hist = out[:, 2:].sum(axis=0)
        np.testing.assert_array_equal(hist, [500.0, 500.0, 500.0])

    def test_sample_single_element_buffers_deterministic(self):
        q = FeatureQueue(dim=1, num_classes=2)
        _push(q, [7.0], 0)
        _push(q, [9.0], 1)
        out = q.sample(1, np.random.default_rng(123))
        np.testing.assert_array_equal(out, [[7.0, 1.0, 0.0], [9.0, 0.0, 1.0]])

    def test_sample_empty_class_not_ready(self):
        q = FeatureQueue(dim=1, num_classes=2)
        _push(q, [1.0], 0)
        with pytest.raises(NotReadyError):
            q.sample(10, np.random.default_rng(0))

    def test_push_many_matches_row_by_row(self):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(6, 3))
        ids = rng.integers(0, 2, size=6)
        a = FeatureQueue(dim=3, num_classes=2)
        b = FeatureQueue(dim=3, num_classes=2)
        a.push_many(vectors, ids)
        for v, c in zip(vectors, ids):
            _push(b, v, int(c))
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
        records = make_records(
            rng.normal(size=(20, 4)).astype(np.float32),
            rng.integers(0, 3, size=20),
            rng.integers(0, 3, size=20),
        )
        return FeatureDataset(4, 3, records)

    def test_binary_round_trip_bit_exact(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "feats.vosf"
        features.save_features(path, ds)
        back = features.load_features(path)
        assert back.dim == 4 and back.num_classes == 3
        assert len(back.records) == len(ds.records)
        assert back.records.dtype == ds.records.dtype
        np.testing.assert_array_equal(back.records, ds.records)
        # persist -> ingest -> persist reproduces the file byte for byte
        path2 = tmp_path / "again.vosf"
        features.save_features(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("value", [3.5e38, -1e39, 1.7e308])
    def test_refuses_a_value_past_float32_before_opening_the_file(self, tmp_path, value):
        ds = self._dataset()
        ds.records["vec"][5, 2] = value
        path = tmp_path / "feats.vosf"
        with pytest.raises(InputError, match="float32"):
            features.save_features(path, ds)
        assert not path.exists()

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

    @pytest.mark.parametrize("dim", [1 << 28, 1 << 31, (1 << 32) - 1])
    def test_rejects_a_dimension_no_record_can_hold(self, tmp_path, dim):
        path = tmp_path / "wide.vosf"
        path.write_bytes(features.FEATURE_MAGIC + struct.pack("<IIIQ", 1, dim, 3, 0))
        with pytest.raises(InputError):
            features.load_features(path)

    def test_rejects_a_class_count_past_the_class_id_field(self, tmp_path):
        path = tmp_path / "classes.vosf"
        path.write_bytes(features.FEATURE_MAGIC + struct.pack("<IIIQ", 1, 4, 1 << 17, 0))
        with pytest.raises(InputError):
            features.load_features(path)

    def test_rejects_unknown_label_and_class(self, tmp_path):
        path = tmp_path / "feats.vosf"
        features.save_features(path, self._dataset())
        head = 4 + struct.calcsize("<IIIQ")
        for offset, value in ((head + 2, 3), (head, 3)):
            data = bytearray(path.read_bytes())
            data[offset] = value
            (tmp_path / "bad.vosf").write_bytes(bytes(data))
            with pytest.raises(InputError):
                features.load_features(tmp_path / "bad.vosf")


def _load_or_input_error(path, data):
    path.write_bytes(data)
    try:
        features.load_features(path)
    except InputError:
        pass


@pytest.fixture(scope="module")
def vosf_file(tmp_path_factory):
    rng = np.random.default_rng(4)
    records = make_records(
        rng.normal(size=(6, 3)), rng.integers(0, 2, size=6), rng.integers(0, 3, size=6)
    )
    root = tmp_path_factory.mktemp("vosf")
    features.save_features(root / "f.vosf", FeatureDataset(3, 2, records))
    return (root / "f.vosf").read_bytes(), root / "mutated.vosf"


FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestMalformedFeatureFiles:
    @FUZZ
    @given(cut=st.integers(min_value=0, max_value=10_000))
    def test_truncated_file_loads_or_raises_input_error(self, vosf_file, cut):
        data, path = vosf_file
        _load_or_input_error(path, data[: cut % len(data)])

    @FUZZ
    @given(at=st.integers(min_value=0, max_value=10_000), mask=st.integers(1, 255))
    def test_flipped_byte_loads_or_raises_input_error(self, vosf_file, at, mask):
        data, path = vosf_file
        mutated = bytearray(data)
        mutated[at % len(data)] ^= mask
        _load_or_input_error(path, bytes(mutated))
