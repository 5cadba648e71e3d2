import csv
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsvos import scoring
from lsvos.errors import InputError
from lsvos.scoring import ScoreSet, Threshold
from oracles import mahalanobis_reference


class TestScoreSet:
    def test_validates_alignment_and_finiteness(self):
        with pytest.raises(InputError):
            ScoreSet(np.zeros(3), np.zeros(4, dtype=bool))
        with pytest.raises(InputError):
            ScoreSet(np.array([1.0, np.nan]), np.zeros(2, dtype=bool))

    def test_ece_is_keyword_only(self):
        # an old positional method name must not land in the ece field
        with pytest.raises(TypeError):
            ScoreSet(np.zeros(2), np.array([False, True]), "m")
        assert ScoreSet(np.zeros(2), np.array([False, True]), ece=0.25).ece == 0.25

    def test_split_properties(self):
        ss = ScoreSet(np.array([1.0, 2.0, 3.0]), np.array([False, True, False]))
        np.testing.assert_array_equal(ss.id_scores, [1.0, 3.0])
        np.testing.assert_array_equal(ss.ood_scores, [2.0])


class TestMahalanobis:
    def test_query_at_class_mean_scores_zero(self):
        rng = np.random.default_rng(0)
        rows = np.vstack([rng.normal(size=(100, 3)), 5.0 + rng.normal(size=(100, 3))])
        ids = np.repeat([0, 1], 100)
        model = scoring.fit_gaussian_model(rows, ids, 2)
        scores = scoring.mahalanobis_score(model, model.means)
        np.testing.assert_allclose(scores, [0.0, 0.0], atol=1e-20)

    def test_identity_covariance_reduces_to_euclidean(self):
        # one class per quadrant direction, crafted so the pooled
        # covariance is exactly the identity
        base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        rows = np.vstack([base, base + 10.0])
        ids = np.repeat([0, 1], 4)
        model = scoring.fit_gaussian_model(rows, ids, 2)
        np.testing.assert_allclose(model.cov, np.eye(2) * (4 / 6), atol=1e-12)
        # rescale to exact identity for the Euclidean check
        model.cov[:] = np.eye(2)
        model.precision[:] = np.eye(2)
        query = model.means[0] + np.array([3.0, 4.0])
        score = scoring.mahalanobis_score(model, query[None, :])[0]
        assert score == pytest.approx(25.0, abs=1e-9)

    def test_hand_quadratic_form(self):
        # covariance [[2,0],[0,1]], mean 0, query (2,1): 4/2 + 1/1 = 3
        model = scoring.GaussianModel(
            means=np.zeros((1, 2)),
            cov=np.array([[2.0, 0.0], [0.0, 1.0]]),
            precision=np.array([[0.5, 0.0], [0.0, 1.0]]),
            cholesky=np.linalg.cholesky(np.array([[2.0, 0.0], [0.0, 1.0]])),
        )
        score = scoring.mahalanobis_score(model, np.array([[2.0, 1.0]]))[0]
        assert score == pytest.approx(3.0, abs=1e-12)

    def test_min_over_classes(self):
        model = scoring.GaussianModel(
            means=np.array([[0.0, 0.0], [10.0, 0.0]]),
            cov=np.eye(2),
            precision=np.eye(2),
            cholesky=np.eye(2),
        )
        score = scoring.mahalanobis_score(model, np.array([[9.0, 0.0]]))[0]
        assert score == pytest.approx(1.0)

    def test_affine_invariance_under_refit(self):
        rng = np.random.default_rng(1)
        rows = np.vstack(
            [rng.normal(size=(200, 3)), rng.normal(size=(200, 3)) + [4, 0, -2]]
        )
        ids = np.repeat([0, 1], 200)
        queries = rng.normal(size=(20, 3)) * 3.0
        base = scoring.mahalanobis_score(scoring.fit_gaussian_model(rows, ids, 2), queries)
        amat = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        shift = rng.normal(size=3)
        mapped_model = scoring.fit_gaussian_model(rows @ amat.T + shift, ids, 2)
        mapped = scoring.mahalanobis_score(mapped_model, queries @ amat.T + shift)
        np.testing.assert_allclose(mapped, base, rtol=1e-6, atol=1e-6)

    def test_singular_covariance_warns_and_regularizes(self):
        rows = np.ones((10, 3))
        rows[5:] += 1.0
        ids = np.repeat([0, 1], 5)
        with pytest.warns(UserWarning, match="regulariz"):
            model = scoring.fit_gaussian_model(rows, ids, 2)
        scores = scoring.mahalanobis_score(model, np.zeros((1, 3)))
        assert np.all(np.isfinite(scores))

    def test_fit_validation(self):
        with pytest.raises(InputError):
            scoring.fit_gaussian_model(np.ones((2, 2)), np.array([0, 1]), 2)
        with pytest.raises(InputError):
            scoring.fit_gaussian_model(np.ones((5, 2)), np.zeros(5, dtype=int), 2)

    @pytest.mark.parametrize("stray", [5, 2, -1])
    def test_class_ids_outside_the_class_count_are_refused(self, stray):
        # a stray row would count in N but in no class's scatter, shrinking
        # the pooled covariance without a word
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(40, 3))
        ids = np.repeat([0, 1], 20)
        ids[::4] = stray
        with pytest.raises(InputError, match=r"\[0, 2\)"):
            scoring.fit_gaussian_model(rows, ids, 2)


def _random_model(rng, dim, k, integer=False):
    """Class means plus a well-conditioned shared covariance, fitted to nothing."""
    a = rng.normal(size=(dim, dim))
    cov = a @ a.T / dim + np.eye(dim)
    if integer:
        means = rng.integers(-2, 3, size=(k, dim)).astype(np.float64)
    else:
        means = rng.normal(size=(k, dim))
    return scoring.GaussianModel(means, cov, np.linalg.inv(cov), np.linalg.cholesky(cov))


def _random_queries(rng, model, n, integer=False):
    """Rows with repeated values and a query on a class mean (distance 0)."""
    dim = model.means.shape[1]
    if integer:
        queries = rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
    else:
        queries = rng.normal(size=(n, dim))
    if n:
        queries[rng.integers(n)] = model.means[rng.integers(len(model.means))]
    if n > 2:
        queries[-1] = queries[0]
    return queries


def _edge_rows(dim):
    """Row counts that put a block edge (B rows) or a thread edge (T rows)
    next to the last row, at dimension dim."""
    b, t = scoring._block_rows(dim), scoring._ROWS_PER_THREAD
    return {
        "B-1": b - 1,
        "B": b,
        "B+1": b + 1,
        "2B+1": 2 * b + 1,
        "T-1": t - 1,
        "T": t,
        "T+1": t + 1,
    }


def _block_edges(dim):
    """1, 2 and the row counts at the block edges of dimension dim."""
    edges = _edge_rows(dim)
    return [1, 2] + [edges[key] for key in ("B-1", "B", "B+1", "2B+1")]


def _assert_matches_reference(model, queries):
    # a query of any layout scores as its C-contiguous copy, which the
    # reference holds for C-order input
    scores = scoring.mahalanobis_score(model, queries)
    reference = mahalanobis_reference(model, np.ascontiguousarray(queries))
    assert scores.shape == reference.shape == (queries.shape[0],)
    # tobytes compares sign bits too
    assert scores.tobytes() == reference.tobytes()


class TestMahalanobisRowsInner:
    """The rows-inner einsum against the row-major einsum loop it replaced."""

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 200) | st.sampled_from([90, 91, 128]),
        k=st.integers(1, 4),
        integer=st.booleans(),
        column_major=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_the_row_major_loop(
        self, data, dim, k, integer, column_major, seed
    ):
        n = data.draw(st.integers(0, 3000) | st.sampled_from(_block_edges(dim)), "n")
        rng = np.random.default_rng(seed)
        model = _random_model(rng, dim, k, integer)
        queries = _random_queries(rng, model, n, integer)
        if column_major:
            queries = np.asfortranarray(queries)
        _assert_matches_reference(model, queries)

    @pytest.mark.parametrize(
        "n, dim, k, column_major",
        [
            (20_000, 64, 3, False),  # the eval-large shape
            (3000, 128, 2, False),  # P restarts every 64 rows
            (1, 200, 2, False),
            (1025, 91, 2, True),  # scores as its row-major copy, which restarts
            (4097, 128, 3, False),  # 64 blocks of 64 rows, the last with a lone row
            (993, 200, 3, False),  # 31 blocks of 32 rows; P restarts every 40 rows
        ],
    )
    def test_fixed_shapes(self, n, dim, k, column_major):
        rng = np.random.default_rng(n + dim)
        model = _random_model(rng, dim, k)
        queries = _random_queries(rng, model, n)
        if column_major:
            queries = np.asfortranarray(queries)
        _assert_matches_reference(model, queries)

    @pytest.mark.parametrize("rows", [1, 2, 3, "B-1", "B", "B+1", "2B+1"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_few_and_lone_rows_over_many_draws(self, rows, dim):
        # at D = 2 one row, or each of two, sums pairwise and rows among
        # more sum in flat order; a third of random draws tell them apart
        n = _edge_rows(dim)[rows] if isinstance(rows, str) else rows
        rng = np.random.default_rng(n * dim)
        for _ in range(20):
            model = _random_model(rng, dim, 2)
            _assert_matches_reference(model, rng.normal(size=(n, dim)))

    @pytest.mark.parametrize("dim", [128, 200])
    def test_p_restarts_inside_small_blocks(self, dim):
        # P restarts every 8192 // D rows, inside blocks of fewer rows than
        # at small D, and the last block may take a lone row
        rng = np.random.default_rng(dim)
        model = _random_model(rng, dim, 3)
        for n in _block_edges(dim):
            _assert_matches_reference(model, _random_queries(rng, model, n))

    @pytest.mark.parametrize("dim", [64, 128])
    def test_the_precision_operand_is_contiguous_along_the_rows(self, monkeypatch, dim):
        # a stride-0 precision operand gives the same bits on a slower
        # loop, so only the operands tell the two apart
        einsum = np.einsum
        calls = []

        def record(subscripts, *ops, **kwargs):
            calls.append((subscripts, ops))
            return einsum(subscripts, *ops, **kwargs)

        monkeypatch.setattr(np, "einsum", record)
        rng = np.random.default_rng(dim)
        model = _random_model(rng, dim, 2)
        scoring.mahalanobis_score(model, rng.normal(size=(3 * scoring._block_rows(dim), dim)))
        assert calls
        for subscripts, ops in calls:
            inputs, row = subscripts.split("->")
            # every operand, the precision one among them, steps one
            # element per row
            for term, op in zip(inputs.split(","), ops, strict=True):
                assert row in term, subscripts
                assert op.strides[term.index(row)] == op.itemsize, subscripts

    def test_strided_views_match(self):
        rng = np.random.default_rng(5)
        model = _random_model(rng, 100, 2)
        base = rng.normal(size=(600, 220))
        for queries in (
            base[:300:2, 7:107],
            base[::-1, :100],
            np.asfortranarray(base)[:300, 20:120],
            np.asfortranarray(base)[::-3, 1::2][:, :100],
            np.broadcast_to(base[0, :100], (300, 100)),
            np.broadcast_to(base[:300, :1], (300, 100)),
        ):
            _assert_matches_reference(model, queries)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 200) | st.sampled_from([2, 91, 128]),
        k=st.integers(1, 3),
        layout=st.sampled_from(["fortran", "strided", "reversed", "row", "column"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_layout_scores_as_its_c_contiguous_copy(self, data, dim, k, layout, seed):
        n = data.draw(st.integers(0, 300) | st.sampled_from([3, *_block_edges(dim)]), "n")
        rng = np.random.default_rng(seed)
        model = _random_model(rng, dim, k)
        queries = _random_queries(rng, model, n)
        if layout == "fortran":
            view = np.asfortranarray(queries)
        elif layout == "strided":
            base = np.zeros((2 * n, 2 * dim + 1))
            base[::2, 1::2] = queries
            view = base[::2, 1::2]
        elif layout == "reversed":
            view = queries[::-1, ::-1]
        elif layout == "row":  # one row broadcast down the rows (row stride 0)
            view = np.broadcast_to(queries[:1], queries.shape)
        else:  # one column broadcast across (column stride 0)
            view = np.broadcast_to(queries[:, :1], queries.shape)
        scores = scoring.mahalanobis_score(model, view)
        copy = scoring.mahalanobis_score(model, np.ascontiguousarray(view))
        assert scores.tobytes() == copy.tobytes()

    def test_no_centered_copy_of_every_query_is_kept(self):
        # at most one centered (D, N) block plus the per-class scores
        n, dim, k = 20_000, 64, 3
        rng = np.random.default_rng(6)
        model = _random_model(rng, dim, k)
        queries = rng.normal(size=(n, dim))
        tracemalloc.start()
        try:
            scoring.mahalanobis_score(model, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (dim + k + 1)


class TestMahalanobisThreads:
    """Row blocks spread over threads keep the bits of the one-thread loop."""

    # enough rows for two threads, plus a lone last row that joins the
    # block before it
    N = 2 * scoring._ROWS_PER_THREAD + 1

    def test_thread_count_follows_cpus_and_rows(self, monkeypatch):
        per_thread = scoring._ROWS_PER_THREAD
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert [scoring._score_threads(n) for n in (0, 2700, per_thread - 1)] == [1, 1, 1]
        assert [scoring._score_threads(n) for n in (per_thread, 2 * per_thread - 1)] == [1, 1]
        assert scoring._score_threads(2 * per_thread) == 2
        assert scoring._score_threads(100 * per_thread) == 4
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert scoring._score_threads(100 * per_thread) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert scoring._score_threads(100 * per_thread) == 1

    @pytest.mark.parametrize(
        "dim, layout",
        [
            (64, "row"),
            (128, "row"),  # P restarts every 64 rows
            (64, "column"),
            (128, "broadcast"),
        ],
    )
    def test_bitwise_equal_at_any_thread_count(self, monkeypatch, dim, layout):
        rng = np.random.default_rng(dim)
        model = _random_model(rng, dim, 2)
        queries = _random_queries(rng, model, self.N)
        if layout == "column":
            queries = np.asfortranarray(queries)
        elif layout == "broadcast":
            queries = np.broadcast_to(queries[0], queries.shape)
        reference = mahalanobis_reference(model, np.ascontiguousarray(queries)).tobytes()
        for threads in (1, 2, 3, 7):
            monkeypatch.setattr(scoring, "_score_threads", lambda n: threads)
            before = threading.active_count()
            scores = scoring.mahalanobis_score(model, queries)
            assert threading.active_count() == before
            assert scores.tobytes() == reference, threads

    @pytest.mark.parametrize("rows", ["B-1", "B", "B+1", "2B+1", "T-1", "T", "T+1"])
    def test_block_and_thread_edges_at_any_thread_count(self, monkeypatch, rows):
        dim = 64
        rng = np.random.default_rng(dim)
        model = _random_model(rng, dim, 2)
        queries = _random_queries(rng, model, _edge_rows(dim)[rows])
        reference = mahalanobis_reference(model, queries).tobytes()
        for threads in (1, 2, 3, 7):
            monkeypatch.setattr(scoring, "_score_threads", lambda n: threads)
            assert scoring.mahalanobis_score(model, queries).tobytes() == reference, threads

    def _record_runners(self, monkeypatch):
        """The thread of every _score_block call, in call order.  A helper
        starts its first block only once the caller has started one, so
        the helpers cannot take every block."""
        score_block = scoring._score_block
        runners, caller_ran = [], threading.Event()

        def record(*args):
            if threading.current_thread() is threading.main_thread():
                caller_ran.set()
            caller_ran.wait(30)
            runners.append(threading.current_thread())
            score_block(*args)

        monkeypatch.setattr(scoring, "_score_block", record)
        return runners

    def test_a_desk_val_split_scores_inline_and_starts_no_thread(self, monkeypatch):
        # 2,700 rows, as in every desk val split, get a count of 1
        rng = np.random.default_rng(9)
        model = _random_model(rng, 8, 2)
        queries = rng.normal(size=(2700, 8))
        assert scoring._score_threads(len(queries)) == 1
        runners = self._record_runners(monkeypatch)
        started = []
        start = threading.Thread.start

        def record_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record_start)
        scores = scoring.mahalanobis_score(model, queries)
        assert set(runners) == {threading.current_thread()}
        assert started == []
        assert scores.tobytes() == mahalanobis_reference(model, queries).tobytes()

    def test_helper_threads_end_with_the_call(self, monkeypatch):
        rng = np.random.default_rng(10)
        model = _random_model(rng, 8, 2)
        queries = rng.normal(size=(self.N, 8))
        monkeypatch.setattr(scoring, "_score_threads", lambda n: 3)
        runners = self._record_runners(monkeypatch)
        started = []
        start = threading.Thread.start

        def record_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record_start)
        before = threading.active_count()
        scoring.mahalanobis_score(model, queries)
        assert threading.active_count() == before
        # the caller scores blocks beside two helpers, and each block once
        assert len(started) == 2
        assert len(runners) == self.N // scoring._block_rows(8)
        assert threading.current_thread() in runners
        assert set(runners) <= {threading.current_thread(), *started}

    def test_a_failing_helper_raises_in_the_caller(self, monkeypatch):
        rng = np.random.default_rng(7)
        model = _random_model(rng, 8, 2)
        queries = rng.normal(size=(self.N, 8))
        score_block = scoring._score_block
        helped = threading.Event()

        def fail_off_the_main_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                helped.set()
                raise MemoryError("helper")
            # leave blocks for the helpers
            helped.wait(30)
            score_block(*args)

        monkeypatch.setattr(scoring, "_score_threads", lambda n: 3)
        monkeypatch.setattr(scoring, "_score_block", fail_off_the_main_thread)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="helper"):
            scoring.mahalanobis_score(model, queries)
        assert threading.active_count() == before

    def test_no_centered_copy_of_every_query_is_kept(self, monkeypatch):
        # as the one-thread test, plus one centered (D, B + 1) buffer per thread
        n, dim, k, threads = 20_000, 64, 3, 3
        monkeypatch.setattr(scoring, "_score_threads", lambda n: threads)
        rng = np.random.default_rng(6)
        model = _random_model(rng, dim, k)
        queries = rng.normal(size=(n, dim))
        tracemalloc.start()
        try:
            scoring.mahalanobis_score(model, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (dim + k + 1) + threads * 8 * dim * (scoring._block_rows(dim) + 1)

    def test_every_thread_shares_one_precision_operand(self, monkeypatch):
        # the (D, D, B + 1) copy of P is made once per call, not per thread
        n, dim, k = 20_000, 64, 3
        rng = np.random.default_rng(6)
        model = _random_model(rng, dim, k)
        queries = rng.normal(size=(n, dim))
        peaks = {}
        for threads in (1, 3):
            monkeypatch.setattr(scoring, "_score_threads", lambda n: threads)
            tracemalloc.start()
            try:
                scoring.mahalanobis_score(model, queries)
                _, peaks[threads] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        wide = 8 * dim * dim * (scoring._block_rows(dim) + 1)
        assert peaks[1] > wide
        assert peaks[3] - peaks[1] < wide


class TestCalibration:
    def test_hand_case_1_to_100(self):
        thr = scoring.calibrate_tau(np.arange(1.0, 101.0), 0.95)
        assert thr.tau == 95.0
        assert thr.calibration_size == 100

    def test_identical_scores_degenerate(self):
        thr = scoring.calibrate_tau(np.full(37, 4.2), 0.95)
        assert thr.tau == 4.2
        accepted = ~scoring.classify(np.full(37, 4.2), thr)
        assert accepted.mean() == 1.0

    def test_target_one_gives_max(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=50)
        thr = scoring.calibrate_tau(scores, 1.0)
        assert thr.tau == scores.max()

    def test_achieved_tpr_within_band(self):
        rng = np.random.default_rng(3)
        for n in (100, 137, 250, 1000):
            scores = rng.normal(size=n)
            thr = scoring.calibrate_tau(scores, 0.95)
            tpr = float(np.mean(scores <= thr.tau))
            assert 0.95 <= tpr <= 0.95 + 1.0 / n

    def test_order_independent(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=61)
        thr_a = scoring.calibrate_tau(scores, 0.9)
        thr_b = scoring.calibrate_tau(scores[rng.permutation(61)], 0.9)
        assert thr_a.tau == thr_b.tau

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            scoring.calibrate_tau(np.array([]))
        with pytest.raises(InputError):
            scoring.calibrate_tau(np.array([1.0, np.inf]))
        with pytest.raises(InputError):
            scoring.calibrate_tau(np.ones(5), target_tpr=0.0)
        with pytest.raises(InputError):
            scoring.calibrate_tau(np.ones(5), target_tpr=1.2)


class TestClassify:
    def test_boundary_inclusive(self):
        thr = Threshold(tau=2.0, target_tpr=0.95, calibration_size=10)
        decisions = scoring.classify(np.array([2.0, np.nextafter(2.0, 3.0)]), thr)
        assert decisions.tolist() == [False, True]

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=40)
        thr = scoring.calibrate_tau(scores, 0.9)
        base = scoring.classify(scores, thr)
        warped = np.exp(scores)
        thr_w = scoring.calibrate_tau(warped, 0.9)
        np.testing.assert_array_equal(scoring.classify(warped, thr_w), base)

    def test_calibration_set_reproduces_tpr(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=200)
        thr = scoring.calibrate_tau(scores, 0.95)
        accepted = ~scoring.classify(scores, thr)
        assert accepted.mean() >= 0.95


class TestScoreCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        sets = {
            "uncertainty": ScoreSet(rng.normal(size=6), rng.integers(0, 2, 6).astype(bool)),
            "mahalanobis": ScoreSet(rng.uniform(size=4), np.array([True, False, True, False])),
        }
        path = tmp_path / "scores.csv"
        scoring.save_scores(path, sets)
        assert path.read_text().splitlines()[0] == "item_id,method,score,truth"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["method"] for row in rows] == ["uncertainty"] * 6 + ["mahalanobis"] * 4
        for name in sets:
            mine = [row for row in rows if row["method"] == name]
            assert [int(row["item_id"]) for row in mine] == list(range(len(mine)))
            back = np.array([float(row["score"]) for row in mine])
            np.testing.assert_array_equal(back, sets[name].scores)
            truth = np.array([row["truth"] == "OOD" for row in mine])
            assert {row["truth"] for row in mine} <= {"ID", "OOD"}
            np.testing.assert_array_equal(truth, sets[name].is_ood)
