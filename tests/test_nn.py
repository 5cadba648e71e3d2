import os
import struct
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsvos import nn
from lsvos.errors import InputError, NumericalFailure

import oracles


def _last_activation(net, activation):
    # a checkpoint may carry a relu last layer; dense_net always builds identity
    net.layers[-1].activation = activation
    return net


class TestForward:
    def test_two_layer_hand_computation(self):
        # layer 1: relu([1, 2] @ [[1, -1], [0, 2]] + [0, -10]) = relu([1, 3-10])
        l1 = nn.Layer(np.array([[1.0, -1.0], [0.0, 2.0]]), np.array([0.0, -10.0]))
        # layer 2: [1, 0] @ [[3], [5]] + [1] = [4]
        l2 = nn.Layer(np.array([[3.0], [5.0]]), np.array([1.0]), "identity")
        net = nn.DenseNet([l1, l2])
        out = nn.forward(net, np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(out, [[4.0]])

    def test_relu_clamps_negative_preactivations(self):
        layer = nn.Layer(np.eye(3), np.zeros(3), "relu")
        out = nn.forward(nn.DenseNet([layer]), np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_glorot_init_bounds_and_zero_bias(self):
        rng = np.random.default_rng(0)
        net = nn.dense_net([20, 30, 5], rng)
        for layer in net.layers:
            limit = np.sqrt(6.0 / (layer.fan_in + layer.fan_out))
            assert np.all(np.abs(layer.weights) <= limit)
            assert np.all(layer.bias == 0.0)
        assert net.layers[0].activation == "relu"
        assert net.layers[1].activation == "identity"

    def test_same_seed_same_net(self):
        a = nn.dense_net([4, 8, 2], np.random.default_rng(7))
        b = nn.dense_net([4, 8, 2], np.random.default_rng(7))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_input_validation(self):
        net = nn.dense_net([3, 2], np.random.default_rng(0))
        with pytest.raises(InputError):
            nn.forward(net, np.zeros(3))  # 1-D
        with pytest.raises(InputError):
            nn.forward(net, np.zeros((2, 4)))  # wrong width
        with pytest.raises(InputError):
            nn.forward(net, np.zeros((0, 3)))  # empty
        with pytest.raises(InputError):
            nn.forward(net, np.array([[1.0, np.nan, 0.0]]))

    def test_builder_rejects_bad_dims(self):
        with pytest.raises(InputError):
            nn.dense_net([4], np.random.default_rng(0))
        with pytest.raises(InputError):
            nn.dense_net([4, 0, 2], np.random.default_rng(0))


class TestForwardInPlace:
    """forward writes bias and relu into each layer's own product."""

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 40), min_size=2, max_size=5),
        rows=st.integers(1, 300),
        final=st.sampled_from(["identity", "relu"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_fresh_arrays(self, dims, rows, final, seed):
        rng = np.random.default_rng(seed)
        net = _last_activation(nn.dense_net(dims, rng), final)
        for layer in net.layers:
            layer.bias[:] = rng.normal(size=layer.fan_out)
        x = rng.normal(size=(rows, dims[0]))
        before = x.copy()
        out = nn.forward(net, x)
        a = x
        for layer in net.layers:
            z = a @ layer.weights
            z += layer.bias
            a = np.maximum(z, 0.0) if layer.activation == "relu" else z
        assert out.shape == a.shape
        assert out.tobytes() == a.tobytes()
        assert x.tobytes() == before.tobytes()

    def test_inf_weight_names_the_layer(self):
        net = nn.dense_net([4, 8, 8, 2], np.random.default_rng(2))
        net.layers[1].weights[0, 0] = np.inf
        with pytest.raises(NumericalFailure, match="layer 1"):
            nn.forward(net, np.ones((3, 4)))

    def test_unknown_activation_rejected(self):
        net = nn.DenseNet([nn.Layer(np.eye(2), np.zeros(2), "tanh")])
        with pytest.raises(InputError, match="tanh"):
            nn.forward(net, np.ones((1, 2)))
        with pytest.raises(InputError, match="tanh"):
            nn.forward_cached(net, np.ones((1, 2)))

    def test_two_activation_blocks_are_alive_at_a_time(self):
        # a layer's product, bias and relu share one block, so only the
        # layer's input and output are alive (16,000 rows run in one pass)
        rows = 16_000
        rng = np.random.default_rng(3)
        net = nn.dense_net([64, 128, 128, 1], rng)
        x = rng.normal(size=(rows, 64))
        tracemalloc.start()
        try:
            nn.forward(net, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * rows * 128 * 8 + rows * 8


def _biased_net(dims, rng, final="identity"):
    net = _last_activation(nn.dense_net(dims, rng), final)
    for layer in net.layers:
        layer.bias[:] = rng.normal(size=layer.fan_out)
    return net


def _block_sizes(b):
    # one row; one block of fewer than b, exactly b and almost 2b rows; the
    # smallest batches of two blocks; and a tail merged into the last block
    return (1, b - 1, b, 2 * b - 1, 2 * b, 2 * b + 1, 3 * b + 17)


class TestForwardBlocks:
    """A batch runs in row blocks with one pass's bits."""

    def _assert_matches_one_pass(self, net, x):
        before = x.copy()
        out = nn.forward(net, x)
        ref = oracles.forward_reference(net, x)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()
        assert x.tobytes() == before.tobytes()

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        d_in=st.integers(3, 40),
        # at least 40 multiply-adds per row in every layer: blocks of at
        # most 25,024 rows keep the batches small
        hidden=st.lists(st.integers(40, 64), min_size=1, max_size=2),
        d_out=st.integers(1, 4),
        final=st.sampled_from(["identity", "relu"]),
        which=st.integers(0, 6),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_one_pass(self, d_in, hidden, d_out, final, which, order, seed):
        rng = np.random.default_rng(seed)
        net = _biased_net([d_in, *hidden, d_out], rng, final)
        rows = _block_sizes(nn._block_rows(net))[which]
        x = np.asarray(rng.normal(size=(rows, d_in)), order=order)
        self._assert_matches_one_pass(net, x)

    @pytest.mark.parametrize(
        "dims",
        [
            [64, 128, 128, 1],  # the desk preset's uncertainty head
            [64, 64, 3],  # the desk preset's classifier
            [4, 30, 4],  # fan_in * fan_out = 120: blocks of more than 8,192 rows
            [64, 2],  # one layer, no hidden buffers
        ],
    )
    def test_fixed_shapes(self, dims):
        rng = np.random.default_rng(11)
        net = _biased_net(dims, rng)
        b = nn._block_rows(net)
        for rows in _block_sizes(b):
            self._assert_matches_one_pass(net, rng.normal(size=(rows, dims[0])))

    def test_block_rule(self):
        rng = np.random.default_rng(0)
        assert nn._block_rows(nn.dense_net([64, 128, 128, 1], rng)) == nn.FORWARD_BLOCK_ROWS
        # 122 multiply-adds a row: 8,192 rows stay below the blocked kernel
        narrow = nn._block_rows(nn.dense_net([2, 61, 2], rng))
        assert narrow > nn.FORWARD_BLOCK_ROWS and narrow % 64 == 0
        assert narrow * 122 > nn.BLOCKED_GEMM_MACS
        assert (narrow - 64) * 122 <= nn.BLOCKED_GEMM_MACS

    def test_non_finite_in_the_last_block_names_the_layer(self):
        rng = np.random.default_rng(4)
        net = _biased_net([64, 128, 128, 1], rng)
        net.layers[1].weights *= 1e150
        b = nn._block_rows(net)
        x = rng.normal(size=(3 * b + 17, 64))
        # layer 1 overflows only on the rows of the last block
        x[-100:] *= 1e160
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="after layer 1$"):
            oracles.forward_reference(net, x)
        with pytest.raises(NumericalFailure, match="after layer 1$"):
            nn.forward(net, x)
        assert np.all(np.isfinite(oracles.forward_reference(net, x[: 2 * b])))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_memory_is_bounded_by_the_block(self, monkeypatch, threads):
        # 4 blocks of a 64-128-128-1 net: one pass peaked at two (N, 128)
        # activations, one thread's blocks at 0.54 of one; each further
        # thread adds its two hidden buffers of one block
        monkeypatch.setattr(nn, "usable_cpus", lambda: threads)
        b = nn.FORWARD_BLOCK_ROWS
        rows = 4 * b
        rng = np.random.default_rng(3)
        net = nn.dense_net([64, 128, 128, 1], rng)
        x = rng.normal(size=(rows, 64))
        tracemalloc.start()
        try:
            nn.forward(net, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * rows * 128 * 8 + (threads - 1) * 2 * b * 128 * 8


REPO_ROOT = Path(__file__).resolve().parents[1]


class TestForwardThreads:
    """Row blocks spread over threads keep the bits of one pass."""

    COUNTS = (1, 2, 3, 7)

    def test_thread_count_follows_cpus_and_blocks(self, monkeypatch):
        run_threads, counts = nn.run_threads, []

        def record(work, items, per_thread, worker=None):
            counts.append(len(per_thread))
            run_threads(work, items, per_thread, worker)

        monkeypatch.setattr(nn, "run_threads", record)
        rng = np.random.default_rng(0)
        net = nn.dense_net([2, 64, 2], rng)
        b = nn._block_rows(net)
        x = rng.normal(size=(5 * b, 2))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert nn.usable_cpus() == 4
        for blocks in (2, 3, 4, 5):
            nn.forward(net, x[: blocks * b])
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        nn.forward(net, x)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        nn.forward(net, x)
        assert counts == [2, 3, 4, 4, 3, 1]

    @pytest.mark.parametrize(
        "dims, final",
        [
            ([16, 128, 128, 1], "identity"),  # a one-output (gemv) last layer
            ([8, 40, 40, 4], "relu"),
            ([4, 30, 4], "identity"),  # blocks of more than 8,192 rows
            ([64, 2], "identity"),  # one layer, no hidden buffers
        ],
    )
    @pytest.mark.parametrize("order", "CF")
    def test_bitwise_equal_to_one_pass_at_any_thread_count(self, monkeypatch, dims, final, order):
        rng = np.random.default_rng(len(dims) + dims[-1])
        net = _biased_net(dims, rng, final)
        # three blocks and a tail merged into the last one
        x = np.asarray(rng.normal(size=(3 * nn._block_rows(net) + 17, dims[0])), order=order)
        before = x.copy()
        reference = oracles.forward_reference(net, x).tobytes()
        # switch threads often: a block taken twice or never leaves rows of
        # the np.empty output wrong
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in self.COUNTS:
                monkeypatch.setattr(nn, "usable_cpus", lambda: threads)
                alive = threading.active_count()
                out = nn.forward(net, x)
                assert threading.active_count() == alive
                assert out.shape == (len(x), dims[-1])
                assert out.tobytes() == reference, threads
                assert x.tobytes() == before.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_non_finite_in_two_blocks_names_the_lower_blocks_layer(self, monkeypatch):
        rng = np.random.default_rng(5)
        net = _biased_net([64, 128, 128, 1], rng)
        net.layers[1].weights *= 1e100
        net.layers[2].weights *= 1e100
        b = nn._block_rows(net)
        x = rng.normal(size=(4 * b, 64))
        # block 1 overflows after layer 2 only, the later block 3 already
        # after layer 1
        x[b + 10 : b + 20] *= 1e150
        x[3 * b + 10 : 3 * b + 20] *= 1e250
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalFailure, match="after layer 2$"):
                oracles.forward_reference(net, x[b : 2 * b])
            with pytest.raises(NumericalFailure, match="after layer 1$"):
                oracles.forward_reference(net, x[3 * b :])
        for threads in self.COUNTS:
            monkeypatch.setattr(nn, "usable_cpus", lambda: threads)
            with pytest.raises(NumericalFailure, match="after layer 2$"):
                nn.forward(net, x)

    @pytest.mark.parametrize("several", [False, True], ids=["one-block", "three-blocks"])
    def test_no_warning_comes_before_the_failure(self, monkeypatch, several):
        # every row of layer 0 overflows, on one block of 10 rows and on
        # three blocks over two threads
        monkeypatch.setattr(nn, "usable_cpus", lambda: 2)
        net = nn.dense_net([8, 16, 1], np.random.default_rng(0))
        net.layers[0].weights[...] = 1e308
        x = np.ones((3 * nn._block_rows(net) if several else 10, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="after layer 0$"):
                nn.forward(net, x)

    def _record(self, monkeypatch):
        """The thread of every _forward_block call, and every thread started.
        A helper starts its first block only once the caller has started
        one, so the helpers cannot take every block."""
        forward_block = nn._forward_block
        runners, started, caller_ran = [], [], threading.Event()

        def record(*args):
            if threading.current_thread() is threading.main_thread():
                caller_ran.set()
            caller_ran.wait(30)
            runners.append(threading.current_thread())
            forward_block(*args)

        start = threading.Thread.start

        def record_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(nn, "_forward_block", record)
        monkeypatch.setattr(threading.Thread, "start", record_start)
        return runners, started

    def test_one_block_or_one_thread_starts_no_thread(self, monkeypatch):
        rng = np.random.default_rng(9)
        net = nn.dense_net([64, 128, 128, 1], rng)
        runners, started = self._record(monkeypatch)
        # 2,700 rows, as in every desk val split, are one block
        nn.forward(net, rng.normal(size=(2700, 64)))
        assert runners == [] and started == []
        monkeypatch.setattr(nn, "usable_cpus", lambda: 1)
        nn.forward(net, rng.normal(size=(2 * nn._block_rows(net), 64)))
        assert runners == [threading.current_thread()] * 2
        assert started == []

    def test_helper_threads_end_with_the_call(self, monkeypatch):
        rng = np.random.default_rng(10)
        net = nn.dense_net([16, 128, 128, 1], rng)
        monkeypatch.setattr(nn, "usable_cpus", lambda: 3)
        runners, started = self._record(monkeypatch)
        alive = threading.active_count()
        nn.forward(net, rng.normal(size=(4 * nn._block_rows(net), 16)))
        assert threading.active_count() == alive
        # the caller runs blocks beside two helpers, and each block runs once
        assert len(started) == 2 and len(runners) == 4
        assert threading.current_thread() in runners
        assert set(runners) <= {threading.current_thread(), *started}

    def test_spread_keeps_the_bits_at_two_blas_threads(self):
        # helpers make BLAS calls: at 2 OpenBLAS threads, 2 forward threads
        # give the bytes of the one-thread path
        script = textwrap.dedent(
            """
            import numpy as np
            from lsvos import nn

            rng = np.random.default_rng(0)
            net = nn.dense_net([64, 128, 128, 1], rng)
            for layer in net.layers:
                layer.bias[:] = rng.normal(size=layer.fan_out)
            x = rng.normal(size=(3 * nn._block_rows(net) + 17, 64))
            outs = []
            for threads in (1, 2):
                nn.usable_cpus = lambda: threads
                outs.append(nn.forward(net, x).tobytes())
            assert outs[0] == outs[1], "2 threads changed the bits"
            print("same bits")
            """
        )
        inherited = os.environ.get("PYTHONPATH")
        pythonpath = os.pathsep.join([str(REPO_ROOT / "src")] + ([inherited] if inherited else []))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        env.update(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "same bits\n"


@pytest.fixture
def worker():
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1)
    yield pool
    pool.shutdown()


class TestRunThreads:
    """The one runner: every item once, on the caller and on its jobs."""

    @pytest.mark.parametrize("entries", [1, 2, 3])
    @pytest.mark.parametrize("on_worker", [False, True], ids=["own-pool", "worker"])
    def test_every_item_runs_exactly_once(self, worker, entries, on_worker):
        taken = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            alive = threading.active_count()
            nn.run_threads(
                lambda i, tag: taken.append((i, tag)),
                [(i,) for i in range(500)],
                [(f"entry {k}",) for k in range(entries)],
                worker if on_worker else None,
            )
            if not on_worker:
                assert threading.active_count() == alive
        finally:
            sys.setswitchinterval(interval)
        assert sorted(i for i, _ in taken) == list(range(500))
        # each call got the entry of the thread that ran it
        assert {tag for _, tag in taken} <= {f"entry {k}" for k in range(entries)}

    def test_a_busy_worker_leaves_every_item_to_the_caller(self, worker):
        release = threading.Event()
        busy = worker.submit(release.wait, 30)
        runners = []
        try:
            nn.run_threads(
                lambda i: runners.append(threading.current_thread()),
                [(i,) for i in range(5)],
                [(), ()],
                worker,
            )
            # the call ended while the worker was still busy
            assert not busy.done()
        finally:
            release.set()
        assert busy.result()
        assert runners == [threading.current_thread()] * 5

    @pytest.mark.parametrize("on_worker", [False, True], ids=["own-pool", "worker"])
    def test_one_entry_starts_no_thread(self, worker, monkeypatch, on_worker):
        started = []
        start = threading.Thread.start

        def record_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record_start)
        runners = []
        nn.run_threads(
            lambda i, tag: runners.append((threading.current_thread(), tag)),
            [(i,) for i in range(3)],
            [("only",)],
            worker if on_worker else None,
        )
        assert runners == [(threading.current_thread(), "only")] * 3
        assert started == []

    @pytest.mark.parametrize("on_worker", [False, True], ids=["own-pool", "worker"])
    def test_a_jobs_exception_is_raised_in_the_caller(self, worker, on_worker):
        helped = threading.Event()

        def work(i):
            if threading.current_thread() is not threading.main_thread():
                helped.set()
                raise MemoryError("job")
            # leave an item to the job
            helped.wait(30)

        alive, items = threading.active_count(), [(i,) for i in range(10)]
        with pytest.raises(MemoryError, match="job"):
            nn.run_threads(work, items, [(), ()], worker if on_worker else None)
        if not on_worker:
            assert threading.active_count() == alive

    def test_the_callers_exception_waits_for_the_jobs(self):
        caller_took, job_took, running, done = threading.Event(), threading.Event(), [0], []

        def work(i):
            if threading.current_thread() is threading.main_thread():
                caller_took.set()
                job_took.wait(30)
                raise MemoryError("caller")
            caller_took.wait(30)
            running[0] += 1
            job_took.set()
            time.sleep(0.001)
            done.append(i)
            running[0] -= 1

        alive = threading.active_count()
        with pytest.raises(MemoryError, match="caller"):
            nn.run_threads(work, [(i,) for i in range(100)], [(), ()])
        # the job ran every item the caller did not take
        assert running == [0] and len(done) == 99
        assert threading.active_count() == alive


class TestLosses:
    def test_mse_hand_value_and_grad(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = np.zeros((2, 2))
        loss, grad = nn.loss_and_grad(y, "mse", t)
        assert loss == pytest.approx((1 + 4 + 9 + 16) / 4)
        np.testing.assert_allclose(grad, 2.0 * y / 4.0)

    def test_cross_entropy_uniform_logits(self):
        y = np.zeros((5, 4))
        loss, _ = nn.loss_and_grad(y, "cross-entropy", np.zeros(5, dtype=int))
        assert loss == pytest.approx(np.log(4.0))

    def test_cross_entropy_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(6, 3))
        _, grad = nn.loss_and_grad(y, "cross-entropy", rng.integers(0, 3, size=6))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_uncertainty_sigmoid_zero_logits(self):
        # sigma(0) = 1/2 on both sides: -1/2 - (1 - 1/2) = -1
        y = np.zeros((4, 1))
        mask = np.array([True, True, False, False])
        loss, _ = nn.loss_and_grad(y, "uncertainty-sigmoid", mask)
        assert loss == pytest.approx(-1.0)

    def test_uncertainty_sigmoid_known_logits(self):
        # sigma(ln 3) = 3/4: outlier term -3/4, inlier at -ln 3 gives -(1 - 1/4)
        y = np.array([[np.log(3.0)], [-np.log(3.0)]])
        mask = np.array([True, False])
        loss, _ = nn.loss_and_grad(y, "uncertainty-sigmoid", mask)
        assert loss == pytest.approx(-1.5)

    def test_uncertainty_sigmoid_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            y = rng.normal(scale=5.0, size=(8, 1))
            mask = rng.integers(0, 2, size=8).astype(bool)
            mask[0], mask[1] = True, False
            loss, _ = nn.loss_and_grad(y, "uncertainty-sigmoid", mask)
            assert -2.0 < loss < 0.0

    def test_uncertainty_sigmoid_one_sided_batches(self):
        y = np.full((3, 1), 2.0)
        loss_out, _ = nn.loss_and_grad(y, "uncertainty-sigmoid", np.ones(3, dtype=bool))
        assert loss_out == pytest.approx(-nn.sigmoid(np.array([2.0]))[0])
        loss_in, _ = nn.loss_and_grad(y, "uncertainty-sigmoid", np.zeros(3, dtype=bool))
        assert loss_in == pytest.approx(-(1.0 - nn.sigmoid(np.array([2.0]))[0]))

    def test_uncertainty_bce_zero_logits(self):
        y = np.zeros((2, 1))
        mask = np.array([True, False])
        loss, _ = nn.loss_and_grad(y, "uncertainty-bce", mask)
        assert loss == pytest.approx(2.0 * np.log(2.0))

    def test_uncertainty_bce_stable_at_extreme_logits(self):
        y = np.array([[500.0], [-500.0]])
        mask = np.array([False, True])
        loss, grad = nn.loss_and_grad(y, "uncertainty-bce", mask)
        assert np.isfinite(loss) and loss > 100.0
        assert np.all(np.isfinite(grad))

    def test_loss_input_validation(self):
        y = np.zeros((2, 2))
        with pytest.raises(InputError):
            nn.loss_and_grad(y, "mse", np.zeros((2, 3)))
        with pytest.raises(InputError):
            nn.loss_and_grad(y, "cross-entropy", np.array([0, 5]))
        with pytest.raises(InputError):
            nn.loss_and_grad(y, "uncertainty-sigmoid", np.array([True, False]))
        with pytest.raises(InputError):
            nn.loss_and_grad(np.zeros((2, 1)), "uncertainty-sigmoid", np.array([1, 0]))
        with pytest.raises(InputError):
            nn.loss_and_grad(y, "hinge", np.zeros((2, 2)))


class TestGradients:
    def test_single_neuron_analytic(self):
        # y = w x + b, L = (y - t)^2; dL/dw = 2(y - t)x, dL/db = 2(y - t)
        net = nn.DenseNet([nn.Layer(np.array([[2.0]]), np.array([0.5]), "identity")])
        loss, grads = nn.gradients(
            net, np.array([[3.0]]), "mse", np.array([[1.0]])
        )
        assert loss == pytest.approx(30.25)
        np.testing.assert_allclose(grads[0], [[33.0]])
        np.testing.assert_allclose(grads[1], [11.0])

    @pytest.mark.parametrize(
        "loss_kind", ["mse", "cross-entropy", "uncertainty-sigmoid", "uncertainty-bce"]
    )
    def test_matches_finite_differences(self, loss_kind):
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            net, batch, targets = oracles.random_net_and_batch(rng, loss_kind)
            _, analytic = nn.gradients(net, batch, loss_kind, targets)
            numeric = oracles.finite_difference_gradients(net, batch, loss_kind, targets)
            assert oracles.max_relative_error(analytic, numeric) < 1e-4

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(5)
        net = nn.dense_net([4, 6, 3], rng)
        x = rng.normal(size=(7, 4))
        t = rng.integers(0, 3, size=7)
        loss_a, grads_a = nn.gradients(net, x, "cross-entropy", t)
        perm = rng.permutation(7)
        loss_b, grads_b = nn.gradients(net, x[perm], "cross-entropy", t[perm])
        assert loss_a == pytest.approx(loss_b, rel=1e-12)
        for ga, gb in zip(grads_a, grads_b):
            np.testing.assert_allclose(ga, gb, rtol=1e-12, atol=1e-14)

    def test_nonfinite_weights_raise(self):
        net = nn.dense_net([2, 2], np.random.default_rng(0))
        net.layers[0].weights[0, 0] = np.inf
        with pytest.raises(NumericalFailure):
            nn.gradients(net, np.ones((1, 2)), "mse", np.ones((1, 2)))

    def test_an_overflowed_mse_loss_raises_before_any_warning(self):
        # layer 0's 8e300 activations give finite outputs, whose squared
        # errors overflow
        net = nn.dense_net([8, 16, 1], np.random.default_rng(0))
        net.layers[0].weights[...] = 1e300
        x = np.ones((10, 8))
        out, _ = nn.forward_cached(net, x)
        assert np.all(np.isfinite(out))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="^non-finite mse loss$"):
                nn.gradients(net, x, "mse", np.zeros((10, 1)))

    def test_an_overflowed_weight_gradient_names_its_layer(self):
        # activations 17 and 340 and the loss stay finite, but layer 0's
        # dW = x.T @ dz holds 1.7e308 * 20
        net = nn.DenseNet(
            [
                nn.Layer(np.full((3, 2), 1e-307), np.zeros(2), "relu"),
                nn.Layer(np.array([[10.0, -10.0], [10.0, -10.0]]), np.zeros(2), "identity"),
            ]
        )
        x = np.array([[1.7e308, 0.0, 0.0]])
        out, _ = nn.forward_cached(net, x)
        assert np.all(np.isfinite(out))
        assert np.isfinite(nn.loss_and_grad(out, "cross-entropy", np.array([1]))[0])
        with pytest.raises(NumericalFailure, match="non-finite gradient at layer 0$"):
            nn.gradients(net, x, "cross-entropy", np.array([1]))

    @pytest.mark.parametrize("loss_kind", ["uncertainty-sigmoid", "uncertainty-bce"])
    def test_only_the_activation_check_catches_an_overflowed_logit(self, loss_kind):
        # finite weights whose last layer overflows the outlier's logit to +inf
        net = nn.dense_net([3, 4, 1], np.random.default_rng(8))
        net.layers[0].weights[...] = 1e200
        net.layers[1].weights[...] = 1e200
        x = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
        is_out = np.array([True, False])
        with pytest.raises(NumericalFailure, match="after layer 1$"):
            nn.gradients(net, x, loss_kind, is_out)
        # past that check the loss is finite and the outlier's gradient a
        # silent -0: a check on the loss and gradients alone would train on
        loss, grad = nn.loss_and_grad(np.array([[np.inf], [0.0]]), loss_kind, is_out)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert grad[0, 0] == 0.0 and np.signbit(grad[0, 0])


def _workspace_nets():
    rng = np.random.default_rng(21)
    # the auto-encoder's stack: an identity layer between two relu layers
    encoder = nn.dense_net([11, 32, 6], rng)
    decoder = nn.dense_net([6, 32, 8], rng)
    return {
        "ae": nn.DenseNet(encoder.layers + decoder.layers),
        "clf": nn.dense_net([8, 16, 3], rng),
        "unc": nn.dense_net([8, 16, 16, 1], rng),
    }


def _workspace_batch(name, rows, rng):
    if name == "ae":
        x = rng.normal(size=(rows, 11))
        return x, "mse", x[:, :8]
    x = rng.normal(size=(rows, 8))
    if name == "clf":
        return x, "cross-entropy", rng.integers(0, 3, size=rows)
    kind = "uncertainty-sigmoid" if rng.random() < 0.5 else "uncertainty-bce"
    return x, kind, rng.random(rows) < 0.5


# the desk preset per step: 1500 queue rows for the auto-encoder, a
# 512-row minibatch (368 in the last one) for the classifier, and the
# minibatch stacked with as many virtual outliers and FPs for the head
DESK_CALLS = [
    ("ae", 1500), ("clf", 512), ("unc", 1536),
    ("ae", 1500), ("clf", 368), ("unc", 1104),
    ("ae", 1500), ("clf", 512), ("unc", 1536),
]


class TestWorkspace:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from(["ae", "clf", "unc"]),
                st.one_of(st.integers(1, 40), st.sampled_from([368, 512, 1536])),
            ),
            min_size=1,
            max_size=10,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(calls=DESK_CALLS, seed=0)
    @example(calls=[("unc", 1536), ("ae", 1), ("clf", 1), ("ae", 40), ("unc", 1)], seed=1)
    def test_shared_workspace_is_bitwise_equal_to_fresh_arrays(self, calls, seed):
        rng = np.random.default_rng(seed)
        nets = _workspace_nets()
        ws = nn.Workspace()
        for name, rows in calls:
            net = nets[name]
            x, kind, targets = _workspace_batch(name, rows, rng)
            loss, grads = nn.gradients(net, x, kind, targets, ws)
            fresh_loss, fresh = nn.gradients(net, x, kind, targets)
            ref_loss, ref = oracles.gradients_reference(net, x, kind, targets)
            assert loss == fresh_loss == ref_loss
            for g, f, r in zip(grads, fresh, ref, strict=True):
                assert g.shape == f.shape == r.shape
                assert g.tobytes() == f.tobytes() == r.tobytes()
            # move the weights as training would, so later calls see new values
            for p, g in zip(nn.parameters(net), grads):
                p -= 1e-3 * g

    def test_steady_state_calls_reuse_the_buffer(self):
        rng = np.random.default_rng(3)
        nets = _workspace_nets()
        ws = nn.Workspace()
        runs = []
        for _ in range(3):
            step = []
            for name, rows in DESK_CALLS[:3]:
                _, grads = nn.gradients(nets[name], *_workspace_batch(name, rows, rng), ws)
                step.append(grads[0])
            runs.append(step)
        # the buffer grows while the first step finds its largest call, and
        # from then on every call hands out the same memory again
        for a, b in zip(runs[1], runs[2]):
            assert np.shares_memory(a, b)
        _, fresh = nn.gradients(nets["clf"], *_workspace_batch("clf", 512, rng))
        _, again = nn.gradients(nets["clf"], *_workspace_batch("clf", 512, rng))
        assert not np.shares_memory(fresh[0], again[0])

    def test_failure_names_the_layer_and_leaves_the_workspace_usable(self):
        rng = np.random.default_rng(4)
        net = _workspace_nets()["unc"]
        ws = nn.Workspace()
        x, kind, targets = _workspace_batch("unc", 512, rng)
        nn.gradients(net, x, kind, targets, ws)
        saved = net.layers[1].weights[0, 0]
        net.layers[1].weights[0, 0] = np.inf
        with pytest.raises(NumericalFailure, match="layer 1"):
            nn.gradients(net, x, kind, targets, ws)
        net.layers[1].weights[0, 0] = saved
        x, kind, targets = _workspace_batch("unc", 700, rng)
        loss, grads = nn.gradients(net, x, kind, targets, ws)
        ref_loss, ref = oracles.gradients_reference(net, x, kind, targets)
        assert loss == ref_loss
        assert [g.tobytes() for g in grads] == [r.tobytes() for r in ref]


def _zeroed(net, index):
    # every pre-activation of the layer is exactly zero
    net.layers[index].weights[...] = 0.0
    net.layers[index].bias[...] = 0.0
    return net


class TestReluMaskFromOutput:
    """backward masks each relu layer with its own output, not its pre-activation."""

    @pytest.mark.parametrize(
        "make_net",
        [
            lambda rng: _last_activation(nn.dense_net([5, 7, 4], rng), "relu"),
            lambda rng: _last_activation(nn.dense_net([5, 7, 6, 4], rng), "relu"),
            lambda rng: _zeroed(nn.dense_net([5, 7, 6, 4], rng), 0),
            lambda rng: _zeroed(_last_activation(nn.dense_net([5, 7, 6, 4], rng), "relu"), 2),
        ],
        ids=["relu-last", "deep-relu-last", "zero-hidden", "zero-relu-last"],
    )
    @pytest.mark.parametrize("rows", [1, 9, 300])
    def test_bitwise_equal_to_reference(self, make_net, rows):
        rng = np.random.default_rng(rows)
        net = make_net(rng)
        ws = nn.Workspace()
        for _ in range(2):
            x = rng.normal(size=(rows, 5))
            targets = rng.normal(size=(rows, 4))
            ref_loss, ref = oracles.gradients_reference(net, x, "mse", targets)
            for workspace in (ws, None):
                loss, grads = nn.gradients(net, x, "mse", targets, workspace)
                assert loss == ref_loss
                assert [g.tobytes() for g in grads] == [r.tobytes() for r in ref]

    def test_autoencoder_workspace_holds_outputs_and_gradients(self):
        # the desk auto-encoder on its 1,500-row sample: one block per layer
        # output, the parameter gradients, and the gradient of each layer's
        # input above the first
        rows, dims = 1500, [67, 128, 32, 128, 64]
        rng = np.random.default_rng(7)
        encoder = nn.dense_net(dims[:3], rng)
        decoder = nn.dense_net(dims[2:], rng)
        net = nn.DenseNet(encoder.layers + decoder.layers)
        x = rng.normal(size=(rows, 67))
        ws = nn.Workspace()
        nn.gradients(net, x, "mse", x[:, :64], ws)
        ws.reset()
        pairs = list(zip(dims[:-1], dims[1:]))
        want = (
            sum(rows * fan_out for _, fan_out in pairs)
            + sum(fan_in * fan_out + fan_out for fan_in, fan_out in pairs)
            + sum(rows * fan_in for fan_in, _ in pairs[1:])
        )
        assert want == 985_312
        assert ws._buf.size == want


def _desk_nets(seed):
    """The desk preset's auto-encoder stack, uncertainty head and classifier,
    with non-zero biases."""
    rng = np.random.default_rng(seed)
    encoder = _biased_net([67, 128, 32], rng)
    decoder = _biased_net([32, 128, 64], rng)
    return {
        "ae": nn.DenseNet(encoder.layers + decoder.layers),
        "unc": _biased_net([64, 128, 128, 1], rng),
        "clf": _biased_net([64, 64, 3], rng),
    }


def _desk_batch(name, rows, rng):
    x = rng.normal(size=(rows, 67 if name == "ae" else 64))
    if name == "ae":
        return x, "mse", x[:, :64]
    if name == "clf":
        return x, "cross-entropy", rng.integers(0, 3, size=rows)
    return x, "uncertainty-sigmoid", rng.random(rows) < 0.5


class TestSplitGradients:
    """A workspace's worker runs part of a large gradient call, same bits."""

    def test_split_rule(self):
        nets = _desk_nets(0)
        # the desk auto-encoder and head split, the classifier never does
        assert nn._row_cut(nets["ae"], 1500) == 768
        assert nn._row_cut(nets["unc"], 1536) == 768
        assert nn._row_cut(nets["unc"], 1104) == 576
        assert nn._row_cut(nets["clf"], 512) == 0
        # its 64 -> 3 layer needs 5,209 rows a part
        assert nn._row_cut(nets["clf"], 10_400) == 0
        assert nn._row_cut(nets["clf"], 10_500) == 5248
        # the narrowest auto-encoder layer, 128 -> 32, needs 245 rows a part
        assert nn._row_cut(nets["ae"], 2 * 245) == 0
        assert nn._row_cut(nets["ae"], 2 * 256) == 256
        # a net of one-output layers only has nothing to split
        assert nn._row_cut(_biased_net([512, 1], np.random.default_rng(0)), 10**5) == 0
        assert nn._blocked(2, 10**6, 2) and not nn._blocked(1, 10**7, 2)
        assert not nn._blocked(100, 100, 100) and nn._blocked(100, 100, 101)

    @pytest.mark.parametrize(
        "name, rows",
        [
            ("ae", 1500), ("ae", 1333), ("unc", 1536), ("unc", 1104), ("unc", 1201),
            ("unc", 4100), ("clf", 512),
        ],
    )
    def test_same_bits_as_one_thread_under_repetition(self, worker, name, rows):
        # two copies of one net trained side by side on the same batch, one
        # through a workspace with the worker: every loss, gradient, and
        # parameter after adam_step has the same bits
        one, split = _desk_nets(rows)[name], _desk_nets(rows)[name]
        x, kind, targets = _desk_batch(name, rows, np.random.default_rng(rows))
        plain, shared = nn.Workspace(), nn.Workspace(worker)
        states = [nn.init_adam(nn.parameters(net)) for net in (one, split)]
        runners = set()
        forward_layers = nn._forward_layers

        def recorded(*args):
            runners.add(threading.current_thread())
            forward_layers(*args)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(nn, "_forward_layers", recorded)
                for _ in range(30):
                    loss, grads = nn.gradients(one, x, kind, targets, plain)
                    split_loss, split_grads = nn.gradients(split, x, kind, targets, shared)
                    assert split_loss == loss
                    assert [g.tobytes() for g in split_grads] == [g.tobytes() for g in grads]
                    nn.adam_step(nn.parameters(one), grads, states[0], lr=1e-3)
                    nn.adam_step(nn.parameters(split), split_grads, states[1], lr=1e-3)
                    for p, q in zip(nn.parameters(one), nn.parameters(split), strict=True):
                        assert p.tobytes() == q.tobytes()
        finally:
            sys.setswitchinterval(interval)
        ref_loss, ref = oracles.gradients_reference(split, x, kind, targets)
        loss, grads = nn.gradients(split, x, kind, targets, shared)
        assert loss == ref_loss
        assert [g.tobytes() for g in grads] == [r.tobytes() for r in ref]
        if name == "clf":
            assert runners == {threading.current_thread()}
        else:
            # the worker took a part at least once in 30 calls
            assert len(runners) == 2

    def test_a_split_call_hands_the_worker_three_jobs(self, worker):
        # one for forward_cached's wide layers and one for each of backward's
        # two phases, however many layers the net has; the classifier does
        # not split and hands over none
        class Counting:
            jobs = 0

            def submit(self, *args):
                self.jobs += 1
                return worker.submit(*args)

        nets, rng = _desk_nets(2), np.random.default_rng(2)
        for name, rows, jobs in [
            ("ae", 1500, 3), ("unc", 1536, 3), ("unc", 1104, 3), ("unc", 4100, 3), ("clf", 512, 0)
        ]:
            counting = Counting()
            ws = nn.Workspace(counting)
            for calls in range(1, 3):
                nn.gradients(nets[name], *_desk_batch(name, rows, rng), ws)
                assert counting.jobs == calls * jobs, (name, rows)

    def test_a_busy_worker_leaves_every_part_to_the_caller(self, worker):
        nets = _desk_nets(1)
        x, kind, targets = _desk_batch("ae", 1500, np.random.default_rng(1))
        ref_loss, ref = oracles.gradients_reference(nets["ae"], x, kind, targets)
        release = threading.Event()
        busy = worker.submit(release.wait, 30)
        try:
            loss, grads = nn.gradients(nets["ae"], x, kind, targets, nn.Workspace(worker))
            # the call ended while the worker was still busy
            assert not busy.done()
        finally:
            release.set()
        assert busy.result()
        assert loss == ref_loss
        assert [g.tobytes() for g in grads] == [r.tobytes() for r in ref]

    def test_same_bits_at_two_blas_threads(self):
        # parts make BLAS calls: at 2 OpenBLAS threads the worker's
        # workspace gives the bytes of the one-thread path
        script = textwrap.dedent(
            """
            from concurrent.futures import ThreadPoolExecutor

            import numpy as np
            from lsvos import nn

            rng = np.random.default_rng(0)
            encoder = nn.dense_net([67, 128, 32], rng)
            decoder = nn.dense_net([32, 128, 64], rng)
            ae = nn.DenseNet(encoder.layers + decoder.layers)
            head = nn.dense_net([64, 128, 128, 1], rng)
            with ThreadPoolExecutor(1) as pool:
                for net, rows in [
                    (ae, 1500), (head, 1536), (head, 1104), (head, 1201), (head, 4100)
                ]:
                    x = rng.normal(size=(rows, net.input_dim))
                    if net is ae:
                        kind, targets = "mse", x[:, :64]
                    else:
                        kind, targets = "uncertainty-bce", rng.random(rows) < 0.5
                    assert nn._row_cut(net, rows)
                    plain, shared = nn.Workspace(), nn.Workspace(pool)
                    for _ in range(5):
                        loss, grads = nn.gradients(net, x, kind, targets, plain)
                        split_loss, split_grads = nn.gradients(net, x, kind, targets, shared)
                        assert split_loss == loss, "the worker changed the loss"
                        for g, h in zip(grads, split_grads):
                            assert g.tobytes() == h.tobytes(), "the worker changed the bits"
            print("same bits")
            """
        )
        inherited = os.environ.get("PYTHONPATH")
        pythonpath = os.pathsep.join([str(REPO_ROOT / "src")] + ([inherited] if inherited else []))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        env.update(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "same bits\n"


class TestSplitFailures:
    """A failure in a split call names the layer one pass names, and leaves
    no part running.  No floating-point warning escapes a part: the test
    session turns every warning into an error."""

    def _running(self, monkeypatch):
        """How many parts are running, kept up to date."""
        running = [0]
        for name in ("_forward_layers", "_input_gradients", "_weight_gradient"):
            part = getattr(nn, name)

            def counted(*args, part=part):
                running[0] += 1
                try:
                    part(*args)
                finally:
                    running[0] -= 1

            monkeypatch.setattr(nn, name, counted)
        return running

    @pytest.mark.parametrize("low, high", [(0, 1), (1, 0)], ids=["first-part", "second-part"])
    def test_a_non_finite_activation_names_the_lowest_layer(self, worker, monkeypatch, low, high):
        rng = np.random.default_rng(5)
        net = _biased_net([64, 128, 128, 64], rng)
        net.layers[1].weights *= 1e100
        net.layers[2].weights *= 1e100
        x, rows = rng.normal(size=(1500, 64)), [slice(0, 768), slice(768, 1500)]
        assert nn._row_cut(net, 1500) == 768
        # one part overflows after layer 2 only, the other already after layer 1
        x[rows[high]][10:20] *= 1e150
        x[rows[low]][30:40] *= 1e250
        targets = rng.normal(size=(1500, 64))
        with pytest.raises(NumericalFailure, match="after layer 1$"):
            nn.gradients(net, x, "mse", targets)
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="after layer 1$"):
            oracles.forward_reference(net, x)
        running = self._running(monkeypatch)
        ws = nn.Workspace(worker)
        for _ in range(5):
            with pytest.raises(NumericalFailure, match="after layer 1$"):
                nn.gradients(net, x, "mse", targets, ws)
            assert running == [0]
        # with only the other part's rows overflowing, layer 2 fails
        x[rows[low]][30:40] /= 1e250
        with pytest.raises(NumericalFailure, match="after layer 2$"):
            nn.gradients(net, x, "mse", targets, ws)

    def test_a_non_finite_weight_gradient_names_its_layer(self, worker, monkeypatch):
        # activations and the loss stay finite, but layer 1's dW = a_1.T @ dz
        # sums products of ~1e300 and ~1e17
        rng = np.random.default_rng(6)
        net = _biased_net([64, 128, 128, 64], rng)
        net.layers[0].weights *= 1e298
        net.layers[1].weights *= 1e-300
        net.layers[2].weights *= 1e10
        x, targets = rng.normal(size=(1500, 64)), rng.normal(size=(1500, 64))
        out, _ = nn.forward_cached(net, x)
        assert np.all(np.isfinite(out))
        with pytest.raises(NumericalFailure, match="non-finite gradient at layer 1$"):
            nn.gradients(net, x, "mse", targets)
        running = self._running(monkeypatch)
        ws = nn.Workspace(worker)
        for _ in range(5):
            with pytest.raises(NumericalFailure, match="non-finite gradient at layer 1$"):
                nn.gradients(net, x, "mse", targets, ws)
            assert running == [0]

    def test_the_first_layers_split_weight_gradient_names_it(self, worker):
        # 1.7e308 inputs times 1e-307 weights are finite activations, whose
        # layer 0 dW = x.T @ dz, one item of a split call, overflows
        rng = np.random.default_rng(7)
        net = _biased_net([64, 128, 128, 64], rng)
        net.layers[0].weights[...] = 1e-307
        x = np.full((1500, 64), 1.7e308)
        targets = rng.normal(size=(1500, 64))
        assert nn._row_cut(net, 1500) == 768
        for ws in (nn.Workspace(), nn.Workspace(worker)):
            with pytest.raises(NumericalFailure, match="non-finite gradient at layer 0$"):
                nn.gradients(net, x, "mse", targets, ws)

    def test_the_workspace_is_reused_after_a_raise(self, worker, monkeypatch):
        nets = _desk_nets(8)
        net = nets["ae"]
        x, kind, targets = _desk_batch("ae", 1500, np.random.default_rng(8))
        ws = nn.Workspace(worker)
        # the first call sizes the buffer, the second takes its views
        for _ in range(2):
            _, before = nn.gradients(net, x, kind, targets, ws)
        running = self._running(monkeypatch)
        saved = net.layers[2].weights[0, 0]
        net.layers[2].weights[0, 0] = np.inf
        with pytest.raises(NumericalFailure, match="layer 2"):
            nn.gradients(net, x, kind, targets, ws)
        assert running == [0]
        net.layers[2].weights[0, 0] = saved
        loss, grads = nn.gradients(net, x, kind, targets, ws)
        ref_loss, ref = oracles.gradients_reference(net, x, kind, targets)
        assert loss == ref_loss
        assert [g.tobytes() for g in grads] == [r.tobytes() for r in ref]
        assert all(np.shares_memory(g, b) for g, b in zip(grads, before))


class TestAdam:
    def test_first_step_hand_value(self):
        # unit gradient: m_hat = v_hat = 1, so the step is -lr / (1 + eps)
        params = [np.zeros(1)]
        state = nn.init_adam(params)
        nn.adam_step(params, [np.ones(1)], state, lr=1e-3)
        np.testing.assert_allclose(params[0], [-1e-3], rtol=1e-6)
        assert state.step == 1

    def test_zero_gradient_leaves_params_alone(self):
        params = [np.array([1.0, -2.0])]
        state = nn.init_adam(params)
        nn.adam_step(params, [np.zeros(2)], state)
        np.testing.assert_array_equal(params[0], [1.0, -2.0])
        assert state.step == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_pure_formula_bit_for_bit_in_place(self, seed):
        rng = np.random.default_rng(seed)
        n_arrays = int(rng.integers(1, 6))
        shapes = [tuple(rng.integers(1, 6, size=rng.integers(1, 3))) for _ in range(n_arrays)]
        params = [rng.normal(size=shape) for shape in shapes]
        live = list(params)
        ref_p = [p.copy() for p in params]
        ref_m = [np.zeros_like(p) for p in params]
        ref_v = [np.zeros_like(p) for p in params]
        state = nn.init_adam(params)
        for t in range(1, 201):
            grads = [rng.normal(scale=10.0 ** rng.integers(-3, 3), size=s) for s in shapes]
            if t % 17 == 0:
                grads[0][...] = 0.0
            nn.adam_step(params, grads, state, lr=0.01)
            ref_p, ref_m, ref_v = oracles.adam_reference(ref_p, grads, ref_m, ref_v, t, lr=0.01)
            assert state.step == t
            for k in range(len(shapes)):
                assert params[k] is live[k]
                assert params[k].tobytes() == ref_p[k].tobytes()
                assert state.m[k].tobytes() == ref_m[k].tobytes()
                assert state.v[k].tobytes() == ref_v[k].tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_leaves_params_and_state_untouched(self, bad):
        rng = np.random.default_rng(1)
        params = [rng.normal(size=(3, 2)), rng.normal(size=2)]
        state = nn.init_adam(params)
        for _ in range(3):
            nn.adam_step(params, [rng.normal(size=p.shape) for p in params], state)
        assert state.step == 3
        before = [a.copy() for a in params + state.m + state.v]
        # the first array's update is finite and computed before the failure
        grads = [rng.normal(size=(3, 2)), rng.normal(size=2)]
        grads[1][0] = bad
        with pytest.raises(NumericalFailure):
            nn.adam_step(params, grads, state)
        assert state.step == 3
        for old, now in zip(before, params + state.m + state.v):
            assert old.tobytes() == now.tobytes()
        # the scratch the failed step wrote does not leak into the next one
        grads[1][0] = 1.0
        want = oracles.adam_reference(params, grads, state.m, state.v, 4, lr=1e-3)
        nn.adam_step(params, grads, state)
        for ref, now in zip(want, (params, state.m, state.v)):
            assert [a.tobytes() for a in ref] == [a.tobytes() for a in now]

    def test_shape_mismatch_rejected(self):
        params = [np.zeros(2)]
        state = nn.init_adam(params)
        with pytest.raises(InputError):
            nn.adam_step(params, [np.zeros(3)], state)
        with pytest.raises(InputError):
            nn.adam_step(params, [np.zeros(2), np.zeros(2)], state)

    def test_converges_on_quadratic(self):
        params = [np.array([10.0])]
        state = nn.init_adam(params)
        for _ in range(2000):
            nn.adam_step(params, [2.0 * (params[0] - 3.0)], state, lr=0.05)
        np.testing.assert_allclose(params[0], [3.0], atol=1e-4)


class TestCheckpoint:
    def _nets(self):
        rng = np.random.default_rng(42)
        return {
            "encoder": nn.dense_net([6, 4, 3], rng),
            "head": nn.dense_net([3, 5, 1], rng),
        }

    def test_round_trip_exact(self, tmp_path):
        nets = self._nets()
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, nets)
        loaded = nn.load_checkpoint(path)
        assert list(loaded) == ["encoder", "head"]
        for name, net in nets.items():
            for orig, back in zip(net.layers, loaded[name].layers):
                np.testing.assert_array_equal(orig.weights, back.weights)
                np.testing.assert_array_equal(orig.bias, back.bias)
                assert orig.activation == back.activation

    def test_save_is_byte_deterministic(self, tmp_path):
        nets = self._nets()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nn.save_checkpoint(a, nets)
        nn.save_checkpoint(b, nets)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InputError):
            nn.load_checkpoint(path)

    def test_rejects_truncation_and_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, self._nets())
        data = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(data[:-4])
        with pytest.raises(InputError):
            nn.load_checkpoint(tmp_path / "cut.ckpt")
        (tmp_path / "pad.ckpt").write_bytes(data + b"\x00")
        with pytest.raises(InputError):
            nn.load_checkpoint(tmp_path / "pad.ckpt")

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, self._nets())
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(InputError):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize(
        "shapes, message",
        [
            # layer 0 is 3 -> 4 but layer 1 takes 5 inputs
            ([(3, 4), (5, 2)], "'encoder' layer 1 takes 5 inputs but layer 0 gives 4"),
            ([], "'encoder' has no layers"),
            # a zero-width layer would divide by zero in the first forward
            ([(3, 4), (4, 0)], "'encoder' layer 1 is 4 -> 0"),
            ([(0, 2)], "'encoder' layer 0 is 0 -> 2"),
        ],
    )
    def test_rejects_unchained_or_empty_net(self, tmp_path, shapes, message):
        # written by hand, since save_checkpoint only writes well-formed nets
        name = b"encoder"
        parts = [
            nn.CHECKPOINT_MAGIC,
            struct.pack("<II", nn.CHECKPOINT_VERSION, 1),
            struct.pack("<H", len(name)),
            name,
            struct.pack("<I", len(shapes)),
        ]
        for fan_in, fan_out in shapes:
            parts.append(struct.pack("<IIB", fan_in, fan_out, 1))
            parts.append(np.zeros(fan_in * fan_out + fan_out, dtype="<f8").tobytes())
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"".join(parts))
        with pytest.raises(InputError, match=message):
            nn.load_checkpoint(path)


    def test_rejects_a_name_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, {"ab": nn.dense_net([2, 1], np.random.default_rng(0))})
        data = path.read_bytes().replace(b"ab", b"\xff\xfe", 1)
        path.write_bytes(data)
        with pytest.raises(InputError, match="UTF-8"):
            nn.load_checkpoint(path)

    def test_rejects_a_net_name_given_twice(self, tmp_path):
        # two 'uncertainty' nets of hidden width 5 and 7: the second would
        # silently replace the first
        name = b"uncertainty"
        parts = [nn.CHECKPOINT_MAGIC, struct.pack("<II", nn.CHECKPOINT_VERSION, 2)]
        for hidden in (5, 7):
            parts += [struct.pack("<H", len(name)), name, struct.pack("<I", 2)]
            for fan_in, fan_out in ((3, hidden), (hidden, 1)):
                parts.append(struct.pack("<IIB", fan_in, fan_out, 1))
                parts.append(np.zeros(fan_in * fan_out + fan_out, dtype="<f8").tobytes())
        path = tmp_path / "twice.ckpt"
        path.write_bytes(b"".join(parts))
        with pytest.raises(InputError, match="'uncertainty' appears twice"):
            nn.load_checkpoint(path)
