import struct
import tracemalloc

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_in_the_last_block_names_the_layer(self):
        rng = np.random.default_rng(4)
        net = _biased_net([64, 128, 128, 1], rng)
        net.layers[1].weights *= 1e150
        b = nn._block_rows(net)
        x = rng.normal(size=(3 * b + 17, 64))
        # layer 1 overflows only on the rows of the last block
        x[-100:] *= 1e160
        with pytest.raises(NumericalFailure, match="after layer 1$"):
            oracles.forward_reference(net, x)
        with pytest.raises(NumericalFailure, match="after layer 1$"):
            nn.forward(net, x)
        assert np.all(np.isfinite(oracles.forward_reference(net, x[: 2 * b])))

    def test_memory_is_bounded_by_the_block(self):
        # 4 blocks of a 64-128-128-1 net: one pass peaked at two (N, 128)
        # activations, the blocks at 0.54 of one
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
        assert peak < 0.6 * rows * 128 * 8


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
        with np.errstate(over="ignore"), pytest.raises(
            NumericalFailure, match="non-finite gradient at layer 0$"
        ):
            nn.gradients(net, x, "cross-entropy", np.array([1]))

    @pytest.mark.parametrize("loss_kind", ["uncertainty-sigmoid", "uncertainty-bce"])
    def test_only_the_activation_check_catches_an_overflowed_logit(self, loss_kind):
        # finite weights whose last layer overflows the outlier's logit to +inf
        net = nn.dense_net([3, 4, 1], np.random.default_rng(8))
        net.layers[0].weights[...] = 1e200
        net.layers[1].weights[...] = 1e200
        x = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
        is_out = np.array([True, False])
        with np.errstate(over="ignore"), pytest.raises(
            NumericalFailure, match="after layer 1$"
        ):
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
