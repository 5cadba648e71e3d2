import struct

import numpy as np
import pytest

from lsvos import nn
from lsvos.errors import InputError, NumericalFailure

import oracles


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
        rng = nn.make_rng(0)
        net = nn.dense_net([20, 30, 5], rng)
        for layer in net.layers:
            limit = np.sqrt(6.0 / (layer.fan_in + layer.fan_out))
            assert np.all(np.abs(layer.weights) <= limit)
            assert np.all(layer.bias == 0.0)
        assert net.layers[0].activation == "relu"
        assert net.layers[1].activation == "identity"

    def test_same_seed_same_net(self):
        a = nn.dense_net([4, 8, 2], nn.make_rng(7))
        b = nn.dense_net([4, 8, 2], nn.make_rng(7))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_input_validation(self):
        net = nn.dense_net([3, 2], nn.make_rng(0))
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
            nn.dense_net([4], nn.make_rng(0))
        with pytest.raises(InputError):
            nn.dense_net([4, 0, 2], nn.make_rng(0))


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
        rng = nn.make_rng(3)
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
        rng = nn.make_rng(11)
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
            rng = nn.make_rng(1000 + seed)
            net, batch, targets = oracles.random_net_and_batch(rng, loss_kind)
            _, analytic = nn.gradients(net, batch, loss_kind, targets)
            numeric = oracles.finite_difference_gradients(net, batch, loss_kind, targets)
            assert oracles.max_relative_error(analytic, numeric) < 1e-4

    def test_batch_order_invariance(self):
        rng = nn.make_rng(5)
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
        net = nn.dense_net([2, 2], nn.make_rng(0))
        net.layers[0].weights[0, 0] = np.inf
        with pytest.raises(NumericalFailure):
            nn.gradients(net, np.ones((1, 2)), "mse", np.ones((1, 2)))


class TestAdam:
    def test_first_step_hand_value(self):
        # unit gradient: m_hat = v_hat = 1, so the step is -lr / (1 + eps)
        params = [np.zeros(1)]
        state = nn.init_adam(params)
        new, state2 = nn.adam_step(params, [np.ones(1)], state, lr=1e-3)
        np.testing.assert_allclose(new[0], [-1e-3], rtol=1e-6)
        assert state2.step == 1

    def test_zero_gradient_leaves_params_alone(self):
        params = [np.array([1.0, -2.0])]
        state = nn.init_adam(params)
        new, state2 = nn.adam_step(params, [np.zeros(2)], state)
        np.testing.assert_array_equal(new[0], params[0])
        assert state2.step == 1

    def test_step_is_pure(self):
        params = [np.ones(3)]
        grads = [np.full(3, 2.0)]
        state = nn.init_adam(params)
        nn.adam_step(params, grads, state)
        np.testing.assert_array_equal(params[0], np.ones(3))
        np.testing.assert_array_equal(state.m[0], np.zeros(3))
        assert state.step == 0

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
            grads = [2.0 * (params[0] - 3.0)]
            params, state = nn.adam_step(params, grads, state, lr=0.05)
        np.testing.assert_allclose(params[0], [3.0], atol=1e-4)


class TestCheckpoint:
    def _nets(self):
        rng = nn.make_rng(42)
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
        nn.save_checkpoint(path, {"ab": nn.dense_net([2, 1], nn.make_rng(0))})
        data = path.read_bytes().replace(b"ab", b"\xff\xfe", 1)
        path.write_bytes(data)
        with pytest.raises(InputError, match="UTF-8"):
            nn.load_checkpoint(path)


class TestRngHelpers:
    def test_spawned_streams_reproducible_and_distinct(self):
        a = nn.spawn_rngs(123, 3)
        b = nn.spawn_rngs(123, 3)
        draws_a = [r.normal(size=4) for r in a]
        draws_b = [r.normal(size=4) for r in b]
        for da, db in zip(draws_a, draws_b):
            np.testing.assert_array_equal(da, db)
        assert not np.allclose(draws_a[0], draws_a[1])
