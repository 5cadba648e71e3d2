from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsvos import models, nn
from lsvos.errors import InputError
from lsvos.features import append_one_hot
from lsvos.models import ModelBundle
from lsvos.pipeline import ExperimentConfig

import oracles


def _identity_ae(dim, num_classes, latent=None):
    """Encoder and decoder whose round trip copies the feature block exactly."""
    latent = latent or dim
    enc_w = np.zeros((dim + num_classes, latent))
    enc_w[:dim, :dim] = np.eye(dim)
    dec_w = np.zeros((latent, dim))
    dec_w[:dim, :dim] = np.eye(dim)
    encoder = nn.DenseNet([nn.Layer(enc_w, np.zeros(latent), "identity")])
    decoder = nn.DenseNet([nn.Layer(dec_w, np.zeros(dim), "identity")])
    return encoder, decoder


def _random_ae(dim, num_classes, rng, latent, hidden):
    encoder = nn.dense_net([dim + num_classes, hidden, latent], rng)
    return encoder, nn.dense_net([latent, hidden, dim], rng)


def _reconstruct(encoder, decoder, x):
    return nn.forward(decoder, nn.forward(encoder, x))


def _bundle_nets(dim=8, num_classes=2, latent=4, **replace):
    """Four fitting nets as ModelBundle's keyword arguments, some replaced."""
    rng = np.random.default_rng(0)
    nets = {
        "encoder": nn.dense_net([dim + num_classes, 8, latent], rng),
        "decoder": nn.dense_net([latent, 8, dim], rng),
        "uncertainty": nn.dense_net([dim, 8, 1], rng),
        "classifier": nn.dense_net([dim, 8, num_classes], rng),
    }
    nets.update({name: nn.dense_net(dims, rng) for name, dims in replace.items()})
    return nets


class TestArchitecture:
    def test_default_dims(self):
        cfg = ExperimentConfig()
        bundle = ModelBundle.build(
            cfg.data_dim,
            cfg.data_classes,
            np.random.default_rng(0),
            latent_dim=cfg.model_latent_dim,
            encoder_hidden=cfg.model_encoder_hidden,
            decoder_hidden=cfg.model_decoder_hidden,
            uncertainty_hidden=cfg.model_uncertainty_hidden,
            classifier_hidden=cfg.model_classifier_hidden,
        )
        card = bundle.model_card()
        assert card["encoder_dims"] == [67, 256, 128, 128]
        assert card["decoder_dims"] == [128, 128, 256, 64]
        assert card["uncertainty_dims"] == [64, 256, 256, 1]
        assert card["classifier_dims"] == [64, 128, 3]
        assert card["latent_dim"] == 128

    def test_relu_on_hidden_identity_on_last(self):
        bundle = ModelBundle.build(
            8,
            2,
            np.random.default_rng(0),
            latent_dim=4,
            encoder_hidden=(16, 8),
            decoder_hidden=(8, 16),
            uncertainty_hidden=(8,),
            classifier_hidden=(8,),
        )
        assert [l.activation for l in bundle.encoder.layers] == ["relu", "relu", "identity"]
        assert [l.activation for l in bundle.decoder.layers] == ["relu", "relu", "identity"]

    def test_fitting_nets_accepted(self):
        bundle = ModelBundle(**_bundle_nets())
        assert (bundle.feature_dim, bundle.num_classes, bundle.latent_dim) == (8, 2, 4)
        # a bundle is its four nets and nothing a checkpoint does not hold
        assert tuple(f.name for f in fields(ModelBundle)) == models.NET_NAMES

    @pytest.mark.parametrize(
        "replace",
        [
            # encoder output != decoder input
            {"decoder": [5, 8, 8]},
            # encoder input != D + K: the classifier has one class too many
            {"classifier": [8, 8, 3]},
            # encoder input != D + K: a bare feature without its class block
            {"encoder": [8, 8, 4]},
            # the uncertainty head must give one logit
            {"uncertainty": [8, 8, 2]},
            # head and classifier must take the raw feature
            {"uncertainty": [9, 8, 1]},
            {"classifier": [10, 8, 2]},
        ],
        ids=["latent", "classes", "no-class-block", "head-out", "head-in", "classifier-in"],
    )
    def test_mismatched_nets_rejected(self, replace):
        with pytest.raises(InputError):
            ModelBundle(**_bundle_nets(**replace))

    def test_build_needs_two_classes(self):
        with pytest.raises(InputError, match="at least 2 classes"):
            ModelBundle.build(
                4, 1, np.random.default_rng(0), latent_dim=2, encoder_hidden=(4,),
                decoder_hidden=(4,), uncertainty_hidden=(4,), classifier_hidden=(4,),
            )


class TestAeLoss:
    def test_perfect_reconstruction_zero(self):
        enc, dec = _identity_ae(3, 2)
        x = append_one_hot(np.random.default_rng(0).normal(size=(5, 3)), [0, 1, 0, 1, 1], 2)
        assert models.ae_gradients(enc, dec, x)[0] == 0.0

    def test_scalar_case(self):
        # zero-weight AE reconstructs 0; target feature 1.0 -> MSE 1.0
        enc, dec = _identity_ae(1, 2)
        dec.layers[0].weights[:] = 0.0
        x = append_one_hot(np.array([[1.0]]), [0], 2)
        assert models.ae_gradients(enc, dec, x)[0] == 1.0

    def test_matches_naive_mse_oracle(self):
        rng = np.random.default_rng(7)
        enc, dec = _random_ae(4, 3, rng, latent=5, hidden=8)
        feats = rng.normal(size=(6, 4))
        x = append_one_hot(feats, rng.integers(0, 3, size=6), 3)
        recon = _reconstruct(enc, dec, x)
        naive = sum(
            (recon[i, j] - feats[i, j]) ** 2 for i in range(6) for j in range(4)
        ) / (6 * 4)
        assert models.ae_gradients(enc, dec, x)[0] == pytest.approx(naive, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        enc, dec = _identity_ae(3, 2)
        with pytest.raises(InputError):
            models.ae_gradients(enc, dec, np.zeros((4, 3)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        enc, dec = _random_ae(3, 2, rng, latent=4, hidden=6)
        x = append_one_hot(rng.normal(size=(4, 3)), rng.integers(0, 2, size=4), 2)
        loss, grads = models.ae_gradients(enc, dec, x)
        stacked = nn.DenseNet(enc.layers + dec.layers)
        numeric = oracles.finite_difference_gradients(stacked, x, "mse", x[:, :3])
        assert oracles.max_relative_error(grads, numeric) < 1e-4
        recon = _reconstruct(enc, dec, x)
        assert loss == pytest.approx(nn.loss_and_grad(recon, "mse", x[:, :3])[0], abs=1e-12)


class TestUncertaintyLoss:
    def _constant_head(self, dim, logit):
        w = np.zeros((dim, 1))
        return nn.DenseNet([nn.Layer(w, np.array([float(logit)]), "identity")])

    def _passthrough_head(self):
        return nn.DenseNet([nn.Layer(np.array([[1.0]]), np.zeros(1), "identity")])

    def test_zero_head_gives_minus_one(self):
        head = self._constant_head(2, 0.0)
        loss = models.uncertainty_gradients(head, np.zeros((3, 2)), np.zeros((5, 2)))[0]
        assert loss == pytest.approx(-1.0)

    def test_hand_logits_give_minus_1_5(self):
        # passthrough head: ood row ln 3 -> sigma 3/4; id row -ln 3 -> sigma 1/4
        head = self._passthrough_head()
        loss = models.uncertainty_gradients(
            head, np.array([[-np.log(3.0)]]), np.array([[np.log(3.0)]])
        )[0]
        assert loss == pytest.approx(-1.5)

    def test_confident_head_approaches_minus_two(self):
        head = self._passthrough_head()
        loss = models.uncertainty_gradients(
            head, np.array([[-30.0]]), np.array([[30.0]])
        )[0]
        assert loss == pytest.approx(-2.0, abs=1e-12)
        assert loss > -2.0

    def test_bounded_open_interval(self):
        rng = np.random.default_rng(1)
        head = nn.dense_net([3, 8, 1], rng)
        for _ in range(25):
            loss = models.uncertainty_gradients(
                head, rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
            )[0]
            assert -2.0 < loss < 0.0

    def test_monotone_in_logits(self):
        head = self._passthrough_head()
        def loss(u_id, u_ood):
            return models.uncertainty_gradients(head, np.array([[u_id]]), np.array([[u_ood]]))[0]

        base = loss(0.3, 0.1)
        higher_ood = loss(0.3, 0.6)
        lower_id = loss(-0.2, 0.1)
        assert higher_ood < base
        assert lower_id < base

    def test_single_sided_batches(self):
        head = self._constant_head(2, 0.0)
        only_ood = models.uncertainty_gradients(head, np.zeros((0, 2)), np.zeros((4, 2)))[0]
        assert only_ood == pytest.approx(-0.5)
        only_id = models.uncertainty_gradients(head, np.zeros((4, 2)), np.zeros((0, 2)))[0]
        assert only_id == pytest.approx(-0.5)

    def test_empty_both_rejected(self):
        head = self._constant_head(2, 0.0)
        with pytest.raises(InputError):
            models.uncertainty_gradients(head, np.zeros((0, 2)), np.zeros((0, 2)))

    def test_bce_variant_zero_head(self):
        head = self._constant_head(2, 0.0)
        loss = models.uncertainty_gradients(
            head, np.zeros((3, 2)), np.zeros((3, 2)), variant="bce"
        )[0]
        assert loss == pytest.approx(2.0 * np.log(2.0))

    def test_unknown_variant_rejected(self):
        head = self._constant_head(2, 0.0)
        with pytest.raises(InputError):
            models.uncertainty_gradients(
                head, np.zeros((1, 2)), np.zeros((1, 2)), variant="huber"
            )

    def test_converges_below_minus_1_9_on_separated_clusters(self):
        rng = np.random.default_rng(42)
        head = nn.dense_net([4, 256, 256, 1], rng)
        u_id = rng.normal(size=(64, 4)) - 5.0
        u_ood = rng.normal(size=(64, 4)) + 5.0
        params = nn.parameters(head)
        state = nn.init_adam(params)
        loss = 0.0
        for _ in range(500):
            loss, grads = models.uncertainty_gradients(head, u_id, u_ood)
            nn.adam_step(params, grads, state, lr=1e-3)
        assert loss < -1.9


class TestClassifierAndTotal:
    def test_default_score_uniform_logits(self):
        clf = nn.DenseNet([nn.Layer(np.zeros((2, 3)), np.zeros(3), "identity")])
        np.testing.assert_allclose(
            models.default_score(clf, np.ones((4, 2))), np.full(4, 1.0 / 3.0)
        )

    def test_default_score_hand_softmax(self):
        # logits (ln 2, 0, 0): softmax (2, 1, 1)/4 -> max 0.5
        clf = nn.DenseNet(
            [nn.Layer(np.zeros((2, 3)), np.array([np.log(2.0), 0.0, 0.0]), "identity")]
        )
        np.testing.assert_allclose(models.default_score(clf, np.ones((1, 2))), [0.5])

    def test_default_score_at_least_one_over_k(self):
        rng = np.random.default_rng(3)
        clf = nn.dense_net([4, 128, 5], rng)
        scores = models.default_score(clf, rng.normal(size=(50, 4)))
        assert np.all(scores >= 1.0 / 5.0)
        assert np.all(scores <= 1.0)

    def test_classifier_gradients_match_nn(self):
        rng = np.random.default_rng(4)
        clf = nn.dense_net([3, 128, 2], rng)
        u = rng.normal(size=(8, 3))
        ids = rng.integers(0, 2, size=8)
        loss, grads = models.classifier_gradients(clf, u, ids)
        logits = nn.forward(clf, u)
        assert loss == pytest.approx(nn.loss_and_grad(logits, "cross-entropy", ids)[0])
        numeric = oracles.finite_difference_gradients(clf, u, "cross-entropy", ids)
        assert oracles.max_relative_error(grads, numeric) < 1e-4

    def test_total_loss_sum_and_lambda_zero(self):
        assert models.total_loss(1.5, 0.25, -1.0, 2.0) == pytest.approx(-0.25)
        assert models.total_loss(1.5, 0.25, -1.0, 0.0) == pytest.approx(1.75)
        with pytest.raises(InputError):
            models.total_loss(1.0, 1.0, 1.0, -0.5)


class TestBundleCheckpoint:
    def test_round_trip(self, tmp_path):
        bundle = ModelBundle.build(6, 2, np.random.default_rng(9), latent_dim=4,
                                   encoder_hidden=(8,), decoder_hidden=(8,),
                                   uncertainty_hidden=(8,), classifier_hidden=(8,))
        path = tmp_path / "bundle.ckpt"
        bundle.save(path)
        back = ModelBundle.load(path)
        for name in models.NET_NAMES:
            orig, re = getattr(bundle, name), getattr(back, name)
            for lo, lr in zip(orig.layers, re.layers):
                np.testing.assert_array_equal(lo.weights, lr.weights)
                np.testing.assert_array_equal(lo.bias, lr.bias)

    def test_load_rejects_nets_that_do_not_fit(self, tmp_path):
        path = tmp_path / "mismatched.ckpt"
        nn.save_checkpoint(path, _bundle_nets(classifier=[8, 8, 3]))
        with pytest.raises(InputError, match="feature dim \\+ class count"):
            ModelBundle.load(path)

    def test_load_rejects_incomplete_checkpoint(self, tmp_path):
        path = tmp_path / "partial.ckpt"
        nn.save_checkpoint(path, {"encoder": nn.dense_net([3, 2], np.random.default_rng(0))})
        with pytest.raises(InputError):
            ModelBundle.load(path)


@pytest.fixture(scope="module")
def ckpt_file(tmp_path_factory):
    bundle = ModelBundle.build(3, 2, np.random.default_rng(1), latent_dim=2,
                               encoder_hidden=(3,), decoder_hidden=(3,),
                               uncertainty_hidden=(2,), classifier_hidden=(2,))
    root = tmp_path_factory.mktemp("ckpt")
    bundle.save(root / "bundle.ckpt")
    return (root / "bundle.ckpt").read_bytes(), root / "mutated.ckpt"


def _load_or_input_error(path, data):
    path.write_bytes(data)
    try:
        ModelBundle.load(path)
    except InputError:
        pass


FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestMalformedCheckpoints:
    @FUZZ
    @given(cut=st.integers(min_value=0, max_value=100_000))
    def test_truncated_file_loads_or_raises_input_error(self, ckpt_file, cut):
        data, path = ckpt_file
        _load_or_input_error(path, data[: cut % len(data)])

    @FUZZ
    @given(at=st.integers(min_value=0, max_value=100_000), mask=st.integers(1, 255))
    def test_flipped_byte_loads_or_raises_input_error(self, ckpt_file, at, mask):
        data, path = ckpt_file
        mutated = bytearray(data)
        mutated[at % len(data)] ^= mask
        _load_or_input_error(path, bytes(mutated))
