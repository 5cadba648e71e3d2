import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsvos import models, nn
from lsvos.errors import InputError
from lsvos.features import append_one_hot
from lsvos.models import (
    AutoEncoder,
    ModelBundle,
    SurrogateClassifier,
    UncertaintyHead,
)
from lsvos.pipeline import ExperimentConfig

import oracles


def _identity_ae(dim, num_classes, latent=None):
    """AE whose round trip copies the feature block exactly (for oracle tests)."""
    latent = latent or dim
    enc_w = np.zeros((dim + num_classes, latent))
    enc_w[:dim, :dim] = np.eye(dim)
    dec_w = np.zeros((latent, dim))
    dec_w[:dim, :dim] = np.eye(dim)
    encoder = nn.DenseNet([nn.Layer(enc_w, np.zeros(latent), "identity")])
    decoder = nn.DenseNet([nn.Layer(dec_w, np.zeros(dim), "identity")])
    return AutoEncoder(encoder, decoder, trained=True)


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
        ae = AutoEncoder.build(
            8,
            2,
            np.random.default_rng(0),
            latent_dim=4,
            encoder_hidden=(16, 8),
            decoder_hidden=(8, 16),
        )
        assert [l.activation for l in ae.encoder.layers] == ["relu", "relu", "identity"]
        assert [l.activation for l in ae.decoder.layers] == ["relu", "relu", "identity"]

    def test_mismatched_latent_rejected(self):
        rng = np.random.default_rng(0)
        enc = nn.dense_net([10, 16, 8], rng)
        dec = nn.dense_net([7, 16, 6], rng)
        with pytest.raises(InputError):
            AutoEncoder(enc, dec)

    def test_uncertainty_head_must_be_scalar(self):
        with pytest.raises(InputError):
            UncertaintyHead(nn.dense_net([4, 8, 2], np.random.default_rng(0)))

    def test_bundle_heads_consume_raw_features(self):
        rng = np.random.default_rng(0)
        ae = AutoEncoder.build(8, 2, rng, latent_dim=4, encoder_hidden=(8,), decoder_hidden=(8,))
        head = UncertaintyHead.build(9, rng, hidden=(8,))
        clf = SurrogateClassifier.build(8, 2, rng, hidden=(8,))
        with pytest.raises(InputError):
            ModelBundle(ae, head, clf)


class TestAeLoss:
    def test_perfect_reconstruction_zero(self):
        ae = _identity_ae(3, 2)
        x = append_one_hot(np.random.default_rng(0).normal(size=(5, 3)), [0, 1, 0, 1, 1], 2)
        assert models.ae_gradients(ae, x)[0] == 0.0

    def test_scalar_case(self):
        # zero-weight AE reconstructs 0; target feature 1.0 -> MSE 1.0
        ae = _identity_ae(1, 2)
        ae.decoder.layers[0].weights[:] = 0.0
        x = append_one_hot(np.array([[1.0]]), [0], 2)
        assert models.ae_gradients(ae, x)[0] == 1.0

    def test_matches_naive_mse_oracle(self):
        rng = np.random.default_rng(7)
        ae = AutoEncoder.build(4, 3, rng, latent_dim=5, encoder_hidden=(8,), decoder_hidden=(8,))
        feats = rng.normal(size=(6, 4))
        x = append_one_hot(feats, rng.integers(0, 3, size=6), 3)
        recon = models.reconstruct(ae, x)
        naive = sum(
            (recon[i, j] - feats[i, j]) ** 2 for i in range(6) for j in range(4)
        ) / (6 * 4)
        assert models.ae_gradients(ae, x)[0] == pytest.approx(naive, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        ae = _identity_ae(3, 2)
        with pytest.raises(InputError):
            models.ae_gradients(ae, np.zeros((4, 3)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        ae = AutoEncoder.build(3, 2, rng, latent_dim=4, encoder_hidden=(6,), decoder_hidden=(6,))
        x = append_one_hot(rng.normal(size=(4, 3)), rng.integers(0, 2, size=4), 2)
        loss, grads = models.ae_gradients(ae, x)
        stacked = nn.DenseNet(ae.encoder.layers + ae.decoder.layers)
        numeric = oracles.finite_difference_gradients(stacked, x, "mse", x[:, :3])
        assert oracles.max_relative_error(grads, numeric) < 1e-4
        recon = models.reconstruct(ae, x)
        assert loss == pytest.approx(nn.loss_and_grad(recon, "mse", x[:, :3])[0], abs=1e-12)


class TestUncertaintyLoss:
    def _constant_head(self, dim, logit):
        w = np.zeros((dim, 1))
        return UncertaintyHead(
            nn.DenseNet([nn.Layer(w, np.array([float(logit)]), "identity")])
        )

    def _passthrough_head(self):
        return UncertaintyHead(
            nn.DenseNet([nn.Layer(np.array([[1.0]]), np.zeros(1), "identity")])
        )

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
        head = UncertaintyHead.build(3, rng, hidden=(8,))
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
        head = UncertaintyHead.build(4, rng, hidden=(256, 256))
        u_id = rng.normal(size=(64, 4)) - 5.0
        u_ood = rng.normal(size=(64, 4)) + 5.0
        params = nn.parameters(head.net)
        state = nn.init_adam(params)
        loss = 0.0
        for _ in range(500):
            loss, grads = models.uncertainty_gradients(head, u_id, u_ood)
            nn.adam_step(params, grads, state, lr=1e-3)
        assert loss < -1.9


class TestClassifierAndTotal:
    def test_default_score_uniform_logits(self):
        clf = SurrogateClassifier(
            nn.DenseNet([nn.Layer(np.zeros((2, 3)), np.zeros(3), "identity")])
        )
        np.testing.assert_allclose(
            models.default_score(clf, np.ones((4, 2))), np.full(4, 1.0 / 3.0)
        )

    def test_default_score_hand_softmax(self):
        # logits (ln 2, 0, 0): softmax (2, 1, 1)/4 -> max 0.5
        clf = SurrogateClassifier(
            nn.DenseNet(
                [nn.Layer(np.zeros((2, 3)), np.array([np.log(2.0), 0.0, 0.0]), "identity")]
            )
        )
        np.testing.assert_allclose(models.default_score(clf, np.ones((1, 2))), [0.5])

    def test_default_score_at_least_one_over_k(self):
        rng = np.random.default_rng(3)
        clf = SurrogateClassifier.build(4, 5, rng, hidden=(128,))
        scores = models.default_score(clf, rng.normal(size=(50, 4)))
        assert np.all(scores >= 1.0 / 5.0)
        assert np.all(scores <= 1.0)

    def test_classifier_gradients_match_nn(self):
        rng = np.random.default_rng(4)
        clf = SurrogateClassifier.build(3, 2, rng, hidden=(128,))
        u = rng.normal(size=(8, 3))
        ids = rng.integers(0, 2, size=8)
        loss, grads = models.classifier_gradients(clf, u, ids)
        logits = nn.forward(clf.net, u)
        assert loss == pytest.approx(nn.loss_and_grad(logits, "cross-entropy", ids)[0])
        numeric = oracles.finite_difference_gradients(clf.net, u, "cross-entropy", ids)
        assert oracles.max_relative_error(grads, numeric) < 1e-4

    def test_total_loss_sum_and_lambda_zero(self):
        assert models.total_loss(1.5, 0.25, -1.0, 2.0) == pytest.approx(-0.25)
        assert models.total_loss(1.5, 0.25, -1.0, 0.0) == pytest.approx(1.75)
        with pytest.raises(InputError):
            models.total_loss(1.0, 1.0, 1.0, -0.5)


class TestBundleCheckpoint:
    def test_round_trip_and_trained_flag(self, tmp_path):
        bundle = ModelBundle.build(6, 2, np.random.default_rng(9), latent_dim=4,
                                   encoder_hidden=(8,), decoder_hidden=(8,),
                                   uncertainty_hidden=(8,), classifier_hidden=(8,))
        assert not bundle.auto_encoder.trained
        path = tmp_path / "bundle.ckpt"
        bundle.save(path)
        back = ModelBundle.load(path)
        assert back.auto_encoder.trained
        for orig, re in [
            (bundle.auto_encoder.encoder, back.auto_encoder.encoder),
            (bundle.auto_encoder.decoder, back.auto_encoder.decoder),
            (bundle.uncertainty.net, back.uncertainty.net),
            (bundle.classifier.net, back.classifier.net),
        ]:
            for lo, lr in zip(orig.layers, re.layers):
                np.testing.assert_array_equal(lo.weights, lr.weights)
                np.testing.assert_array_equal(lo.bias, lr.bias)

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
