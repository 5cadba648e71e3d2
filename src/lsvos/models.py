"""Auto-encoder, uncertainty head, surrogate classifier, and their losses.

The auto-encoder consumes class-augmented features real[D+K] and
reconstructs the raw D-dimensional feature (the one-hot block is input
only).  The uncertainty head maps a raw feature to one logit whose
sigmoid acts as an outlier probability.  The surrogate classifier stands
in for the detector's classification branch: the detector itself is out
of scope, but its max-softmax confidence is needed as the no-training
baseline and for calibration measurements, and its cross-entropy
realizes the detection term of the three-part total loss.

Uncertainty loss comes in two variants:

``sigmoid`` (default)
    L = mean_ood[-sigma(f)] + mean_id[-(1 - sigma(f))], bounded in (-2, 0).
``bce``
    the standard binary cross-entropy on the same logit, selectable from
    config for comparison runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import InputError

UNCERTAINTY_VARIANTS = ("sigmoid", "bce")


@dataclass
class AutoEncoder:
    """Encoder real[D+K] -> real[D'] and decoder real[D'] -> real[D]."""

    encoder: nn.DenseNet
    decoder: nn.DenseNet
    trained: bool = False

    def __post_init__(self):
        if self.encoder.output_dim != self.decoder.input_dim:
            raise InputError(
                f"encoder output dim {self.encoder.output_dim} != "
                f"decoder input dim {self.decoder.input_dim}"
            )
        if self.decoder.output_dim >= self.encoder.input_dim:
            raise InputError(
                "encoder input must be feature dim + class count, got "
                f"{self.encoder.input_dim} with feature dim {self.decoder.output_dim}"
            )

    @property
    def latent_dim(self) -> int:
        return self.encoder.output_dim

    @property
    def feature_dim(self) -> int:
        return self.decoder.output_dim

    @property
    def num_classes(self) -> int:
        return self.encoder.input_dim - self.decoder.output_dim

    @classmethod
    def build(
        cls,
        dim: int,
        num_classes: int,
        rng: np.random.Generator,
        *,
        latent_dim: int,
        encoder_hidden: tuple[int, ...],
        decoder_hidden: tuple[int, ...],
    ) -> "AutoEncoder":
        encoder = nn.dense_net([dim + num_classes, *encoder_hidden, latent_dim], rng)
        decoder = nn.dense_net([latent_dim, *decoder_hidden, dim], rng)
        return cls(encoder, decoder)


def encode(ae: AutoEncoder, x: np.ndarray) -> np.ndarray:
    return nn.forward(ae.encoder, x)


def decode(ae: AutoEncoder, z: np.ndarray) -> np.ndarray:
    return nn.forward(ae.decoder, z)


def reconstruct(ae: AutoEncoder, x: np.ndarray) -> np.ndarray:
    """phi(x) = d(e(x)): (M, D+K) in, (M, D) out."""
    return decode(ae, encode(ae, x))


def _stacked(ae: AutoEncoder) -> nn.DenseNet:
    # encoder and decoder layers share parameter arrays with this view,
    # so gradients computed on the stack line up with both nets
    return nn.DenseNet(ae.encoder.layers + ae.decoder.layers)


def ae_gradients(
    ae: AutoEncoder, x: np.ndarray, ws: nn.Workspace | None = None
) -> tuple[float, list[np.ndarray]]:
    """Reconstruction MSE against the first D input columns, and its gradients.

    The gradient list lines up with parameters(encoder) + parameters(decoder).
    ``ws`` is passed to nn.gradients, whose aliasing contract applies.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != ae.encoder.input_dim:
        raise InputError(
            f"expected (M, {ae.encoder.input_dim}) augmented features, got {x.shape}"
        )
    return nn.gradients(_stacked(ae), x, "mse", x[:, : ae.feature_dim], ws)


@dataclass
class UncertaintyHead:
    """Scalar-logit net over raw features; higher logit = more outlier-like."""

    net: nn.DenseNet

    def __post_init__(self):
        if self.net.output_dim != 1:
            raise InputError("uncertainty head must produce one logit per row")

    @classmethod
    def build(
        cls,
        dim: int,
        rng: np.random.Generator,
        *,
        hidden: tuple[int, ...],
    ) -> "UncertaintyHead":
        return cls(nn.dense_net([dim, *hidden, 1], rng))


def uncertainty_score(head: UncertaintyHead, u: np.ndarray) -> np.ndarray:
    """Raw logits f_unc(u) as a (N,) array; higher means more anomalous."""
    return nn.forward(head.net, u)[:, 0]


def _coerce_rows(u: np.ndarray, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.size == 0:
        return np.zeros((0, dim))
    if u.ndim != 2 or u.shape[1] != dim:
        raise InputError(f"expected (N, {dim}) feature rows, got shape {u.shape}")
    return u


def _stack_uncertainty_batch(
    head: UncertaintyHead, u_id: np.ndarray, u_ood: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    dim = head.net.input_dim
    u_id = _coerce_rows(u_id, dim)
    u_ood = _coerce_rows(u_ood, dim)
    if u_id.shape[0] == 0 and u_ood.shape[0] == 0:
        raise InputError("uncertainty loss needs at least one ID or OOD row")
    batch = np.vstack([u_id, u_ood])
    is_ood = np.zeros(batch.shape[0], dtype=bool)
    is_ood[u_id.shape[0] :] = True
    return batch, is_ood


def uncertainty_gradients(
    head: UncertaintyHead,
    u_id: np.ndarray,
    u_ood: np.ndarray,
    variant: str = "sigmoid",
    ws: nn.Workspace | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Loss mean_ood[-sigma(f)] + mean_id[-(1-sigma(f))] (or bce) and its gradients.

    A single-sided batch contributes only its own term.
    """
    batch, is_ood = _stack_uncertainty_batch(head, u_id, u_ood)
    return nn.gradients(head.net, batch, _variant_kind(variant), is_ood, ws)


def _variant_kind(variant: str) -> str:
    if variant not in UNCERTAINTY_VARIANTS:
        raise InputError(f"unknown uncertainty variant {variant!r}")
    return "uncertainty-sigmoid" if variant == "sigmoid" else "uncertainty-bce"


@dataclass
class SurrogateClassifier:
    """Stand-in for the detector's classification branch (K logits)."""

    net: nn.DenseNet

    @classmethod
    def build(
        cls,
        dim: int,
        num_classes: int,
        rng: np.random.Generator,
        *,
        hidden: tuple[int, ...],
    ) -> "SurrogateClassifier":
        if num_classes < 2:
            raise InputError("surrogate classifier needs at least 2 classes")
        return cls(nn.dense_net([dim, *hidden, num_classes], rng))

    @property
    def num_classes(self) -> int:
        return self.net.output_dim


def classifier_gradients(
    clf: SurrogateClassifier,
    u: np.ndarray,
    class_ids: np.ndarray,
    ws: nn.Workspace | None = None,
) -> tuple[float, list[np.ndarray]]:
    return nn.gradients(clf.net, u, "cross-entropy", class_ids, ws)


def softmax_probs(clf: SurrogateClassifier, u: np.ndarray) -> np.ndarray:
    """Full softmax rows, shape (N, K)."""
    return np.exp(nn.log_softmax(nn.forward(clf.net, u)))


def default_score(clf: SurrogateClassifier, u: np.ndarray) -> np.ndarray:
    """Max-softmax confidence per row, always in [1/K, 1]."""
    return softmax_probs(clf, u).max(axis=1)


def total_loss(det_loss: float, recon_loss: float, unc_loss: float, lam: float) -> float:
    """L_total = L_det + L_AE + lambda * L_uncertainty."""
    if lam < 0.0:
        raise InputError(f"lambda must be non-negative, got {lam}")
    return det_loss + recon_loss + lam * unc_loss


@dataclass
class ModelBundle:
    """Everything one experiment trains, checkpointable as a unit."""

    auto_encoder: AutoEncoder
    uncertainty: UncertaintyHead
    classifier: SurrogateClassifier

    def __post_init__(self):
        d = self.auto_encoder.feature_dim
        if self.uncertainty.net.input_dim != d or self.classifier.net.input_dim != d:
            raise InputError("uncertainty head and classifier must consume raw features")

    @classmethod
    def build(
        cls,
        dim: int,
        num_classes: int,
        rng: np.random.Generator,
        *,
        latent_dim: int,
        encoder_hidden: tuple[int, ...],
        decoder_hidden: tuple[int, ...],
        uncertainty_hidden: tuple[int, ...],
        classifier_hidden: tuple[int, ...],
    ) -> "ModelBundle":
        ae = AutoEncoder.build(
            dim,
            num_classes,
            rng,
            latent_dim=latent_dim,
            encoder_hidden=encoder_hidden,
            decoder_hidden=decoder_hidden,
        )
        head = UncertaintyHead.build(dim, rng, hidden=uncertainty_hidden)
        clf = SurrogateClassifier.build(dim, num_classes, rng, hidden=classifier_hidden)
        return cls(ae, head, clf)

    def save(self, path) -> None:
        nn.save_checkpoint(
            path,
            {
                "encoder": self.auto_encoder.encoder,
                "decoder": self.auto_encoder.decoder,
                "uncertainty": self.uncertainty.net,
                "classifier": self.classifier.net,
            },
        )

    @classmethod
    def load(cls, path) -> "ModelBundle":
        nets = nn.load_checkpoint(path)
        missing = {"encoder", "decoder", "uncertainty", "classifier"} - set(nets)
        if missing:
            raise InputError(f"checkpoint missing nets: {sorted(missing)}")
        return cls(
            AutoEncoder(nets["encoder"], nets["decoder"], trained=True),
            UncertaintyHead(nets["uncertainty"]),
            SurrogateClassifier(nets["classifier"]),
        )

    def model_card(self) -> dict:
        """Dims summary for the run's model card JSON."""

        def dims(net: nn.DenseNet) -> list[int]:
            return [net.input_dim] + [layer.fan_out for layer in net.layers]

        return {
            "feature_dim": self.auto_encoder.feature_dim,
            "num_classes": self.auto_encoder.num_classes,
            "latent_dim": self.auto_encoder.latent_dim,
            "encoder_dims": dims(self.auto_encoder.encoder),
            "decoder_dims": dims(self.auto_encoder.decoder),
            "uncertainty_dims": dims(self.uncertainty.net),
            "classifier_dims": dims(self.classifier.net),
        }
