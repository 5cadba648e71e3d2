"""The model: four nets in one ModelBundle, and their losses.

A ModelBundle holds the four nets one experiment trains, with D the raw
feature dim, K the class count and D' the latent dim:

``encoder``
    real[D+K] -> real[D']: a raw feature with its one-hot class block
    appended, to a latent code.
``decoder``
    real[D'] -> real[D]: a latent code back to a raw feature (the one-hot
    block is input only).  Encoder and decoder are the class-conditional
    auto-encoder that latent-space synthesis perturbs.
``uncertainty``
    real[D] -> one logit whose sigmoid acts as an outlier probability;
    higher = more outlier-like.
``classifier``
    real[D] -> K logits.  It stands in for the detector's classification
    branch: the detector itself is out of scope, but its max-softmax
    confidence is needed as the no-training baseline and for calibration
    measurements, and its cross-entropy realizes the detection term of
    the three-part total loss.

Each loss function takes the nets it runs.  Uncertainty loss comes in two
variants:

``sigmoid`` (default)
    L = mean_ood[-sigma(f)] + mean_id[-(1 - sigma(f))], bounded in (-2, 0).
``bce``
    the standard binary cross-entropy on the same logit, selectable from
    config for comparison runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import InputError

UNCERTAINTY_VARIANTS = ("sigmoid", "bce")
# ModelBundle's nets, in field order and in checkpoint order
NET_NAMES = ("encoder", "decoder", "uncertainty", "classifier")


def ae_gradients(
    encoder: nn.DenseNet,
    decoder: nn.DenseNet,
    x: np.ndarray,
    ws: nn.Workspace | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Reconstruction MSE against the first D input columns, and its gradients.

    The gradient list lines up with parameters(encoder) + parameters(decoder).
    ``ws`` is passed to nn.gradients, whose aliasing contract applies.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != encoder.input_dim:
        raise InputError(
            f"expected (M, {encoder.input_dim}) augmented features, got {x.shape}"
        )
    # the stack shares the layers' parameter arrays, so its gradients line
    # up with both nets
    stacked = nn.DenseNet(encoder.layers + decoder.layers)
    return nn.gradients(stacked, x, "mse", x[:, : decoder.output_dim], ws)


def uncertainty_score(head: nn.DenseNet, u: np.ndarray) -> np.ndarray:
    """Raw logits f_unc(u) as a (N,) array; higher means more anomalous."""
    return nn.forward(head, u)[:, 0]


def _coerce_rows(u: np.ndarray, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.size == 0:
        return np.zeros((0, dim))
    if u.ndim != 2 or u.shape[1] != dim:
        raise InputError(f"expected (N, {dim}) feature rows, got shape {u.shape}")
    return u


def uncertainty_gradients(
    head: nn.DenseNet,
    u_id: np.ndarray,
    u_ood: np.ndarray,
    variant: str = "sigmoid",
    ws: nn.Workspace | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Loss mean_ood[-sigma(f)] + mean_id[-(1-sigma(f))] (or bce) and its gradients.

    A single-sided batch contributes only its own term.
    """
    u_id = _coerce_rows(u_id, head.input_dim)
    u_ood = _coerce_rows(u_ood, head.input_dim)
    if u_id.shape[0] == 0 and u_ood.shape[0] == 0:
        raise InputError("uncertainty loss needs at least one ID or OOD row")
    if variant not in UNCERTAINTY_VARIANTS:
        raise InputError(f"unknown uncertainty variant {variant!r}")
    batch = np.vstack([u_id, u_ood])
    is_ood = np.zeros(batch.shape[0], dtype=bool)
    is_ood[u_id.shape[0] :] = True
    return nn.gradients(head, batch, f"uncertainty-{variant}", is_ood, ws)


def classifier_gradients(
    clf: nn.DenseNet,
    u: np.ndarray,
    class_ids: np.ndarray,
    ws: nn.Workspace | None = None,
) -> tuple[float, list[np.ndarray]]:
    return nn.gradients(clf, u, "cross-entropy", class_ids, ws)


def softmax_probs(clf: nn.DenseNet, u: np.ndarray) -> np.ndarray:
    """Full softmax rows, shape (N, K)."""
    return np.exp(nn.log_softmax(nn.forward(clf, u)))


def default_score(clf: nn.DenseNet, u: np.ndarray) -> np.ndarray:
    """Max-softmax confidence per row, always in [1/K, 1]."""
    return softmax_probs(clf, u).max(axis=1)


def total_loss(det_loss: float, recon_loss: float, unc_loss: float, lam: float) -> float:
    """L_total = L_det + L_AE + lambda * L_uncertainty."""
    if lam < 0.0:
        raise InputError(f"lambda must be non-negative, got {lam}")
    return det_loss + recon_loss + lam * unc_loss


@dataclass
class ModelBundle:
    """The four nets one experiment trains, checkpointable as a unit.

    Construction checks that the nets fit together: encoder in = D + K and
    encoder out = decoder in, where D = decoder out and K = classifier
    out; the head gives one logit; head and classifier both take D inputs.
    """

    encoder: nn.DenseNet
    decoder: nn.DenseNet
    uncertainty: nn.DenseNet
    classifier: nn.DenseNet

    def __post_init__(self):
        d, k = self.feature_dim, self.num_classes
        if self.encoder.output_dim != self.decoder.input_dim:
            raise InputError(
                f"encoder output dim {self.encoder.output_dim} != "
                f"decoder input dim {self.decoder.input_dim}"
            )
        if self.encoder.input_dim != d + k:
            raise InputError(
                f"encoder input must be feature dim + class count = {d} + {k}, "
                f"got {self.encoder.input_dim}"
            )
        if self.uncertainty.output_dim != 1:
            raise InputError("uncertainty head must produce one logit per row")
        if self.uncertainty.input_dim != d or self.classifier.input_dim != d:
            raise InputError("uncertainty head and classifier must consume raw features")

    @property
    def feature_dim(self) -> int:
        return self.decoder.output_dim

    @property
    def num_classes(self) -> int:
        return self.classifier.output_dim

    @property
    def latent_dim(self) -> int:
        return self.encoder.output_dim

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
        """Fresh nets, drawn from rng as encoder, decoder, head, classifier."""
        if num_classes < 2:
            raise InputError("the classifier needs at least 2 classes")
        return cls(
            nn.dense_net([dim + num_classes, *encoder_hidden, latent_dim], rng),
            nn.dense_net([latent_dim, *decoder_hidden, dim], rng),
            nn.dense_net([dim, *uncertainty_hidden, 1], rng),
            nn.dense_net([dim, *classifier_hidden, num_classes], rng),
        )

    def save(self, path) -> None:
        nn.save_checkpoint(path, {name: getattr(self, name) for name in NET_NAMES})

    @classmethod
    def load(cls, path) -> "ModelBundle":
        nets = nn.load_checkpoint(path)
        missing = set(NET_NAMES) - set(nets)
        if missing:
            raise InputError(f"checkpoint missing nets: {sorted(missing)}")
        return cls(*(nets[name] for name in NET_NAMES))

    def model_card(self) -> dict:
        """Dims summary for the run's model card JSON."""

        def dims(net: nn.DenseNet) -> list[int]:
            return [net.input_dim] + [layer.fan_out for layer in net.layers]

        return {
            "feature_dim": self.feature_dim,
            "num_classes": self.num_classes,
            "latent_dim": self.latent_dim,
            "encoder_dims": dims(self.encoder),
            "decoder_dims": dims(self.decoder),
            "uncertainty_dims": dims(self.uncertainty),
            "classifier_dims": dims(self.classifier),
        }
