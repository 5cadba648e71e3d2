"""Minimal dense-network numerics: forward, reverse-mode gradients, Adam.

Everything runs in float64.  Networks are plain dataclasses holding weight
matrices of shape (fan_in, fan_out); a batch is a (B, D) array and layers
compute ``a @ W + b`` followed by the layer activation.  Gradients are
computed by explicit backpropagation against one of a small set of loss
kinds, so the whole training loop stays inspectable and deterministic.

Loss kinds
----------
``mse``
    mean over every output element of (y - t)^2.
``cross-entropy``
    softmax cross-entropy against integer class ids.
``uncertainty-sigmoid``
    L = E_out[-sigmoid(f)] + E_in[-(1 - sigmoid(f))] for a single logit f,
    where the expectation is a mean over the outlier rows and the inlier
    rows separately.  Bounded in (-2, 0).
``uncertainty-bce``
    the standard binary cross-entropy on the same logit, kept behind a
    config switch for comparison runs.
"""

from __future__ import annotations

import math
import mmap
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalFailure

CHECKPOINT_MAGIC = b"VOSC"
CHECKPOINT_VERSION = 1

# Matrix products below this many multiply-adds may leave BLAS's blocked
# kernel and round a row differently: numpy sends a single row to gemv, and
# OpenBLAS 0.3.31 on AVX-512 x86-64 sends products of at most 1,200 outputs
# with an inner size of 32 or more to a small-matrix kernel
BLOCKED_GEMM_MACS = 100**3

# forward runs a batch in blocks of this many rows, the last taking the tail
FORWARD_BLOCK_ROWS = 8192


@dataclass
class Layer:
    """One affine layer.  weights: (fan_in, fan_out), bias: (fan_out,)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "relu"

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]


@dataclass
class DenseNet:
    layers: list[Layer]

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out


def dense_net(dims: list[int] | tuple[int, ...], rng: np.random.Generator) -> DenseNet:
    """Build a net with the given layer widths, e.g. dims=[64, 128, 32].

    Hidden layers use relu, the last layer is identity.  Weights
    are Glorot-uniform, U(-a, a) with a = sqrt(6 / (fan_in + fan_out));
    biases start at zero.
    """
    if len(dims) < 2:
        raise InputError("dense_net needs at least an input and output width")
    if any(int(d) <= 0 for d in dims):
        raise InputError(f"layer widths must be positive, got {list(dims)}")
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = int(dims[i]), int(dims[i + 1])
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        act = "relu" if i < len(dims) - 2 else "identity"
        layers.append(Layer(w, b, act))
    return DenseNet(layers)


class Workspace:
    """One float64 scratch buffer that a gradient call carves its arrays from.

    ``gradients`` calls reset(), then forward_cached and backward take views
    of the buffer with take(shape).  A call that outgrows the buffer gets fresh arrays for the rest, and the
    next reset() grows the buffer to that call's total, so the buffer ends
    the size of the largest call made on it and is reused from then on
    instead of being freed and page-faulted back in every step.

    Aliasing contract: every array taken from a workspace, including the
    gradients ``gradients(..., ws)`` returns, is valid only until the next
    call on that workspace.
    """

    def __init__(self):
        self._buf = np.empty(0)
        self._used = 0

    def reset(self) -> None:
        if self._used > self._buf.size:
            # private anonymous memory of its own, unmapped when the last
            # view dies: numpy advises huge pages for a buffer this large,
            # which left the process holding several MB more at random
            memory = mmap.mmap(-1, 8 * self._used, access=mmap.ACCESS_COPY)
            self._buf = np.frombuffer(memory, dtype=np.float64)
        self._used = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        start = self._used
        self._used += math.prod(shape)
        if self._used > self._buf.size:
            return np.empty(shape)
        return self._buf[start : self._used].reshape(shape)


def _check_batch(net: DenseNet, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InputError(f"batch must be 2-D (B, D), got shape {x.shape}")
    if x.shape[1] != net.input_dim:
        raise InputError(
            f"batch has {x.shape[1]} features, net expects {net.input_dim}"
        )
    if x.shape[0] == 0:
        raise InputError("batch is empty")
    if not np.all(np.isfinite(x)):
        raise InputError("batch contains non-finite values")
    return x


def _check_activation(a: np.ndarray, index: int) -> None:
    if not np.all(np.isfinite(a)):
        raise NumericalFailure(f"non-finite activation after layer {index}")


def _layer_forward(a: np.ndarray, layer: Layer, out: np.ndarray | None = None) -> np.ndarray:
    """a @ W + b and the layer's activation, all written into out (fresh if None)."""
    z = np.matmul(a, layer.weights, out=out)
    z += layer.bias
    if layer.activation == "relu":
        return np.maximum(z, 0.0, out=z)
    if layer.activation == "identity":
        return z
    raise InputError(f"unknown activation {layer.activation!r}")


def _block_rows(net: DenseNet) -> int:
    """Rows per inference block: FORWARD_BLOCK_ROWS, or more for a net so
    narrow that some layer's product over a block would not exceed
    BLOCKED_GEMM_MACS.

    Always a multiple of 64, so that block edges fall on the row groups the
    BLAS kernels use in one pass: OpenBLAS's gemv (a single-output layer)
    takes rows in fours and rounds left-over rows differently, and 8,193-row
    blocks changed their last bits.
    """
    narrowest = min(layer.fan_in * layer.fan_out for layer in net.layers)
    rows = max(FORWARD_BLOCK_ROWS, BLOCKED_GEMM_MACS // narrowest + 1)
    return -(-rows // 64) * 64


def forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Run the net on a (B, D_in) batch, returning (B, D_out).

    The batch runs in blocks of _block_rows(net) rows, the last block
    taking the tail, so a batch of fewer than two blocks is one block and
    memory grows with the batch only by its input and output.  Each
    layer's bias and relu are written into its ``a @ W`` product, so at
    most two activations of a block are alive at a time, and x is not
    written.  A layer's rows do not depend on the rows beside them in the
    blocked GEMM kernel, so the output has the bits of one pass.  A
    non-finite activation names the first failing layer of the first
    failing block.
    """
    x = _check_batch(net, x)
    n = x.shape[0]
    block_rows = _block_rows(net)
    n_blocks = max(1, n // block_rows)
    outputs = []
    for k in range(n_blocks):
        stop = n if k == n_blocks - 1 else (k + 1) * block_rows
        a = x[k * block_rows : stop]
        for i, layer in enumerate(net.layers):
            # rebinding a frees the layer's input before the check's temporary
            a = _layer_forward(a, layer)
            _check_activation(a, i)
        outputs.append(a)
    return outputs[0] if n_blocks == 1 else np.concatenate(outputs)


def forward_cached(net: DenseNet, x: np.ndarray, ws: Workspace | None = None):
    """Forward pass that keeps every layer's output for backprop.

    Returns the output and the activation list [x, a_1, ..., a_L], where
    a_i is layer i-1's output, written by _layer_forward into a view taken
    from ``ws`` (a fresh workspace when none is given).
    """
    ws = Workspace() if ws is None else ws
    a = _check_batch(net, x)
    acts = [a]
    for i, layer in enumerate(net.layers):
        a = _layer_forward(a, layer, ws.take((a.shape[0], layer.fan_out)))
        _check_activation(a, i)
        acts.append(a)
    return a, acts


def backward(
    net: DenseNet, acts, d_out: np.ndarray, ws: Workspace | None = None
) -> list[np.ndarray]:
    """Backprop d_out = dL/d(output) through the net.

    acts is the activation list of forward_cached.  Returns grads matching
    parameters(net): [dW0, db0, dW1, db1, ...], as views taken from ``ws``
    (a fresh workspace when none is given).  The gradient with respect to
    the net's input is never formed.  A relu layer's output is dead once
    the layers above have their gradients (for the last layer, once the
    loss has given d_out), so the layer's relu mask is written over its own
    output and acts is spent: relu(z) > 0 exactly where the finite z > 0.
    """
    ws = Workspace() if ws is None else ws
    grads: list[np.ndarray] = []
    da = d_out
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        a_prev = acts[i]
        if layer.activation == "relu":
            # mask as 1.0/0.0 times da: the same bits as da * (z > 0.0)
            dz = np.greater(acts[i + 1], 0.0, out=acts[i + 1])
            dz *= da
        else:
            dz = da
        dw = np.matmul(a_prev.T, dz, out=ws.take(layer.weights.shape))
        db = np.sum(dz, axis=0, out=ws.take(layer.bias.shape))
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
            raise NumericalFailure(f"non-finite gradient at layer {i}")
        grads.append(db)
        grads.append(dw)
        if i:
            da = np.matmul(dz, layer.weights.T, out=ws.take(a_prev.shape))
    grads.reverse()
    return grads


def parameters(net: DenseNet) -> list[np.ndarray]:
    """Flat parameter list [W0, b0, W1, b1, ...] (live views, not copies)."""
    out: list[np.ndarray] = []
    for layer in net.layers:
        out.append(layer.weights)
        out.append(layer.bias)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_and_grad(
    outputs: np.ndarray, loss_kind: str, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss value plus dL/d(outputs) for one loss kind.

    loss_kind is "mse", "cross-entropy", "uncertainty-sigmoid" or
    "uncertainty-bce".  targets: same shape as outputs for mse, integer
    class ids (B,) for cross-entropy, and a boolean is-outlier mask (B,)
    for the two uncertainty kinds (whose outputs must be a single logit
    per row).
    """
    y = np.asarray(outputs, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] == 0:
        raise InputError(f"outputs must be a non-empty (B, D) array, got {y.shape}")

    if loss_kind == "mse":
        t = np.asarray(targets, dtype=np.float64)
        if t.shape != y.shape:
            raise InputError(f"mse targets shape {t.shape} != outputs {y.shape}")
        diff = y - t
        loss = float(np.mean(diff * diff))
        return loss, 2.0 * diff / diff.size

    if loss_kind == "cross-entropy":
        t = np.asarray(targets)
        if t.shape != (y.shape[0],):
            raise InputError("cross-entropy targets must be class ids of shape (B,)")
        t = t.astype(np.int64)
        if t.min() < 0 or t.max() >= y.shape[1]:
            raise InputError("class id out of range for logits")
        b = y.shape[0]
        logp = log_softmax(y)
        loss = float(-logp[np.arange(b), t].mean())
        grad = np.exp(logp)
        grad[np.arange(b), t] -= 1.0
        return loss, grad / b

    if loss_kind in ("uncertainty-sigmoid", "uncertainty-bce"):
        if y.shape[1] != 1:
            raise InputError("uncertainty losses expect a single logit per row")
        is_out = np.asarray(targets)
        if is_out.shape != (y.shape[0],) or is_out.dtype != np.bool_:
            raise InputError("uncertainty targets must be a boolean mask of shape (B,)")
        f = y[:, 0]
        n_out = int(is_out.sum())
        n_in = int((~is_out).sum())
        if n_out == 0 and n_in == 0:
            raise InputError("uncertainty loss needs at least one row")
        s = sigmoid(f)
        grad = np.zeros_like(f)
        loss = 0.0
        if loss_kind == "uncertainty-sigmoid":
            # outlier term -sigma(f), inlier term -(1 - sigma(f))
            if n_out:
                loss += float(-s[is_out].mean())
                grad[is_out] = -(s[is_out] * (1.0 - s[is_out])) / n_out
            if n_in:
                loss += float(-(1.0 - s[~is_out]).mean())
                grad[~is_out] = (s[~is_out] * (1.0 - s[~is_out])) / n_in
        else:
            # outlier term -log sigma(f) = softplus(-f), inlier -log(1 - sigma(f))
            if n_out:
                loss += float(softplus(-f[is_out]).mean())
                grad[is_out] = -(1.0 - s[is_out]) / n_out
            if n_in:
                loss += float(softplus(f[~is_out]).mean())
                grad[~is_out] = s[~is_out] / n_in
        return loss, grad[:, None]

    raise InputError(f"unknown loss kind {loss_kind!r}")


def gradients(
    net: DenseNet,
    x: np.ndarray,
    loss_kind: str,
    targets: np.ndarray,
    ws: Workspace | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Loss and parameter gradients for one batch.

    The gradient list lines up with parameters(net).  With a shared ``ws``
    the call reuses its buffer, and the gradients stay valid until the next
    call on it; without one every array is freshly allocated.
    """
    ws = Workspace() if ws is None else ws
    ws.reset()
    out, acts = forward_cached(net, x, ws)
    loss, d_out = loss_and_grad(out, loss_kind, targets)
    if not np.isfinite(loss):
        raise NumericalFailure(f"non-finite {loss_kind} loss")
    return loss, backward(net, acts, d_out, ws)


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter array."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0


def init_adam(params: list[np.ndarray]) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        step=0,
    )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float = 1e-3,
) -> None:
    """One Adam update, written into params, state.m and state.v in place.

    m <- b1 m + (1-b1) g,  v <- b2 v + (1-b2) g^2,
    p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps),
    with Adam's published constants b1 = 0.9, b2 = 0.999, eps = 1e-8.

    Every new value is computed and checked before any is stored, so a
    NumericalFailure leaves the parameters and the state untouched.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise InputError("params, grads and Adam state must have equal length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise InputError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = state.step + 1
    updates = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m1 = beta1 * m + (1.0 - beta1) * g
        v1 = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m1 / (1.0 - beta1**t)
        v_hat = v1 / (1.0 - beta2**t)
        p1 = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        if not np.all(np.isfinite(p1)):
            raise NumericalFailure("non-finite parameter after Adam step")
        updates.append((p1, m1, v1))
    for k, (p1, m1, v1) in enumerate(updates):
        params[k][...] = p1
        state.m[k] = m1
        state.v[k] = v1
    state.step = t


# --- checkpoint serialization ------------------------------------------------
#
# Binary layout, little-endian throughout:
#   magic   4 bytes  b"VOSC"
#   version u32      currently 1
#   count   u32      number of named nets
#   per net:
#     name_len u16, name utf-8 bytes
#     n_layers u32
#     per layer:
#       fan_in u32, fan_out u32, activation u8 (0=identity, 1=relu)
#       weights float64 row-major (fan_in * fan_out values), bias float64

_ACT_CODE = {"identity": 0, "relu": 1}
_ACT_NAME = {v: k for k, v in _ACT_CODE.items()}


def save_checkpoint(path, nets: dict[str, DenseNet]) -> None:
    """Write named nets to a versioned binary file."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(nets))]
    for name, net in nets.items():
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<I", len(net.layers)))
        for layer in net.layers:
            parts.append(
                struct.pack(
                    "<IIB", layer.fan_in, layer.fan_out, _ACT_CODE[layer.activation]
                )
            )
            parts.append(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
            parts.append(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise InputError("checkpoint file truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> dict[str, DenseNet]:
    """Read nets written by save_checkpoint."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(4) != CHECKPOINT_MAGIC:
        raise InputError("not a lsvos checkpoint (bad magic)")
    (version, count) = reader.unpack("<II")
    if version != CHECKPOINT_VERSION:
        raise InputError(f"unsupported checkpoint version {version}")
    nets: dict[str, DenseNet] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        raw = reader.take(name_len)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"net name {raw!r} is not valid UTF-8") from exc
        if name in nets:  # a second copy would silently replace the first
            raise InputError(f"net {name!r} appears twice in the checkpoint")
        (n_layers,) = reader.unpack("<I")
        if n_layers == 0:
            raise InputError(f"net {name!r} has no layers")
        layers = []
        for i in range(n_layers):
            fan_in, fan_out, act_code = reader.unpack("<IIB")
            if act_code not in _ACT_NAME:
                raise InputError(f"unknown activation code {act_code}")
            if fan_in == 0 or fan_out == 0:
                raise InputError(
                    f"net {name!r} layer {i} is {fan_in} -> {fan_out}: "
                    "a layer needs at least one input and one output"
                )
            if layers and layers[-1].fan_out != fan_in:
                raise InputError(
                    f"net {name!r} layer {i} takes {fan_in} inputs but layer "
                    f"{i - 1} gives {layers[-1].fan_out}"
                )
            w = np.frombuffer(reader.take(8 * fan_in * fan_out), dtype="<f8")
            b = np.frombuffer(reader.take(8 * fan_out), dtype="<f8")
            layers.append(
                Layer(
                    w.reshape(fan_in, fan_out).astype(np.float64),
                    b.astype(np.float64),
                    _ACT_NAME[act_code],
                )
            )
        nets[name] = DenseNet(layers)
    if reader.pos != len(reader.data):
        raise InputError("trailing bytes after checkpoint payload")
    return nets
