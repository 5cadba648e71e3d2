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
import os
import struct
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import groupby

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
    """One float64 scratch buffer that a gradient call carves its arrays
    from, and the worker that may run part of the call.

    ``gradients`` calls reset(), then forward_cached and backward take views
    of the buffer with take(shape).  Only the calling thread takes views,
    and it takes every view a part writes before it hands the part to the
    worker (backward all of them before its first phase), so each part
    writes only its own rows or its own layers' gradients.  A call that outgrows the buffer gets fresh arrays for the rest,
    and the next reset() grows the buffer to that call's total, so the
    buffer ends the size of the largest call made on it and is reused from
    then on instead of being freed and page-faulted back in every step.

    worker is an executor with one thread (pipeline._train passes the pool
    that ranks VOS candidates), or None to run every part on the caller;
    see run_threads.  The bits do not depend on it.

    Aliasing contract: every array taken from a workspace, including the
    gradients ``gradients(..., ws)`` returns, is valid only until the next
    call on that workspace.
    """

    def __init__(self, worker=None):
        self._buf = np.empty(0)
        self._used = 0
        self.worker = worker

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


def _check_activation(a: np.ndarray, index: int, activation: str) -> None:
    """Raise if layer index's output a holds a NaN or an inf.

    A relu output is NaN or at least 0, so its max, which propagates NaN,
    decides: faster than np.isfinite, and without a temporary the size
    of a.
    """
    if activation == "relu" and a.size:
        finite = np.isfinite(a.max())
    else:
        finite = np.all(np.isfinite(a))
    if not finite:
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


def _blocked(rows: int, inner: int, cols: int) -> bool:
    """Whether a (rows, inner) @ (inner, cols) product runs in BLAS's
    blocked GEMM kernel, where an output does not depend on the rows and
    columns beside it, at any BLAS thread count: more than
    BLOCKED_GEMM_MACS multiply-adds, and no size of 1, which numpy sends
    to gemv or its own loop."""
    return min(rows, inner, cols) > 1 and rows * inner * cols > BLOCKED_GEMM_MACS


def _row_cut(net: DenseNet, rows: int) -> int:
    """The row where a gradient call splits into two parts, or 0 for none.

    The cut is the multiple of 64 nearest half the rows, as block edges
    are multiples of 64 (see _block_rows).  The call splits when every
    layer with more than one output has a _blocked product over either
    part; a one-output layer runs whole (see forward_cached).
    """
    cut = (rows + 64) // 128 * 64
    wide = [layer for layer in net.layers if layer.fan_out > 1]
    part = min(cut, rows - cut)
    if wide and all(_blocked(part, layer.fan_in, layer.fan_out) for layer in wide):
        return cut
    return 0


def usable_cpus() -> int:
    """CPUs this process may run on: len(os.sched_getaffinity(0)), or
    os.cpu_count() where that call is missing (1 if that knows none)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_threads(work, items: list[tuple], per_thread: list[tuple], worker=None) -> None:
    """Call work(*item, *bufs) once for each item in items, on the calling
    thread and on one job per further entry of per_thread; bufs is the
    entry of the thread that takes the item.

    Every thread takes items from one shared iterator.  The jobs run on
    worker, an executor that may be busy with other jobs (pipeline._train
    passes its one-worker pool through Workspace), or else on a pool that
    ends with the call.  Once the caller has run out of items, it cancels
    the jobs that have not started and waits for the rest, even when its
    own items raised, so no item outlives the call and the caller never
    waits behind the worker's other jobs.  An exception in a job is raised
    again in the caller.  One entry submits no job, so no thread starts
    and work runs inline.  The package starts threads only here and in
    pipeline._train.
    """
    # imported here, not with the package: concurrent.futures pulls in
    # logging, ~0.4 MB of RSS that only this pool needs
    from concurrent.futures import ThreadPoolExecutor

    # a list iterator's next() holds the GIL, so each item goes to one
    # thread; it drops the list, and with it the items' arrays, once the
    # last item is taken, as a cancelled job may wait in worker's queue
    calls = iter(items)

    def take(*bufs):
        for item in calls:
            work(*item, *bufs)

    helpers = per_thread[1:]
    with nullcontext(worker) if worker else ThreadPoolExecutor(max(1, len(helpers))) as pool:
        jobs = [pool.submit(take, *bufs) for bufs in helpers]
        try:
            take(*per_thread[0])
        finally:
            errors = [job.exception() for job in jobs if not job.cancel()]
    for error in errors:
        if error is not None:
            raise error


def _forward_layers(net: DenseNet, a: np.ndarray, dests: list, first: int, key: int, failures):
    """Run rows a through layers first, first + 1, ... of net, layer
    first + j writing into dests[j] (a fresh array if None), and return
    the last output.

    key is the block the rows belong to.  A non-finite activation goes
    into failures as ((key, layer index), error) and ends the run, which
    returns None, and rows of a block above one that has failed do not
    run.  Runs only _layer_forward and _check_activation, so it may run on
    any thread, with floating-point warnings off: every value a warning
    would report fails a check, which names its layer.
    """
    if any(where[0] < key for where, _ in failures):
        return None
    with np.errstate(all="ignore"):
        for i, dest in enumerate(dests, first):
            layer = net.layers[i]
            a = _layer_forward(a, layer, dest)
            try:
                _check_activation(a, i, layer.activation)
            except NumericalFailure as failure:
                failures.append(((key, i), failure))
                return None
    return a


def _raise_first(failures) -> None:
    """Raise the recorded failure one pass meets first: the lowest block,
    then the lowest layer."""
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def _forward_block(net: DenseNet, a, out, key, failures, even, odd) -> None:
    """_forward_layers of one block a: hidden layer i writes into the front
    of the flat buffer (even, odd)[i % 2], the last layer into out."""
    rows = len(a)
    dests = [
        (even, odd)[i % 2][: rows * layer.fan_out].reshape(rows, layer.fan_out)
        for i, layer in enumerate(net.layers[:-1])
    ]
    _forward_layers(net, a, dests + [out], 0, key, failures)


def forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Run the net on a (B, D_in) batch, returning (B, D_out).

    The batch runs in blocks of _block_rows(net) rows, the last block
    taking the tail.  Each layer's bias and relu are written into its
    ``a @ W`` product, so at most two activations of a block are alive at
    a time, and x is not written.  A batch of fewer than two blocks is
    one block of fresh arrays on the calling thread.

    A larger batch spreads its blocks over min(usable_cpus(), blocks)
    threads (see run_threads).  The calling thread allocates each thread
    two flat hidden buffers, sized for the largest block, which its hidden
    layers write into in turn, and one (B, D_out) output that every
    block's last layer writes its rows of.  Memory is then x, the output
    and two buffers per thread.  A layer's rows do not depend on the rows
    beside them in the blocked GEMM kernel, and each block is the same
    matmul call whichever thread runs it, so the output has the bits of
    one pass at any thread count; the tests hold 1, 2, 3 and 7 threads to
    it, and 2 threads at 2 OpenBLAS threads to 1.  A non-finite
    activation names the first failing layer of the first failing block.
    """
    x = _check_batch(net, x)
    n = x.shape[0]
    block_rows = _block_rows(net)
    n_blocks = n // block_rows
    failures: list = []
    if n_blocks < 2:
        out = _forward_layers(net, x, [None] * len(net.layers), 0, 0, failures)
    else:
        starts = list(range(0, n_blocks * block_rows, block_rows))
        spans = list(zip(starts, starts[1:] + [n]))
        tallest = n - starts[-1]
        widths = [layer.fan_out for layer in net.layers[:-1]]
        sizes = [tallest * max(widths[j::2], default=0) for j in (0, 1)]
        per_thread = [
            tuple(np.empty(size) for size in sizes) for _ in range(min(usable_cpus(), n_blocks))
        ]
        out = np.empty((n, net.output_dim))
        blocks = [(net, x[r0:r1], out[r0:r1], k, failures) for k, (r0, r1) in enumerate(spans)]
        run_threads(_forward_block, blocks, per_thread)
    _raise_first(failures)
    return out


def forward_cached(net: DenseNet, x: np.ndarray, ws: Workspace | None = None):
    """Forward pass that keeps every layer's output for backprop.

    Returns the output and the activation list [x, a_1, ..., a_L], where
    a_i is layer i-1's output, written by _layer_forward into a view taken
    from ``ws`` (a fresh workspace when none is given).

    With a _row_cut, each run of layers with more than one output runs as
    two parts, each its own rows through every layer of the run, on the
    caller and on ws.worker (see run_threads).  A one-output layer runs
    whole on the caller: OpenBLAS splits a gemv's rows over its own
    threads, and where a split falls changes the rows' bits.  A non-finite
    activation names the lowest layer that failed in any part, the layer
    one pass would name.
    """
    ws = Workspace() if ws is None else ws
    x = _check_batch(net, x)
    rows = x.shape[0]
    acts = [x] + [ws.take((rows, layer.fan_out)) for layer in net.layers]
    cut = _row_cut(net, rows) if ws.worker else 0
    failures: list = []
    first = 0
    for wide, run in groupby(net.layers, key=lambda layer: layer.fan_out > 1):
        stop = first + len(list(run))
        spans = [(0, cut), (cut, rows)] if wide and cut else [(0, rows)]
        dests = acts[first + 1 : stop + 1]
        parts = [
            (net, acts[first][r0:r1], [a[r0:r1] for a in dests], first, 0, failures)
            for r0, r1 in spans
        ]
        run_threads(_forward_layers, parts, [()] * len(parts), ws.worker)
        _raise_first(failures)
        first = stop
    return acts[-1], acts


def _input_gradients(net: DenseNet, acts, dzs, r0: int, r1: int) -> None:
    """Rows r0:r1 of every layer's input gradient, top layer down: layer
    i > 0 writes da = dzs[i] @ W.T into dzs[i - 1], times the relu mask
    (acts[i] > 0) as 1.0/0.0 when layer i - 1 is relu.  Runs only np.matmul
    and np.multiply, so it may run on a worker, with floating-point
    warnings off as in _forward_layers."""
    with np.errstate(all="ignore"):
        for i in range(len(net.layers) - 1, 0, -1):
            da = dzs[i - 1][r0:r1]
            np.matmul(dzs[i][r0:r1], net.layers[i].weights.T, out=da)
            if net.layers[i - 1].activation == "relu":
                np.multiply(da, acts[i][r0:r1] > 0.0, out=da)


def _weight_gradient(a_prev, dz, dw, db) -> None:
    """One layer's whole dW = a_prev.T @ dz and db, the column sums of dz;
    a worker may run it, as _input_gradients."""
    with np.errstate(all="ignore"):
        np.matmul(a_prev.T, dz, out=dw)
        np.sum(dz, axis=0, out=db)


def backward(
    net: DenseNet, acts, d_out: np.ndarray, ws: Workspace | None = None
) -> list[np.ndarray]:
    """Backprop d_out = dL/d(output) through the net.

    acts is the activation list of forward_cached.  Returns grads matching
    parameters(net): [dW0, db0, dW1, db1, ...], as views taken from ``ws``
    (a fresh workspace when none is given).  The gradient with respect to
    the net's input is never formed.  A relu layer's mask comes from its
    output: relu(z) > 0 exactly where the finite z > 0.  The last layer's
    output is no layer's input, so its mask is written over it; the other
    layers' outputs are left as they are.

    Two run_threads calls run on the caller and, with ws.worker and a
    _row_cut, on the worker: _input_gradients over each of the cut's two
    row parts, then each layer's _weight_gradient as one item, the largest
    first.  Every dW is the whole product one pass makes, and a row part of
    a da product stays on the blocked kernel (or has an inner size of 1),
    so the bits do not depend on the split.  dW and db are checked top
    layer first, as one pass meets them.
    """
    ws = Workspace() if ws is None else ws
    rows = d_out.shape[0]
    cut = _row_cut(net, rows) if ws.worker else 0
    dz = d_out
    if net.layers[-1].activation == "relu":
        # mask as 1.0/0.0 times da: the same bits as da * (z > 0.0)
        dz = np.greater(acts[-1], 0.0, out=acts[-1])
        dz *= d_out
    dzs = [ws.take(a.shape) for a in acts[1:-1]] + [dz]
    dws = [ws.take(layer.weights.shape) for layer in net.layers]
    dbs = [ws.take(layer.bias.shape) for layer in net.layers]
    spans = [(0, cut), (cut, rows)] if cut else [(0, rows)]
    per_thread = [()] * len(spans)
    run_threads(_input_gradients, [(net, acts, dzs) + span for span in spans], per_thread, ws.worker)
    items = sorted(zip(acts[:-1], dzs, dws, dbs), key=lambda item: -item[2].size)
    run_threads(_weight_gradient, items, per_thread, ws.worker)
    for i in range(len(net.layers) - 1, -1, -1):
        if not (np.all(np.isfinite(dws[i])) and np.all(np.isfinite(dbs[i]))):
            raise NumericalFailure(f"non-finite gradient at layer {i}")
    return [grad for pair in zip(dws, dbs) for grad in pair]


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
        diff *= 2.0
        diff /= diff.size  # in place, the bits of 2.0 * diff / diff.size
        return loss, diff

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
    # a non-finite loss fails the check below, so its warnings are off
    with np.errstate(all="ignore"):
        loss, d_out = loss_and_grad(out, loss_kind, targets)
    if not np.isfinite(loss):
        raise NumericalFailure(f"non-finite {loss_kind} loss")
    return loss, backward(net, acts, d_out, ws)


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter array, and
    the new m, v, parameter and one temporary that adam_step computes in."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    scratch: list[tuple[np.ndarray, ...]] = field(default_factory=list)


def init_adam(params: list[np.ndarray]) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        step=0,
        scratch=[tuple(np.empty_like(p) for _ in range(4)) for p in params],
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
    NumericalFailure leaves the parameters and the state untouched.  The
    update runs in state.scratch, one numpy call per operation of the
    formula in its order, so it has the formula's bits; its warnings are
    off, as every value a warning would report fails the check.
    """
    if not len(params) == len(grads) == len(state.m) == len(state.scratch):
        raise InputError("params, grads and Adam state must have equal length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise InputError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = state.step + 1
    with np.errstate(all="ignore"):
        for p, g, m, v, (m1, v1, p1, tmp) in zip(params, grads, state.m, state.v, state.scratch):
            np.multiply(m, beta1, out=m1)
            m1 += np.multiply(g, 1.0 - beta1, out=tmp)
            np.multiply(v, beta2, out=v1)
            np.multiply(g, 1.0 - beta2, out=tmp)
            tmp *= g
            v1 += tmp
            np.divide(m1, 1.0 - beta1**t, out=p1)
            p1 *= lr
            np.divide(v1, 1.0 - beta2**t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            p1 /= tmp
            np.subtract(p, p1, out=p1)
            if not np.all(np.isfinite(p1)):
                raise NumericalFailure("non-finite parameter after Adam step")
    for k, (m1, v1, p1, tmp) in enumerate(state.scratch):
        params[k][...] = p1
        state.scratch[k] = (state.m[k], state.v[k], p1, tmp)
        state.m[k], state.v[k] = m1, v1
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
