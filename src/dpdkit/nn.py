"""Small dense real-valued networks with an identity bypass.

A complex baseband sample is split into its real and imaginary parts, pushed
through K ReLU hidden layers of width N, and reassembled at a 2-wide linear
output. A fixed identity bypass adds the input to that output, carrying the
linear portion of the signal around the hidden stack, so a freshly zeroed
network is exactly the identity map and the hidden layers only have to learn
the nonlinearity.
The same architecture serves as the amplifier behavioral model and as the
predistorter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FormatError, InputRangeError, _require_integer
from .signals import (
    IqSignal, _content_lines, _read_rows, _read_text, _require_finite, _write_rows
)

__all__ = [
    "DenseNet",
    "NnWorkspace",
    "glorot_net",
    "nn_forward",
    "nn_backward",
    "nn_backward_through_frozen",
    "save_net",
    "load_net",
]


#: Columns per block when nn_forward runs a long signal, so the per-layer
#: buffers stay cache-sized instead of growing with the frame. The output's
#: bits depend on this block size: BLAS picks its kernels by matrix width, so
#: a short last block can round a sample a few ulp away from a whole-frame
#: matmul (at 8193 or 16385 samples, say). Bytes are defined blockwise.
FORWARD_BLOCK = 8192


def _weight_shapes(k: int, n: int) -> list[tuple[int, int]]:
    _require_integer("hidden_layers", k, 1)
    _require_integer("width", n, 1)
    return [(n, 2)] + [(n, n)] * (k - 1) + [(2, n)]


def _pack(tensors: list) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copy tensors into one new float64 vector; return it and a view of it per tensor."""
    flat = np.concatenate([np.ravel(t) for t in tensors], dtype=np.float64)
    views, start = [], 0
    for t in tensors:
        views.append(flat[start : start + np.size(t)].reshape(np.shape(t)))
        start += np.size(t)
    return flat, views


@dataclass(frozen=True)
class DenseNet:
    """Weights of a K-hidden-layer, width-N dense network with identity bypass.

    ``weights`` holds W1 (N, 2), the hidden W2..WK (N, N), and the output
    W_{K+1} (2, N); ``biases`` match the output dimension of each weight.
    The input is added to the output unscaled; the bypass has no weights.

    The constructor copies the weights, then the biases, into one float64
    vector ``flat`` and binds both tuples to views of it. Tensors are written
    in place, never rebound, so ``flat`` and the tensors cannot drift apart.
    """

    hidden_layers: int
    width: int
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.hidden_layers
        shapes = _weight_shapes(k, self.width)
        if len(self.weights) != k + 1 or len(self.biases) != k + 1:
            raise ConfigurationError(
                f"expected {k + 1} weight/bias tensors, got {len(self.weights)}/{len(self.biases)}"
            )
        for i, (w, b, (rows, cols)) in enumerate(zip(self.weights, self.biases, shapes)):
            if np.shape(w) != (rows, cols) or np.shape(b) != (rows,):
                raise ConfigurationError(
                    f"layer {i} has weight/bias shapes {np.shape(w)}/{np.shape(b)}, "
                    f"expected {(rows, cols)}/{(rows,)}"
                )
        flat, views = _pack([*self.weights, *self.biases])
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "weights", tuple(views[: k + 1]))
        object.__setattr__(self, "biases", tuple(views[k + 1 :]))

    @classmethod
    def zeros(cls, hidden_layers: int, width: int) -> "DenseNet":
        """All-zero trainables: with the bypass, the exact identity map."""
        shapes = _weight_shapes(hidden_layers, width)
        weights = [np.zeros(s) for s in shapes]
        return cls(hidden_layers, width, weights, [np.zeros(s[0]) for s in shapes])


def glorot_net(hidden_layers: int, width: int, seed=0) -> DenseNet:
    """Seeded uniform Glorot-style initialization; biases zero."""
    net = DenseNet.zeros(hidden_layers, width)
    rng = np.random.default_rng(seed)
    for w in net.weights:
        fan_out, fan_in = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


class _Pass:
    """One net's forward buffers over n columns.

    ``acts`` holds each hidden layer's pre-activation, overwritten in place by
    its ReLU output; the backward pass keeps those outputs instead of
    recomputing them. ``z`` is the (2, n) output.
    """

    def __init__(self, acts: list[np.ndarray], z: np.ndarray):
        self.acts, self.z = acts, z

    @classmethod
    def empty(cls, hidden_layers: int, width: int, n: int) -> "_Pass":
        return cls([np.empty((width, n)) for _ in range(hidden_layers)], np.empty((2, n)))


class NnWorkspace:
    """Every buffer a backward call needs, for the latest call's batch width and nets,
    and one forward slot.

    The set holds the input, target, squared-error and input-gradient rows,
    one pass per net, the per-layer scratch and the trained net's gradients.
    The scratch is a ``mask`` and the two ``up`` buffers (which a backward
    pass alternates between), as wide as the widest net. The nets' backward
    passes run one after the other, so they share that scratch, each using
    its leading ``width`` rows. A call at another batch width or with other
    net shapes reallocates every buffer. Gradients returned from a call given
    this workspace are views into it, valid until its next backward call.

    The forward slot serves nn_forward's blocks: an input row pair ``fx2``
    and a pass ``forward`` of one or two activation buffers, as wide as the
    widest net the slot has served, and an output row pair. A forward keeps
    no layer for a backward pass, so a net's layers alternate between those
    buffers, each using its leading ``width`` rows; the second buffer comes
    with the first net of two or more layers. A block of another width, or
    a wider or deeper net, reallocates the slot.

    A workspace serves one thread, and one call at a time.
    """

    _key = None
    _forward_key = (0, 0, 0)

    def _forward_slot(self, n: int, net: DenseNet) -> tuple[np.ndarray, _Pass]:
        """The slot's input rows and a pass of net over an n-column block."""
        _, depth, widest = self._forward_key
        depth, widest = max(depth, min(net.hidden_layers, 2)), max(widest, net.width)
        if self._forward_key != (n, depth, widest):
            self._forward_key = (n, depth, widest)
            self.fx2 = np.empty((2, n))
            self.forward = _Pass.empty(depth, widest, n)
        acts = [self.forward.acts[i % depth][: net.width] for i in range(net.hidden_layers)]
        return self.fx2, _Pass(acts, self.forward.z)

    def _fit(self, n: int, *nets: DenseNet) -> NnWorkspace:
        shapes = tuple((net.hidden_layers, net.width) for net in nets)
        if self._key != (n, shapes):
            self._key = (n, shapes)
            self.x2 = np.empty((2, n))
            self.passes = [_Pass.empty(k, width, n) for k, width in shapes]
            widest = max(width for _, width in shapes)
            self.t2 = np.empty((2, n))
            self.sq = np.empty((2, n))
            self.dx = np.empty((2, n))
            self.mask = np.empty((widest, n), dtype=bool)
            self.up = (np.empty((widest, n)), np.empty((widest, n)))
            # the trained net's gradients; every call overwrites all of them
            self.grads = DenseNet.zeros(*shapes[0])
        return self


def _split_into(x2: np.ndarray, samples: np.ndarray) -> np.ndarray:
    x2[0] = samples.real
    x2[1] = samples.imag
    return x2


def _forward(net: DenseNet, x2: np.ndarray, p: _Pass) -> np.ndarray:
    """Run the (2, n) input through the net into p's buffers; return p.z."""
    h = x2
    for w, b, act in zip(net.weights[:-1], net.biases[:-1], p.acts):
        np.matmul(w, h, out=act)
        act += b[:, None]
        np.maximum(act, 0.0, out=act)
        h = act
    np.matmul(net.weights[-1], h, out=p.z)
    p.z += net.biases[-1][:, None]
    p.z += x2
    return p.z


def _backward(net: DenseNet, x2: np.ndarray, p: _Pass, ws: NnWorkspace, dz: np.ndarray, *,
              grads=None, dx=None):
    """Back-propagate dLoss/dz through the pass _forward recorded in p.

    The per-layer scratch is the leading rows of the workspace's mask and
    upstream buffers. Writes the trainables' gradients into ``grads`` and
    the input gradient into ``dx``, each only when given.
    A unit's mask is ``act > 0``, which equals ``pre > 0`` (ReLU is positive
    exactly where its input is, and a NaN fails both); the mask multiplies
    rather than selects, so a NaN upstream gradient survives a closed unit.
    """
    inputs = [x2] + p.acts
    if grads is not None:
        np.matmul(dz, inputs[-1].T, out=grads.weights[-1])
        np.add.reduce(dz, axis=1, out=grads.biases[-1])
    mask = ws.mask[: net.width]
    up, spare = (buf[: net.width] for buf in ws.up)
    np.matmul(net.weights[-1].T, dz, out=up)
    for i in range(net.hidden_layers - 1, -1, -1):
        np.greater(p.acts[i], 0.0, out=mask)
        np.multiply(up, mask, out=up)
        if grads is not None:
            np.matmul(up, inputs[i].T, out=grads.weights[i])
            np.add.reduce(up, axis=1, out=grads.biases[i])
        if i > 0:
            np.matmul(net.weights[i].T, up, out=spare)
            up, spare = spare, up
        elif dx is not None:
            np.matmul(net.weights[0].T, up, out=dx)
            dx += dz


def _loss_and_dz(z: np.ndarray, target2: np.ndarray, sq: np.ndarray) -> float:
    """Mean squared error of z against target2; leaves dLoss/dz in z.

    The reductions here and in _backward call np.add.reduce directly, which
    is the arithmetic of np.mean and np.sum without their Python wrappers.
    """
    np.subtract(z, target2, out=z)
    np.square(z, out=sq)
    loss = float(np.add.reduce(sq, axis=None) / sq.size)
    np.divide(z, z.shape[1], out=z)
    return loss


def nn_forward(net: DenseNet, x: IqSignal, *, workspace: NnWorkspace | None = None) -> IqSignal:
    """Apply the network sample-wise to a complex signal.

    The signal runs in FORWARD_BLOCK-sample blocks through the workspace's
    forward slot, so a short last block reallocates it. Without a workspace
    the call makes its own, which holds one input buffer and one buffer per
    layer (two for a deeper net). The output is a new signal either way,
    with the same bytes.

    Raises:
        InputRangeError: if the signal holds NaN/inf samples.
    """
    _require_finite(x, InputRangeError)
    n = len(x)
    out = np.empty(n, dtype=np.complex128)
    ws = workspace or NnWorkspace()
    for start in range(0, n, FORWARD_BLOCK):
        block = x.samples[start : start + FORWARD_BLOCK]
        x2, p = ws._forward_slot(block.size, net)
        z = _forward(net, _split_into(x2, block), p)
        out[start : start + block.size] = z[0] + 1j * z[1]
    return IqSignal(out, x.sample_rate_hz)


def nn_backward(
    net: DenseNet, x: IqSignal, target: IqSignal, *, workspace: NnWorkspace | None = None
) -> tuple[float, DenseNet]:
    """MSE loss against a target signal and its exact gradients, as (loss, grads).

    The loss is the mean over samples and over the two real output channels
    of the squared error; the ReLU subgradient at exactly zero is taken as 0.
    ``grads`` is a DenseNet in the net's layout. Without a workspace the call
    allocates its own buffers. With one, ``grads`` is the workspace's
    gradient buffer and is overwritten by its next call.
    """
    if len(x) != len(target):
        raise ConfigurationError(f"length mismatch: {len(x)} vs {len(target)}")
    ws = (workspace or NnWorkspace())._fit(len(x), net)
    (p,) = ws.passes
    x2 = _split_into(ws.x2, x.samples)
    z = _forward(net, x2, p)
    loss = _loss_and_dz(z, _split_into(ws.t2, target.samples), ws.sq)
    _backward(net, x2, p, ws, z, grads=ws.grads)
    return loss, ws.grads


def nn_backward_through_frozen(
    dpd: DenseNet, pa_model: DenseNet, x: IqSignal, *, workspace: NnWorkspace | None = None
) -> tuple[float, DenseNet]:
    """(loss, grads) for the predistorter through a frozen amplifier model.

    The cascade pa_model(dpd(x)) is trained toward the unit-gain target x;
    only the predistorter's gradients are produced, the amplifier model's
    weights receive none. Workspaces and ``grads`` are as in nn_backward.
    """
    ws = (workspace or NnWorkspace())._fit(len(x), dpd, pa_model)
    dpd_pass, pa_pass = ws.passes
    x2 = _split_into(ws.x2, x.samples)
    u = _forward(dpd, x2, dpd_pass)
    z = _forward(pa_model, u, pa_pass)
    loss = _loss_and_dz(z, x2, ws.sq)
    _backward(pa_model, u, pa_pass, ws, z, dx=ws.dx)
    _backward(dpd, x2, dpd_pass, ws, ws.dx, grads=ws.grads)
    return loss, ws.grads


_BYPASS = np.eye(2)


def _net_keys(k: int, n: int) -> list[str]:
    """A net file's row keys in file order: the bypass as layer 0, then the layout of ``flat``.

    Weight keys are `layer,row,col` and bias keys `layer,row`; the hidden and
    output layers count from 1, and the bypass has no biases.
    """
    shapes = list(enumerate([_BYPASS.shape, *_weight_shapes(k, n)]))
    keys = [f"{i},{r},{c}" for i, (rows, cols) in shapes for r in range(rows) for c in range(cols)]
    return keys + [f"{i},{r}" for i, (rows, _) in shapes[1:] for r in range(rows)]


def save_net(net: DenseNet, path) -> None:
    """Write a net as text: a `K,N` header, then a `key,value` row per key of _net_keys.

    The identity bypass is written as the four weight rows of layer 0.
    """
    k, n = net.hidden_layers, net.width
    values = np.concatenate([_BYPASS.ravel(), net.flat])[:, None]
    _write_rows(path, [f"{k},{n}"], _net_keys(k, n), values)


def load_net(path) -> DenseNet:
    """Read a net written by save_net; blank and `#` lines are skipped.

    Raises:
        FormatError: on a malformed header or row, naming the line number;
            every weight and bias must appear exactly once with a finite
            value, and each layer-0 row must hold its identity-bypass value.
            A missing row names its key.
    """
    lines = _content_lines(_read_text(path))
    if not lines:
        raise FormatError(f"{path}: empty net file")
    (lineno, header), rows = lines[0], lines[1:]
    try:
        k, n = (int(v) for v in header.split(","))
        net = DenseNet.zeros(k, n)
    except (ValueError, ConfigurationError) as exc:
        raise FormatError(f"{path}:{lineno}: bad header {header!r}: {exc}") from None
    keys = _net_keys(k, n)
    bypass = {key: (value,) for key, value in zip(keys, _BYPASS.flat)}
    net.flat[:] = _read_rows(path, rows, keys, 1, fixed=bypass)[_BYPASS.size :, 0]
    return net
