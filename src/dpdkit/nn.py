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

from .errors import ConfigurationError, FormatError, InputRangeError
from .signals import IqSignal, _content_lines, _read_rows, _require_finite, _write_rows

__all__ = [
    "DenseNet",
    "NnGradients",
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
    if k < 1 or n < 1:
        raise ConfigurationError(f"need hidden_layers >= 1 and width >= 1, got K={k}, N={n}")
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


@dataclass
class NnGradients:
    """Loss value plus gradients shaped like a network's trainable tensors.

    ``flat`` holds every entry in the layout of ``DenseNet.flat`` (weights,
    then biases), and ``weights`` and ``biases`` are views into it.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    loss: float
    flat: np.ndarray


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
    """One net's buffers over n columns.

    ``acts`` holds each hidden layer's pre-activation, overwritten in place by
    its ReLU output; the backward pass keeps those outputs instead of
    recomputing them. ``mask`` and the two ``up`` buffers (which the backward
    pass alternates between) are per-layer scratch, and ``z`` is the (2, n)
    output.
    """

    def __init__(self, hidden_layers: int, width: int, n: int):
        self.acts = [np.empty((width, n)) for _ in range(hidden_layers)]
        self.mask = np.empty((width, n), dtype=bool)
        self.up = (np.empty((width, n)), np.empty((width, n)))
        self.z = np.empty((2, n))


class _Columns:
    """Every buffer one call needs at batch width n, for one or two nets."""

    def __init__(self, n: int, shapes: tuple[tuple[int, int], ...]):
        self.shapes = shapes
        self.x2 = np.empty((2, n))
        self.t2 = np.empty((2, n))
        self.sq = np.empty((2, n))
        self.dx = np.empty((2, n))
        self.passes = [_Pass(k, width, n) for k, width in shapes]


class NnWorkspace:
    """Buffers that repeated nn_backward / nn_backward_through_frozen calls reuse.

    Column buffers are kept per batch width, so a trailing partial minibatch
    does not evict the full-width ones; one gradient vector serves the net
    shape of the latest call. A workspace serves one caller at a time:
    gradients returned from a call given this workspace are views into it,
    valid until the next call.
    """

    def __init__(self):
        self._columns: dict[int, _Columns] = {}
        self._grads: DenseNet | None = None

    def _columns_for(self, n: int, *nets: DenseNet) -> _Columns:
        shapes = tuple((net.hidden_layers, net.width) for net in nets)
        cols = self._columns.get(n)
        if cols is None or cols.shapes != shapes:
            cols = self._columns[n] = _Columns(n, shapes)
        return cols

    def _gradients_for(self, net: DenseNet, loss: float) -> NnGradients:
        g = self._grads
        if g is None or (g.hidden_layers, g.width) != (net.hidden_layers, net.width):
            # a buffer in the net's layout; every call overwrites all of it
            g = self._grads = DenseNet.zeros(net.hidden_layers, net.width)
        return NnGradients(g.weights, g.biases, loss, g.flat)


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


def _backward(net: DenseNet, x2: np.ndarray, p: _Pass, dz: np.ndarray, *, grads=None, dx=None):
    """Back-propagate dLoss/dz through the pass _forward recorded in p.

    Writes the trainables' gradients into ``grads`` and the input gradient
    into ``dx``, each only when given. A unit's mask is ``act > 0``, which
    equals ``pre > 0`` (ReLU is positive exactly where its input is, and a
    NaN fails both); the mask multiplies rather than selects, so a NaN
    upstream gradient survives a closed unit.
    """
    inputs = [x2] + p.acts
    if grads is not None:
        np.matmul(dz, inputs[-1].T, out=grads.weights[-1])
        np.add.reduce(dz, axis=1, out=grads.biases[-1])
    up, spare = p.up
    np.matmul(net.weights[-1].T, dz, out=up)
    for i in range(net.hidden_layers - 1, -1, -1):
        np.greater(p.acts[i], 0.0, out=p.mask)
        np.multiply(up, p.mask, out=up)
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


def nn_forward(net: DenseNet, x: IqSignal) -> IqSignal:
    """Apply the network sample-wise to a complex signal.

    Raises:
        InputRangeError: if the signal holds NaN/inf samples.
    """
    _require_finite(x, InputRangeError)
    n = len(x)
    out = np.empty(n, dtype=np.complex128)
    ws = NnWorkspace()
    for start in range(0, n, FORWARD_BLOCK):
        block = x.samples[start : start + FORWARD_BLOCK]
        cols = ws._columns_for(block.size, net)
        z = _forward(net, _split_into(cols.x2, block), cols.passes[0])
        out[start : start + block.size] = z[0] + 1j * z[1]
    return IqSignal(out, x.sample_rate_hz)


def nn_backward(
    net: DenseNet, x: IqSignal, target: IqSignal, *, workspace: NnWorkspace | None = None
) -> NnGradients:
    """MSE loss against a target signal and its exact gradients.

    The loss is the mean over samples and over the two real output channels
    of the squared error; the ReLU subgradient at exactly zero is taken as 0.
    Without a workspace the call allocates its own buffers. With one, the
    returned gradients are views into the workspace's buffers and are
    overwritten by its next call.
    """
    if len(x) != len(target):
        raise ConfigurationError(f"length mismatch: {len(x)} vs {len(target)}")
    ws = workspace if workspace is not None else NnWorkspace()
    cols = ws._columns_for(len(x), net)
    (p,) = cols.passes
    x2 = _split_into(cols.x2, x.samples)
    z = _forward(net, x2, p)
    loss = _loss_and_dz(z, _split_into(cols.t2, target.samples), cols.sq)
    grads = ws._gradients_for(net, loss)
    _backward(net, x2, p, z, grads=grads)
    return grads


def nn_backward_through_frozen(
    dpd: DenseNet, pa_model: DenseNet, x: IqSignal, *, workspace: NnWorkspace | None = None
) -> NnGradients:
    """Gradients for the predistorter through a frozen amplifier model.

    The cascade pa_model(dpd(x)) is trained toward the unit-gain target x;
    only the predistorter's gradients are produced, the amplifier model's
    weights receive none. Without a workspace the call allocates its own
    buffers. With one, the returned gradients are views into the
    workspace's buffers and are overwritten by its next call.
    """
    ws = workspace if workspace is not None else NnWorkspace()
    cols = ws._columns_for(len(x), dpd, pa_model)
    dpd_pass, pa_pass = cols.passes
    x2 = _split_into(cols.x2, x.samples)
    u = _forward(dpd, x2, dpd_pass)
    z = _forward(pa_model, u, pa_pass)
    loss = _loss_and_dz(z, x2, cols.sq)
    _backward(pa_model, u, pa_pass, z, dx=cols.dx)
    grads = ws._gradients_for(dpd, loss)
    _backward(dpd, x2, dpd_pass, cols.dx, grads=grads)
    return grads


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
    with open(path) as fh:
        lines = _content_lines(fh.read())
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
