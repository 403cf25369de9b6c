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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FormatError
from .signals import IqSignal, _fmt

__all__ = [
    "DenseNet",
    "NnGradients",
    "glorot_net",
    "nn_forward",
    "nn_backward",
    "nn_backward_through_frozen",
    "save_net",
    "load_net",
]


@dataclass
class DenseNet:
    """Weights of a K-hidden-layer, width-N dense network with identity bypass.

    ``weights`` holds W1 (N, 2), the hidden W2..WK (N, N), and the output
    W_{K+1} (2, N); ``biases`` match the output dimension of each weight.
    The input is added to the output unscaled; the bypass has no weights.
    """

    hidden_layers: int
    width: int
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        k, n = self.hidden_layers, self.width
        if k < 1 or n < 1:
            raise ConfigurationError(f"need hidden_layers >= 1 and width >= 1, got K={k}, N={n}")
        if len(self.weights) != k + 1 or len(self.biases) != k + 1:
            raise ConfigurationError(
                f"expected {k + 1} weight/bias tensors, got {len(self.weights)}/{len(self.biases)}"
            )
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        shapes = [(n, 2)] + [(n, n)] * (k - 1) + [(2, n)]
        for i, (w, b, expect) in enumerate(zip(self.weights, self.biases, shapes)):
            if w.shape != expect:
                raise ConfigurationError(f"weight {i} has shape {w.shape}, expected {expect}")
            if b.shape != (expect[0],):
                raise ConfigurationError(f"bias {i} has shape {b.shape}, expected ({expect[0]},)")

    @classmethod
    def zeros(cls, hidden_layers: int, width: int) -> "DenseNet":
        """All-zero trainables: with the bypass, the exact identity map."""
        k, n = hidden_layers, width
        shapes = [(n, 2)] + [(n, n)] * (k - 1) + [(2, n)]
        return cls(
            hidden_layers=k,
            width=n,
            weights=[np.zeros(s) for s in shapes],
            biases=[np.zeros(s[0]) for s in shapes],
        )

    def copy(self) -> "DenseNet":
        return DenseNet(
            hidden_layers=self.hidden_layers,
            width=self.width,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


@dataclass
class NnGradients:
    """Loss value plus gradients shaped like a network's trainable tensors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    loss: float


def glorot_net(hidden_layers: int, width: int, seed=0) -> DenseNet:
    """Seeded uniform Glorot-style initialization; biases zero."""
    net = DenseNet.zeros(hidden_layers, width)
    rng = np.random.default_rng(seed)
    for i, w in enumerate(net.weights):
        fan_out, fan_in = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        net.weights[i] = rng.uniform(-bound, bound, size=w.shape)
    return net


def _split(x: np.ndarray) -> np.ndarray:
    return np.stack([x.real, x.imag], axis=0)


def _forward_cached(net: DenseNet, x2: np.ndarray):
    """Run the stacked (2, n) input through the net, keeping pre-activations."""
    pres = []
    h = x2
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        pre = w @ h + b[:, None]
        pres.append(pre)
        h = np.maximum(pre, 0.0)
        acts_last = h
    z = net.weights[-1] @ acts_last + net.biases[-1][:, None] + x2
    return z, pres


def _backward_from_output(net: DenseNet, x2: np.ndarray, pres: list, dz: np.ndarray):
    """Gradients of all trainables plus the input gradient, given dLoss/dz."""
    acts = [x2] + [np.maximum(p, 0.0) for p in pres]
    grad_w = [None] * len(net.weights)
    grad_b = [None] * len(net.biases)
    grad_w[-1] = dz @ acts[-1].T
    grad_b[-1] = dz.sum(axis=1)
    upstream = net.weights[-1].T @ dz
    for i in range(len(pres) - 1, -1, -1):
        dpre = upstream * (pres[i] > 0.0)
        grad_w[i] = dpre @ acts[i].T
        grad_b[i] = dpre.sum(axis=1)
        upstream = net.weights[i].T @ dpre
    dx = upstream + dz
    return grad_w, grad_b, dx


def nn_forward(net: DenseNet, x: IqSignal) -> IqSignal:
    """Apply the network sample-wise to a complex signal."""
    z, _ = _forward_cached(net, _split(x.samples))
    return IqSignal(z[0] + 1j * z[1], x.sample_rate_hz)


def nn_backward(net: DenseNet, x: IqSignal, target: IqSignal) -> NnGradients:
    """MSE loss against a target signal and its exact gradients.

    The loss is the mean over samples and over the two real output channels
    of the squared error; the ReLU subgradient at exactly zero is taken as 0.
    """
    if len(x) != len(target):
        raise ConfigurationError(f"length mismatch: {len(x)} vs {len(target)}")
    x2 = _split(x.samples)
    t2 = _split(target.samples)
    z, pres = _forward_cached(net, x2)
    err = z - t2
    loss = float(np.mean(err**2))
    dz = err / err.shape[1]
    gw, gb, _ = _backward_from_output(net, x2, pres, dz)
    return NnGradients(weights=gw, biases=gb, loss=loss)


def nn_backward_through_frozen(dpd: DenseNet, pa_model: DenseNet, x: IqSignal) -> NnGradients:
    """Gradients for the predistorter through a frozen amplifier model.

    The cascade pa_model(dpd(x)) is trained toward the unit-gain target x;
    only the predistorter's gradients are produced, the amplifier model's
    weights receive none.
    """
    x2 = _split(x.samples)
    u, dpd_pres = _forward_cached(dpd, x2)
    z, pa_pres = _forward_cached(pa_model, u)
    err = z - x2
    loss = float(np.mean(err**2))
    dz = err / err.shape[1]
    _, _, du = _backward_from_output(pa_model, u, pa_pres, dz)
    gw, gb, _ = _backward_from_output(dpd, x2, dpd_pres, du)
    return NnGradients(weights=gw, biases=gb, loss=loss)


_BYPASS = np.eye(2)


def save_net(net: DenseNet, path) -> None:
    """Write a net as text: `K,N` header, bypass rows, weight rows, bias rows.

    Weight rows are `layer,row,col,value` (4 fields) and bias rows are
    `layer,row,value` (3 fields); layers are numbered from 1. The identity
    bypass is written as the four weight rows of layer 0.
    """
    lines = [f"{net.hidden_layers},{net.width}"]
    lines += [f"0,{r},{c},{_fmt(_BYPASS[r, c])}" for r in range(2) for c in range(2)]
    for i, w in enumerate(net.weights, start=1):
        for r in range(w.shape[0]):
            for c in range(w.shape[1]):
                lines.append(f"{i},{r},{c},{_fmt(w[r, c])}")
    for i, b in enumerate(net.biases, start=1):
        for r in range(b.shape[0]):
            lines.append(f"{i},{r},{_fmt(b[r])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_net(path) -> DenseNet:
    """Read a net written by save_net.

    Raises:
        FormatError: on malformed headers or rows, naming the line number;
            a layer-0 row must hold its identity-bypass value.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise FormatError(f"{path}: empty net file")
    try:
        k_str, n_str = lines[0].split(",")
        k, n = int(k_str), int(n_str)
    except ValueError as exc:
        raise FormatError(f"{path}:1: bad header {lines[0]!r}: {exc}") from None
    net = DenseNet.zeros(k, n)
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        try:
            if len(parts) not in (3, 4):
                raise ValueError(f"expected 3 or 4 fields, got {len(parts)}")
            layer, *index = (int(v) for v in parts[:-1])
            value = float(parts[-1])
            # negative indices would wrap around; layer 0 (the bypass) has no biases
            if min(layer, *index) < 0 or layer > k + 1 or (layer == 0 and len(index) == 1):
                raise ValueError(f"no such entry in a net with K={k}")
            if len(index) == 1:
                net.biases[layer - 1][index[0]] = value
            elif layer == 0:
                if value != _BYPASS[tuple(index)]:
                    raise ValueError("the bypass is fixed at the identity")
            else:
                net.weights[layer - 1][tuple(index)] = value
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}:{lineno}: bad row {ln!r}: {exc}") from None
    return net
