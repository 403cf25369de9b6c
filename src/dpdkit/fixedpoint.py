"""Bit-accurate 16-bit fixed-point inference for both predistorter families.

The emulation follows a declared register-placement policy rather than any
particular silicon: multiplier products are kept at double width and summed at
that width, and values are rounded back to the working format once per adder
tree — per neuron pre-activation in the network, per FIR accumulator in the
polynomial. Envelope powers round after every multiply, which is what makes
high-order branches starve to zero at low drive. All arithmetic is done in
float64 on values that are exact multiples of the format LSB. A double-width
product or neuron sum is exact only while it fits float64's 53-bit
significand, 2*(total_bits - 1) + ceil(log2(fan_in + 1)) <= 53; within that
bound the network's bits depend on neither the BLAS nor the block size, and
beyond it (32 bits with a 32-wide layer, say) a sum can round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputRangeError, _require_integer
from .mempoly import MemoryPolyModel
from .nn import FORWARD_BLOCK, DenseNet
from .signals import IqSignal, _require_finite

__all__ = [
    "FixedFormat",
    "FixedPointStats",
    "quantize",
    "nn_forward_fixed",
    "poly_forward_fixed",
]


#: Widest word float64 emulates exactly: its top code 2**53 - 1 has 53 significant bits.
MAX_TOTAL_BITS = 54


@dataclass(frozen=True)
class FixedFormat:
    """Two's-complement format: 1 sign/integer region, frac_bits fraction.

    Values round half to even onto the code grid and saturate at its ends.
    """

    total_bits: int = 16
    frac_bits: int = 15

    def __post_init__(self):
        # a fractional bit count would give a non-dyadic grid
        for name in ("total_bits", "frac_bits"):
            _require_integer(name, getattr(self, name))
        if not 0 < self.frac_bits < self.total_bits:
            raise ConfigurationError(
                f"need 0 < frac_bits < total_bits, got {self.frac_bits}/{self.total_bits}"
            )
        if self.total_bits > MAX_TOTAL_BITS:
            raise ConfigurationError(
                f"total_bits must be <= {MAX_TOTAL_BITS} for exact float64 emulation, "
                f"got {self.total_bits}",
                "total_bits",
            )


@dataclass
class FixedPointStats:
    """Out-of-range and underflow tallies accumulated across a run."""

    sat_events: int = 0
    branch_zeros: dict = field(default_factory=dict)
    branch_samples: dict = field(default_factory=dict)

    def record_branch(self, label: str, zeros: int, total: int) -> None:
        self.branch_zeros[label] = self.branch_zeros.get(label, 0) + zeros
        self.branch_samples[label] = self.branch_samples.get(label, 0) + total

    def underflow_pct(self, label: str | None = None) -> float:
        """Percent of branch outputs that quantized to exactly zero.

        With a label ("p11", "q3", ...), that branch alone; without, the
        worst branch. Returns 0.0 when nothing was tracked.
        """
        if label is not None:
            total = self.branch_samples.get(label, 0)
            return 100.0 * self.branch_zeros.get(label, 0) / total if total else 0.0
        pcts = [
            100.0 * self.branch_zeros[k] / self.branch_samples[k]
            for k in self.branch_samples
            if self.branch_samples[k]
        ]
        return max(pcts) if pcts else 0.0


def _quantize_real(x: np.ndarray, fmt: FixedFormat, stats: FixedPointStats | None) -> np.ndarray:
    scale = 2.0**fmt.frac_bits
    codes = np.rint(x * scale)
    if np.isnan(codes).any():
        raise InputRangeError("NaN has no code on the fixed-point grid")
    lo = -(2.0 ** (fmt.total_bits - 1))
    hi = 2.0 ** (fmt.total_bits - 1) - 1
    out_of_range = (codes < lo) | (codes > hi)
    if stats is not None:
        stats.sat_events += int(np.count_nonzero(out_of_range))
    return np.clip(codes, lo, hi) / scale


def quantize(x, fmt: FixedFormat | None = None, stats: FixedPointStats | None = None):
    """Round/saturate each real component onto the format's code grid.

    Idempotent and monotone; out-of-range components, ±inf among them, are
    tallied in ``stats.sat_events`` when a stats object is supplied.

    Raises:
        InputRangeError: if a component is NaN.
    """
    fmt = fmt or FixedFormat()
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        out = _quantize_real(arr.real.astype(np.float64), fmt, stats) + 1j * _quantize_real(
            arr.imag.astype(np.float64), fmt, stats
        )
    else:
        out = _quantize_real(arr.astype(np.float64), fmt, stats)
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return complex(out) if np.iscomplexobj(arr) else float(out)
    return out


def nn_forward_fixed(
    net: DenseNet,
    x: IqSignal,
    fmt: FixedFormat | None = None,
    stats: FixedPointStats | None = None,
) -> IqSignal:
    """Dense-network forward pass in fixed point, FORWARD_BLOCK columns at a time.

    Weights and biases are quantized once per call, inputs once per block;
    each neuron's products and bias are summed at double width and rounded
    once at the adder tree output; ReLU is a sign select. The bypass is
    wiring into the output adder, not a stored coefficient — it multiplies
    nothing in the count and is applied exactly here, with only a final range
    check on the sum.

    The double-width sums are exact, so the output's bits depend on neither
    the BLAS nor the block size, only while
    2*(total_bits - 1) + ceil(log2(fan_in + 1)) <= 53. Q1.15 meets it for
    any layer of fewer than 2**23 inputs; 32 bits with a 32-wide layer does
    not.

    Raises:
        InputRangeError: if the signal holds NaN/inf samples.
    """
    _require_finite(x, InputRangeError)
    fmt = fmt or FixedFormat()
    layers = [
        (quantize(w, fmt, stats), quantize(b, fmt, stats)[:, None])
        for w, b in zip(net.weights, net.biases)
    ]
    n = len(x)
    out = np.empty(n, dtype=np.complex128)
    for start in range(0, n, FORWARD_BLOCK):
        block = x.samples[start : start + FORWARD_BLOCK]
        xq2 = quantize(np.stack([block.real, block.imag]), fmt, stats)
        h = xq2
        for i, (wq, bq) in enumerate(layers):
            pre = quantize(wq @ h + bq, fmt, stats)
            h = pre if i == len(layers) - 1 else np.maximum(pre, 0.0)
        z = quantize(h + xq2, fmt, stats)
        out[start : start + block.size] = z[0] + 1j * z[1]
    return IqSignal(out, x.sample_rate_hz)


def _delayed(x: np.ndarray, m: int) -> np.ndarray:
    """x delayed by m samples, zero before the record start."""
    if m == 0:
        return x
    out = np.zeros_like(x)
    out[m:] = x[:-m]
    return out


def poly_forward_fixed(
    model: MemoryPolyModel,
    x: IqSignal,
    fmt: FixedFormat | None = None,
    stats: FixedPointStats | None = None,
) -> IqSignal:
    """Memory-polynomial forward pass in fixed point.

    Per branch: |x|^2 is rounded once after the squaring adder, every further
    envelope multiply rounds, and the branch value x.|x|^(p-1) rounds per
    component — the stream whose zeros feed the underflow tally. Complex FIR
    tap products stay exact at double width with one rounding at each branch
    accumulator, and branch outputs are summed in-format.

    Raises:
        InputRangeError: if the signal holds NaN/inf samples.
    """
    _require_finite(x, InputRangeError)
    fmt = fmt or FixedFormat()
    s = model.shape
    xq = quantize(x.samples, fmt, stats)
    n = xq.size
    r2 = quantize(xq.real**2 + xq.imag**2, fmt, stats)

    def branch_value(base: np.ndarray, order: int) -> np.ndarray:
        if order == 1:
            return base
        env = r2
        for _ in range((order - 1) // 2 - 1):
            env = quantize(env * r2, fmt, stats)
        return quantize(base * env, fmt, stats)

    def fir(v: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        acc = np.zeros(n, dtype=np.complex128)
        for m, c in enumerate(coeffs):
            acc += complex(c) * _delayed(v, m)
        return quantize(acc, fmt, stats)

    total = np.zeros(n, dtype=np.complex128)
    coeffs = [*quantize(model.alpha, fmt, stats), *quantize(model.beta, fmt, stats)]
    xc = None
    for (kind, order, _), c in zip(s.branches, coeffs):
        if kind == "conj" and xc is None:
            xc = xq.conj()
        v = branch_value(xq if kind == "main" else xc, order)
        if stats is not None:
            label = f"{'p' if kind == 'main' else 'q'}{order}"
            stats.record_branch(label, int(np.count_nonzero(v == 0)), n)
        total = quantize(total + fir(v, c), fmt, stats)
    if s.include_dc:
        total = quantize(total + quantize(model.dc, fmt, stats), fmt, stats)
    return IqSignal(total, x.sample_rate_hz)
