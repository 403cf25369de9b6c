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
                f"frac_bits must satisfy 0 < frac_bits < total_bits, "
                f"got {self.frac_bits}/{self.total_bits}",
                "frac_bits",
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


def _quantize_real(x: np.ndarray, fmt: FixedFormat, stats: FixedPointStats | None,
                   out: np.ndarray) -> np.ndarray:
    """Round and saturate the float64 array ``x`` into ``out``, which may be ``x``; return it."""
    scale = 2.0**fmt.frac_bits
    codes = np.rint(np.multiply(x, scale, out=out), out=out)
    if np.isnan(codes).any():
        raise InputRangeError("NaN has no code on the fixed-point grid")
    lo = -(2.0 ** (fmt.total_bits - 1))
    hi = 2.0 ** (fmt.total_bits - 1) - 1
    if stats is not None:
        stats.sat_events += int(np.count_nonzero(codes < lo)) + int(np.count_nonzero(codes > hi))
    np.clip(codes, lo, hi, out=codes)
    codes /= scale
    return codes


def _quantize_complex(z: np.ndarray, fmt: FixedFormat, stats: FixedPointStats | None,
                      spare: np.ndarray | None = None) -> np.ndarray:
    """Quantize the C-contiguous complex128 array ``z`` in place and return it.

    Both components round in one pass over the float64 view. The result has
    the bits of ``q(re) + 1j*q(im)``, whose complex arithmetic adds
    ``0.0*q(im)`` to the real part and +0.0 to the imaginary part: that only
    sets the sign of a zero. ``spare``, a float64 array of z's shape, takes
    the product.
    """
    parts = z.reshape(-1).view(np.float64)
    _quantize_real(parts, fmt, stats, parts)
    z.real += np.multiply(z.imag, 0.0, out=spare)
    z.imag += 0.0
    return z


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
        out = _quantize_complex(np.array(arr, dtype=np.complex128, order="C"), fmt, stats)
    else:
        out = arr.astype(np.float64)
        _quantize_real(out, fmt, stats, out)
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
        xq2 = np.stack([block.real, block.imag])
        h = _quantize_real(xq2, fmt, stats, xq2)
        for i, (wq, bq) in enumerate(layers):
            pre = wq @ h
            pre += bq
            h = _quantize_real(pre, fmt, stats, pre)
            if i < len(layers) - 1:
                np.maximum(h, 0.0, out=h)
        z = _quantize_real(np.add(h, xq2, out=h), fmt, stats, h)
        out[start : start + block.size] = z[0] + 1j * z[1]
    return IqSignal(out, x.sample_rate_hz)


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
    n = len(x)
    # one buffer set per call; tap products go through scratch, and each complex
    # rounding's spare product through its real part. Three arrays, not one (3, n)
    # block: freeing that block raised glibc's mmap threshold past a frame, and the
    # default sweep's peak RSS rose 3 MB.
    env = np.empty(n)
    branch, acc, scratch = (np.empty(n, dtype=np.complex128) for _ in range(3))
    spare = scratch.real

    def rounded(z: np.ndarray) -> np.ndarray:
        return _quantize_complex(z, fmt, stats, spare)

    xq = rounded(np.array(x.samples, dtype=np.complex128))
    r2 = np.square(xq.real)
    r2 += np.square(xq.imag, out=env)
    _quantize_real(r2, fmt, stats, r2)

    def branch_value(base: np.ndarray, order: int) -> np.ndarray:
        if order == 1:
            return base
        power = r2
        for _ in range((order - 1) // 2 - 1):
            power = _quantize_real(np.multiply(power, r2, out=env), fmt, stats, env)
        return rounded(np.multiply(base, power, out=branch))

    def fir(v: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        # delayed zeros are skipped: acc starts at +0, never turns -0, and adding a
        # signed zero leaves every other value as it is
        acc.fill(0.0)
        for m, c in enumerate(coeffs):
            k = max(n - m, 0)
            acc[m:] += np.multiply(complex(c), v[:k], out=scratch[:k])
        return rounded(acc)

    total = np.zeros(n, dtype=np.complex128)
    quantized = MemoryPolyModel(s, quantize(model.theta, fmt, stats))
    xc = None
    for (kind, order, _), c in zip(s.branches, quantized.branch_taps()):
        if kind == "conj" and xc is None:
            xc = xq.conj()
        v = branch_value(xq if kind == "main" else xc, order)
        if stats is not None:
            label = f"{'p' if kind == 'main' else 'q'}{order}"
            stats.record_branch(label, int(np.count_nonzero(v == 0)), n)
        total += fir(v, c)
        rounded(total)
    if s.include_dc:
        total += quantized.theta[-1]
        rounded(total)
    return IqSignal(total, x.sample_rate_hz)
