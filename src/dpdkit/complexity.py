"""Per-sample multiplication and parameter accounting for both DPD families.

The closed-form counts follow the hardware conventions the rest of the
package is built around: a complex-by-complex product costs three real
multiplications, the envelope powers |x|^(p-1) = (Re^2 + Im^2)^((p-1)/2) are
built once per nonlinearity order and shared across memory taps through
delay lines, and fixed identity paths (the network's bypass, the p=1 branch
value) cost nothing. The instrumented forwards in this module execute that
exact datapath one sample at a time, tallying every real multiply event, so
tests can check the formulas against a running implementation instead of a
second formula.

A design point is named by its descriptor text, and this module is the only
one that writes or reads it: ``poly_count`` and ``nn_count`` write it,
``parse_descriptor`` reads it back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .mempoly import MemoryPolyModel, PolyShape
from .nn import DenseNet

__all__ = [
    "ComplexityReport",
    "poly_count",
    "nn_count",
    "parse_descriptor",
    "count_poly_multiplies",
    "count_nn_multiplies",
]


@dataclass(frozen=True)
class ComplexityReport:
    n_params_real: int
    n_mults: int
    model_descriptor: str

    def __post_init__(self):
        if self.n_params_real < 0 or self.n_mults < 0:
            raise ConfigurationError("complexity counts cannot be negative")


def _envelope_chain_mults(p_max: int) -> int:
    """Sum of (p+5)/2 over odd orders 3..p_max (order 1 has no envelope)."""
    return sum((p + 5) // 2 for p in range(3, p_max + 1, 2))


def poly_count(shape: PolyShape) -> ComplexityReport:
    """Real coefficients (DC excluded by convention), real multiplies per sample, descriptor."""
    text = f"poly P={shape.p_max} M={shape.main_taps}"
    if shape.q_max:
        text += f" Q={shape.q_max} L={shape.conj_taps}"
    if shape.include_dc:
        text += " +dc"
    envelopes = _envelope_chain_mults(shape.p_max) + _envelope_chain_mults(shape.q_max)
    return ComplexityReport(
        n_params_real=2 * shape.n_complex_coeffs,
        n_mults=3 * shape.n_complex_coeffs + envelopes,
        model_descriptor=text,
    )


def nn_count(hidden_layers: int, width: int) -> ComplexityReport:
    """Real trainable parameters, real multiplies per sample, descriptor.

    The fixed identity bypass is neither a parameter nor a multiply.
    """
    k, n = hidden_layers, width
    if k < 1 or n < 1:
        raise ConfigurationError(f"need K >= 1 and N >= 1, got K={k}, N={n}")
    return ComplexityReport(
        n_params_real=2 * n + n + (k - 1) * (n * n + n) + 2 * n + 2,
        n_mults=4 * n + (k - 1) * n * n,
        model_descriptor=f"nn_K{k}_N{n}",
    )


_NN_SLUG = re.compile(r"nn_K([0-9]+)_N([0-9]+)")
_FIELD = re.compile(r"([A-Z])=([0-9]+)|\+dc")
_FIELDS = {"poly": ("P", "M", "Q", "L", "+dc"), "nn": ("K", "N")}


def parse_descriptor(text: str) -> tuple[str, PolyShape | tuple[int, int], ComplexityReport]:
    """Read descriptor text as ("poly", PolyShape, report) or ("nn", (K, N), report).

    The grammar is ``poly P=<p> [M=<taps>] [Q=<q> L=<taps>] [+dc]`` (M
    defaults to 1) and ``nn K=<k> N=<n>``, fields in any order, each at most
    once; ``nn_K<k>_N<n>`` is the network's spelling in sweep.csv. The report
    is the one poly_count or nn_count gives, so its text names the row.

    Raises:
        ConfigurationError: on anything else, including a non-string.
    """
    if not isinstance(text, str):
        raise ConfigurationError(f"descriptor must be a string, got {type(text).__name__}")
    slug = _NN_SLUG.fullmatch(text.strip())
    if slug:
        kind, fields = "nn", {"K": slug[1], "N": slug[2]}
    else:
        kind, *parts = text.split() or [""]
        if kind not in _FIELDS:
            raise ConfigurationError(f"descriptor kind must be 'poly' or 'nn': {text!r}")
        fields = {}
        for part in parts:
            match = _FIELD.fullmatch(part)
            key = (match[1] or match[0]) if match else None
            if key not in _FIELDS[kind] or key in fields:
                raise ConfigurationError(f"bad field {part!r} in descriptor {text!r}")
            fields[key] = match[2]
    try:
        if kind == "nn":
            k, n = int(fields["K"]), int(fields["N"])
            return "nn", (k, n), nn_count(k, n)
        shape = PolyShape(
            p_max=int(fields["P"]),
            main_taps=int(fields.get("M", 1)),
            q_max=int(fields.get("Q", 0)),
            conj_taps=int(fields.get("L", 0)),
            include_dc="+dc" in fields,
        )
    except KeyError as exc:
        raise ConfigurationError(f"descriptor {text!r} lacks field {exc}") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"bad descriptor {text!r}: {exc}") from None
    return "poly", shape, poly_count(shape)


class _MultiplyCounter:
    """Arithmetic helpers that perform the multiply and count the event."""

    def __init__(self):
        self.events = 0

    def real(self, a: float, b: float) -> float:
        self.events += 1
        return a * b

    def complex_by_real(self, z: complex, r: float) -> complex:
        return complex(self.real(z.real, r), self.real(z.imag, r))

    def complex(self, a: complex, b: complex) -> complex:
        # three-multiplication complex product
        k1 = self.real(a.real, b.real)
        k2 = self.real(a.imag, b.imag)
        k3 = self.real(a.real + a.imag, b.real + b.imag)
        return complex(k1 - k2, k3 - k1 - k2)

    def envelope_powers(self, z: complex, p_max: int) -> dict[int, float]:
        """|z|^(p-1) for each odd order 3..p_max, each built from scratch."""
        powers = {}
        for p in range(3, p_max + 1, 2):
            r2 = self.real(z.real, z.real) + self.real(z.imag, z.imag)
            env = r2
            for _ in range((p - 1) // 2 - 1):
                env = self.real(env, r2)
            powers[p] = env
        return powers


def count_poly_multiplies(model: MemoryPolyModel, samples) -> tuple[np.ndarray, int]:
    """Run the branch-and-FIR datapath sample by sample, counting multiplies.

    Returns the output sequence and the (constant) multiply-event count per
    sample. The output matches poly_predistort up to reordering rounding.
    """
    x = np.asarray(samples, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ConfigurationError("need a non-empty 1-D sample sequence")
    s = model.shape
    counter = _MultiplyCounter()
    main_lines = [
        [0j] * s.main_taps for _ in range(s.n_main_orders)
    ]  # delay line per order, newest first
    conj_lines = [[0j] * s.conj_taps for _ in range(s.n_conj_orders)]
    out = np.empty_like(x)

    for n, xn in enumerate(x):
        xn = complex(xn)
        main_env = counter.envelope_powers(xn, s.p_max)
        for i, p in enumerate(range(1, s.p_max + 1, 2)):
            v = xn if p == 1 else counter.complex_by_real(xn, main_env[p])
            line = main_lines[i]
            line.insert(0, v)
            line.pop()
        zc = xn.conjugate()
        conj_env = counter.envelope_powers(zc, s.q_max)
        for i, q in enumerate(range(1, s.q_max + 1, 2)):
            v = zc if q == 1 else counter.complex_by_real(zc, conj_env[q])
            line = conj_lines[i]
            line.insert(0, v)
            line.pop()

        acc = 0j
        for i in range(s.n_main_orders):
            for m in range(s.main_taps):
                acc += counter.complex(complex(model.alpha[i, m]), main_lines[i][m])
        for i in range(s.n_conj_orders):
            for l in range(s.conj_taps):
                acc += counter.complex(complex(model.beta[i, l]), conj_lines[i][l])
        if s.include_dc:
            acc += model.dc
        out[n] = acc

    per_sample, rem = divmod(counter.events, x.size)
    if rem:
        raise ConfigurationError("multiply count varied across samples")
    return out, per_sample


def count_nn_multiplies(net: DenseNet, samples) -> tuple[np.ndarray, int]:
    """Run the dense network neuron by neuron, counting real multiplies.

    The identity bypass is added without multiplication, matching the
    closed-form count.
    """
    x = np.asarray(samples, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ConfigurationError("need a non-empty 1-D sample sequence")
    counter = _MultiplyCounter()
    out = np.empty_like(x)

    for n, xn in enumerate(x):
        act = [float(xn.real), float(xn.imag)]
        for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
            nxt = []
            for row in range(w.shape[0]):
                total = b[row]
                for col in range(w.shape[1]):
                    total += counter.real(w[row, col], act[col])
                last = layer == len(net.weights) - 1
                nxt.append(total if last else max(total, 0.0))
            act = nxt
        out[n] = complex(act[0] + xn.real, act[1] + xn.imag)

    per_sample, rem = divmod(counter.events, x.size)
    if rem:
        raise ConfigurationError("multiply count varied across samples")
    return out, per_sample
