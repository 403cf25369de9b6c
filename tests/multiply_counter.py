"""Instrumented datapaths that count every real multiply, one sample at a time.

These are the oracle for ``dpdkit.complexity``'s closed-form counts: they run
the same datapath the formulas describe (three-multiply complex products,
envelope powers built per order, the network's bypass added for free) and
tally each multiply event, so the tests compare the formulas with a running
implementation instead of a second formula.
"""

import numpy as np

from dpdkit.errors import ConfigurationError
from dpdkit.mempoly import MemoryPolyModel
from dpdkit.nn import DenseNet


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
    main_orders = range(1, s.p_max + 1, 2)
    conj_orders = range(1, s.q_max + 1, 2)
    counter = _MultiplyCounter()
    main_lines = [[0j] * s.main_taps for _ in main_orders]  # delay line per order, newest first
    conj_lines = [[0j] * s.conj_taps for _ in conj_orders]
    out = np.empty_like(x)

    for n, xn in enumerate(x):
        xn = complex(xn)
        main_env = counter.envelope_powers(xn, s.p_max)
        for i, p in enumerate(main_orders):
            v = xn if p == 1 else counter.complex_by_real(xn, main_env[p])
            line = main_lines[i]
            line.insert(0, v)
            line.pop()
        zc = xn.conjugate()
        conj_env = counter.envelope_powers(zc, s.q_max)
        for i, q in enumerate(conj_orders):
            v = zc if q == 1 else counter.complex_by_real(zc, conj_env[q])
            line = conj_lines[i]
            line.insert(0, v)
            line.pop()

        acc = 0j
        k = 0  # theta's index: main orders up, then conjugate orders, tap inner; then dc
        for lines, taps in ((main_lines, s.main_taps), (conj_lines, s.conj_taps)):
            for line in lines:
                for m in range(taps):
                    acc += counter.complex(complex(model.theta[k]), line[m])
                    k += 1
        if s.include_dc:
            acc += model.theta[k]
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
