"""16-bit fixed-point emulation: quantizer behavior and datapath fidelity."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpdkit.errors import ConfigurationError, InputRangeError
from dpdkit.fixedpoint import (
    FixedFormat,
    FixedPointStats,
    nn_forward_fixed,
    poly_forward_fixed,
    quantize,
)
from dpdkit.mempoly import MemoryPolyModel, PolyShape, poly_predistort
from dpdkit.nn import FORWARD_BLOCK, DenseNet, glorot_net, nn_forward
from dpdkit.ofdm import OfdmConfig, generate_ofdm
from dpdkit.signals import IqSignal

Q15 = FixedFormat()
Q20 = FixedFormat(total_bits=24, frac_bits=20)
LSB = 2.0**-15

FORMATS = st.integers(2, 24).flatmap(
    lambda total: st.builds(FixedFormat, st.just(total), st.integers(1, total - 1))
)
# finite values, most of them outside small formats' ranges
VALUES = st.lists(
    st.one_of(st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1,
    max_size=64,
)


def out_of_range_count(v: np.ndarray, fmt: FixedFormat) -> int:
    """Components whose nearest code lies off the grid: a tie above the top
    rounds up to the even code past it, a tie below the bottom to the
    bottom code itself."""
    lsb, top = 2.0**-fmt.frac_bits, 2.0 ** (fmt.total_bits - fmt.frac_bits - 1)
    return int(np.count_nonzero((v >= top - lsb / 2) | (v < -top - lsb / 2)))


@pytest.fixture(scope="module")
def frame():
    _, sig = generate_ofdm(OfdmConfig(n_symbols=1, seed=3))
    return sig


class TestFixedFormat:
    def test_q15_defaults(self):
        assert Q15.total_bits == 16 and Q15.frac_bits == 15
        assert quantize(LSB, Q15) == LSB

    def test_other_splits(self):
        fmt = FixedFormat(total_bits=8, frac_bits=4)
        # the grid step is 2**-4: a half step rounds to even, one and a half steps to two
        assert quantize(2.0**-4, fmt) == 2.0**-4
        assert quantize(2.0**-5, fmt) == 0.0 and quantize(3 * 2.0**-5, fmt) == 2.0**-3

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedFormat(total_bits=16, frac_bits=16)
        with pytest.raises(ConfigurationError):
            FixedFormat(total_bits=16, frac_bits=0)
        # float64 cannot hold the top code of a wider word, so it would not saturate
        for total_bits in (55, 64):
            with pytest.raises(ConfigurationError):
                FixedFormat(total_bits=total_bits, frac_bits=total_bits - 1)
        stats = FixedPointStats()
        widest = FixedFormat(total_bits=54, frac_bits=53)
        assert quantize(1.0, widest, stats) == 1.0 - 2.0**-53 and stats.sat_events == 1


class TestQuantize:
    def test_zero_maps_to_zero(self):
        assert quantize(0.0, Q15) == 0.0

    def test_full_scale_saturates_to_max_code(self):
        stats = FixedPointStats()
        assert quantize(1.0, Q15, stats) == 1.0 - LSB
        assert stats.sat_events == 1

    def test_half_ulp_bound_in_range(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(-0.999, 0.999, 8192)
        assert np.abs(v - quantize(v, Q15)).max() <= 2.0**-16

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(-1.2, 1.2, 2048)
        q1 = quantize(v, Q15)
        assert np.array_equal(quantize(q1, Q15), q1)

    def test_monotone(self):
        rng = np.random.default_rng(6)
        v = np.sort(rng.uniform(-1.5, 1.5, 4096))
        assert np.all(np.diff(quantize(v, Q15)) >= 0)

    def test_round_half_even_at_ties(self):
        assert quantize(0.5 * LSB, Q15) == 0.0
        assert quantize(1.5 * LSB, Q15) == 2 * LSB
        assert quantize(2.5 * LSB, Q15) == 2 * LSB
        assert quantize(-0.5 * LSB, Q15) == 0.0

    def test_complex_components_quantized_independently(self):
        stats = FixedPointStats()
        z = quantize(1.25 - 2.0j, Q15, stats)
        assert z == complex(1.0 - LSB, -1.0)
        assert stats.sat_events == 2

    def test_shape_preserved(self):
        v = np.zeros((3, 5))
        assert quantize(v, Q15).shape == (3, 5)

    @pytest.mark.parametrize(
        "bad", [np.nan, np.array([np.nan]), np.array([0.25, np.nan]), complex(0.5, np.nan)]
    )
    def test_nan_has_no_code(self, bad):
        stats = FixedPointStats()
        with pytest.raises(InputRangeError, match="NaN"):
            quantize(bad, Q15, stats)

    def test_infinities_saturate_and_count(self):
        stats = FixedPointStats()
        q = quantize(np.array([np.inf, -np.inf, complex(np.inf, -np.inf)]), Q15, stats)
        assert np.array_equal(q, [1.0 - LSB, -1.0, complex(1.0 - LSB, -1.0)])
        assert stats.sat_events == 4

    @given(fmt=FORMATS, values=VALUES)
    def test_idempotent_monotone_and_in_range_over_formats(self, fmt, values):
        v = np.sort(np.array(values))
        with np.errstate(over="ignore"):  # the largest floats scale to inf, then saturate
            q = quantize(v, fmt)
        assert np.array_equal(quantize(q, fmt), q)
        assert np.all(np.diff(q) >= 0)
        top = 2.0 ** (fmt.total_bits - fmt.frac_bits - 1)
        assert np.all((q >= -top) & (q <= top - 2.0**-fmt.frac_bits))

    @given(fmt=FORMATS, re=VALUES, im=VALUES)
    def test_sat_events_count_out_of_range_components(self, fmt, re, im):
        n = min(len(re), len(im))
        re, im = np.array(re[:n]), np.array(im[:n])
        stats = FixedPointStats()
        with np.errstate(over="ignore"):
            quantize(re + 1j * im, fmt, stats)
        assert stats.sat_events == out_of_range_count(re, fmt) + out_of_range_count(im, fmt)


class TestStats:
    def test_underflow_pct_tracks_worst_branch(self):
        stats = FixedPointStats()
        stats.record_branch("p3", 10, 100)
        stats.record_branch("p11", 80, 100)
        assert stats.underflow_pct("p3") == 10.0
        assert stats.underflow_pct("p11") == 80.0
        assert stats.underflow_pct() == 80.0

    def test_empty_stats_report_zero(self):
        assert FixedPointStats().underflow_pct() == 0.0
        assert FixedPointStats().underflow_pct("p11") == 0.0


class TestNnForwardFixed:
    def test_zero_net_is_identity_on_quantized_input(self, frame):
        out = nn_forward_fixed(DenseNet.zeros(1, 6), frame, Q15)
        assert np.array_equal(out.samples, quantize(frame.samples, Q15))

    def test_close_to_float_forward(self, frame):
        # weights scaled into the format's range per the operation's
        # precondition (raw glorot draws can land outside Q1.15), and input
        # backed off so the peak-expanded output stays inside it too
        net = glorot_net(1, 14, seed=[9, 1])
        for w in net.weights:
            w *= 0.5
        x = IqSignal(0.8 * frame.samples, frame.sample_rate_hz)
        f = nn_forward(net, x).samples
        assert np.abs(f).max() < 1.0
        q = nn_forward_fixed(net, x, Q15).samples
        assert np.abs(f - q).max() < 1e-3

    def test_exact_when_everything_representable(self):
        # dyadic weights on coarse grids: no rounding anywhere, so the fixed
        # path must equal the float path bit for bit
        w1 = np.array([[0.25, -0.5], [0.125, 0.0625]])
        w2 = np.array([[0.25, 0.125], [-0.0625, 0.5]])
        b1 = np.array([0.125, -0.25])
        b2 = np.array([0.0625, 0.125])
        net = DenseNet(1, 2, [w1, w2], [b1, b2])
        x = IqSignal(np.array([0.25 + 0.125j, -0.5 + 0.0625j, 0.375 - 0.25j]), 1.0)
        f = nn_forward(net, x).samples
        q = nn_forward_fixed(net, x, Q15).samples
        assert np.array_equal(f, q)

    def test_bitwise_deterministic(self, frame):
        net = glorot_net(2, 8, seed=[9, 2])
        a = nn_forward_fixed(net, frame, Q15).samples
        b = nn_forward_fixed(net, frame, Q15).samples
        assert np.array_equal(a, b)

    def test_out_of_range_weights_tallied(self, frame):
        net = DenseNet.zeros(1, 4)
        net.weights[0][0, 0] = 1.5
        stats = FixedPointStats()
        nn_forward_fixed(net, frame, Q15, stats)
        assert stats.sat_events >= 1


def whole_frame_forward_fixed(net, x, fmt, stats):
    """The whole-frame fixed forward nn_forward_fixed replaced: every layer
    over all samples at once, weights quantized inside the layer loop."""
    x2 = np.stack([x.samples.real, x.samples.imag])
    h = quantize(x2, fmt, stats)
    xq2 = h
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        wq = quantize(w, fmt, stats)
        bq = quantize(b, fmt, stats)
        pre = quantize(wq @ h + bq[:, None], fmt, stats)
        h = pre if i == len(net.weights) - 1 else np.maximum(pre, 0.0)
    z = quantize(h + xq2, fmt, stats)
    return z[0] + 1j * z[1]


def biased_net(k, n, seed):
    """A glorot net with nonzero biases, some weights past Q1.15's range."""
    net = glorot_net(k, n, seed=seed)
    rng = np.random.default_rng(seed)
    for b in net.biases:
        b[...] = rng.uniform(-0.3, 0.3, b.shape)
    net.weights[0][0, 0] = 1.25
    return net


def overdriven(n, seed, fmt=Q15):
    """n samples, a few percent of them past fmt's full scale on some component."""
    rng = np.random.default_rng(seed)
    scale = 0.45 * 2.0 ** (fmt.total_bits - fmt.frac_bits - 1)
    return IqSignal(scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)), 61.44e6)


class TestBlockwiseNnForwardFixed:
    """nn_forward_fixed runs FORWARD_BLOCK columns at a time; within the
    exactness bound that must give the whole-frame forward's bytes and
    saturation count, and a peak that does not grow with the frame."""

    SHAPES = [(1, 6), (1, 14), (2, 32)]
    LAYER_BYTES = 32 * FORWARD_BLOCK * 8  # one (32, FORWARD_BLOCK) float64 layer

    @pytest.mark.parametrize("fmt", [Q15, Q20], ids=["16/15", "24/20"])
    @pytest.mark.parametrize("n", [5 * FORWARD_BLOCK, FORWARD_BLOCK + 1, 12_345, 100])
    def test_same_bytes_and_sat_events_as_whole_frame(self, fmt, n):
        x = overdriven(n, seed=n, fmt=fmt)
        for k, width in self.SHAPES:
            net = biased_net(k, width, seed=[k, width])
            blockwise, whole = FixedPointStats(), FixedPointStats()
            out = nn_forward_fixed(net, x, fmt, blockwise).samples
            reference = whole_frame_forward_fixed(net, x, fmt, whole)
            assert out.tobytes() == reference.tobytes()
            assert blockwise.sat_events == whole.sat_events > 0

    @staticmethod
    def traced_peak(net, n):
        x = overdriven(n, seed=2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            nn_forward_fixed(net, x, Q15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - base

    def test_peak_is_a_few_layers_of_one_block(self):
        net = biased_net(2, 32, seed=3)
        long_peak = self.traced_peak(net, 10 * FORWARD_BLOCK + 3)
        short_peak = self.traced_peak(net, 5 * FORWARD_BLOCK)
        # blockwise this reads ~6.9 layers at 10 blocks and ~6.6 at 5: the
        # output grows with the frame, the layer temporaries do not; the
        # whole-frame forward read ~62.5 at 10 blocks
        assert long_peak < 10 * self.LAYER_BYTES
        assert long_peak - short_peak < 0.5 * self.LAYER_BYTES


class TestExactnessBound:
    """Within 2*(total_bits - 1) + ceil(log2(fan_in + 1)) <= 53 each neuron's
    double-width sum is exact, so no BLAS or block size can move a bit."""

    def test_q15_layer_sums_equal_the_integer_code_products(self):
        net = biased_net(2, 32, seed=4)
        x = overdriven(3000, seed=4)
        h = quantize(np.stack([x.samples.real, x.samples.imag]), Q15)
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            wq, bq = quantize(w, Q15), quantize(b, Q15)
            acc = wq @ h + bq[:, None]
            codes = (wq * 2**15).astype(np.int64) @ (h * 2**15).astype(np.int64)
            codes += (bq * 2**30).astype(np.int64)[:, None]
            assert np.array_equal((acc * 2**30).astype(np.int64), codes)
            pre = quantize(acc, Q15)
            h = pre if i == len(net.weights) - 1 else np.maximum(pre, 0.0)

    def test_past_the_bound_a_sum_rounds(self):
        # 32/28 with 32 inputs: 2*31 + 6 = 68 bits, so float64 drops some
        fmt = FixedFormat(total_bits=32, frac_bits=28)
        rng = np.random.default_rng(5)
        w = quantize(rng.uniform(-1, 1, 32), fmt)
        h = quantize(rng.uniform(-1, 1, 32), fmt)
        exact = sum(Fraction(a) * Fraction(c) for a, c in zip(w, h))
        assert Fraction(float(w @ h)) != exact


class TestPolyForwardFixed:
    def test_identity_model_is_quantized_passthrough(self, frame):
        # at half drive the unity coefficient's saturation to 1 - 2^-15
        # rounds away entirely
        half = IqSignal(0.5 * frame.samples, frame.sample_rate_hz)
        model = MemoryPolyModel.identity(PolyShape(1, 1))
        out = poly_forward_fixed(model, half, Q15)
        assert np.array_equal(out.samples, quantize(half.samples, Q15))

    def test_exact_when_everything_representable(self):
        shape = PolyShape(3, 1)
        model = MemoryPolyModel(shape, np.array([0.25, 0.375]))
        rng = np.random.default_rng(8)
        x = IqSignal((rng.integers(-4, 5, 64) + 1j * rng.integers(-4, 5, 64)) / 8.0, 1.0)
        f = poly_predistort(model, x).samples
        q = poly_forward_fixed(model, x, Q15).samples
        assert np.array_equal(f, q)

    def test_close_to_float_forward(self, frame):
        # drive at half scale so the branch total stays inside the format's
        # range; out-of-range sums saturate by design and dominate the error
        rng = np.random.default_rng(9)
        shape = PolyShape(7, 2, 3, 1)
        n = shape.n_basis_columns
        theta = 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        theta[0] = 0.9
        model = MemoryPolyModel(shape, theta)
        half = IqSignal(0.5 * frame.samples, frame.sample_rate_hz)
        f = poly_predistort(model, half).samples
        q = poly_forward_fixed(model, half, Q15).samples
        assert np.abs(f - q).max() < 1e-3

    def test_high_order_branch_starves_at_low_drive(self, frame):
        rng = np.random.default_rng(10)
        shape = PolyShape(11, 2)
        n = shape.n_basis_columns
        theta = 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        theta[0] = 1.0
        model = MemoryPolyModel(shape, theta)
        low = IqSignal(0.3 * frame.samples / np.abs(frame.samples).max(), frame.sample_rate_hz)
        stats = FixedPointStats()
        poly_forward_fixed(model, low, Q15, stats)
        assert stats.underflow_pct("p11") > 50.0
        assert stats.underflow_pct("p1") == 0.0
        assert stats.underflow_pct() >= stats.underflow_pct("p11")

    def test_stats_record_every_main_and_conj_branch(self, frame):
        rng = np.random.default_rng(11)
        shape = PolyShape(9, 3, 5, 2, True)
        n = shape.n_basis_columns
        theta = 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        model = MemoryPolyModel(shape, theta)
        low = IqSignal(0.3 * frame.samples / np.abs(frame.samples).max(), frame.sample_rate_hz)
        stats = FixedPointStats()
        poly_forward_fixed(model, low, Q15, stats)
        labels = ["p1", "p3", "p5", "p7", "p9", "q1", "q3", "q5"]
        assert list(stats.branch_samples) == labels
        assert list(stats.branch_zeros) == labels
        assert all(total == len(low) for total in stats.branch_samples.values())
        # conj(x)|x|^(q-1) is the conjugate of the main branch value, so it
        # underflows on the same samples
        for q in (1, 3, 5):
            assert stats.branch_zeros[f"q{q}"] == stats.branch_zeros[f"p{q}"]
        assert stats.branch_zeros["q5"] > 0

    def test_dc_term_survives_zero_model(self):
        shape = PolyShape(1, 1, include_dc=True)
        model = MemoryPolyModel(shape, np.array([0, 0.25 + 0.125j]))
        x = IqSignal(np.zeros(16, dtype=np.complex128), 1.0)
        out = poly_forward_fixed(model, x, Q15)
        assert np.all(out.samples == 0.25 + 0.125j)

    def test_bitwise_deterministic(self, frame):
        rng = np.random.default_rng(11)
        shape = PolyShape(9, 3)
        n = shape.n_basis_columns
        theta = 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        model = MemoryPolyModel(shape, theta)
        a = poly_forward_fixed(model, frame, Q15).samples
        b = poly_forward_fixed(model, frame, Q15).samples
        assert np.array_equal(a, b)


class TestNonFiniteInput:
    """A NaN/inf sample stops at each forward instead of leaving it as nan."""

    FORWARDS = {
        "poly_predistort": lambda x: poly_predistort(MemoryPolyModel.identity(PolyShape(3, 1)), x),
        "nn_forward": lambda x: nn_forward(DenseNet.zeros(1, 4), x),
        "poly_forward_fixed": lambda x: poly_forward_fixed(
            MemoryPolyModel.identity(PolyShape(3, 1)), x, Q15, FixedPointStats()),
        "nn_forward_fixed": lambda x: nn_forward_fixed(DenseNet.zeros(1, 4), x, Q15, FixedPointStats()),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.1, -np.inf), complex(np.nan, 0.1)])
    @pytest.mark.parametrize("name", sorted(FORWARDS))
    def test_forward_rejects(self, name, bad):
        samples = np.full(64, 0.1 + 0.1j)
        samples[17] = bad
        with pytest.raises(InputRangeError, match="non-finite"):
            self.FORWARDS[name](IqSignal(samples, 61.44e6))


# The fixed-point formulas as they were before the forwards rounded in place, one new
# array per step: the in-place forwards must give their bits and tallies exactly.

def per_call_quantize_real(x, fmt, stats):
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


def per_call_quantize(x, fmt, stats=None):
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        return per_call_quantize_real(arr.real.astype(np.float64), fmt, stats) + (
            1j * per_call_quantize_real(arr.imag.astype(np.float64), fmt, stats))
    return per_call_quantize_real(arr.astype(np.float64), fmt, stats)


def per_call_nn_forward_fixed(net, x, fmt, stats):
    q = lambda v: per_call_quantize(v, fmt, stats)  # noqa: E731
    layers = [(q(w), q(b)[:, None]) for w, b in zip(net.weights, net.biases)]
    n = len(x)
    out = np.empty(n, dtype=np.complex128)
    for start in range(0, n, FORWARD_BLOCK):
        block = x.samples[start : start + FORWARD_BLOCK]
        xq2 = q(np.stack([block.real, block.imag]))
        h = xq2
        for i, (wq, bq) in enumerate(layers):
            pre = q(wq @ h + bq)
            h = pre if i == len(layers) - 1 else np.maximum(pre, 0.0)
        z = q(h + xq2)
        out[start : start + block.size] = z[0] + 1j * z[1]
    return out


def per_call_poly_forward_fixed(model, x, fmt, stats):
    q = lambda v: per_call_quantize(v, fmt, stats)  # noqa: E731
    s = model.shape
    xq = q(x.samples)
    n = xq.size
    r2 = q(xq.real**2 + xq.imag**2)

    def delayed(v, m):
        if m == 0:
            return v
        out = np.zeros_like(v)
        out[m:] = v[:-m]
        return out

    def branch_value(base, order):
        if order == 1:
            return base
        env = r2
        for _ in range((order - 1) // 2 - 1):
            env = q(env * r2)
        return q(base * env)

    def fir(v, coeffs):
        acc = np.zeros(n, dtype=np.complex128)
        for m, c in enumerate(coeffs):
            acc += complex(c) * delayed(v, m)
        return q(acc)

    total = np.zeros(n, dtype=np.complex128)
    theta = q(model.theta)
    coeffs, k = [], 0  # each branch's taps, by index into theta; dc after them
    for _, _, taps in s.branches:
        coeffs.append([theta[k + m] for m in range(taps)])
        k += taps
    xc = None
    for (kind, order, _), c in zip(s.branches, coeffs):
        if kind == "conj" and xc is None:
            xc = xq.conj()
        v = branch_value(xq if kind == "main" else xc, order)
        if stats is not None:
            label = f"{'p' if kind == 'main' else 'q'}{order}"
            stats.record_branch(label, int(np.count_nonzero(v == 0)), n)
        total = q(total + fir(v, c))
    if s.include_dc:
        total = q(total + theta[k])
    return total


def awkward(n, fmt, seed, top_fraction=1.2):
    """Reals spread over ±top_fraction of fmt's full scale, with ±0, values that round
    to -0 or +0, and values far past both ends."""
    rng = np.random.default_rng(seed)
    top, lsb = 2.0 ** (fmt.total_bits - fmt.frac_bits - 1), 2.0**-fmt.frac_bits
    v = top * rng.uniform(-top_fraction, top_fraction, n)
    v[::9], v[1::9], v[2::9], v[3::9] = 0.0, -0.0, -0.3 * lsb, 0.3 * lsb
    v[4::13], v[5::13] = 5 * top, -5 * top
    v[6::17] = -0.5 * lsb  # a tie that rounds to -0
    return v


def cplx(re, im):
    """re + 1j*im without the arithmetic, which turns an infinite part into NaN."""
    z = np.empty(np.shape(re), dtype=np.complex128)
    z.real, z.imag = re, im
    return z


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


FORMATS_BITWISE = [FixedFormat(16, 15), FixedFormat(12, 11), FixedFormat(20, 17),
                   FixedFormat(8, 7)]
FORMAT_IDS = ["Q1.15", "Q1.11", "Q3.17", "Q1.7"]
POLY_GRID_SHAPES = [PolyShape(5, 2), PolyShape(7, 3), PolyShape(9, 2), PolyShape(11, 4),
                    PolyShape(13, 3), PolyShape(9, 3, 5, 2), PolyShape(5, 2, 3, 1, include_dc=True)]


@pytest.mark.parametrize("fmt", FORMATS_BITWISE, ids=FORMAT_IDS)
class TestInPlaceMatchesPerCallFormulas:
    """Bit for bit, with the same sat_events and branch_zeros, against the formulas above."""

    def test_quantize_real_and_complex(self, fmt):
        re, im = awkward(4000, fmt, 1), awkward(4000, fmt, 2)
        re[7::31], im[8::37] = np.inf, -np.inf
        z = cplx(re, im)
        for x in (re, z, cplx(im, re)[::3], z.reshape(40, 100).T, re.astype(np.float32),
                  z.astype(np.complex64)):
            new, old = FixedPointStats(), FixedPointStats()
            assert same_bits(quantize(x, fmt, new), per_call_quantize(x, fmt, old))
            assert new.sat_events == old.sat_events > 0

    def test_scalars_keep_their_types(self, fmt):
        for x, kind in [(0.5, float), (-1e-9, float), (np.float64(3.0), float),
                        (np.array(-1e-9), float), (0.25 - 1e-9j, complex),
                        (np.complex128(-1e-9 + 0.5j), complex), (np.array(-1e-9 - 1e-9j), complex)]:
            got, want = quantize(x, fmt), kind(per_call_quantize(x, fmt))
            assert type(got) is kind
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_nan_still_raises(self, fmt):
        for x in (np.array([0.1, np.nan]), np.array([0.1 + 1j * np.nan]), np.nan):
            with pytest.raises(InputRangeError, match="NaN"):
                quantize(x, fmt)

    @pytest.mark.parametrize("shape", POLY_GRID_SHAPES, ids=str)
    def test_poly_forward_fixed(self, fmt, shape):
        rng = np.random.default_rng(shape.n_basis_columns)
        p = shape.n_basis_columns
        theta = 0.6 * (rng.standard_normal(p) + 1j * rng.standard_normal(p))
        model = MemoryPolyModel(shape, theta)
        for n in (3000, 2):
            x = IqSignal(cplx(awkward(n, fmt, 3, 0.7), awkward(n, fmt, 4, 0.7)), 1.0)
            new, old = FixedPointStats(), FixedPointStats()
            out = poly_forward_fixed(model, x, fmt, new).samples
            assert same_bits(out, per_call_poly_forward_fixed(model, x, fmt, old))
            assert (new.sat_events, new.branch_zeros, new.branch_samples) == (
                old.sat_events, old.branch_zeros, old.branch_samples)
            assert n < 3000 or (new.sat_events > 0 and any(new.branch_zeros.values()))

    def test_poly_frames_shorter_than_the_taps(self, fmt):
        shape = PolyShape(5, 6, 3, 5)
        rng = np.random.default_rng(7)
        p = shape.n_basis_columns
        model = MemoryPolyModel(
            shape, 0.6 * (rng.standard_normal(p) + 1j * rng.standard_normal(p)))
        for n in range(1, 8):
            x = IqSignal(cplx(awkward(n, fmt, n, 0.7), awkward(n, fmt, n + 10, 0.7)), 1.0)
            new, old = FixedPointStats(), FixedPointStats()
            out = poly_forward_fixed(model, x, fmt, new).samples
            assert same_bits(out, per_call_poly_forward_fixed(model, x, fmt, old))
            assert (new.sat_events, new.branch_zeros) == (old.sat_events, old.branch_zeros)

    def test_nn_forward_fixed(self, fmt):
        n = FORWARD_BLOCK + 5
        x = IqSignal(cplx(awkward(n, fmt, 5, 0.9), awkward(n, fmt, 6, 0.9)), 1.0)
        for k, width in [(1, 6), (2, 32)]:
            net = biased_net(k, width, seed=[k, width])
            new, old = FixedPointStats(), FixedPointStats()
            out = nn_forward_fixed(net, x, fmt, new).samples
            assert same_bits(out, per_call_nn_forward_fixed(net, x, fmt, old))
            assert new.sat_events == old.sat_events > 0
