"""16-bit fixed-point emulation: quantizer behavior and datapath fidelity."""

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
from dpdkit.nn import DenseNet, glorot_net, nn_forward
from dpdkit.ofdm import OfdmConfig, generate_ofdm
from dpdkit.signals import IqSignal

Q15 = FixedFormat()
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
    half = fmt.lsb / 2
    return int(np.count_nonzero((v >= fmt.max_value + half) | (v < fmt.min_value - half)))


@pytest.fixture(scope="module")
def frame():
    _, sig = generate_ofdm(OfdmConfig(n_symbols=1, seed=3))
    return sig


class TestFixedFormat:
    def test_q15_defaults(self):
        assert Q15.total_bits == 16 and Q15.frac_bits == 15
        assert Q15.lsb == LSB
        assert Q15.max_value == 1.0 - LSB
        assert Q15.min_value == -1.0

    def test_other_splits(self):
        fmt = FixedFormat(total_bits=8, frac_bits=4)
        assert fmt.lsb == 2.0**-4
        assert fmt.max_value == 8.0 - 2.0**-4
        assert fmt.min_value == -8.0

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

    @given(fmt=FORMATS, values=VALUES)
    def test_idempotent_monotone_and_in_range_over_formats(self, fmt, values):
        v = np.sort(np.array(values))
        with np.errstate(over="ignore"):  # the largest floats scale to inf, then saturate
            q = quantize(v, fmt)
        assert np.array_equal(quantize(q, fmt), q)
        assert np.all(np.diff(q) >= 0)
        assert np.all((q >= fmt.min_value) & (q <= fmt.max_value))

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
        model = MemoryPolyModel(shape, np.array([[0.25], [0.375]]), np.zeros((0, 0)))
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
        model = MemoryPolyModel.from_coefficients(shape, theta)
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
        model = MemoryPolyModel.from_coefficients(shape, theta)
        low = IqSignal(0.3 * frame.samples / np.abs(frame.samples).max(), frame.sample_rate_hz)
        stats = FixedPointStats()
        poly_forward_fixed(model, low, Q15, stats)
        assert stats.underflow_pct("p11") > 50.0
        assert stats.underflow_pct("p1") == 0.0
        assert stats.underflow_pct() >= stats.underflow_pct("p11")

    def test_dc_term_survives_zero_model(self):
        shape = PolyShape(1, 1, include_dc=True)
        model = MemoryPolyModel(shape, np.zeros((1, 1)), np.zeros((0, 0)), dc=0.25 + 0.125j)
        x = IqSignal(np.zeros(16, dtype=np.complex128), 1.0)
        out = poly_forward_fixed(model, x, Q15)
        assert np.all(out.samples == 0.25 + 0.125j)

    def test_bitwise_deterministic(self, frame):
        rng = np.random.default_rng(11)
        shape = PolyShape(9, 3)
        n = shape.n_basis_columns
        theta = 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        model = MemoryPolyModel.from_coefficients(shape, theta)
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
