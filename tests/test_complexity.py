"""Complexity accounting: closed-form counts vs instrumented execution."""

import numpy as np
import pytest

from dpdkit.complexity import ComplexityReport, nn_count, poly_count
from dpdkit.errors import ConfigurationError
from dpdkit.mempoly import MemoryPolyModel, PolyShape, poly_predistort
from dpdkit.nn import DenseNet, glorot_net, nn_forward
from dpdkit.signals import IqSignal
from multiply_counter import count_nn_multiplies, count_poly_multiplies

FS = 61.44e6

# Multiplies per sample for the single-tap and two-tap families, P = 1..13.
ONE_TAP_MULTS = {1: 3, 3: 10, 5: 18, 7: 27, 9: 37, 11: 48, 13: 60}
TWO_TAP_MULTS = {1: 6, 3: 16, 5: 27, 7: 39, 9: 52, 11: 66, 13: 81}
# nn_K2_N* multiplies for N = 1..8.
K2_MULTS = [5, 12, 21, 32, 45, 60, 77, 96]


def random_model(shape: PolyShape, seed: int) -> MemoryPolyModel:
    rng = np.random.default_rng(seed)
    n = shape.n_basis_columns
    theta = 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return MemoryPolyModel(shape, theta)


def short_frame(seed: int, n: int = 64) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestPolyCount:
    def test_one_tap_series(self):
        for p, want in ONE_TAP_MULTS.items():
            assert poly_count(PolyShape(p, 1)).n_mults == want

    def test_two_tap_series(self):
        for p, want in TWO_TAP_MULTS.items():
            assert poly_count(PolyShape(p, 2)).n_mults == want

    def test_param_counts(self):
        assert poly_count(PolyShape(7, 1)).n_params_real == 8
        assert poly_count(PolyShape(11, 2)).n_params_real == 24

    def test_dc_excluded_from_params(self):
        plain = PolyShape(7, 2)
        with_dc = PolyShape(7, 2, include_dc=True)
        assert poly_count(with_dc).n_params_real == poly_count(plain).n_params_real
        assert poly_count(with_dc).n_mults == poly_count(plain).n_mults

    def test_conjugate_branch_adds_its_own_chain(self):
        # the conjugate branch pays for coefficients AND its envelope powers
        base = poly_count(PolyShape(7, 2)).n_mults
        both = poly_count(PolyShape(7, 2, 5, 1)).n_mults
        # q in {3, 5}: chains (3+5)/2 + (5+5)/2 = 9, coefficients 3 * 3 taps... q
        # has 3 orders x 1 tap = 3 coeffs -> 9 mults, plus chains 4 + 5 = 9
        assert both == base + 9 + 9

    def test_descriptor_carried_through(self):
        rep = poly_count(PolyShape(7, 1))
        assert rep.model_descriptor == "poly P=7 M=1"
        rep = nn_count(2, 8)
        assert rep.model_descriptor == "nn_K2_N8"

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ComplexityReport(n_params_real=-1, n_mults=3, model_descriptor="x")
        with pytest.raises(ConfigurationError):
            ComplexityReport(n_params_real=1, n_mults=-3, model_descriptor="x")


class TestNnCount:
    def test_k1_is_four_per_neuron(self):
        for n in range(1, 9):
            assert nn_count(1, n).n_mults == 4 * n

    def test_k2_series(self):
        for n, want in zip(range(1, 9), K2_MULTS):
            assert nn_count(2, n).n_mults == want

    def test_param_examples(self):
        assert nn_count(1, 6).n_params_real == 32
        assert nn_count(1, 14).n_params_real == 72


class TestInstrumentedPoly:
    def test_counts_match_formula_over_grid(self):
        x = short_frame(11, n=16)
        for p in range(1, 15, 2):
            for taps in range(1, 5):
                shape = PolyShape(p, taps)
                model = random_model(shape, seed=p * 10 + taps)
                _, per_sample = count_poly_multiplies(model, x)
                assert per_sample == poly_count(shape).n_mults

    def test_counts_match_formula_with_conjugate_and_dc(self):
        x = short_frame(12, n=16)
        for shape in [
            PolyShape(7, 2, 7, 2),
            PolyShape(11, 2, 3, 1, include_dc=True),
            PolyShape(13, 4, 5, 3),
            PolyShape(1, 1, 1, 1),
        ]:
            model = random_model(shape, seed=shape.p_max)
            _, per_sample = count_poly_multiplies(model, x)
            assert per_sample == poly_count(shape).n_mults

    def test_output_matches_vectorized_predistort(self):
        x = short_frame(13)
        for shape in [PolyShape(7, 1), PolyShape(11, 2), PolyShape(9, 3, 5, 2, include_dc=True)]:
            model = random_model(shape, seed=shape.p_max + 100)
            out, _ = count_poly_multiplies(model, x)
            ref = poly_predistort(model, IqSignal(x, FS)).samples
            assert np.abs(out - ref).max() < 1e-10

    def test_empty_input_rejected(self):
        model = MemoryPolyModel.identity(PolyShape(3, 1))
        with pytest.raises(ConfigurationError):
            count_poly_multiplies(model, np.array([], dtype=np.complex128))


class TestInstrumentedNn:
    def test_counts_match_formula_over_grid(self):
        x = short_frame(21, n=8)
        for k in range(1, 4):
            for n in range(1, 17):
                net = glorot_net(k, n, seed=[k, n])
                _, per_sample = count_nn_multiplies(net, x)
                assert per_sample == nn_count(k, n).n_mults

    def test_output_matches_vectorized_forward(self):
        x = short_frame(22)
        for k, n in [(1, 14), (2, 8), (3, 5)]:
            net = glorot_net(k, n, seed=[5, k, n])
            out, _ = count_nn_multiplies(net, x)
            ref = nn_forward(net, IqSignal(x, FS)).samples
            assert np.abs(out - ref).max() < 1e-10

    def test_zero_net_costs_the_same_and_is_identity(self):
        # multiplies are structural, not value-dependent
        x = short_frame(23, n=8)
        net = DenseNet.zeros(2, 6)
        out, per_sample = count_nn_multiplies(net, x)
        assert per_sample == nn_count(2, 6).n_mults
        assert np.array_equal(out, x)
