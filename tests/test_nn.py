"""Tests for the dense-network forward/backward math and complexity counts."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpdkit import IqSignal
from dpdkit.complexity import nn_count_mults, nn_count_params
from dpdkit.errors import ConfigurationError, FormatError
from dpdkit.nn import (
    DenseNet,
    glorot_net,
    load_net,
    nn_backward,
    nn_backward_through_frozen,
    nn_forward,
    save_net,
)

RATE = 61.44e6


def random_signal(n, seed, scale=0.4):
    rng = np.random.default_rng(seed)
    return IqSignal(scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)), RATE)


def random_net(k, n, seed):
    net = glorot_net(k, n, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    net.biases = [0.1 * rng.standard_normal(b.shape) for b in net.biases]
    return net


def fd_gradients(loss_fn, net, eps=1e-5):
    """Central finite differences over every trainable entry."""
    gw, gb = [], []
    for w in net.weights:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + eps
            up = loss_fn(net)
            w[idx] = orig - eps
            down = loss_fn(net)
            w[idx] = orig
            g[idx] = (up - down) / (2 * eps)
        gw.append(g)
    for b in net.biases:
        g = np.zeros_like(b)
        for i in range(b.shape[0]):
            orig = b[i]
            b[i] = orig + eps
            up = loss_fn(net)
            b[i] = orig - eps
            down = loss_fn(net)
            b[i] = orig
            g[i] = (up - down) / (2 * eps)
        gb.append(g)
    return gw, gb


def assert_gradients_close(analytic_w, analytic_b, fd_w, fd_b, rel=1e-5):
    for a, f in zip(analytic_w + analytic_b, fd_w + fd_b):
        denom = np.maximum(np.abs(f), 1e-8)
        assert np.max(np.abs(a - f) / denom) < rel


class TestForward:
    def test_zeroed_net_is_identity(self):
        net = DenseNet.zeros(2, 5)
        sig = random_signal(128, seed=0)
        out = nn_forward(net, sig)
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_single_relu_transfer(self):
        net = DenseNet.zeros(1, 1)
        net.weights[0] = np.array([[1.0, 0.0]])
        net.weights[1] = np.array([[1.0], [0.0]])
        sig = random_signal(64, seed=1)
        out = nn_forward(net, sig)
        # the identity bypass adds the input to the one-ReLU output
        re = sig.samples.real
        np.testing.assert_allclose(out.samples.real, np.maximum(re, 0.0) + re)
        np.testing.assert_array_equal(out.samples.imag, sig.samples.imag)

    def test_matches_per_neuron_oracle(self):
        net = random_net(2, 4, seed=7)
        sig = random_signal(32, seed=8)
        out = nn_forward(net, sig)

        result = np.zeros(32, dtype=complex)
        for idx, s in enumerate(sig.samples):
            h = [s.real, s.imag]
            for w, b in zip(net.weights[:-1], net.biases[:-1]):
                nxt = []
                for row in range(w.shape[0]):
                    acc = b[row]
                    for col in range(w.shape[1]):
                        acc += w[row, col] * h[col]
                    nxt.append(max(acc, 0.0))
                h = nxt
            z = []
            for row in range(2):
                acc = net.biases[-1][row]
                for col in range(len(h)):
                    acc += net.weights[-1][row, col] * h[col]
                acc += [s.real, s.imag][row]  # identity bypass
                z.append(acc)
            result[idx] = z[0] + 1j * z[1]
        np.testing.assert_allclose(out.samples, result, atol=1e-12)

    def test_relu_positive_homogeneity(self):
        net = random_net(1, 6, seed=11)
        sig = random_signal(100, seed=12)
        base = nn_forward(net, sig)
        t = 3.7
        scaled = net.copy()
        scaled.weights[0] = t * scaled.weights[0]
        scaled.biases[0] = t * scaled.biases[0]
        scaled.weights[1] = scaled.weights[1] / t
        out = nn_forward(scaled, sig)
        np.testing.assert_allclose(out.samples, base.samples, atol=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            DenseNet(hidden_layers=1, width=2, weights=[np.zeros((2, 3)), np.zeros((2, 2))],
                     biases=[np.zeros(2), np.zeros(2)])


class TestBackward:
    def test_zero_error_gives_zero_gradients(self):
        net = random_net(2, 4, seed=20)
        sig = random_signal(50, seed=21)
        target = nn_forward(net, sig)
        grads = nn_backward(net, sig, target)
        assert grads.loss == 0.0
        for g in grads.weights + grads.biases:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_linear_case_output_bias_gradient_closed_form(self):
        # zeroed net, identity bypass: z = x, err = x - 2x = -x
        net = DenseNet.zeros(1, 3)
        sig = random_signal(40, seed=22)
        target = IqSignal(2.0 * sig.samples, RATE)
        grads = nn_backward(net, sig, target)
        expect = -np.stack([sig.samples.real, sig.samples.imag]).mean(axis=1)
        np.testing.assert_allclose(grads.biases[-1], expect, rtol=1e-12)
        for g in grads.weights:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_matches_finite_differences(self):
        for seed, (k, n) in zip([30, 31, 32], [(1, 3), (2, 5), (3, 4)]):
            net = random_net(k, n, seed=seed)
            sig = random_signal(48, seed=seed + 50)
            target = random_signal(48, seed=seed + 100)
            grads = nn_backward(net, sig, target)

            def loss_fn(candidate):
                z = nn_forward(candidate, sig).samples
                err = z - target.samples
                return float((np.sum(err.real**2) + np.sum(err.imag**2)) / (2 * len(sig)))

            fd_w, fd_b = fd_gradients(loss_fn, net)
            assert_gradients_close(grads.weights, grads.biases, fd_w, fd_b)

    def test_length_mismatch_rejected(self):
        net = DenseNet.zeros(1, 2)
        with pytest.raises(ConfigurationError):
            nn_backward(net, random_signal(10, 1), random_signal(11, 2))


class TestFrozenComposition:
    def test_identity_pa_reduces_to_plain_backward(self):
        dpd = random_net(2, 4, seed=40)
        pa = DenseNet.zeros(1, 4)
        sig = random_signal(64, seed=41)
        combo = nn_backward_through_frozen(dpd, pa, sig)
        plain = nn_backward(dpd, sig, sig)
        assert combo.loss == pytest.approx(plain.loss, rel=1e-12)
        for a, b in zip(combo.weights + combo.biases, plain.weights + plain.biases):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_perfect_inverse_pair_has_zero_gradients(self):
        dpd = DenseNet.zeros(1, 4)
        pa = DenseNet.zeros(1, 4)
        sig = random_signal(64, seed=42)
        combo = nn_backward_through_frozen(dpd, pa, sig)
        assert combo.loss < 1e-30
        for g in combo.weights + combo.biases:
            assert np.max(np.abs(g)) < 1e-15

    def test_matches_finite_differences_through_composition(self):
        dpd = random_net(2, 4, seed=43)
        pa = random_net(1, 5, seed=44)
        sig = random_signal(48, seed=45)
        grads = nn_backward_through_frozen(dpd, pa, sig)

        def loss_fn(candidate):
            u = nn_forward(candidate, sig)
            z = nn_forward(pa, u).samples
            err = z - sig.samples
            return float((np.sum(err.real**2) + np.sum(err.imag**2)) / (2 * len(sig)))

        fd_w, fd_b = fd_gradients(loss_fn, dpd)
        assert_gradients_close(grads.weights, grads.biases, fd_w, fd_b)

    def test_pa_model_left_untouched(self):
        dpd = random_net(1, 4, seed=46)
        pa = random_net(1, 4, seed=47)
        before_w = [w.copy() for w in pa.weights]
        before_b = [b.copy() for b in pa.biases]
        nn_backward_through_frozen(dpd, pa, random_signal(32, 48))
        for a, b in zip(pa.weights, before_w):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(pa.biases, before_b):
            np.testing.assert_array_equal(a, b)


class TestComplexityCounts:
    def test_multiplication_counts(self):
        assert nn_count_mults(1, 6) == 24
        assert nn_count_mults(1, 14) == 56
        assert nn_count_mults(2, 8) == 96

    def test_parameter_counts(self):
        assert nn_count_params(1, 6) == 32
        assert nn_count_params(1, 14) == 72
        assert nn_count_params(1, 1) == 7

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            nn_count_mults(0, 4)
        with pytest.raises(ConfigurationError):
            nn_count_params(1, 0)


class TestNetIo:
    def test_round_trip_bitwise(self, tmp_path):
        net = random_net(2, 3, seed=60)
        path = tmp_path / "net.txt"
        save_net(net, path)
        back = load_net(path)
        # the identity bypass is still written as the four layer-0 rows
        assert path.read_text().splitlines()[1:5] == ["0,0,0,1.0", "0,0,1,0.0", "0,1,0,0.0", "0,1,1,1.0"]
        assert back.hidden_layers == 2 and back.width == 3
        for a, b in zip(back.weights, net.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(back.biases, net.biases):
            np.testing.assert_array_equal(a, b)

    @given(k=st.integers(1, 3), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_bitwise_over_shapes(self, k, n, seed):
        net = random_net(k, n, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.txt"
            save_net(net, path)
            back = load_net(path)
        assert (back.hidden_layers, back.width) == (k, n)
        for a, b in zip(back.weights + back.biases, net.weights + net.biases):
            np.testing.assert_array_equal(a, b)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        bad_rows = [
            "1,0,zero,0.5",
            "0,1,5.0",  # a bias row for the bypass
            "-1,0,0,1.0",
            "1,-1,0,9.0",
            "1,0,-1,9.0",
            "1,-1,9.0",
            "3,0,0,1.0",  # the K=1 net has layers 0..2
            "0,0,0,0.5",  # the bypass is the identity
            "0,0,1,1.0",
        ]
        for row in bad_rows:
            path.write_text(f"1,2\n0,0,0,1.0\n{row}\n")
            with pytest.raises(FormatError, match=":3:"):
                load_net(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(FormatError):
            load_net(path)
