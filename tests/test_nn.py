"""Tests for the dense-network forward/backward math and complexity counts."""

import dataclasses
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpdkit import IqSignal, OfdmConfig, generate_ofdm
from dpdkit.complexity import nn_count
from dpdkit.errors import ConfigurationError, FormatError
from dpdkit.nn import (
    FORWARD_BLOCK,
    DenseNet,
    NnWorkspace,
    glorot_net,
    load_net,
    nn_backward,
    nn_backward_through_frozen,
    nn_forward,
    save_net,
)
from row_edits import check_row_edits

RATE = 61.44e6


def random_signal(n, seed, scale=0.4):
    rng = np.random.default_rng(seed)
    return IqSignal(scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)), RATE)


def random_net(k, n, seed):
    net = glorot_net(k, n, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for b in net.biases:
        b[:] = 0.1 * rng.standard_normal(b.shape)
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


def _reference_split(x):
    return np.stack([x.real, x.imag], axis=0)


def _reference_forward_cached(net, x2):
    """The allocating forward the buffered kernel must reproduce bit for bit."""
    pres = []
    h = x2
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        pre = w @ h + b[:, None]
        pres.append(pre)
        h = np.maximum(pre, 0.0)
    z = net.weights[-1] @ h + net.biases[-1][:, None] + x2
    return z, pres


def _reference_backward_from_output(net, x2, pres, dz):
    """The allocating backward: every trainable's gradient and the input gradient."""
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
    return grad_w, grad_b, upstream + dz


def reference_forward(net, x):
    z, _ = _reference_forward_cached(net, _reference_split(x.samples))
    return z[0] + 1j * z[1]


def reference_backward(net, x, target):
    x2 = _reference_split(x.samples)
    z, pres = _reference_forward_cached(net, x2)
    err = z - _reference_split(target.samples)
    gw, gb, _ = _reference_backward_from_output(net, x2, pres, err / err.shape[1])
    return float(np.mean(err**2)), gw, gb


def reference_backward_through_frozen(dpd, pa_model, x):
    x2 = _reference_split(x.samples)
    u, dpd_pres = _reference_forward_cached(dpd, x2)
    z, pa_pres = _reference_forward_cached(pa_model, u)
    err = z - x2
    _, _, du = _reference_backward_from_output(pa_model, u, pa_pres, err / err.shape[1])
    gw, gb, _ = _reference_backward_from_output(dpd, x2, dpd_pres, du)
    return float(np.mean(err**2)), gw, gb


def assert_same_bytes(actual, expected):
    for a, e in zip(actual, expected, strict=True):
        assert a.shape == e.shape and a.tobytes() == e.tobytes()


class TestForward:
    def test_zeroed_net_is_identity(self):
        net = DenseNet.zeros(2, 5)
        sig = random_signal(128, seed=0)
        out = nn_forward(net, sig)
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_single_relu_transfer(self):
        net = DenseNet.zeros(1, 1)
        net.weights[0][...] = [[1.0, 0.0]]
        net.weights[1][...] = [[1.0], [0.0]]
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
        scaled = DenseNet(net.hidden_layers, net.width, net.weights, net.biases)  # copies
        scaled.weights[0][...] = t * scaled.weights[0]
        scaled.biases[0][...] = t * scaled.biases[0]
        scaled.weights[1][...] = scaled.weights[1] / t
        out = nn_forward(scaled, sig)
        np.testing.assert_allclose(out.samples, base.samples, atol=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            DenseNet(hidden_layers=1, width=2, weights=[np.zeros((2, 3)), np.zeros((2, 2))],
                     biases=[np.zeros(2), np.zeros(2)])

    def test_impossible_sizes_rejected_before_allocating(self):
        # a negative width would reach np.zeros and fail there without naming K or N
        for build in (DenseNet.zeros, glorot_net):
            for k, n in ((1, -2), (1, -3), (-1, 4), (0, 4), (2, 0)):
                with pytest.raises(ConfigurationError,
                                   match="^(hidden_layers|width) must be >= 1, got -?[0-9]+$"):
                    build(k, n)


class TestBackward:
    def test_zero_error_gives_zero_gradients(self):
        net = random_net(2, 4, seed=20)
        sig = random_signal(50, seed=21)
        target = nn_forward(net, sig)
        loss, grads = nn_backward(net, sig, target)
        assert loss == 0.0
        for g in grads.weights + grads.biases:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_linear_case_output_bias_gradient_closed_form(self):
        # zeroed net, identity bypass: z = x, err = x - 2x = -x
        net = DenseNet.zeros(1, 3)
        sig = random_signal(40, seed=22)
        target = IqSignal(2.0 * sig.samples, RATE)
        _, grads = nn_backward(net, sig, target)
        expect = -np.stack([sig.samples.real, sig.samples.imag]).mean(axis=1)
        np.testing.assert_allclose(grads.biases[-1], expect, rtol=1e-12)
        for g in grads.weights:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_matches_finite_differences(self):
        for seed, (k, n) in zip([30, 31, 32], [(1, 3), (2, 5), (3, 4)]):
            net = random_net(k, n, seed=seed)
            sig = random_signal(48, seed=seed + 50)
            target = random_signal(48, seed=seed + 100)
            _, grads = nn_backward(net, sig, target)

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
        combo_loss, combo = nn_backward_through_frozen(dpd, pa, sig)
        plain_loss, plain = nn_backward(dpd, sig, sig)
        assert combo_loss == pytest.approx(plain_loss, rel=1e-12)
        for a, b in zip(combo.weights + combo.biases, plain.weights + plain.biases):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_perfect_inverse_pair_has_zero_gradients(self):
        dpd = DenseNet.zeros(1, 4)
        pa = DenseNet.zeros(1, 4)
        sig = random_signal(64, seed=42)
        loss, combo = nn_backward_through_frozen(dpd, pa, sig)
        assert loss < 1e-30
        for g in combo.weights + combo.biases:
            assert np.max(np.abs(g)) < 1e-15

    def test_matches_finite_differences_through_composition(self):
        dpd = random_net(2, 4, seed=43)
        pa = random_net(1, 5, seed=44)
        sig = random_signal(48, seed=45)
        _, grads = nn_backward_through_frozen(dpd, pa, sig)

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


class TestKernelOracle:
    """The buffered kernels reproduce the allocating formulas above byte for byte."""

    SHAPES = [(1, 6), (1, 14), (2, 24), (2, 32)]
    WIDTHS = [1024, 960, 1, 1024]

    @pytest.fixture(scope="class")
    def frame(self):
        return generate_ofdm(OfdmConfig(n_symbols=10, seed=1))[1]

    def test_full_frame_forward_matches_reference(self, frame):
        # 40,960 samples span five forward blocks; the odd length ends on a partial one
        odd = IqSignal(frame.samples[:12345], RATE)
        workspace = NnWorkspace()  # its forward slot serves every net and length in turn
        for k, n in self.SHAPES + [(3, 10)]:  # three layers take turns in two buffers
            net = random_net(k, n, seed=60 + n)
            for sig in (frame, odd):
                for ws in (None, workspace):
                    got = nn_forward(net, sig, workspace=ws)
                    assert_same_bytes([got.samples], [reference_forward(net, sig)])
                    # the output is the caller's, not a buffer the next call overwrites
                    before = got.samples.copy()
                    nn_forward(net, IqSignal(sig.samples[::-1], RATE), workspace=ws)
                    assert_same_bytes([got.samples], [before])

    @pytest.mark.parametrize("n", [8193, 8194, 8199, 16385])
    def test_forward_matches_reference_one_block_at_a_time(self, frame, n):
        # at these lengths a short last block rounds some sample differently
        # from one whole-frame matmul; the blockwise reference is the contract
        sig = IqSignal(frame.samples[:n], RATE)
        workspace = NnWorkspace()
        for k, width in self.SHAPES:
            net = random_net(k, width, seed=60 + width)
            blocks = [reference_forward(net, IqSignal(sig.samples[s : s + FORWARD_BLOCK], RATE))
                      for s in range(0, n, FORWARD_BLOCK)]
            for ws in (None, workspace):
                assert_same_bytes([nn_forward(net, sig, workspace=ws).samples],
                                  [np.concatenate(blocks)])

    def test_one_workspace_matches_reference_across_shapes_and_widths(self, frame):
        workspace = NnWorkspace()
        # a three-layer net writes an upstream gradient over a middle layer's activations
        pa_models = [random_net(2, 24, seed=70), random_net(3, 10, seed=69)]
        for k, n in self.SHAPES + [(3, 10)]:
            net = random_net(k, n, seed=71 + n)
            for offset, width in enumerate(self.WIDTHS):
                x = IqSignal(frame.samples[offset : offset + width], RATE)
                target = IqSignal(0.9 * frame.samples[offset + 3 : offset + 3 + width], RATE)
                # compare each call before the next: its gradients alias the workspace
                for call, reference in [
                    (partial(nn_backward, net, x, target, workspace=workspace),
                     partial(reference_backward, net, x, target)),
                    *((partial(nn_backward_through_frozen, net, pa, x, workspace=workspace),
                       partial(reference_backward_through_frozen, net, pa, x))
                      for pa in pa_models),
                ]:
                    (got_loss, got), (loss, gw, gb) = call(), reference()
                    assert got_loss == loss
                    assert_same_bytes(got.weights + got.biases, gw + gb)

    @staticmethod
    def calls_in_turn(dpd, pa_model, frame, batch, offset):
        """A training phase's calls in turn: backward, the validation forwards, and backward
        through the frozen model."""
        x = IqSignal(frame.samples[offset : offset + batch], RATE)
        target = IqSignal(0.9 * frame.samples[offset + 5 : offset + 5 + batch], RATE)
        val = IqSignal(frame.samples[offset : offset + FORWARD_BLOCK], RATE)
        return [
            lambda ws: nn_backward(pa_model, x, target, workspace=ws),
            lambda ws: nn_forward(dpd, val, workspace=ws),
            lambda ws: nn_forward(pa_model, nn_forward(dpd, val, workspace=ws), workspace=ws),
            lambda ws: nn_backward_through_frozen(dpd, pa_model, x, workspace=ws),
        ]

    @staticmethod
    def result_bytes(result):
        if isinstance(result, IqSignal):
            return [result.samples.copy()]
        loss, grads = result
        return [np.array(loss)] + [t.copy() for t in grads.weights + grads.biases]

    @pytest.mark.parametrize("batch", [1024, FORWARD_BLOCK])
    def test_one_workspace_in_turn_matches_fresh_workspaces(self, frame, batch):
        # at FORWARD_BLOCK the training batch is as wide as the forwards' blocks
        dpd, pa_model = random_net(1, 14, seed=95), random_net(2, 24, seed=96)
        workspace = NnWorkspace()
        for offset in (0, 3):  # the second round reuses every buffer the first made
            for call in self.calls_in_turn(dpd, pa_model, frame, batch, offset):
                assert_same_bytes(self.result_bytes(call(workspace)),
                                  self.result_bytes(call(NnWorkspace())))

    def test_live_passes_share_no_buffer(self, frame):
        dpd, pa_model = random_net(1, 14, seed=97), random_net(2, 24, seed=98)
        ws = NnWorkspace()
        for i, call in enumerate(self.calls_in_turn(dpd, pa_model, frame, FORWARD_BLOCK, 0)):
            call(ws)
            # the forwards run through the slot: the set is the latest backward call's
            assert ws.mask.shape[0] == max(p.acts[0].shape[0] for p in ws.passes)
            # each net's forward outputs stay live while the other net runs and while
            # the shared mask and the gradients are written; the forward slot is a
            # set of its own, as wide as the widest net it has served
            buffers = [ws.x2, ws.t2, ws.sq, ws.dx, ws.mask, ws.grads.flat,
                       *(buf for p in ws.passes for buf in [*p.acts, p.z])]
            if i > 0:  # one K1N14 forward, then the K2N24 model's too
                assert [a.shape[0] for a in ws.forward.acts] == ([14] if i == 1 else [24, 24])
                buffers += [ws.fx2, *ws.forward.acts, ws.forward.z]
            for i, mine in enumerate(buffers):
                assert not any(np.shares_memory(mine, other) for other in buffers[i + 1 :])

    def test_a_call_keeps_only_the_listed_buffers(self, frame):
        # what one call on a fresh workspace leaves allocated is the docstring's buffer
        # set and a few Python objects: the backward makes no scratch of its own
        dpd, pa_model = random_net(2, 32, seed=99), random_net(2, 24, seed=100)
        x = IqSignal(frame.samples[:FORWARD_BLOCK], RATE)
        target = IqSignal(0.9 * frame.samples[5 : 5 + FORWARD_BLOCK], RATE)
        for call in (partial(nn_backward_through_frozen, dpd, pa_model, x),
                     partial(nn_backward, pa_model, x, target)):
            ws = NnWorkspace()
            tracemalloc.start()
            try:
                call(workspace=ws)
                retained, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            listed = [ws.x2, ws.t2, ws.sq, ws.dx, ws.mask, ws.grads.flat,
                      *(buf for p in ws.passes for buf in [*p.acts, p.z])]
            assert abs(retained - sum(buf.nbytes for buf in listed)) < 16 * 1024

    def test_nan_reaches_every_gradient_like_the_reference(self):
        # a NaN sample reaches closed ReLUs through their mask: multiplying by
        # the 0/1 mask keeps it, where selecting with np.where would zero it
        net = random_net(2, 5, seed=80)
        x = random_signal(64, seed=81)
        x.samples[17] = np.nan
        _, got = nn_backward(net, x, random_signal(64, seed=82), workspace=NnWorkspace())
        _, gw, gb = reference_backward(net, x, random_signal(64, seed=82))
        for a, e in zip(got.weights + got.biases, gw + gb):
            assert np.isnan(a).all()
            np.testing.assert_array_equal(a, e)

    def test_gradients_are_views_of_one_flat_vector(self):
        net = random_net(2, 4, seed=83)
        _, grads = nn_backward(net, random_signal(16, 84), random_signal(16, 85))
        offset = 0
        for g in grads.weights + grads.biases:
            np.testing.assert_array_equal(g.ravel(), grads.flat[offset : offset + g.size])
            assert np.shares_memory(g, grads.flat)
            offset += g.size
        assert offset == grads.flat.size == nn_count(2, 4).n_params_real

    def test_flat_params_packs_once_and_repacks_after_replacement(self):
        # a net's tensors are views of its flat vector from construction on,
        # and they can be written in place but never rebound
        inputs = random_net(1, 3, seed=86)
        values = [t.copy() for t in inputs.weights + inputs.biases]
        net = DenseNet(1, 3, inputs.weights, inputs.biases)
        inputs.flat[:] = 0.0
        assert_same_bytes(net.weights + net.biases, values)
        assert net.flat.tobytes() == np.concatenate([t.ravel() for t in values]).tobytes()
        flat = net.flat
        flat += 1.0
        np.testing.assert_array_equal(net.biases[0], values[2] + 1.0)
        net.biases[0][:] = 0.0
        np.testing.assert_array_equal(flat[-5:-2], np.zeros(3))
        for tensors in (net.weights, net.biases):
            with pytest.raises(TypeError):
                tensors[0] = np.zeros(tensors[0].shape)
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.weights = [w.copy() for w in net.weights]
        assert net.flat is flat
        assert all(np.shares_memory(t, flat) for t in net.weights + net.biases)


class TestComplexityCounts:
    def test_multiplication_counts(self):
        assert nn_count(1, 6).n_mults == 24
        assert nn_count(1, 14).n_mults == 56
        assert nn_count(2, 8).n_mults == 96

    def test_parameter_counts(self):
        assert nn_count(1, 6).n_params_real == 32
        assert nn_count(1, 14).n_params_real == 72
        assert nn_count(1, 1).n_params_real == 7

    def test_invalid_sizes_rejected(self):
        for k, n in ((0, 3), (0, 4), (1, 0)):
            with pytest.raises(ConfigurationError):
                nn_count(k, n)


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

    @given(k=st.integers(1, 3), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_every_row_exactly_once(self, k, n, seed, data):
        check_row_edits(data, random_net(k, n, seed), save_net, load_net, n_header=1, n_values=1)

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
            "1,0,1,nan",  # a coefficient must be finite
            "1,1,inf",
            "1,0,0,-1e400",
        ]
        for row in bad_rows:
            path.write_text(f"1,2\n0,0,0,1.0\n{row}\n")
            with pytest.raises(FormatError, match=":3:"):
                load_net(path)
        # lines are numbered as they stand in the file, blank ones included
        path.write_text("1,2\n\n0,0,0,1.0\n\n1,0,0,0.5\n1,1,1,0.5\n\n1,0,x,0.5\n")
        with pytest.raises(FormatError, match=r"bad\.txt:8: bad row '1,0,x,0\.5'"):
            load_net(path)
        # a header naming an impossible net is a format error at line 1
        for header in ("1,-2", "0,4", "1"):
            path.write_text(f"{header}\n0,0,0,1.0\n")
            with pytest.raises(FormatError, match=":1:"):
                load_net(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(FormatError):
            load_net(path)
