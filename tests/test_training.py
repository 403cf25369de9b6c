"""Tests for the two-phase training loop and the Adam optimizer."""

import sys
import threading
import weakref

import numpy as np
import pytest

from dpdkit import (
    IqSignal,
    MemoryPolyModel,
    OfdmConfig,
    PolyShape,
    SimulatedPa,
    TrainConfig,
    TrainLog,
    TrainRecord,
    aclr_db_gated,
    demodulate_ofdm,
    estimate_gain,
    evm_percent,
    generate_ofdm,
    glorot_net,
    load_default_pa,
    nn_forward,
    run_full_training,
)
from dpdkit.errors import ConfigurationError, DivergenceError, InputRangeError
from dpdkit import training
from dpdkit.nn import DenseNet
from dpdkit.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    adam_step,
    train_dpd_nn,
    train_pa_nn,
)

WAVEFORM = OfdmConfig(n_subcarriers=600, n_symbols=10, constellation="qam16", seed=1)
VAL_WAVEFORM = OfdmConfig(n_subcarriers=600, n_symbols=10, constellation="qam16", seed=2)
FRAMES = (WAVEFORM, VAL_WAVEFORM)  # run_full_training's (training, held-out) frames
# the headline predistorter, nn K=1 N=14, trained through the default amplifier model
HEADLINE_SHAPES = ((1, 14), training.DEFAULT_PA_MODEL_SHAPE)


@pytest.fixture(scope="module")
def frame():
    _, x = generate_ofdm(WAVEFORM)
    return x


@pytest.fixture(scope="module")
def pa_pairs(frame):
    """(x, y/g) pairs from the default amplifier on the reference frame."""
    pa = load_default_pa()
    y = pa.apply(frame)
    g = estimate_gain(frame, y)
    return frame, IqSignal(y.samples / g, y.sample_rate_hz)


@pytest.fixture(scope="module")
def learned_pa_model(pa_pairs):
    """Amplifier model fitted for 20 epochs at the default configuration."""
    cfg = TrainConfig(seed=0)
    net = glorot_net(2, 24, seed=[cfg.seed, 0])
    net, _ = train_pa_nn(pa_pairs, net, cfg, val_pairs=pa_pairs, epochs=20, iteration=1,
                         log=TrainLog())
    return net


def linear_pa(noise=0.0):
    gain = 0.97 + 0.26j
    core = MemoryPolyModel.identity(PolyShape(1, 1))
    core.theta[0] = gain
    return SimulatedPa(
        core=core,
        saturation_output_limit=2.0,
        noise_stddev=noise,
        seed=0,
    )


class TestTrainConfig:
    def test_epoch_list_must_match_iterations(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(outer_iterations=3, epochs_per_iteration=(20, 5))

    def test_nonpositive_learning_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.0)

    def test_epochs_coerced_to_tuple(self):
        cfg = TrainConfig(outer_iterations=2, epochs_per_iteration=[4, 2])
        assert cfg.epochs_per_iteration == (4, 2)

    @pytest.mark.parametrize("epochs", ["20,5", "25", b"20", 5, None])
    def test_epochs_that_are_not_a_list_are_rejected_whole(self, epochs):
        # tuple() would read "20,5" one character at a time and fail on "2"
        with pytest.raises(ConfigurationError, match="epochs_per_iteration") as info:
            TrainConfig(epochs_per_iteration=epochs)
        assert repr(epochs) in str(info.value)
        assert info.value.field == "epochs_per_iteration"


class TestAdamStep:
    def setup_method(self):
        self.cfg = TrainConfig()
        self.net = glorot_net(1, 3, seed=7)
        self.state = AdamState.fresh(self.net)

    @staticmethod
    def gradients(weights, biases):
        return DenseNet(len(weights) - 1, weights[0].shape[0], weights, biases)

    def zero_grads(self):
        return self.gradients([np.zeros_like(w) for w in self.net.weights],
                              [np.zeros_like(b) for b in self.net.biases])

    def test_zero_gradient_leaves_params_and_bumps_step(self):
        before_w = [w.copy() for w in self.net.weights]
        before_b = [b.copy() for b in self.net.biases]
        adam_step(self.net, self.zero_grads(), self.state, self.cfg)
        assert self.state.step == 1
        for w0, w1 in zip(before_w, self.net.weights):
            np.testing.assert_array_equal(w0, w1)
        for b0, b1 in zip(before_b, self.net.biases):
            np.testing.assert_array_equal(b0, b1)

    def test_single_step_matches_hand_formula(self):
        grads = self.zero_grads()
        rng = np.random.default_rng(3)
        for g in grads.weights + grads.biases:
            g += rng.standard_normal(g.shape)
        before_w = [w.copy() for w in self.net.weights]
        adam_step(self.net, grads, self.state, self.cfg)
        # fresh state, t=1: bias correction cancels and delta = -lr*g/(|g|+eps)
        for w0, w1, g in zip(before_w, self.net.weights, grads.weights):
            expected = w0 - self.cfg.learning_rate * g / (np.abs(g) + ADAM_EPS)
            np.testing.assert_allclose(w1, expected, rtol=1e-12)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        grads = self.zero_grads()
        for g in grads.weights:
            g += 0.37
        for _ in range(50):
            before = self.net.weights[0].copy()
            adam_step(self.net, grads, self.state, self.cfg)
        delta = np.abs(self.net.weights[0] - before)
        np.testing.assert_allclose(delta, self.cfg.learning_rate, rtol=0.01)

    def test_matches_per_tensor_reference_bitwise(self):
        # the update each tensor got before the moments and parameters went flat
        net = glorot_net(2, 5, seed=8)
        params = [t.copy() for t in net.weights + net.biases]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        state = AdamState.fresh(net)
        rng = np.random.default_rng(9)
        for t in range(1, 6):
            grads = [rng.standard_normal(p.shape) for p in params]
            adam_step(net, self.gradients(grads[:3], grads[3:]), state, self.cfg)
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= ADAM_BETA1
                mi += (1 - ADAM_BETA1) * g
                vi *= ADAM_BETA2
                vi += (1 - ADAM_BETA2) * g * g
                p -= self.cfg.learning_rate * (mi / (1.0 - ADAM_BETA1**t)) / (
                    np.sqrt(vi / (1.0 - ADAM_BETA2**t)) + ADAM_EPS
                )
            for a, b in zip(net.weights + net.biases, params):
                assert a.tobytes() == b.tobytes()
            assert state.m.tobytes() == np.concatenate([x.ravel() for x in m]).tobytes()
            assert state.v.tobytes() == np.concatenate([x.ravel() for x in v]).tobytes()

    def test_nonfinite_gradient_raises(self):
        grads = self.zero_grads()
        grads.weights[0][0, 0] = np.nan
        with pytest.raises(DivergenceError):
            adam_step(self.net, grads, self.state, self.cfg)
        assert self.state.step == 0

    def test_fifty_steps_match_the_flat_expression_bitwise(self):
        # adam_step's bits must be those of this expression, evaluated in this order
        net = glorot_net(2, 5, seed=8)
        params = net.flat.copy()
        m, v = np.zeros_like(params), np.zeros_like(params)
        state = AdamState.fresh(net)
        grads = DenseNet.zeros(2, 5)
        rng = np.random.default_rng(10)
        for t in range(1, 51):
            g = rng.standard_normal(params.size) * 10.0 ** rng.integers(-8, 4, params.size)
            grads.flat[:] = g
            adam_step(net, grads, state, self.cfg)
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            params -= self.cfg.learning_rate * (m / (1.0 - ADAM_BETA1**t)) / (
                np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS
            )
            assert net.flat.tobytes() == params.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


class TestTrainLog:
    def test_nonfinite_loss_rejected(self):
        log = TrainLog()
        with pytest.raises(DivergenceError):
            log.append(TrainRecord(1, "dpd", 1, float("inf"), 1.0))


class TestTrainPaNn:
    def test_pure_gain_target_reaches_identity(self, frame):
        # y/g == x exactly, so the net only has to silence its nonlinear path
        cfg = TrainConfig(seed=0, batch_size=256)
        net = glorot_net(1, 14, seed=[cfg.seed, 0])
        net, log = train_pa_nn((frame, frame), net, cfg, val_pairs=(frame, frame), epochs=20,
                               iteration=1, log=TrainLog())
        assert log.records[-1].train_mse < 1e-6

    def test_pure_gain_zeros_start_is_exact_fixed_point(self, frame):
        net = DenseNet.zeros(1, 8)
        net, log = train_pa_nn((frame, frame), net, TrainConfig(seed=0), val_pairs=(frame, frame),
                               epochs=3, iteration=1, log=TrainLog())
        assert log.records[-1].train_mse == 0.0
        assert all(np.all(w == 0.0) for w in net.weights)
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_default_pa_mse_drops_four_fold(self, pa_pairs):
        cfg = TrainConfig(seed=0)
        net = glorot_net(1, 14, seed=[cfg.seed, 0])
        net, log = train_pa_nn(pa_pairs, net, cfg, val_pairs=pa_pairs, epochs=20, iteration=1,
                               log=TrainLog())
        assert log.records[-1].train_mse < 0.25 * log.records[0].train_mse

    def test_same_seed_rerun_is_bitwise_identical(self, pa_pairs):
        logs = []
        for _ in range(2):
            cfg = TrainConfig(seed=3)
            net = glorot_net(1, 6, seed=[cfg.seed, 0])
            _, log = train_pa_nn(pa_pairs, net, cfg, val_pairs=pa_pairs, epochs=3, iteration=1,
                                 log=TrainLog())
            logs.append(log)
        for a, b in zip(logs[0].records, logs[1].records):
            assert a == b

    def test_partial_last_batch_reruns_bitwise(self, pa_pairs):
        # 40,960 samples in batches of 1000 end on a 960-sample batch each epoch
        assert len(pa_pairs[0]) % 1000 == 960
        runs = []
        for _ in range(2):
            cfg = TrainConfig(seed=4, batch_size=1000)
            net, log = train_pa_nn(pa_pairs, glorot_net(2, 8, seed=[cfg.seed, 0]), cfg,
                                   val_pairs=pa_pairs, epochs=2, iteration=1, log=TrainLog())
            runs.append((net, log))
        (net_a, log_a), (net_b, log_b) = runs
        assert log_a.records == log_b.records
        for a, b in zip(net_a.weights + net_a.biases, net_b.weights + net_b.biases):
            assert a.tobytes() == b.tobytes()

    def test_nan_in_a_minibatch_raises_divergence(self, pa_pairs):
        x, y = pa_pairs
        poisoned = y.samples.copy()
        poisoned[123] = np.nan
        with pytest.raises(DivergenceError):
            train_pa_nn((x, IqSignal(poisoned, y.sample_rate_hz)), glorot_net(1, 4, seed=0),
                        TrainConfig(seed=0), val_pairs=pa_pairs, epochs=1, iteration=1,
                        log=TrainLog())

    def test_pair_length_mismatch_rejected(self, frame):
        short = IqSignal(frame.samples[:-1], frame.sample_rate_hz)
        with pytest.raises(ConfigurationError):
            train_pa_nn((frame, short), glorot_net(1, 4, seed=0), TrainConfig(),
                        val_pairs=(frame, frame), epochs=1, iteration=1, log=TrainLog())


class TestTrainDpdNn:
    def test_identity_model_keeps_identity_dpd(self, frame):
        # zeroed trainables = exact identity; the loss starts at zero and the
        # gradients vanish, so training must not move anything
        dpd = DenseNet.zeros(1, 6)
        pa_model = DenseNet.zeros(1, 6)
        dpd, log = train_dpd_nn(dpd, pa_model, frame, TrainConfig(seed=0), x_val=frame, epochs=3,
                                iteration=1, log=TrainLog())
        assert log.records[-1].train_mse == 0.0
        assert all(np.all(w == 0.0) for w in dpd.weights)

    def test_composite_loss_drops_ten_fold(self, frame, learned_pa_model):
        cfg = TrainConfig(seed=0)
        dpd = glorot_net(1, 14, seed=[cfg.seed, 5])
        dpd, log = train_dpd_nn(dpd, learned_pa_model, frame, cfg, x_val=frame, epochs=20,
                                iteration=1, log=TrainLog())
        assert log.records[-1].train_mse < 0.1 * log.records[0].train_mse

    def test_nan_in_a_minibatch_raises_divergence(self, frame, learned_pa_model):
        poisoned = frame.samples.copy()
        poisoned[4321] = np.nan
        with pytest.raises(DivergenceError):
            train_dpd_nn(glorot_net(1, 6, seed=11), learned_pa_model,
                         IqSignal(poisoned, frame.sample_rate_hz), TrainConfig(seed=0),
                         x_val=frame, epochs=1, iteration=1, log=TrainLog())

    def test_frozen_model_is_bitwise_untouched(self, frame, learned_pa_model):
        before_w = [w.copy() for w in learned_pa_model.weights]
        before_b = [b.copy() for b in learned_pa_model.biases]
        dpd = glorot_net(1, 6, seed=11)
        train_dpd_nn(dpd, learned_pa_model, frame, TrainConfig(seed=0), x_val=frame, epochs=2,
                     iteration=1, log=TrainLog())
        for w0, w1 in zip(before_w, learned_pa_model.weights):
            np.testing.assert_array_equal(w0, w1)
        for b0, b1 in zip(before_b, learned_pa_model.biases):
            np.testing.assert_array_equal(b0, b1)


class TestPhaseWorkspace:
    def test_trailing_partial_minibatch_matches_fresh_buffers(self, pa_pairs, monkeypatch):
        # 2,500 samples at batch 1,024 end every epoch on a 452-sample minibatch, so the
        # phase's one workspace reallocates between widths twice per epoch
        cfg = TrainConfig(seed=0)
        x, y = (IqSignal(s.samples[:2500], s.sample_rate_hz) for s in pa_pairs)
        assert len(x) % cfg.batch_size == 452

        def phases():
            log = TrainLog()
            pa_net, _ = train_pa_nn((x, y), glorot_net(2, 24, seed=[cfg.seed, 0]), cfg,
                                    val_pairs=(x, y), epochs=2, iteration=1, log=log)
            dpd, _ = train_dpd_nn(glorot_net(1, 14, seed=[cfg.seed, 5]), pa_net, x, cfg,
                                  x_val=x, epochs=2, iteration=1, log=log)
            return pa_net.flat.tobytes(), dpd.flat.tobytes(), log.records

        shared = phases()
        for name in ("nn_backward", "nn_backward_through_frozen"):
            kernel = getattr(training, name)
            monkeypatch.setattr(training, name,
                                lambda *args, workspace, kernel=kernel: kernel(*args))
        assert phases() == shared


    def test_forward_slot_matches_per_call_buffers(self, pa_pairs, monkeypatch):
        # 15,360 samples end each held-out forward on a 7,168-sample block, and at batch
        # 1,000 each epoch on a 360-sample minibatch; the dpd is wider than the model, so
        # the slot is sized by the dpd in the dpd phase and reallocated twice per forward
        cfg = TrainConfig(seed=0, batch_size=1000)
        x, y = (IqSignal(s.samples[:15360], s.sample_rate_hz) for s in pa_pairs)

        def phases():
            log = TrainLog()
            pa_net, _ = train_pa_nn((x, y), glorot_net(2, 24, seed=[cfg.seed, 0]), cfg,
                                    val_pairs=(x, y), epochs=2, iteration=1, log=log)
            dpd, _ = train_dpd_nn(glorot_net(2, 32, seed=[cfg.seed, 5]), pa_net, x, cfg,
                                  x_val=x, epochs=2, iteration=1, log=log)
            return pa_net.flat.tobytes(), dpd.flat.tobytes(), log.records

        slot = phases()
        forward = training.nn_forward
        monkeypatch.setattr(training, "nn_forward",
                            lambda net, x, *, workspace: forward(net, x))
        assert phases() == slot


def _cut(pairs, start, stop):
    return tuple(IqSignal(s.samples[start:stop], s.sample_rate_hz) for s in pairs)


def _net_from_flat(like: DenseNet, flat: np.ndarray) -> DenseNet:
    net = DenseNet.zeros(like.hidden_layers, like.width)
    net.flat[:] = flat
    return net


class TestScoringThread:
    """Each epoch's held-out score runs on a helper thread while the next epoch trains."""

    # 2,500 training samples at batch 1,024: three steps per epoch
    STEPS_PER_EPOCH = 3

    def test_log_matches_sequential_forwards_of_each_epochs_weights(self, pa_pairs,
                                                                   monkeypatch):
        cfg = TrainConfig(seed=0)
        train = _cut(pa_pairs, 0, 2500)
        # two held-out blocks, the second one short
        x_val, y_val = _cut(pa_pairs, 2500, 12500)
        snapshots = []
        step = training.adam_step

        def recording_step(net, grads, state, cfg):
            step(net, grads, state, cfg)
            if state.step % self.STEPS_PER_EPOCH == 0:
                snapshots.append(net.flat.copy())

        monkeypatch.setattr(training, "adam_step", recording_step)
        log = TrainLog()
        interval = sys.getswitchinterval()
        # switching threads every microsecond interleaves the score with the steps at many
        # more points than the default 5 ms; a buffer the two threads shared would show
        sys.setswitchinterval(1e-6)
        try:
            pa_net, _ = train_pa_nn(train, glorot_net(2, 24, seed=[cfg.seed, 0]), cfg,
                                    val_pairs=(x_val, y_val), epochs=3, iteration=1, log=log)
            pa_snapshots = snapshots[:]
            snapshots.clear()
            dpd, _ = train_dpd_nn(glorot_net(1, 14, seed=[cfg.seed, 5]), pa_net, train[0], cfg,
                                  x_val=x_val, epochs=3, iteration=1, log=log)
        finally:
            sys.setswitchinterval(interval)

        assert pa_snapshots[-1].tobytes() == pa_net.flat.tobytes()
        assert snapshots[-1].tobytes() == dpd.flat.tobytes()
        expected = [
            training._mse(nn_forward(_net_from_flat(pa_net, flat), x_val).samples, y_val.samples)
            for flat in pa_snapshots
        ] + [
            training._mse(nn_forward(pa_net, nn_forward(_net_from_flat(dpd, flat), x_val)).samples,
                          x_val.samples)
            for flat in snapshots
        ]
        assert [(r.phase, r.epoch) for r in log.records] == (
            [("pa_model", e) for e in (1, 2, 3)] + [("dpd", e) for e in (1, 2, 3)]
        )
        assert [r.val_mse for r in log.records] == expected

    def fail_epoch_2_step(self, monkeypatch, error):
        step = training.adam_step

        def failing_step(net, grads, state, cfg):
            if state.step == self.STEPS_PER_EPOCH:
                raise error
            step(net, grads, state, cfg)

        monkeypatch.setattr(training, "adam_step", failing_step)

    def train_short_pa_phase(self, pa_pairs, log=None):
        train = _cut(pa_pairs, 0, 2500)
        return train_pa_nn(train, glorot_net(1, 6, seed=0), TrainConfig(seed=0),
                           val_pairs=_cut(pa_pairs, 2500, 5000), epochs=3, iteration=1,
                           log=log or TrainLog())

    def test_held_out_forward_error_outranks_the_next_epochs_step_error(self, pa_pairs,
                                                                         monkeypatch):
        def failing_forward(net, x, *, workspace):
            raise InputRangeError("epoch 1's held-out forward")

        monkeypatch.setattr(training, "nn_forward", failing_forward)
        self.fail_epoch_2_step(monkeypatch, DivergenceError("epoch 2's step"))
        log = TrainLog()
        with pytest.raises(InputRangeError, match="held-out forward"):
            self.train_short_pa_phase(pa_pairs, log)
        assert log.records == []

    def test_non_finite_score_outranks_the_next_epochs_step_error(self, pa_pairs, monkeypatch):
        def nan_forward(net, x, *, workspace):
            return IqSignal(np.full(len(x), np.nan + 0j), x.sample_rate_hz)

        monkeypatch.setattr(training, "nn_forward", nan_forward)
        self.fail_epoch_2_step(monkeypatch, InputRangeError("epoch 2's step"))
        with pytest.raises(DivergenceError, match="pa_model epoch 1"):
            self.train_short_pa_phase(pa_pairs)

    def test_no_thread_outlives_a_phase(self, pa_pairs, monkeypatch):
        before = threading.active_count()
        _, log = self.train_short_pa_phase(pa_pairs)
        assert len(log.records) == 3
        assert threading.active_count() == before
        self.fail_epoch_2_step(monkeypatch, DivergenceError("epoch 2's step"))
        with pytest.raises(DivergenceError, match="epoch 2's step"):
            self.train_short_pa_phase(pa_pairs)
        assert threading.active_count() == before

    def test_a_failing_score_mid_phase_is_raised_after_the_steps(self, pa_pairs, monkeypatch):
        forward, scored, steps = training.nn_forward, [], []
        step = training.adam_step

        def failing_forward(net, x, *, workspace):
            scored.append(net)
            if len(scored) == 2:
                raise InputRangeError("epoch 2's held-out forward")
            return forward(net, x, workspace=workspace)

        def counted_step(net, grads, state, cfg):
            steps.append(state.step)
            step(net, grads, state, cfg)

        monkeypatch.setattr(training, "nn_forward", failing_forward)
        monkeypatch.setattr(training, "adam_step", counted_step)
        before = threading.active_count()
        log = TrainLog()
        with pytest.raises(InputRangeError, match="epoch 2's held-out forward"):
            self.train_short_pa_phase(pa_pairs, log)
        assert [(r.phase, r.epoch) for r in log.records] == [("pa_model", 1)]
        # the third epoch still trains and is scored before the error is raised
        assert len(steps) == 3 * self.STEPS_PER_EPOCH and len(scored) == 3
        assert threading.active_count() == before


class TestWorkspacePerThread:
    def test_steps_and_scores_use_different_workspaces(self, pa_pairs, monkeypatch):
        seen = []  # (kind, workspace) per call, in call order on either thread

        def recorded(kind, kernel):
            def call(*args, workspace):
                seen.append((kind, workspace))
                return kernel(*args, workspace=workspace)
            return call

        for name in ("nn_backward", "nn_backward_through_frozen"):
            monkeypatch.setattr(training, name, recorded("step", getattr(training, name)))
        monkeypatch.setattr(training, "nn_forward", recorded("score", training.nn_forward))
        cfg = TrainConfig(seed=0)
        train, val = _cut(pa_pairs, 0, 2500), _cut(pa_pairs, 2500, 5000)
        log = TrainLog()
        pa_net, _ = train_pa_nn(train, glorot_net(1, 6, seed=0), cfg, val_pairs=val, epochs=2,
                                iteration=1, log=log)
        pa_phase = seen[:]
        seen.clear()
        train_dpd_nn(glorot_net(1, 6, seed=5), pa_net, train[0], cfg, x_val=val[0], epochs=2,
                     iteration=1, log=log)
        for phase in (pa_phase, seen):
            steps = {id(w) for kind, w in phase if kind == "step"}
            scores = {id(w) for kind, w in phase if kind == "score"}
            assert len(steps) == 1 and len(scores) == 1
            assert steps != scores


class TestShuffleOrder:
    def test_orders_are_the_permutations_drawn_inline(self, pa_pairs, monkeypatch):
        # the phase's helper draws each epoch's order one epoch ahead, from the same generator
        seen = {0: [], 1: []}

        def recording_backward(net, x, target, *, workspace, _original=training.nn_backward):
            seen[0].append(x.samples.copy())
            return _original(net, x, target, workspace=workspace)

        def recording_frozen(dpd, pa_model, x, *, workspace,
                             _original=training.nn_backward_through_frozen):
            seen[1].append(x.samples.copy())
            return _original(dpd, pa_model, x, workspace=workspace)

        monkeypatch.setattr(training, "nn_backward", recording_backward)
        monkeypatch.setattr(training, "nn_backward_through_frozen", recording_frozen)
        cfg, iteration, epochs = TrainConfig(seed=3, batch_size=1000), 2, 3
        train, val = _cut(pa_pairs, 0, 2500), _cut(pa_pairs, 2500, 5000)
        log = TrainLog()
        pa_net, _ = train_pa_nn(train, glorot_net(1, 6, seed=0), cfg, val_pairs=val,
                                epochs=epochs, iteration=iteration, log=log)
        train_dpd_nn(glorot_net(1, 6, seed=5), pa_net, train[0], cfg, x_val=val[0],
                     epochs=epochs, iteration=iteration, log=log)
        for phase, batches in seen.items():
            rng = np.random.default_rng([cfg.seed, 10 + iteration, phase])
            orders = [rng.permutation(2500) for _ in range(epochs)]
            assert len(batches) == 3 * epochs
            assert np.concatenate(batches).tobytes() == train[0].samples[
                np.concatenate(orders)].tobytes()


class TestRunFullTraining:
    def test_default_schedule_log_structure_and_descent(self):
        dpd, log = run_full_training(load_default_pa(), HEADLINE_SHAPES, TrainConfig(), FRAMES)
        pa_recs = [r for r in log.records if r.phase == "pa_model"]
        dpd_recs = [r for r in log.records if r.phase == "dpd"]
        assert len(pa_recs) == 25 and len(dpd_recs) == 25
        # per-iteration epoch numbering restarts; iteration tags follow the schedule
        assert [r.epoch for r in pa_recs] == list(range(1, 21)) + list(range(1, 6))
        assert [r.iteration for r in dpd_recs] == [1] * 20 + [2] * 5
        # interleaving: each iteration runs its amplifier phase first
        phases = [(r.iteration, r.phase) for r in log.records]
        assert phases.index((1, "dpd")) > phases.index((1, "pa_model"))
        assert phases.index((2, "pa_model")) > phases.index((1, "dpd"))
        # iteration-1 descent bounds
        it1_pa = [r for r in pa_recs if r.iteration == 1]
        it1_dpd = [r for r in dpd_recs if r.iteration == 1]
        assert it1_pa[-1].train_mse < 0.5 * it1_pa[0].train_mse
        assert it1_dpd[-1].train_mse < 0.1 * it1_dpd[0].train_mse
        # and the headline outcome: the predistorter helps on held-out data
        _, x_val = generate_ofdm(VAL_WAVEFORM)
        pa = load_default_pa()
        base = aclr_db_gated(pa.apply(x_val), VAL_WAVEFORM)
        linearized = aclr_db_gated(load_default_pa().apply(nn_forward(dpd, x_val)), VAL_WAVEFORM)
        assert linearized < base - 5.0

    def test_linear_pa_leaves_evm_unchanged(self):
        cfg = TrainConfig(outer_iterations=1, epochs_per_iteration=(25,), batch_size=128)
        pa = linear_pa()
        dpd, _ = run_full_training(pa, ((1, 6), (1, 6)), cfg, FRAMES)
        grid, x_val = generate_ofdm(VAL_WAVEFORM)
        y0 = pa.apply(x_val)
        evm0 = evm_percent(
            grid,
            demodulate_ofdm(IqSignal(y0.samples / pa.core.theta[0], y0.sample_rate_hz), VAL_WAVEFORM),
        )
        x_hat = nn_forward(dpd, x_val)
        y1 = pa.apply(x_hat)
        g = estimate_gain(x_hat, y1)
        evm1 = evm_percent(
            grid, demodulate_ofdm(IqSignal(y1.samples / g, y1.sample_rate_hz), VAL_WAVEFORM)
        )
        assert abs(evm1 - evm0) < 0.1

    def test_second_iteration_does_not_hurt_aclr(self):
        _, x_val = generate_ofdm(VAL_WAVEFORM)
        results = []
        for cfg in (
            TrainConfig(outer_iterations=1, epochs_per_iteration=(8,)),
            TrainConfig(outer_iterations=2, epochs_per_iteration=(8, 4)),
        ):
            dpd, _ = run_full_training(load_default_pa(), HEADLINE_SHAPES, cfg, FRAMES)
            y = load_default_pa().apply(nn_forward(dpd, x_val))
            results.append(aclr_db_gated(y, VAL_WAVEFORM))
        assert results[1] <= results[0]

    def test_zero_iterations_return_the_passthrough(self, monkeypatch):
        class UntouchablePa:
            def apply(self, signal):
                raise AssertionError("the amplifier must not be driven")

        def no_frames(cfg):
            raise AssertionError("no frame is needed")

        monkeypatch.setattr(training, "generate_ofdm", no_frames)
        cfg = TrainConfig(outer_iterations=0, epochs_per_iteration=())
        net, log = run_full_training(UntouchablePa(), ((1, 6), (1, 8)), cfg, FRAMES)
        zero = DenseNet.zeros(1, 6)
        assert log.records == []
        for a, b in zip(net.weights + net.biases, zero.weights + zero.biases):
            assert a.tobytes() == b.tobytes()

    def test_rerun_reproduces_weights_bitwise(self):
        cfg = TrainConfig(outer_iterations=1, epochs_per_iteration=(3,), seed=5)
        nets = [
            run_full_training(load_default_pa(), ((1, 6), (1, 8)), cfg, FRAMES)[0]
            for _ in range(2)
        ]
        for w0, w1 in zip(nets[0].weights, nets[1].weights):
            np.testing.assert_array_equal(w0, w1)
        for b0, b1 in zip(nets[0].biases, nets[1].biases):
            np.testing.assert_array_equal(b0, b1)

    def test_model_phase_data_is_freed_before_the_predistorter_phase(self, monkeypatch):
        # the predistorter phase holds only the frames it reads: the amplifier's
        # outputs and the model phase's pairs are freed once train_pa_nn returns
        pa, amplified, watched, checked = load_default_pa(), [], {}, []

        class WatchedPa:
            def apply(self, signal):
                y = pa.apply(signal)
                amplified.append(weakref.ref(y))
                return y

        def watched_pa_phase(pairs, net, cfg, *, val_pairs, iteration, **kwargs):
            # in iteration 1 the model's inputs are the raw frames the next phase reads
            signals = [*pairs, *val_pairs] if iteration > 1 else [pairs[1], val_pairs[1]]
            watched[iteration] = [weakref.ref(obj) for s in signals for obj in (s, s.samples)]
            return train_pa_nn(pairs, net, cfg, val_pairs=val_pairs, iteration=iteration,
                               **kwargs)

        def checked_dpd_phase(*args, iteration, **kwargs):
            live = [ref for ref in amplified + watched[iteration] if ref() is not None]
            assert live == []
            checked.append(iteration)
            return train_dpd_nn(*args, iteration=iteration, **kwargs)

        monkeypatch.setattr(training, "train_pa_nn", watched_pa_phase)
        monkeypatch.setattr(training, "train_dpd_nn", checked_dpd_phase)
        cfg = TrainConfig(outer_iterations=2, epochs_per_iteration=(1, 1))
        run_full_training(WatchedPa(), ((1, 6), (1, 6)), cfg, FRAMES)
        assert checked == [1, 2] and len(amplified) == 4

    def test_overflowing_learning_rate_raises_divergence(self):
        cfg = TrainConfig(outer_iterations=1, epochs_per_iteration=(2,), learning_rate=1e160)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError):
                run_full_training(load_default_pa(), ((1, 4), (1, 4)), cfg, FRAMES)
